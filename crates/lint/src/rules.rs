//! The four workspace invariant rules, evaluated over a lexed token stream.
//!
//! Everything here is deliberately token-level: no type inference, no
//! grammar. Each rule over-approximates its bug class and the repo buys
//! precision back two ways — per-file name tables that track which
//! identifiers were *declared* as hash containers, and explicit audited
//! `// lint:allow(rule): reason` suppressions for the survivors (see
//! `crate::suppress`).

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// Rule identifiers, also the names accepted by `lint:allow(...)`.
pub const NONDET_FLOAT_REDUCTION: &str = "nondet-float-reduction";
pub const NAN_UNSAFE_SORT: &str = "nan-unsafe-sort";
pub const TRUNCATING_CAST: &str = "truncating-cast";
pub const PANIC_IN_ENGINE: &str = "panic-in-engine";
/// Meta-rules emitted by the suppression checker itself.
pub const STALE_ALLOW: &str = "stale-allow";
pub const BAD_ALLOW: &str = "bad-allow";

/// Every real (suppressible) rule.
pub const RULES: &[&str] =
    &[NONDET_FLOAT_REDUCTION, NAN_UNSAFE_SORT, TRUNCATING_CAST, PANIC_IN_ENGINE];

/// The netsim hot-path files rule `panic-in-engine` applies to.
const HOT_PATH_SUFFIXES: &[&str] = &[
    "netsim/src/engine.rs",
    "netsim/src/arena.rs",
    "netsim/src/fluid.rs",
    "netsim/src/shared_engine.rs",
];

/// Iterator sources on a hash container whose order is randomized per
/// process (`RandomState`).
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Order-sensitive float reductions.
const REDUCERS: &[&str] = &["sum", "product", "fold"];

/// Comparator-taking methods rule `nan-unsafe-sort` inspects.
const SORTERS: &[&str] = &["sort_by", "sort_unstable_by", "max_by", "min_by", "binary_search_by"];

/// A raw rule hit, before suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

/// Per-file token analysis shared by all rules.
pub struct FileAnalysis<'a> {
    toks: &'a [Tok],
    /// Token is inside a `#[cfg(test)]` / `#[test]` item.
    test: Vec<bool>,
    /// Token is inside a `debug_assert*!(..)` argument list.
    guarded: Vec<bool>,
    /// 1-based line ranges of test items (for suppression bookkeeping).
    test_lines: Vec<(usize, usize)>,
    /// Struct fields declared in this file with a HashMap/HashSet type.
    hash_fields: BTreeSet<String>,
    /// `let` bindings / fn params with a HashMap/HashSet type or initializer.
    hash_locals: BTreeSet<String>,
    /// Same, additionally including BTreeMap/BTreeSet (whose `Index` also
    /// panics on absent keys) — used by the map-indexing check.
    map_fields: BTreeSet<String>,
    map_locals: BTreeSet<String>,
}

fn is_hash_ty(name: &str) -> bool {
    name == "HashMap" || name == "HashSet"
}

fn is_map_ty(name: &str) -> bool {
    is_hash_ty(name) || name == "BTreeMap" || name == "BTreeSet"
}

/// Find the matching closer for the opener at `i` (same punct pair).
/// Returns `toks.len() - 1` on unbalanced input rather than panicking.
fn match_close(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Find the matching opener for the closer at `i`, scanning backwards.
fn match_open(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for j in (0..=i).rev() {
        if toks[j].is_punct(close) {
            depth += 1;
        } else if toks[j].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    0
}

/// Combined nesting depth of `()`, `[]`, `{}` deltas for one token.
fn depth_delta(t: &Tok) -> isize {
    match t.kind {
        TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => 1,
        TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => -1,
        _ => 0,
    }
}

impl<'a> FileAnalysis<'a> {
    pub fn new(toks: &'a [Tok]) -> Self {
        let mut a = FileAnalysis {
            toks,
            test: vec![false; toks.len()],
            guarded: vec![false; toks.len()],
            test_lines: Vec::new(),
            hash_fields: BTreeSet::new(),
            hash_locals: BTreeSet::new(),
            map_fields: BTreeSet::new(),
            map_locals: BTreeSet::new(),
        };
        a.mark_test_items();
        a.mark_debug_asserts();
        a.collect_fields();
        a.collect_locals();
        a
    }

    /// 1-based line ranges of `#[cfg(test)]` / `#[test]` items.
    pub fn test_line_ranges(&self) -> &[(usize, usize)] {
        &self.test_lines
    }

    fn mark_test_items(&mut self) {
        let toks = self.toks;
        let mut i = 0usize;
        while i + 1 < toks.len() {
            if !(toks[i].is_punct('#') && toks[i + 1].is_punct('[')) {
                i += 1;
                continue;
            }
            let close = match_close(toks, i + 1, '[', ']');
            // `test` anywhere in the attribute marks a test item, except the
            // `not(test)` form (`#[cfg(not(test))]` is production code).
            let mut is_test = false;
            for j in i + 2..close {
                if toks[j].is_ident("test") {
                    let negated =
                        j >= 2 && toks[j - 1].is_punct('(') && toks[j - 2].is_ident("not");
                    if !negated {
                        is_test = true;
                    }
                }
            }
            if !is_test {
                i = close + 1;
                continue;
            }
            // Skip any further attributes, then the annotated item: either a
            // braced body or a `;`-terminated declaration.
            let mut k = close + 1;
            while k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
                k = match_close(toks, k + 1, '[', ']') + 1;
            }
            let mut depth = 0isize;
            let mut end = toks.len().saturating_sub(1);
            let mut j = k;
            while j < toks.len() {
                if toks[j].is_punct('{') && depth == 0 {
                    end = match_close(toks, j, '{', '}');
                    break;
                }
                if toks[j].is_punct(';') && depth == 0 {
                    end = j;
                    break;
                }
                depth += depth_delta(&toks[j]);
                j += 1;
            }
            for flag in &mut self.test[i..=end] {
                *flag = true;
            }
            self.test_lines.push((toks[i].line, toks[end].line));
            i = end + 1;
        }
    }

    fn mark_debug_asserts(&mut self) {
        let toks = self.toks;
        let mut i = 0usize;
        while i + 2 < toks.len() {
            if toks[i].kind == TokKind::Ident
                && toks[i].text.starts_with("debug_assert")
                && toks[i + 1].is_punct('!')
                && toks[i + 2].is_punct('(')
            {
                let close = match_close(toks, i + 2, '(', ')');
                for flag in &mut self.guarded[i..=close] {
                    *flag = true;
                }
                i = close + 1;
                continue;
            }
            i += 1;
        }
    }

    /// Record hash/map-typed fields of structs declared in this file.
    fn collect_fields(&mut self) {
        let toks = self.toks;
        let mut i = 0usize;
        while i + 1 < toks.len() {
            if !toks[i].is_ident("struct") {
                i += 1;
                continue;
            }
            // struct Name <generics>? where..? { fields } | (..); | ;
            let mut j = i + 2;
            let mut open = None;
            let mut angle = 0isize;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('<') => angle += 1,
                    // `->` only occurs inside fn-pointer field types, which
                    // are themselves inside the braces we are looking for.
                    TokKind::Punct('>') => angle -= 1,
                    TokKind::Punct('{') if angle == 0 => {
                        open = Some(j);
                        break;
                    }
                    TokKind::Punct(';') | TokKind::Punct('(') if angle == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = open else {
                i = j.max(i + 1);
                continue;
            };
            let close = match_close(toks, open, '{', '}');
            // Fields: `name: Type,` at relative depth 0 within the braces.
            let mut depth = 0isize;
            let mut k = open + 1;
            while k < close {
                let d = depth_delta(&toks[k]);
                if depth == 0
                    && d == 0
                    && toks[k].kind == TokKind::Ident
                    && k + 1 < close
                    && toks[k + 1].is_punct(':')
                    && !toks[k].is_ident("pub")
                {
                    // Type runs to the `,` at depth 0 (or the region close).
                    let name = toks[k].text.clone();
                    let mut t = k + 2;
                    let mut tdepth = 0isize;
                    let mut hash = false;
                    let mut map = false;
                    while t < close {
                        if tdepth == 0 && toks[t].is_punct(',') {
                            break;
                        }
                        if toks[t].kind == TokKind::Ident {
                            hash |= is_hash_ty(&toks[t].text);
                            map |= is_map_ty(&toks[t].text);
                        }
                        tdepth += depth_delta(&toks[t]);
                        t += 1;
                    }
                    if hash {
                        self.hash_fields.insert(name.clone());
                    }
                    if map {
                        self.map_fields.insert(name);
                    }
                    k = t;
                    continue;
                }
                depth += d;
                k += 1;
            }
            i = close + 1;
        }
    }

    /// Record hash/map-typed `let` bindings and fn parameters, plus locals
    /// initialized from `HashMap::..` constructors or from functions in this
    /// file whose return type mentions a hash container.
    fn collect_locals(&mut self) {
        let toks = self.toks;
        // Pass 1: functions returning hash containers.
        let mut hash_fns: BTreeSet<String> = BTreeSet::new();
        let mut i = 0usize;
        while i + 2 < toks.len() {
            if toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident {
                let name = toks[i + 1].text.clone();
                let mut j = i + 2;
                if toks[j].is_punct('<') {
                    let mut angle = 0isize;
                    while j < toks.len() {
                        if toks[j].is_punct('<') {
                            angle += 1;
                        } else if toks[j].is_punct('>') {
                            angle -= 1;
                            if angle == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
                if j < toks.len() && toks[j].is_punct('(') {
                    let pclose = match_close(toks, j, '(', ')');
                    self.collect_params(j + 1, pclose);
                    // Return type: `-> .. {` (or `;` / `where`).
                    let mut t = pclose + 1;
                    if t + 1 < toks.len() && toks[t].is_punct('-') && toks[t + 1].is_punct('>') {
                        t += 2;
                        let mut tdepth = 0isize;
                        while t < toks.len() {
                            if tdepth == 0
                                && (toks[t].is_punct('{')
                                    || toks[t].is_punct(';')
                                    || toks[t].is_ident("where"))
                            {
                                break;
                            }
                            if toks[t].kind == TokKind::Ident && is_hash_ty(&toks[t].text) {
                                hash_fns.insert(name.clone());
                            }
                            tdepth += depth_delta(&toks[t]);
                            t += 1;
                        }
                    }
                    i = pclose + 1;
                    continue;
                }
            }
            i += 1;
        }
        // Pass 2: let bindings.
        let mut i = 0usize;
        while i + 1 < toks.len() {
            if !toks[i].is_ident("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j >= toks.len() || toks[j].kind != TokKind::Ident {
                i = j;
                continue;
            }
            let name = toks[j].text.clone();
            let mut k = j + 1;
            let mut hash = false;
            let mut map = false;
            // Optional `: Type` up to `=` or `;` at depth 0.
            if k < toks.len() && toks[k].is_punct(':') {
                k += 1;
                let mut tdepth = 0isize;
                while k < toks.len() {
                    if tdepth == 0 && (toks[k].is_punct('=') || toks[k].is_punct(';')) {
                        break;
                    }
                    if toks[k].kind == TokKind::Ident {
                        hash |= is_hash_ty(&toks[k].text);
                        map |= is_map_ty(&toks[k].text);
                    }
                    tdepth += depth_delta(&toks[k]);
                    k += 1;
                }
            }
            // Optional `= init` up to `;` at depth 0: constructor calls and
            // calls of known hash-returning functions.
            if k < toks.len() && toks[k].is_punct('=') {
                let mut t = k + 1;
                let first = t;
                let mut tdepth = 0isize;
                while t < toks.len() {
                    if tdepth == 0 && toks[t].is_punct(';') {
                        break;
                    }
                    if toks[t].kind == TokKind::Ident
                        && t + 2 < toks.len()
                        && toks[t + 1].is_punct(':')
                        && toks[t + 2].is_punct(':')
                    {
                        hash |= is_hash_ty(&toks[t].text);
                        map |= is_map_ty(&toks[t].text);
                    }
                    if t == first
                        && toks[t].kind == TokKind::Ident
                        && t + 1 < toks.len()
                        && toks[t + 1].is_punct('(')
                        && hash_fns.contains(&toks[t].text)
                    {
                        hash = true;
                        map = true;
                    }
                    tdepth += depth_delta(&toks[t]);
                    t += 1;
                }
            }
            if hash {
                self.hash_locals.insert(name.clone());
            }
            if map {
                self.map_locals.insert(name);
            }
            i = k;
        }
    }

    /// Record hash/map-typed fn parameters (`name: &HashMap<..>`) as locals.
    fn collect_params(&mut self, start: usize, end: usize) {
        let toks = self.toks;
        let mut depth = 0isize;
        let mut k = start;
        while k < end {
            let d = depth_delta(&toks[k]);
            if depth == 0
                && d == 0
                && toks[k].kind == TokKind::Ident
                && k + 1 < end
                && toks[k + 1].is_punct(':')
            {
                let name = toks[k].text.clone();
                let mut t = k + 2;
                let mut tdepth = 0isize;
                let mut hash = false;
                let mut map = false;
                while t < end {
                    if tdepth == 0 && toks[t].is_punct(',') {
                        break;
                    }
                    if toks[t].kind == TokKind::Ident {
                        hash |= is_hash_ty(&toks[t].text);
                        map |= is_map_ty(&toks[t].text);
                    }
                    tdepth += depth_delta(&toks[t]);
                    t += 1;
                }
                if hash {
                    self.hash_locals.insert(name.clone());
                }
                if map {
                    self.map_locals.insert(name);
                }
                k = t;
                continue;
            }
            depth += d;
            k += 1;
        }
    }

    /// Resolve whether the identifier at `idx` (a receiver being iterated or
    /// indexed) names a container in `fields`/`locals`. A `.`-preceded name
    /// is a field access of *some* receiver — looked up in the field table
    /// only; a bare name checks both.
    fn resolves(&self, idx: usize, fields: &BTreeSet<String>, locals: &BTreeSet<String>) -> bool {
        let name = &self.toks[idx].text;
        if idx >= 1 && self.toks[idx - 1].is_punct('.') {
            fields.contains(name)
        } else {
            locals.contains(name) || fields.contains(name)
        }
    }

    fn is_hash_receiver(&self, idx: usize) -> bool {
        self.resolves(idx, &self.hash_fields, &self.hash_locals)
    }

    fn is_map_receiver(&self, idx: usize) -> bool {
        self.resolves(idx, &self.map_fields, &self.map_locals)
    }

    /// Walk a method chain starting after token `i` (the last token of the
    /// current receiver expression). Returns the token index of the first
    /// order-sensitive reducer (`sum`/`product`/`fold`) reached, if any.
    fn chain_reducer(&self, mut i: usize) -> Option<usize> {
        let toks = self.toks;
        loop {
            if i + 1 < toks.len() && toks[i + 1].is_punct('?') {
                i += 1;
                continue;
            }
            if !(i + 2 < toks.len() && toks[i + 1].is_punct('.')) {
                return None;
            }
            // Tuple-index steps like `.0`.
            if toks[i + 2].kind == TokKind::Int {
                i += 2;
                continue;
            }
            if toks[i + 2].kind != TokKind::Ident {
                return None;
            }
            let m = i + 2;
            if REDUCERS.iter().any(|r| toks[m].is_ident(r)) {
                return Some(m);
            }
            let mut j = m + 1;
            // Optional turbofish `::<..>`.
            if j + 2 < toks.len()
                && toks[j].is_punct(':')
                && toks[j + 1].is_punct(':')
                && toks[j + 2].is_punct('<')
            {
                let mut angle = 0isize;
                j += 2;
                while j < toks.len() {
                    if toks[j].is_punct('<') {
                        angle += 1;
                    } else if toks[j].is_punct('>') {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if j < toks.len() && toks[j].is_punct('(') {
                i = match_close(toks, j, '(', ')');
            } else {
                // Field access in the middle of a chain: keep walking.
                i = m;
            }
        }
    }

    /// Rule 1: HashMap/HashSet iteration feeding a float reduction.
    fn rule_nondet_float_reduction(&self, out: &mut Vec<RawFinding>) {
        let toks = self.toks;
        // (a) Method chains: `name.values()...sum()` etc.
        for idx in 0..toks.len() {
            if self.test[idx] {
                continue;
            }
            if toks[idx].kind != TokKind::Ident
                || idx + 3 >= toks.len()
                || !toks[idx + 1].is_punct('.')
                || toks[idx + 2].kind != TokKind::Ident
                || !toks[idx + 3].is_punct('(')
            {
                continue;
            }
            if !HASH_ITER_METHODS.iter().any(|m| toks[idx + 2].is_ident(m)) {
                continue;
            }
            if !self.is_hash_receiver(idx) {
                continue;
            }
            let close = match_close(toks, idx + 3, '(', ')');
            if let Some(r) = self.chain_reducer(close) {
                out.push(RawFinding {
                    line: toks[r].line,
                    rule: NONDET_FLOAT_REDUCTION,
                    message: format!(
                        "`.{}()` over `{}`'s HashMap/HashSet iteration order is \
                         nondeterministic run-over-run for float reductions; iterate a \
                         BTreeMap, the arena's key-sorted ids, or collect-and-sort first",
                        toks[r].text, toks[idx].text
                    ),
                });
            }
        }
        // (b) `for .. in <hash>` loops accumulating with `+=`-style ops.
        let mut i = 0usize;
        while i < toks.len() {
            if self.test[i] || !toks[i].is_ident("for") {
                i += 1;
                continue;
            }
            // `for<'a>` higher-ranked bounds are not loops.
            if i + 1 < toks.len() && toks[i + 1].is_punct('<') {
                i += 2;
                continue;
            }
            // Pattern up to `in` at depth 0.
            let mut j = i + 1;
            let mut depth = 0isize;
            let mut found_in = None;
            while j < toks.len() {
                if depth == 0 && toks[j].is_ident("in") {
                    found_in = Some(j);
                    break;
                }
                if depth == 0 && (toks[j].is_punct('{') || toks[j].is_punct(';')) {
                    break;
                }
                depth += depth_delta(&toks[j]);
                j += 1;
            }
            let Some(in_idx) = found_in else {
                i += 1;
                continue;
            };
            // Iterated expression up to `{` at depth 0.
            let mut e = in_idx + 1;
            while e < toks.len() && (toks[e].is_punct('&') || toks[e].is_ident("mut")) {
                e += 1;
            }
            let mut body_open = None;
            let mut k = e;
            let mut kdepth = 0isize;
            while k < toks.len() {
                if kdepth == 0 && toks[k].is_punct('{') {
                    body_open = Some(k);
                    break;
                }
                kdepth += depth_delta(&toks[k]);
                k += 1;
            }
            let (Some(body_open), true) = (body_open, e < toks.len()) else {
                i = in_idx + 1;
                continue;
            };
            // Root of the iterated expression: `name...` or `self.name...`.
            let root = if toks[e].is_ident("self")
                && e + 2 < toks.len()
                && toks[e + 1].is_punct('.')
                && toks[e + 2].kind == TokKind::Ident
            {
                Some(e + 2)
            } else if toks[e].kind == TokKind::Ident {
                Some(e)
            } else {
                None
            };
            let is_hash = root.is_some_and(|r| self.is_hash_receiver(r));
            if !is_hash {
                i = body_open + 1;
                continue;
            }
            let body_close = match_close(toks, body_open, '{', '}');
            for b in body_open + 1..body_close {
                // `+=` / `-=` / `*=` / `/=`: order-sensitive for floats.
                // (`&= |= ^=` are exact/commutative and stay unflagged.)
                let compound = matches!(
                    toks[b].kind,
                    TokKind::Punct('+')
                        | TokKind::Punct('-')
                        | TokKind::Punct('*')
                        | TokKind::Punct('/')
                ) && b + 1 < body_close
                    && toks[b + 1].is_punct('=');
                if compound {
                    out.push(RawFinding {
                        line: toks[b].line,
                        rule: NONDET_FLOAT_REDUCTION,
                        message: format!(
                            "accumulation inside `for` over `{}`'s HashMap/HashSet \
                             iteration order is nondeterministic for floats; iterate in \
                             sorted order (or lint:allow with the reason it is exact)",
                            toks[root.unwrap_or(e)].text
                        ),
                    });
                }
            }
            i = body_open + 1;
        }
    }

    /// Rule 2: `partial_cmp(..).unwrap()` inside a comparator closure.
    fn rule_nan_unsafe_sort(&self, out: &mut Vec<RawFinding>) {
        let toks = self.toks;
        for idx in 0..toks.len() {
            if self.test[idx] {
                continue;
            }
            if toks[idx].kind != TokKind::Ident
                || !SORTERS.iter().any(|s| toks[idx].is_ident(s))
                || idx + 1 >= toks.len()
                || !toks[idx + 1].is_punct('(')
            {
                continue;
            }
            let close = match_close(toks, idx + 1, '(', ')');
            for j in idx + 2..close {
                if toks[j].is_ident("partial_cmp") && j + 1 < close && toks[j + 1].is_punct('(') {
                    let pc = match_close(toks, j + 1, '(', ')');
                    let unwrapped = pc + 2 < toks.len()
                        && toks[pc + 1].is_punct('.')
                        && (toks[pc + 2].is_ident("unwrap") || toks[pc + 2].is_ident("expect"));
                    if unwrapped {
                        out.push(RawFinding {
                            line: toks[j].line,
                            rule: NAN_UNSAFE_SORT,
                            message: format!(
                                "`partial_cmp().{}()` inside `{}` panics on NaN keys; \
                                 use `f64::total_cmp`",
                                toks[pc + 2].text,
                                toks[idx].text
                            ),
                        });
                    }
                }
            }
        }
    }

    /// Rule 3: narrowing `as` casts in id/arena construction without a
    /// visible bound. `expr.min(..) as u32`, `expr.clamp(..) as u32`, and
    /// literal casts are treated as guarded.
    fn rule_truncating_cast(&self, out: &mut Vec<RawFinding>) {
        let toks = self.toks;
        for idx in 1..toks.len() {
            if self.test[idx] || self.guarded[idx] {
                continue;
            }
            if !toks[idx].is_ident("as") || idx + 1 >= toks.len() {
                continue;
            }
            let target = &toks[idx + 1];
            let narrow =
                target.is_ident("u32") || target.is_ident("u16") || target.is_ident("LinkId");
            if !narrow {
                continue;
            }
            // Guards: float/int literal sources are visibly bounded, and a
            // `.min(..)`/`.clamp(..)` call immediately before the cast is an
            // explicit bound.
            let prev = &toks[idx - 1];
            if prev.kind == TokKind::Float || prev.kind == TokKind::Int {
                continue;
            }
            if prev.is_punct(')') {
                let open = match_open(toks, idx - 1, '(', ')');
                if open >= 2
                    && toks[open - 2].is_punct('.')
                    && (toks[open - 1].is_ident("min") || toks[open - 1].is_ident("clamp"))
                {
                    continue;
                }
            }
            out.push(RawFinding {
                line: toks[idx].line,
                rule: TRUNCATING_CAST,
                message: format!(
                    "`as {}` truncates silently on overflow; use the checked \
                     `dense_u32`/`JobId::from_usize` constructors, `try_into`, or bound \
                     the value with `.min()`/`.clamp()` first",
                    target.text
                ),
            });
        }
    }

    /// Rule 4: implicit panics in the netsim hot path.
    fn rule_panic_in_engine(&self, out: &mut Vec<RawFinding>) {
        let toks = self.toks;
        for idx in 0..toks.len() {
            if self.test[idx] || self.guarded[idx] {
                continue;
            }
            // `.unwrap()` / `.expect(..)`.
            if idx >= 1
                && toks[idx - 1].is_punct('.')
                && (toks[idx].is_ident("unwrap") || toks[idx].is_ident("expect"))
                && idx + 1 < toks.len()
                && toks[idx + 1].is_punct('(')
            {
                out.push(RawFinding {
                    line: toks[idx].line,
                    rule: PANIC_IN_ENGINE,
                    message: format!(
                        "`.{}()` in the netsim hot path; handle the case or add an \
                         audited lint:allow stating the invariant that rules it out",
                        toks[idx].text
                    ),
                });
                continue;
            }
            // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
            let panicky = ["panic", "unreachable", "todo", "unimplemented"];
            if panicky.iter().any(|p| toks[idx].is_ident(p))
                && idx + 1 < toks.len()
                && toks[idx + 1].is_punct('!')
            {
                out.push(RawFinding {
                    line: toks[idx].line,
                    rule: PANIC_IN_ENGINE,
                    message: format!(
                        "`{}!` in the netsim hot path; handle the case or add an \
                         audited lint:allow stating the invariant that rules it out",
                        toks[idx].text
                    ),
                });
                continue;
            }
            // Map indexing `m[..]`: panics on absent keys.
            if toks[idx].kind == TokKind::Ident
                && idx + 1 < toks.len()
                && toks[idx + 1].is_punct('[')
                && self.is_map_receiver(idx)
            {
                out.push(RawFinding {
                    line: toks[idx].line,
                    rule: PANIC_IN_ENGINE,
                    message: format!(
                        "indexing map `{}` panics on absent keys in the netsim hot \
                         path; use `.get()` or add an audited lint:allow",
                        toks[idx].text
                    ),
                });
            }
        }
    }

    /// Run every rule applicable to `path` (workspace-relative, `/`-separated).
    pub fn run(&self, path: &str) -> Vec<RawFinding> {
        let mut out = Vec::new();
        self.rule_nondet_float_reduction(&mut out);
        self.rule_nan_unsafe_sort(&mut out);
        self.rule_truncating_cast(&mut out);
        if HOT_PATH_SUFFIXES.iter().any(|s| path.ends_with(s)) {
            self.rule_panic_in_engine(&mut out);
        }
        out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        out
    }
}
