//! Fixture corpus for the four rules plus the suppression meta-rules.
//!
//! Each known-bad file must produce *exactly* the expected `(rule, line)`
//! findings — no more (false positives break CI on clean code), no fewer
//! (false negatives let the bug classes back in). Known-good files must be
//! silent. The final test lints the real workspace and asserts it is clean,
//! which is the property the CI `lint` job gates on.

use std::path::Path;
use topoopt_lint::{lint_source, lint_workspace, Finding};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn pairs(findings: &[Finding]) -> Vec<(String, usize)> {
    findings.iter().map(|f| (f.rule.clone(), f.line)).collect()
}

/// Lint fixture `name` under display path `lint_path` and assert the exact
/// unsuppressed and suppressed `(rule, line)` lists.
fn expect(name: &str, lint_path: &str, want: &[(&str, usize)], want_suppressed: &[(&str, usize)]) {
    let src = fixture(name);
    let (findings, suppressed) = lint_source(lint_path, &src);
    let to_owned = |xs: &[(&str, usize)]| -> Vec<(String, usize)> {
        xs.iter().map(|(r, l)| (r.to_string(), *l)).collect()
    };
    assert_eq!(pairs(&findings), to_owned(want), "unsuppressed findings for {name}: {findings:#?}");
    assert_eq!(
        pairs(&suppressed),
        to_owned(want_suppressed),
        "suppressed findings for {name}: {suppressed:#?}"
    );
}

#[test]
fn nondet_float_reduction_known_bad() {
    let rule = "nondet-float-reduction";
    expect(
        "nondet_bad.rs",
        "nondet_bad.rs",
        &[
            (rule, 8),  // the PR-5 carried_bytes bug class: values().sum()
            (rule, 14), // `+=` inside `for` over a HashMap
            (rule, 20), // into_values().fold(..)
            (rule, 29), // HashSet field via `self.`
            (rule, 35), // collect-then-reduce in one chain
            (rule, 42), // local from a `HashMap::new()` constructor
            (rule, 54), // local from a hash-returning fn in this file
        ],
        &[],
    );
}

#[test]
fn nondet_float_reduction_known_good() {
    expect("nondet_good.rs", "nondet_good.rs", &[], &[]);
}

#[test]
fn nan_unsafe_sort_known_bad() {
    let rule = "nan-unsafe-sort";
    expect(
        "nan_sort_bad.rs",
        "nan_sort_bad.rs",
        &[(rule, 5), (rule, 9), (rule, 13), (rule, 17), (rule, 21)],
        &[],
    );
}

#[test]
fn nan_unsafe_sort_known_good() {
    expect("nan_sort_good.rs", "nan_sort_good.rs", &[], &[]);
}

#[test]
fn truncating_cast_known_bad() {
    let rule = "truncating-cast";
    expect("cast_bad.rs", "cast_bad.rs", &[(rule, 7), (rule, 11), (rule, 15), (rule, 19)], &[]);
}

#[test]
fn truncating_cast_known_good() {
    expect("cast_good.rs", "cast_good.rs", &[], &[]);
}

#[test]
fn panic_in_engine_known_bad_on_hot_path() {
    let rule = "panic-in-engine";
    // Every hot-path file gets the rule, not just the one the fixture is
    // named after.
    for hot_path in [
        "crates/netsim/src/engine.rs",
        "crates/netsim/src/arena.rs",
        "crates/netsim/src/fluid.rs",
        "crates/netsim/src/shared_engine.rs",
    ] {
        expect(
            "netsim/src/engine.rs",
            hot_path,
            &[
                (rule, 13), // .unwrap()
                (rule, 14), // .expect(..)
                (rule, 16), // panic!
                (rule, 22), // map indexing
                (rule, 28), // unreachable!
            ],
            &[(rule, 47)], // audited allow keeps the expect visible but green
        );
    }
}

#[test]
fn panic_in_engine_is_path_scoped() {
    // The same source outside the hot path produces no panic findings.
    let src = fixture("netsim/src/engine.rs");
    let (findings, suppressed) = lint_source("crates/graph/src/traffic.rs", &src);
    assert!(
        findings.iter().all(|f| f.rule != "panic-in-engine"),
        "panic-in-engine leaked off the hot path: {findings:#?}"
    );
    assert!(suppressed.is_empty());
    // Off the hot path the allow matches nothing, so it must turn stale
    // rather than rot silently.
    assert_eq!(pairs(&findings), vec![("stale-allow".to_string(), 46)]);
}

#[test]
fn suppression_stale_and_bad_allows() {
    expect(
        "suppressed.rs",
        "suppressed.rs",
        &[
            ("stale-allow", 25), // allow matching no finding
            ("bad-allow", 31),   // reason missing
            ("bad-allow", 37),   // unknown rule name
        ],
        &[
            ("nondet-float-reduction", 7), // trailing allow, same line
            ("nan-unsafe-sort", 13),       // allow on the line above
            ("truncating-cast", 20),       // multi-line comment block
        ],
    );
}

#[test]
fn workspace_is_clean() {
    // CARGO_MANIFEST_DIR = crates/lint; two levels up is the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("walk workspace");
    assert!(report.files_scanned >= 60, "only {} files scanned", report.files_scanned);
    let rendered: Vec<String> = report.findings.iter().map(Finding::render).collect();
    assert!(report.is_clean(), "workspace has lint findings:\n{}", rendered.join("\n"));
    // The audited-allow inventory is part of the contract: every netsim
    // hot-path panic site carries a stated invariant.
    assert!(
        report.suppressed.iter().any(|f| f.rule == "panic-in-engine"),
        "expected audited panic-in-engine allows in netsim"
    );
}
