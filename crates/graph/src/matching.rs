//! Maximum-weight matching on general (undirected) graphs.
//!
//! `TopologyFinder` (Algorithm 1, step 3) repeatedly computes a maximum
//! weight matching over the model-parallel demand matrix `T_MP` to decide
//! which server pairs get a direct fiber. The paper uses Edmonds' Blossom
//! algorithm; this module provides:
//!
//! * an **exact** solver (bitmask dynamic programming, `O(n^2 · 2^n)`) for
//!   instances up to [`EXACT_LIMIT`] nodes, and
//! * a **greedy + 2-opt local-improvement** solver for larger instances,
//!   which in practice lands within a few percent of optimal on the dense,
//!   heavy-tailed demand matrices produced by DNN parallelization strategies.
//!
//! [`MatchingAlgo::Auto`] picks the exact solver whenever it is affordable.
//! [`MatchingRounds`] runs the solver, one matching per
//! [`round`](MatchingRounds::round). Property tests verify that the
//! greedy+improve solver is never better than (and usually close to) the
//! exact one, and that all solvers return valid matchings.

use serde::{Deserialize, Serialize};

/// Largest node count for which the exact bitmask solver is used by
/// [`MatchingAlgo::Auto`].
pub const EXACT_LIMIT: usize = 22;

/// Which matching algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchingAlgo {
    /// Exact bitmask DP; only valid for small `n` (≤ ~24).
    Exact,
    /// Greedy heaviest-edge-first, then 2-opt pair swaps until a local
    /// optimum is reached.
    GreedyImprove,
    /// Exact when `n <= EXACT_LIMIT`, otherwise greedy+improve.
    Auto,
}

/// A matching as a list of unordered node pairs `(a, b)` with `a < b`.
pub type Matching = Vec<(usize, usize)>;

/// Sentinel in the exact solver's choice table: "leave the low bit
/// unmatched" (node indices are < [`EXACT_LIMIT`], so `u8::MAX` is free).
const NO_PARTNER: u8 = u8::MAX;

/// Repeated maximum-weight matching over an evolving weight matrix.
///
/// Each [`round`](MatchingRounds::round) returns a maximum-weight matching
/// on the complete undirected graph over the `n` nodes, weighing pair
/// `{i, j}` by `max(w(i,j), 0) + max(w(j,i), 0)` of the `n x n` matrix
/// given to [`new`](MatchingRounds::new); pairs of zero weight are never
/// matched. `TopologyFinder` (Algorithm 1, lines 12–17) runs one round per
/// MP degree, halving the demand of served pairs between rounds. This type
/// symmetrizes once at construction, mutates pair weights in place through
/// [`MatchingRounds::halve_pair`], and reuses the solver buffers (for the
/// exact solver, two `2^n`-entry DP tables) for every round.
#[derive(Debug, Clone)]
pub struct MatchingRounds {
    algo: MatchingAlgo,
    sym: Vec<Vec<f64>>,
    /// Exact solver: best achievable weight per node subset.
    best: Vec<f64>,
    /// Exact solver: partner of the subset's lowest bit ([`NO_PARTNER`] if
    /// it stays unmatched) — `u8` keeps the table 24x smaller than the
    /// `Option<(usize, usize)>` layout it replaces (4 MiB vs 96 MiB at
    /// n = [`EXACT_LIMIT`]).
    choice: Vec<u8>,
    /// Greedy solver: positive-weight edge list, re-sorted per round.
    edges: Vec<(usize, usize, f64)>,
    /// Greedy solver: current partner per node.
    matched: Vec<Option<usize>>,
}

impl MatchingRounds {
    /// Symmetrize `weights` once and size the solver buffers. `Auto`
    /// resolves to the exact solver when `n <= EXACT_LIMIT`.
    pub fn new(weights: &[Vec<f64>], algo: MatchingAlgo) -> Self {
        let n = weights.len();
        let algo = match algo {
            MatchingAlgo::Auto => {
                if n <= EXACT_LIMIT {
                    MatchingAlgo::Exact
                } else {
                    MatchingAlgo::GreedyImprove
                }
            }
            a => a,
        };
        MatchingRounds {
            algo,
            sym: symmetrize(weights),
            best: Vec::new(),
            choice: Vec::new(),
            edges: Vec::new(),
            matched: Vec::new(),
        }
    }

    /// Maximum-weight matching over the current pair weights.
    pub fn round(&mut self) -> Matching {
        match self.algo {
            MatchingAlgo::Exact => exact_matching(&self.sym, &mut self.best, &mut self.choice),
            MatchingAlgo::GreedyImprove => {
                greedy_improve_matching(&self.sym, &mut self.edges, &mut self.matched)
            }
            MatchingAlgo::Auto => unreachable!("Auto is resolved in new()"),
        }
    }

    /// Halve the residual demand of pair `{a, b}` (Algorithm 1, line 17).
    /// Operates on the symmetrized weight, which equals halving both
    /// directed demands for the non-negative matrices `TopologyFinder`
    /// feeds in.
    pub fn halve_pair(&mut self, a: usize, b: usize) {
        self.sym[a][b] /= 2.0;
        self.sym[b][a] /= 2.0;
    }
}

/// Undirected weight of pair {i, j} = max(w(i,j), 0) + max(w(j,i), 0).
fn symmetrize(weights: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = weights.len();
    let mut s = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s[i][j] = weights[i][j].max(0.0) + weights[j][i].max(0.0);
            }
        }
    }
    s
}

/// Bitmask-DP exact solver. `best` and `choice` are caller-owned buffers
/// (resized and overwritten here) so repeated rounds do not re-allocate the
/// `2^n`-entry tables.
fn exact_matching(sym: &[Vec<f64>], best: &mut Vec<f64>, choice: &mut Vec<u8>) -> Matching {
    let n = sym.len();
    assert!(
        n <= EXACT_LIMIT,
        "exact matching only supported for n <= {EXACT_LIMIT} (got {n}); \
         use MatchingAlgo::GreedyImprove or Auto"
    );
    if n == 0 {
        return Vec::new();
    }
    let full: u32 = (1u32 << n) - 1;
    // best[mask] = max total weight achievable matching only nodes in mask;
    // choice[mask] = the partner the mask's lowest bit takes in that
    // optimum (NO_PARTNER when it stays unmatched).
    best.clear();
    best.resize((full as usize) + 1, 0.0);
    choice.clear();
    choice.resize((full as usize) + 1, NO_PARTNER);
    for mask in 1..=full {
        let i = mask.trailing_zeros() as usize;
        // Option 1: leave i unmatched.
        let without_i = mask & !(1 << i);
        let mut b = best[without_i as usize];
        let mut c = NO_PARTNER;
        // Option 2: pair i with some j in mask.
        let mut rest = without_i;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if sym[i][j] <= 0.0 {
                continue;
            }
            let m2 = without_i & !(1 << j);
            let cand = sym[i][j] + best[m2 as usize];
            if cand > b {
                b = cand;
                c = j as u8;
            }
        }
        best[mask as usize] = b;
        choice[mask as usize] = c;
    }
    // Reconstruct.
    let mut matching = Vec::new();
    let mut mask = full;
    while mask != 0 {
        let i = mask.trailing_zeros() as usize;
        match choice[mask as usize] {
            NO_PARTNER => {
                mask &= !(1 << i);
            }
            j => {
                let j = j as usize;
                matching.push((i.min(j), i.max(j)));
                mask &= !(1 << i);
                mask &= !(1 << j);
            }
        }
    }
    matching.sort_unstable();
    matching
}

/// Greedy + 2-opt solver. `edges` and `matched` are caller-owned buffers
/// (cleared and refilled here) so repeated rounds do not re-allocate.
fn greedy_improve_matching(
    sym: &[Vec<f64>],
    edges: &mut Vec<(usize, usize, f64)>,
    matched: &mut Vec<Option<usize>>,
) -> Matching {
    let n = sym.len();
    // Greedy heaviest edge first.
    edges.clear();
    for (i, row) in sym.iter().enumerate() {
        for (j, &w) in row.iter().enumerate().skip(i + 1) {
            if w > 0.0 {
                edges.push((i, j, w));
            }
        }
    }
    edges.sort_by(|a, b| b.2.total_cmp(&a.2));
    matched.clear();
    matched.resize(n, None);
    for &(i, j, _) in edges.iter() {
        if matched[i].is_none() && matched[j].is_none() {
            matched[i] = Some(j);
            matched[j] = Some(i);
        }
    }
    // 2-opt improvement: for every pair of matched edges (a,b), (c,d), try
    // rewiring to (a,c),(b,d) or (a,d),(b,c); also try matching a currently
    // unmatched node by breaking an edge, if it raises total weight.
    let mut improved = true;
    let mut iterations = 0usize;
    while improved && iterations < 64 {
        improved = false;
        iterations += 1;
        let pairs: Vec<(usize, usize)> = current_pairs(matched);
        for x in 0..pairs.len() {
            for y in (x + 1)..pairs.len() {
                let (a, b) = pairs[x];
                let (c, d) = pairs[y];
                // Skip if any endpoint changed since snapshot.
                if matched[a] != Some(b) || matched[c] != Some(d) {
                    continue;
                }
                let cur = sym[a][b] + sym[c][d];
                let alt1 = sym[a][c] + sym[b][d];
                let alt2 = sym[a][d] + sym[b][c];
                if alt1 > cur && alt1 >= alt2 {
                    matched[a] = Some(c);
                    matched[c] = Some(a);
                    matched[b] = Some(d);
                    matched[d] = Some(b);
                    improved = true;
                } else if alt2 > cur {
                    matched[a] = Some(d);
                    matched[d] = Some(a);
                    matched[b] = Some(c);
                    matched[c] = Some(b);
                    improved = true;
                }
            }
        }
        // Augment with unmatched nodes: if u and v are both unmatched and
        // share positive weight, match them.
        for u in 0..n {
            if matched[u].is_some() {
                continue;
            }
            let mut best_v = None;
            let mut best_w = 0.0;
            for v in 0..n {
                if v != u && matched[v].is_none() && sym[u][v] > best_w {
                    best_w = sym[u][v];
                    best_v = Some(v);
                }
            }
            if let Some(v) = best_v {
                matched[u] = Some(v);
                matched[v] = Some(u);
                improved = true;
            }
        }
    }
    let mut out = current_pairs(matched);
    out.sort_unstable();
    out
}

fn current_pairs(matched: &[Option<usize>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, m) in matched.iter().enumerate() {
        if let Some(j) = *m {
            if i < j {
                out.push((i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn w(n: usize, entries: &[(usize, usize, f64)]) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; n]; n];
        for &(i, j, v) in entries {
            m[i][j] = v;
        }
        m
    }

    /// Total weight of a matching: Σ over pairs of the undirected weight
    /// `max(w(a,b), 0) + max(w(b,a), 0)`.
    fn matching_weight(weights: &[Vec<f64>], matching: &Matching) -> f64 {
        matching.iter().map(|&(a, b)| weights[a][b].max(0.0) + weights[b][a].max(0.0)).sum()
    }

    /// True if no node appears twice and every pair is distinct nodes.
    fn is_valid_matching(n: usize, matching: &Matching) -> bool {
        let mut used = vec![false; n];
        for &(a, b) in matching {
            if a >= n || b >= n || a == b || used[a] || used[b] {
                return false;
            }
            used[a] = true;
            used[b] = true;
        }
        true
    }

    #[test]
    fn exact_picks_two_light_edges_over_one_heavy() {
        // Heavy edge 0-1 of weight 10, but 0-2 (7) + 1-3 (7) = 14 is better.
        let m = w(4, &[(0, 1, 10.0), (0, 2, 7.0), (1, 3, 7.0)]);
        let matching = MatchingRounds::new(&m, MatchingAlgo::Exact).round();
        assert!(is_valid_matching(4, &matching));
        assert!((matching_weight(&m, &matching) - 14.0).abs() < 1e-9);
        assert!(matching.contains(&(0, 2)));
        assert!(matching.contains(&(1, 3)));
    }

    #[test]
    fn greedy_is_valid_and_auto_matches_exact_for_small_n() {
        let m = w(6, &[(0, 1, 5.0), (2, 3, 4.0), (4, 5, 3.0), (0, 5, 6.0)]);
        let auto = MatchingRounds::new(&m, MatchingAlgo::Auto).round();
        let exact = MatchingRounds::new(&m, MatchingAlgo::Exact).round();
        assert!(is_valid_matching(6, &auto));
        assert_eq!(matching_weight(&m, &auto), matching_weight(&m, &exact));
    }

    #[test]
    fn empty_and_zero_weight_graphs_yield_empty_matching() {
        let matching = MatchingRounds::new(&vec![vec![0.0; 5]; 5], MatchingAlgo::Auto).round();
        assert!(matching.is_empty());
        let matching = MatchingRounds::new(&Vec::new(), MatchingAlgo::Exact).round();
        assert!(matching.is_empty());
    }

    #[test]
    fn asymmetric_demands_are_summed() {
        // 3 -> 0 demand only, should still produce the (0,3) pair.
        let m = w(4, &[(3, 0, 9.0)]);
        let matching = MatchingRounds::new(&m, MatchingAlgo::Exact).round();
        assert_eq!(matching, vec![(0, 3)]);
        assert!((matching_weight(&m, &matching) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_improve_handles_larger_instances() {
        // 40-node cycle-ish weights.
        let n = 40;
        let mut m = vec![vec![0.0; n]; n];
        for i in 0..n {
            m[i][(i + 1) % n] = 1.0 + (i % 5) as f64;
        }
        let matching = MatchingRounds::new(&m, MatchingAlgo::GreedyImprove).round();
        assert!(is_valid_matching(n, &matching));
        assert!(matching.len() <= n / 2);
        assert!(matching_weight(&m, &matching) > 0.0);
    }

    #[test]
    fn rounds_with_halving_match_per_round_resymmetrization() {
        // Halving pairs in place between rounds must reproduce a loop that
        // halves the raw demand matrix and matches it with a fresh solver.
        for n in [10usize, 30] {
            let mut raw = vec![vec![0.0; n]; n];
            for (i, row) in raw.iter_mut().enumerate() {
                for (j, w) in row.iter_mut().enumerate() {
                    if i != j {
                        *w = ((i * 31 + j * 17) % 23) as f64 * 1.0e8;
                    }
                }
            }
            let mut legacy_weights = raw.clone();
            let mut rounds = MatchingRounds::new(&raw, MatchingAlgo::Auto);
            for round in 0..4 {
                let legacy = MatchingRounds::new(&legacy_weights, MatchingAlgo::Auto).round();
                let fast = rounds.round();
                assert_eq!(legacy, fast, "n = {n}, round {round}");
                for &(a, b) in &legacy {
                    legacy_weights[a][b] /= 2.0;
                    legacy_weights[b][a] /= 2.0;
                    rounds.halve_pair(a, b);
                }
            }
        }
    }

    #[test]
    fn rounds_pair_weight_tracks_halving() {
        let m = w(4, &[(0, 1, 8.0), (1, 0, 4.0)]);
        let mut rounds = MatchingRounds::new(&m, MatchingAlgo::Exact);
        assert_eq!(rounds.sym[0][1], 12.0);
        rounds.halve_pair(0, 1);
        assert_eq!(rounds.sym[0][1], 6.0);
        assert_eq!(rounds.sym[1][0], 6.0);
    }

    #[test]
    fn matching_weight_clamps_negative_directed_entries() {
        // Direct pair-weight computation must match the symmetrized
        // definition max(w_ij, 0) + max(w_ji, 0).
        let mut m = w(4, &[(0, 1, 5.0), (2, 3, 7.0)]);
        m[1][0] = -3.0;
        let matching = vec![(0, 1), (2, 3)];
        assert!((matching_weight(&m, &matching) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn is_valid_matching_rejects_reuse() {
        assert!(!is_valid_matching(4, &vec![(0, 1), (1, 2)]));
        assert!(!is_valid_matching(4, &vec![(0, 0)]));
        assert!(!is_valid_matching(2, &vec![(0, 5)]));
        assert!(is_valid_matching(4, &vec![(0, 1), (2, 3)]));
    }

    proptest! {
        #[test]
        fn greedy_never_beats_exact_and_both_valid(
            weights in proptest::collection::vec(
                proptest::collection::vec(0.0f64..100.0, 8), 8)
        ) {
            let exact = MatchingRounds::new(&weights, MatchingAlgo::Exact).round();
            let greedy = MatchingRounds::new(&weights, MatchingAlgo::GreedyImprove).round();
            prop_assert!(is_valid_matching(8, &exact));
            prop_assert!(is_valid_matching(8, &greedy));
            let we = matching_weight(&weights, &exact);
            let wg = matching_weight(&weights, &greedy);
            prop_assert!(wg <= we + 1e-6, "greedy {wg} beat exact {we}");
            // Greedy + 2-opt should be within 30% of optimal on small dense instances.
            prop_assert!(wg >= 0.7 * we - 1e-6, "greedy {wg} far from exact {we}");
        }

        #[test]
        fn exact_matching_weight_is_at_least_best_single_edge(
            weights in proptest::collection::vec(
                proptest::collection::vec(0.0f64..50.0, 6), 6)
        ) {
            let exact = MatchingRounds::new(&weights, MatchingAlgo::Exact).round();
            let mut best_edge = 0.0f64;
            for (i, row) in weights.iter().enumerate() {
                for (j, &w) in row.iter().enumerate() {
                    if i != j {
                        best_edge = best_edge.max(w + weights[j][i]);
                    }
                }
            }
            prop_assert!(matching_weight(&weights, &exact) >= best_edge - 1e-6);
        }
    }
}
