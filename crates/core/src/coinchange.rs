//! `CoinChangeMod` (Algorithm 4 / Appendix E.3): modular coin-change routing
//! for AllReduce transfers.
//!
//! The AllReduce sub-topology is the union of a few +p ring permutations.
//! To route a transfer from server `i` to server `j`, the modular distance
//! `(j - i) mod n` must be decomposed into a minimum-length sum of the
//! available strides ("coins"); each coin corresponds to one physical hop
//! along the matching ring. The classic coin-change dynamic program, run in
//! modulo-`n` arithmetic, gives the optimal decomposition.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Precomputed coin-change table for a group of `n` nodes and a set of ring
/// strides.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoinChangeTable {
    /// Group size.
    pub n: usize,
    /// Available strides ("coins").
    pub coins: Vec<usize>,
    /// For each modular distance `1..n`, the number of hops needed
    /// (`usize::MAX` if unreachable, which only happens with an empty or
    /// degenerate coin set).
    pub hops: Vec<usize>,
    /// For each modular distance, the last coin used (backtrace).
    pub back: Vec<usize>,
}

impl CoinChangeTable {
    /// Build the table with the modular-BFS dynamic program of Algorithm 4.
    pub fn new(n: usize, coins: &[usize]) -> Self {
        if n == 0 {
            // A zero-node group has no distances to cover (and `c % n`
            // below would divide by zero).
            return CoinChangeTable { n, coins: Vec::new(), hops: Vec::new(), back: Vec::new() };
        }
        let coins: Vec<usize> = {
            let set: BTreeSet<usize> = coins.iter().map(|&c| c % n).filter(|&c| c != 0).collect();
            set.into_iter().collect()
        };
        let mut hops = vec![usize::MAX; n];
        let mut back = vec![usize::MAX; n];
        hops[0] = 0;
        if coins.is_empty() {
            return CoinChangeTable { n, coins, hops, back };
        }
        for &c in &coins {
            if hops[c] > 1 {
                hops[c] = 1;
                back[c] = c;
            }
        }
        // Relax until fixed point (distance values only decrease, at most n
        // rounds).
        let mut changed = true;
        while changed {
            changed = false;
            for dist in 1..n {
                for &c in &coins {
                    let from = (dist + n - c) % n;
                    if hops[from] != usize::MAX && hops[from] + 1 < hops[dist] {
                        hops[dist] = hops[from] + 1;
                        back[dist] = c;
                        changed = true;
                    }
                }
            }
        }
        CoinChangeTable { n, coins, hops, back }
    }

    /// Number of hops to cover modular distance `dist` (0 for `dist == 0`,
    /// `usize::MAX` for the degenerate zero-node group).
    pub fn hops_for_distance(&self, dist: usize) -> usize {
        if self.n == 0 {
            return usize::MAX;
        }
        self.hops[dist % self.n]
    }

    /// The ring position after `from` on the coin-change route to `to`:
    /// one backtrace step, by the last coin the dynamic program used for
    /// the distance `(to − from) mod n`. `None` at the destination and when
    /// the distance is unreachable. Every route of the table is this step
    /// repeated, so the rest of a route after any of its positions is the
    /// route from that position.
    pub(crate) fn next_position(&self, from: usize, to: usize) -> Option<usize> {
        if self.n == 0 {
            return None;
        }
        let coin = self.back[(to + self.n - from) % self.n];
        (coin != usize::MAX).then(|| (from + coin) % self.n)
    }

    /// Ring positions from `src` to `dst`, both included, one backtrace
    /// step at a time, or `None` if unreachable. The rest of a route after
    /// any of its positions is the route from that position.
    pub fn route(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        if self.n == 0 {
            return None;
        }
        let hops = self.hops[(dst + self.n - src) % self.n];
        if hops == usize::MAX {
            return None;
        }
        let mut path = Vec::with_capacity(hops + 1);
        path.push(src);
        let mut at = src;
        while let Some(next) = self.next_position(at, dst) {
            path.push(next);
            at = next;
        }
        debug_assert_eq!(path.last(), Some(&dst));
        Some(path)
    }

    /// Maximum hop count over all modular distances — the diameter of the
    /// AllReduce sub-topology under coin-change routing.
    pub fn max_hops(&self) -> usize {
        self.hops.iter().cloned().filter(|&h| h != usize::MAX).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_coin_ring_walks_linearly() {
        let t = CoinChangeTable::new(8, &[1]);
        assert_eq!(t.hops_for_distance(5), 5);
        assert_eq!(t.max_hops(), 7);
        let p = t.route(2, 6).unwrap();
        assert_eq!(p, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn figure9_strides_cut_hop_count() {
        // 16 nodes with strides {1, 3, 7}: any distance is reachable in at
        // most 4 hops (e.g. 12 = 7+3+1+1 or 7+7-2 … the DP finds the min).
        let t = CoinChangeTable::new(16, &[1, 3, 7]);
        assert!(t.max_hops() <= 4);
        assert_eq!(t.hops_for_distance(7), 1);
        assert_eq!(t.hops_for_distance(10), 2); // 7 + 3
        assert_eq!(t.hops_for_distance(8), 2); // 7 + 1
    }

    #[test]
    fn route_endpoints_and_steps_are_consistent() {
        let p = CoinChangeTable::new(16, &[1, 3, 7]).route(5, 1).unwrap();
        assert_eq!(*p.first().unwrap(), 5);
        assert_eq!(*p.last().unwrap(), 1);
        // Every step is one of the coins (mod 16).
        for w in p.windows(2) {
            let step = (w[1] + 16 - w[0]) % 16;
            assert!([1, 3, 7].contains(&step), "invalid step {step}");
        }
    }

    #[test]
    fn self_route_is_trivial() {
        assert_eq!(CoinChangeTable::new(10, &[1, 3]).route(4, 4).unwrap(), vec![4]);
    }

    #[test]
    fn empty_coin_set_is_unreachable() {
        let t = CoinChangeTable::new(8, &[]);
        assert_eq!(t.hops_for_distance(3), usize::MAX);
        assert!(t.route(0, 3).is_none());
    }

    #[test]
    fn modular_wraparound_uses_short_decomposition() {
        // Distance 15 on 16 nodes with coins {1,3,7}: 15 = 7+7+1 -> 3 hops,
        // much better than 15 single steps.
        let t = CoinChangeTable::new(16, &[1, 3, 7]);
        assert_eq!(t.hops_for_distance(15), 3);
    }

    proptest! {
        #[test]
        fn coin_change_always_reaches_with_stride_one(
            n in 2usize..64, src in 0usize..64, dst in 0usize..64,
            extra in 2usize..10
        ) {
            let src = src % n;
            let dst = dst % n;
            let coins = vec![1usize, extra % n.max(2)];
            let p = CoinChangeTable::new(n, &coins).route(src, dst).unwrap();
            prop_assert_eq!(*p.first().unwrap(), src);
            prop_assert_eq!(*p.last().unwrap(), dst);
            prop_assert!(p.len() <= n);
        }

        #[test]
        fn hops_never_exceed_distance_with_unit_coin(n in 2usize..128) {
            let t = CoinChangeTable::new(n, &[1, 2, 3]);
            for d in 1..n {
                prop_assert!(t.hops_for_distance(d) <= d);
            }
        }
    }
}
