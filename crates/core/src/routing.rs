//! Routing rules produced by `TopologyFinder`.
//!
//! AllReduce transfers are routed with coin-change decomposition over the
//! selected ring strides (Algorithm 4); model-parallel transfers use
//! shortest paths on the combined topology (Algorithm 1, line 20). The
//! resulting table is what the flow-level simulator and the RDMA-forwarding
//! layer consume.
//!
//! A circulant AllReduce group routes a pair by its modular distance alone,
//! so the table keeps each group as its members plus one `k`-entry
//! [`CoinChangeTable`] and decomposes a route only when asked: a `+1` ring
//! over 256 servers is 256 table entries, not 65,280 stored paths. Explicit
//! paths are stored only for the pairs that need one. Lookups resolve as if
//! every reachable pair of every group had been inserted one by one, in the
//! order the groups and explicit paths were installed: the last writer wins.

use crate::coinchange::CoinChangeTable;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use topoopt_graph::paths::bfs_shortest_path;
use topoopt_graph::Graph;

/// Per-pair node paths (src, dst) → ordered node list including endpoints,
/// held implicitly for circulant groups and explicitly for everything else.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Routing {
    /// Circulant groups in install order; a later group overrides an
    /// earlier one on the pairs both reach.
    groups: Vec<RingGroup>,
    /// Explicit paths. Installing a group drops the entries it reaches, so
    /// every entry here was inserted after the last group reaching its pair.
    explicit: BTreeMap<(usize, usize), Vec<usize>>,
}

/// One circulant group: the servers at ring positions `0..k` and the
/// coin-change table over its strides.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RingGroup {
    /// Server at each ring position.
    members: Vec<usize>,
    /// Ring position of each server id (`None` for non-members).
    position: Vec<Option<usize>>,
    /// Coin-change table over the group's strides (`table.n == k`).
    table: CoinChangeTable,
}

impl RingGroup {
    /// Ring positions of `src` and `dst` when the group reaches the pair.
    fn reaches(&self, src: usize, dst: usize) -> Option<(usize, usize)> {
        let at = |v: usize| self.position.get(v).copied().flatten();
        let (i, j) = (at(src)?, at(dst)?);
        let k = self.members.len();
        (i != j && self.table.hops_for_distance(j + k - i) != usize::MAX).then_some((i, j))
    }
}

impl Routing {
    /// Empty routing table.
    pub fn new() -> Self {
        Routing::default()
    }

    /// Install a path for a pair. Overwrites any existing entry.
    pub fn insert(&mut self, src: usize, dst: usize, path: Vec<usize>) {
        debug_assert!(path.first() == Some(&src) && path.last() == Some(&dst));
        self.explicit.insert((src, dst), path);
    }

    /// Install coin-change routes (Algorithm 4) between every ordered pair
    /// of distinct `members` over the ring `strides`, in group index space:
    /// the pair at ring positions `(i, j)` follows the minimum-hop coin
    /// decomposition of `(j − i) mod k`. Overwrites the existing entry of
    /// every pair the strides reach; a group that reaches no pair (fewer
    /// than two members, or every stride ≡ 0 mod `k`) installs nothing.
    pub fn insert_ring(&mut self, members: &[usize], strides: &[usize]) {
        let table = CoinChangeTable::new(members.len(), strides);
        if table.coins.is_empty() {
            return;
        }
        let mut position = vec![None; members.iter().max().map_or(0, |&m| m + 1)];
        for (i, &m) in members.iter().enumerate() {
            let earlier = position[m].replace(i);
            assert!(earlier.is_none(), "server {m} listed twice in one ring");
        }
        let group = RingGroup { members: members.to_vec(), position, table };
        self.explicit.retain(|&(src, dst), _| group.reaches(src, dst).is_none());
        self.groups.push(group);
    }

    /// The latest group reaching the pair, with the pair's ring positions.
    fn ring_route(&self, src: usize, dst: usize) -> Option<(&RingGroup, usize, usize)> {
        self.groups.iter().rev().find_map(|g| g.reaches(src, dst).map(|(i, j)| (g, i, j)))
    }

    /// The installed path for a pair.
    pub fn path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        if let Some(p) = self.explicit.get(&(src, dst)) {
            return Some(p.clone());
        }
        let (g, i, j) = self.ring_route(src, dst)?;
        let mut path = g.table.route(i, j)?;
        for v in &mut path {
            *v = g.members[*v];
        }
        Some(path)
    }

    /// Path for a pair, falling back to a BFS shortest path on `g` when no
    /// route is installed.
    pub fn path_or_shortest(&self, g: &Graph, src: usize, dst: usize) -> Option<Vec<usize>> {
        self.path(src, dst).or_else(|| bfs_shortest_path(g, src, dst))
    }

    /// Every routed pair, in `(src, dst)` order.
    fn pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = self.explicit.keys().copied().collect();
        for g in &self.groups {
            for &src in &g.members {
                pairs.extend(
                    g.members
                        .iter()
                        .filter(|&&dst| g.reaches(src, dst).is_some())
                        .map(|&dst| (src, dst)),
                );
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.pairs().len()
    }

    /// True if no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty() && self.explicit.is_empty()
    }

    /// Hop count of the installed path (edges, not nodes).
    pub fn hops(&self, src: usize, dst: usize) -> Option<usize> {
        if let Some(p) = self.explicit.get(&(src, dst)) {
            return Some(p.len().saturating_sub(1));
        }
        let (g, i, j) = self.ring_route(src, dst)?;
        Some(g.table.hops_for_distance(j + g.members.len() - i))
    }

    /// Verify every installed path walks existing edges of `g`, and that
    /// every explicit path is simple (a repeated node would make the
    /// destination-keyed forwarding walk cycle). A coin-change route never
    /// revisits a ring position: the stretch between two visits would sum
    /// to 0 mod `k` and a shorter decomposition would drop it.
    pub fn validate_against(&self, g: &Graph) -> Result<(), String> {
        for (src, dst) in self.pairs() {
            let path = self.path(src, dst).expect("every listed pair is routed");
            if path.first() != Some(&src) || path.last() != Some(&dst) {
                return Err(format!("path for ({src},{dst}) has wrong endpoints"));
            }
            if self.explicit.contains_key(&(src, dst)) {
                let mut nodes = path.clone();
                nodes.sort_unstable();
                if let Some(w) = nodes.windows(2).find(|w| w[0] == w[1]) {
                    return Err(format!("path for ({src},{dst}) revisits node {}", w[0]));
                }
            }
            for w in path.windows(2) {
                if !g.has_edge(w[0], w[1]) {
                    return Err(format!(
                        "path for ({src},{dst}) uses missing edge {} -> {}",
                        w[0], w[1]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Average hop count over installed rules (0 if empty).
    pub fn average_hops(&self) -> f64 {
        let pairs = self.pairs();
        if pairs.is_empty() {
            return 0.0;
        }
        let total: usize =
            pairs.iter().map(|&(s, d)| self.hops(s, d).expect("every listed pair is routed")).sum();
        total as f64 / pairs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, 1.0);
        }
        g
    }

    #[test]
    fn insert_and_lookup() {
        let mut r = Routing::new();
        r.insert(0, 3, vec![0, 1, 2, 3]);
        assert_eq!(r.hops(0, 3), Some(3));
        assert_eq!(r.path(3, 0), None);
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn fallback_to_shortest_path() {
        let g = ring(6);
        let r = Routing::new();
        let p = r.path_or_shortest(&g, 0, 2).unwrap();
        assert_eq!(p, vec![0, 1, 2]);
    }

    #[test]
    fn validation_catches_missing_edges() {
        let g = ring(4);
        let mut r = Routing::new();
        r.insert(0, 2, vec![0, 2]); // no direct edge 0 -> 2 in the ring
        assert!(r.validate_against(&g).is_err());
        let mut ok = Routing::new();
        ok.insert(0, 2, vec![0, 1, 2]);
        ok.validate_against(&g).unwrap();
    }

    #[test]
    fn validation_rejects_a_path_that_revisits_a_node() {
        // Every hop of 0 -> 1 -> 0 -> 1 -> 2 is a live edge of the chain,
        // but the forwarding walk along it would cycle.
        let mut g = Graph::new(3);
        g.add_bidi_edge(0, 1, 1.0);
        g.add_bidi_edge(1, 2, 1.0);
        let mut r = Routing::new();
        r.insert(0, 2, vec![0, 1, 0, 1, 2]);
        let err = r.validate_against(&g).unwrap_err();
        assert!(err.contains("(0,2)"), "error must name the pair: {err}");
    }

    #[test]
    fn average_hops_over_rules() {
        let mut r = Routing::new();
        r.insert(0, 1, vec![0, 1]);
        r.insert(0, 2, vec![0, 1, 2]);
        assert!((r.average_hops() - 1.5).abs() < 1e-12);
        assert_eq!(Routing::new().average_hops(), 0.0);
    }

    #[test]
    fn ring_routes_decompose_on_demand_and_yield_to_later_inserts() {
        // Members at ring positions 0..4 = servers [10, 20, 30, 40], +1 ring.
        let mut r = Routing::new();
        r.insert(10, 30, vec![10, 99, 30]); // overridden by the ring below
        r.insert_ring(&[10, 20, 30, 40], &[1]);
        assert_eq!(r.path(10, 30), Some(vec![10, 20, 30]));
        assert_eq!(r.path(40, 20), Some(vec![40, 10, 20]));
        assert_eq!(r.hops(30, 20), Some(3));
        assert_eq!(r.len(), 12);
        r.insert(30, 20, vec![30, 20]); // a later insert wins
        assert_eq!(r.hops(30, 20), Some(1));
        assert_eq!(r.len(), 12);
        assert_eq!(r.path(10, 10), None);
        assert_eq!(r.path(10, 50), None);
    }

    #[test]
    fn a_ring_that_reaches_no_pair_installs_nothing() {
        let mut r = Routing::new();
        r.insert_ring(&[3], &[1]);
        r.insert_ring(&[0, 1, 2], &[]);
        r.insert_ring(&[0, 1, 2], &[3, 6]);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
