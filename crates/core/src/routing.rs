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
//!
//! [`Routing::route`] is the lazy view of one pair: a borrowed explicit
//! path, or a [`RingRoute`] that names the group and gives its next hop
//! from any member towards the destination. The RDMA forwarding build
//! walks pairs through it and relies on one contract of the ring routes
//! (checked by `tests/routing.rs`): a group's route is one coin-backtrace
//! step of its [`CoinChangeTable`] repeated from the source, so
//! following [`RingRoute::next_hop`] from `src` reproduces
//! [`Routing::path`] node for node, and the rest of a group-`g` route after
//! any of its nodes, `path(src, dst)[1..]`, is group `g`'s own route from
//! `path[1]` (whatever the table resolves for that later pair).

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
    /// Ring position of server `v`, if it is a member.
    fn at(&self, v: usize) -> Option<usize> {
        self.position.get(v).copied().flatten()
    }

    /// Ring positions of `src` and `dst` when the group reaches the pair.
    fn reaches(&self, src: usize, dst: usize) -> Option<(usize, usize)> {
        let (i, j) = (self.at(src)?, self.at(dst)?);
        let k = self.members.len();
        (i != j && self.table.hops_for_distance(j + k - i) != usize::MAX).then_some((i, j))
    }
}

/// How the routing sends one pair, borrowed from the table.
#[derive(Debug, Clone, Copy)]
pub enum Route<'a> {
    /// A stored explicit path, endpoints included.
    Explicit(&'a [usize]),
    /// The coin-change route of the ring group reaching the pair.
    Ring(RingRoute<'a>),
}

/// One ring group's coin-change routes towards one destination member,
/// stepped on demand.
#[derive(Debug, Clone, Copy)]
pub struct RingRoute<'a> {
    /// Index of the group among the routing's groups, in install order.
    group: usize,
    ring: &'a RingGroup,
    /// Ring position of the destination.
    to: usize,
}

impl RingRoute<'_> {
    /// The group's index in install order: two routes with the same index
    /// come from the same group.
    pub fn group(&self) -> usize {
        self.group
    }

    /// The next hop of the group's route from member `from` towards the
    /// destination; `None` at the destination, for a non-member, or when
    /// the group's strides cannot reach the destination from `from`.
    pub fn next_hop(&self, from: usize) -> Option<usize> {
        let next = self.ring.table.next_position(self.ring.at(from)?, self.to)?;
        Some(self.ring.members[next])
    }

    /// The group's route from member `from` to the destination, both
    /// included.
    fn path(&self, from: usize) -> Option<Vec<usize>> {
        let mut path = self.ring.table.route(self.ring.at(from)?, self.to)?;
        for v in &mut path {
            *v = self.ring.members[*v];
        }
        Some(path)
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

    /// The latest group reaching the pair, with its index and the pair's
    /// ring positions.
    fn ring_route(&self, src: usize, dst: usize) -> Option<(usize, &RingGroup, usize, usize)> {
        self.groups
            .iter()
            .enumerate()
            .rev()
            .find_map(|(group, g)| g.reaches(src, dst).map(|(i, j)| (group, g, i, j)))
    }

    /// How the pair is routed, without materializing a ring route: its
    /// explicit path if one is stored, else the latest group reaching it.
    pub fn route(&self, src: usize, dst: usize) -> Option<Route<'_>> {
        if let Some(p) = self.explicit.get(&(src, dst)) {
            return Some(Route::Explicit(p));
        }
        let (group, ring, _, to) = self.ring_route(src, dst)?;
        Some(Route::Ring(RingRoute { group, ring, to }))
    }

    /// The installed path for a pair.
    pub fn path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        match self.route(src, dst)? {
            Route::Explicit(p) => Some(p.to_vec()),
            Route::Ring(ring) => ring.path(src),
        }
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
        let (_, g, i, j) = self.ring_route(src, dst)?;
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
