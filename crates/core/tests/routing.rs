//! `Routing` holds circulant AllReduce groups as coin-change tables and
//! decomposes their routes on demand. These tests hold it to a materialized
//! table: every route inserted pair by pair into a map, in the order the
//! groups and explicit paths were installed. They also check the contract
//! of the ring routes that the RDMA forwarding build relies on.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use topoopt_core::coinchange::CoinChangeTable;
use topoopt_core::topology_finder::{topology_finder, TopologyFinderInput};
use topoopt_core::{Route, Routing};
use topoopt_graph::paths::bfs_shortest_path;
use topoopt_graph::Graph;
use topoopt_models::{build_model, ModelKind, ModelPreset};
use topoopt_strategy::{extract_traffic, ParallelizationStrategy};

/// The materialized route table: one stored path per routed pair.
#[derive(Default)]
struct Materialized {
    paths: BTreeMap<(usize, usize), Vec<usize>>,
    /// Every route of each group that reaches a pair, in install order.
    rings: Vec<BTreeMap<(usize, usize), Vec<usize>>>,
}

impl Materialized {
    fn insert(&mut self, src: usize, dst: usize, path: Vec<usize>) {
        self.paths.insert((src, dst), path);
    }

    /// Every reachable pair of the group, inserted one by one.
    fn insert_ring(&mut self, members: &[usize], strides: &[usize]) {
        let k = members.len();
        if k < 2 || strides.is_empty() {
            return;
        }
        let table = CoinChangeTable::new(k, strides);
        let mut ring = BTreeMap::new();
        for i in 0..k {
            for j in 0..k {
                if i == j {
                    continue;
                }
                let dist = (j + k - i) % k;
                if let Some(seq) = table.decompose(dist) {
                    let mut path = vec![members[i]];
                    let mut cur = i;
                    for c in seq {
                        cur = (cur + c) % k;
                        path.push(members[cur]);
                    }
                    ring.insert((members[i], members[j]), path);
                }
            }
        }
        if !ring.is_empty() {
            for (&(src, dst), path) in &ring {
                self.insert(src, dst, path.clone());
            }
            self.rings.push(ring);
        }
    }

    fn hops(&self, src: usize, dst: usize) -> Option<usize> {
        self.paths.get(&(src, dst)).map(|p| p.len() - 1)
    }

    fn average_hops(&self) -> f64 {
        if self.paths.is_empty() {
            return 0.0;
        }
        let total: usize = self.paths.values().map(|p| p.len() - 1).sum();
        total as f64 / self.paths.len() as f64
    }

    /// Endpoints, then simplicity, then edges, pair by pair.
    fn validate_against(&self, g: &Graph) -> Result<(), String> {
        for ((src, dst), path) in &self.paths {
            if path.first() != Some(src) || path.last() != Some(dst) {
                return Err(format!("path for ({src},{dst}) has wrong endpoints"));
            }
            let mut nodes = path.clone();
            nodes.sort_unstable();
            if let Some(w) = nodes.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!("path for ({src},{dst}) revisits node {}", w[0]));
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
}

/// Every lookup of `routing` agrees with the materialized table on nodes
/// `0..n`, and so do the aggregates.
fn assert_same_routes(routing: &Routing, oracle: &Materialized, n: usize) {
    for src in 0..n {
        for dst in 0..n {
            assert_eq!(
                routing.path(src, dst).as_ref(),
                oracle.paths.get(&(src, dst)),
                "path ({src},{dst})"
            );
            assert_eq!(routing.hops(src, dst), oracle.hops(src, dst), "hops ({src},{dst})");
        }
    }
    assert_eq!(routing.len(), oracle.paths.len());
    assert_eq!(routing.is_empty(), oracle.paths.is_empty());
    assert_eq!(routing.average_hops().to_bits(), oracle.average_hops().to_bits());
}

/// The contract the forwarding build's early stop rests on, for every pair
/// a group routes: following the group's lazy next hop from `src`
/// reproduces `path(src, dst)` node for node, and `path(src, dst)[1..]` is
/// the same group's route from `path[1]`.
fn assert_ring_contract(routing: &Routing, oracle: &Materialized, n: usize) {
    for src in 0..n {
        for dst in 0..n {
            let Some(Route::Ring(ring)) = routing.route(src, dst) else {
                continue;
            };
            let path = routing.path(src, dst).expect("a ring route has a path");
            let mut walk = vec![src];
            while let Some(next) = ring.next_hop(walk[walk.len() - 1]) {
                assert!(walk.len() < n, "next hops of ({src},{dst}) run away: {walk:?}");
                walk.push(next);
            }
            assert_eq!(walk, path, "next hops of ({src},{dst})");
            if path[1] != dst {
                assert_eq!(
                    oracle.rings[ring.group()].get(&(path[1], dst)).map(Vec::as_slice),
                    Some(&path[1..]),
                    "({src},{dst}) after its first hop"
                );
            }
        }
    }
}

/// A `k`-member subset of `0..n` in a random ring order: the servers sorted
/// by their random keys.
fn members(keys: &[usize], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&v| (keys[v], v));
    order.truncate(k);
    order
}

/// An explicit `src -> dst` path through the given intermediate nodes; it
/// may revisit a node.
fn explicit_path(
    n: usize,
    (src, dst, mids): &(usize, usize, Vec<usize>),
) -> (usize, usize, Vec<usize>) {
    let (src, dst) = (src % n, dst % n);
    let mut path = vec![src];
    path.extend(mids.iter().map(|m| m % n));
    path.push(dst);
    (src, dst, path)
}

/// A graph holding every edge some route of `oracle` walks.
fn covering_graph(oracle: &Materialized, n: usize) -> Graph {
    let mut g = Graph::new(n);
    for path in oracle.paths.values() {
        for w in path.windows(2) {
            if !g.has_edge(w[0], w[1]) {
                g.add_edge(w[0], w[1], 1.0);
            }
        }
    }
    g
}

/// An explicit insert: `(src, dst, intermediate nodes)`, taken mod `n`.
fn explicit() -> impl Strategy<Value = (usize, usize, Vec<usize>)> {
    (0usize..64, 0usize..64, vec(0usize..64, 0usize..3))
}

/// A group: per-server ring-order keys, a size and strides up to `2k`.
fn group() -> impl Strategy<Value = (Vec<usize>, usize, Vec<usize>)> {
    (vec(0usize..1000, 12usize), 1usize..13, vec(0usize..24, 0usize..4))
}

proptest! {
    // Explicit inserts, then overlapping groups over `0..n` (k = 1 and
    // strides that repeat or are multiples of k included), then explicit
    // inserts again. With `degenerate` every group reaches no pair.
    #[test]
    fn implicit_routes_match_the_materialized_table(
        n in 2usize..12,
        before in vec(explicit(), 0usize..6),
        groups in vec(group(), 0usize..4),
        after in vec(explicit(), 0usize..4),
        degenerate in proptest::bool::ANY,
        cut in 0usize..1024,
    ) {
        let mut routing = Routing::new();
        let mut oracle = Materialized::default();
        let before: Vec<_> = before.iter().map(|e| explicit_path(n, e)).collect();
        let after: Vec<_> = after.iter().map(|e| explicit_path(n, e)).collect();
        for (src, dst, path) in &before {
            routing.insert(*src, *dst, path.clone());
            oracle.insert(*src, *dst, path.clone());
        }
        for (keys, k, strides) in &groups {
            let k = 1 + (k - 1) % n;
            let members = members(&keys[..n], k);
            let strides: Vec<usize> =
                if degenerate { strides.iter().map(|s| s * k).collect() } else { strides.clone() };
            routing.insert_ring(&members, &strides);
            oracle.insert_ring(&members, &strides);
        }
        if !degenerate {
            for (src, dst, path) in &after {
                routing.insert(*src, *dst, path.clone());
                oracle.insert(*src, *dst, path.clone());
            }
        }
        assert_same_routes(&routing, &oracle, n);
        assert_ring_contract(&routing, &oracle, n);

        // Verdicts on a graph every route fits, then with one edge cut.
        let mut g = covering_graph(&oracle, n);
        prop_assert_eq!(routing.validate_against(&g), oracle.validate_against(&g));
        let ids: Vec<_> = g.edges().map(|(id, _)| id).collect();
        if !ids.is_empty() {
            g.remove_edge(ids[cut % ids.len()]);
            prop_assert_eq!(routing.validate_against(&g), oracle.validate_against(&g));
        }
    }
}

/// `TopologyFinder`'s step 4, replayed on a materialized table: the groups
/// pair by pair, then the MP loop.
fn replay_step4(
    out: &topoopt_core::topology_finder::TopologyFinderOutput,
    mp: &topoopt_graph::TrafficMatrix,
    mp_shortest_path: bool,
) -> Materialized {
    let mut oracle = Materialized::default();
    for g in &out.groups {
        oracle.insert_ring(&g.members, &g.strides);
    }
    for (src, dst, _) in mp.entries_desc() {
        let existing_hops = oracle.hops(src, dst);
        if existing_hops.is_some() && !mp_shortest_path {
            continue;
        }
        if let Some(p) = bfs_shortest_path(&out.graph, src, dst) {
            if existing_hops.map(|h| p.len() - 1 < h).unwrap_or(true) {
                oracle.insert(src, dst, p);
            }
        }
    }
    oracle
}

#[test]
fn topology_finder_routes_match_the_materialized_table_on_the_zoo() {
    let n = 64;
    for kind in ModelKind::all() {
        let model = build_model(kind, ModelPreset::Shared);
        let strategy = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, n);
        let demands = extract_traffic(&model, &strategy, 4);
        for mp_shortest_path in [false, true] {
            let out = topology_finder(&TopologyFinderInput {
                mp_shortest_path,
                ..TopologyFinderInput::new(n, 4, 25.0e9, &demands)
            });
            let oracle = replay_step4(&out, &demands.mp, mp_shortest_path);
            assert_same_routes(&out.routing, &oracle, n);
            assert_ring_contract(&out.routing, &oracle, n);
            assert_eq!(out.routing.validate_against(&out.graph), Ok(()), "{kind:?}");
            assert_eq!(oracle.validate_against(&out.graph), Ok(()), "{kind:?}");
        }
    }
}
