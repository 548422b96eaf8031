//! The graph layer's fast paths against the simple implementations they
//! replaced, on random inputs:
//!
//! * `bfs_shortest_path` (sorted adjacency, pooled scratch, goal test
//!   on expansion) against an allocate-and-sort BFS;
//! * the allocation-free neighbour iterators and binary-search pair lookups
//!   against collect-sort-dedup and filtered scans of the out/in-edges;
//! * `TrafficMatrix::remapped_entries_desc` against a dense remap onto the
//!   larger node set.
//!
//! Every comparison is exact: same paths, same order, same float bits.

use proptest::prelude::*;
use std::collections::VecDeque;
use topoopt_graph::paths::bfs_shortest_path;
use topoopt_graph::{Graph, TrafficMatrix};

/// BFS as first written: fresh `seen`/`prev` vectors per search, and every
/// expanded node's out-neighbours collected, sorted and deduplicated.
fn reference_bfs(g: &Graph, src: usize, dst: usize) -> Option<Vec<usize>> {
    if src == dst {
        return Some(vec![src]);
    }
    let n = g.num_nodes();
    let mut prev = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::from([src]);
    seen[src] = true;
    while let Some(u) = queue.pop_front() {
        let mut neighbours: Vec<usize> = g.out_edges(u).map(|(_, e)| e.dst).collect();
        neighbours.sort_unstable();
        neighbours.dedup();
        for v in neighbours {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            prev[v] = Some(u);
            if v == dst {
                let mut path = vec![dst];
                while let Some(p) = prev[*path.last().unwrap()] {
                    path.push(p);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(v);
        }
    }
    None
}

/// A multigraph over `n` nodes from raw `(src, dst, capacity level, dead)`
/// draws: endpoints wrap into range, and dead edges are tombstoned after
/// every edge is in, so live and removed parallel edges interleave.
fn multigraph(n: usize, raw: &[(usize, usize, usize, bool)]) -> Graph {
    let mut g = Graph::new(n);
    let ids: Vec<_> =
        raw.iter().map(|&(s, d, level, _)| g.add_edge(s % n, d % n, 0.1 * level as f64)).collect();
    for (&id, &(_, _, _, dead)) in ids.iter().zip(raw) {
        if dead {
            g.remove_edge(id);
        }
    }
    g
}

/// A switch hub (node `n`) wired to `n` servers in a shuffled order, plus a
/// few direct server links: the hub's neighbour list is long and was not
/// built in id order.
fn shuffled_hub(n: usize, order: &[usize], direct: &[(usize, usize)]) -> Graph {
    let mut g = Graph::new(n + 1);
    let mut servers: Vec<usize> = (0..n).collect();
    for (i, &j) in order.iter().enumerate() {
        servers.swap(i % n, j % n);
    }
    for &s in &servers {
        g.add_bidi_edge(s, n, 1.0);
    }
    for &(a, b) in direct {
        g.add_edge(a % n, b % n, 1.0);
    }
    g
}

fn assert_routes_match(g: &Graph) {
    for src in 0..g.num_nodes() {
        for dst in 0..g.num_nodes() {
            assert_eq!(
                bfs_shortest_path(g, src, dst),
                reference_bfs(g, src, dst),
                "route {src} -> {dst}"
            );
        }
    }
}

fn assert_lookups_match(g: &Graph) {
    for u in 0..g.num_nodes() {
        // Adjacency order is (neighbour, id): parallel edges oldest first.
        let outs: Vec<_> = g.out_edges(u).map(|(id, e)| (e.dst, id)).collect();
        assert!(outs.windows(2).all(|w| w[0] < w[1]), "out-edges of {u}: {outs:?}");
        let ins: Vec<_> = g.in_edges(u).map(|(id, e)| (e.src, id)).collect();
        assert!(ins.windows(2).all(|w| w[0] < w[1]), "in-edges of {u}: {ins:?}");
        let mut outs: Vec<usize> = g.out_edges(u).map(|(_, e)| e.dst).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(g.out_neighbors(u).collect::<Vec<_>>(), outs, "out-neighbours of {u}");
        let mut ins: Vec<usize> = g.in_edges(u).map(|(_, e)| e.src).collect();
        ins.sort_unstable();
        ins.dedup();
        assert_eq!(g.in_neighbors(u).collect::<Vec<_>>(), ins, "in-neighbours of {u}");
        for v in 0..g.num_nodes() {
            let parallel = || g.out_edges(u).filter(move |(_, e)| e.dst == v);
            assert_eq!(g.has_edge(u, v), parallel().next().is_some());
            assert_eq!(g.multiplicity(u, v), parallel().count());
            let scanned: f64 = parallel().map(|(_, e)| e.capacity_bps).sum();
            assert_eq!(g.capacity_between(u, v).to_bits(), scanned.to_bits(), "{u} -> {v}");
        }
    }
}

/// The remap as first written: add every entry into an all-zero matrix over
/// the target set, then list that matrix.
fn dense_remap(m: &TrafficMatrix, map: &[usize], target: usize) -> Vec<(usize, usize, f64)> {
    let mut dense = TrafficMatrix::new(target);
    for (s, d, bytes) in m.entries_desc() {
        dense.add(map[s], map[d], bytes);
    }
    dense.entries_desc()
}

/// Bit-exact view of an entry list.
fn bits(entries: &[(usize, usize, f64)]) -> Vec<(usize, usize, u64)> {
    entries.iter().map(|&(s, d, b)| (s, d, b.to_bits())).collect()
}

/// A matrix over `n` nodes whose demands come from a few levels (0.1, 0.2,
/// 0.3 ...), so equal demands tie and folded sums round.
fn tied_matrix(n: usize, raw: &[(usize, usize, usize)]) -> TrafficMatrix {
    let mut m = TrafficMatrix::new(n);
    for &(s, d, level) in raw {
        m.set(s % n, d % n, 0.1 * level as f64);
    }
    m
}

proptest! {
    #[test]
    fn bfs_matches_the_allocate_and_sort_bfs_on_random_multigraphs(
        n in 1usize..14,
        raw in proptest::collection::vec(
            (0usize..14, 0usize..14, 1usize..4, proptest::bool::ANY), 0usize..60)
    ) {
        let g = multigraph(n, &raw);
        assert_routes_match(&g);
        assert_lookups_match(&g);
    }

    #[test]
    fn bfs_matches_the_allocate_and_sort_bfs_through_a_hub(
        n in 2usize..40,
        order in proptest::collection::vec(0usize..40, 0usize..40),
        direct in proptest::collection::vec((0usize..40, 0usize..40), 0usize..8)
    ) {
        let g = shuffled_hub(n, &order, &direct);
        assert_routes_match(&g);
        assert_lookups_match(&g);
    }

    #[test]
    fn job_sized_remap_matches_the_dense_remap(
        n in 1usize..17,
        raw in proptest::collection::vec((0usize..17, 0usize..17, 0usize..4), 0usize..200),
        extra in 0usize..20,
        swaps in proptest::collection::vec(0usize..64, 0usize..32),
        folds in proptest::bool::ANY
    ) {
        let m = tied_matrix(n, &raw);
        let target = n + extra;
        // An injective placement (a shuffled prefix of the target ids), or,
        // with `folds`, one that sends several nodes to the same target.
        let mut ids: Vec<usize> = (0..target).collect();
        for (i, &j) in swaps.iter().enumerate() {
            ids.swap(i % target, j % target);
        }
        let map: Vec<usize> =
            if folds { (0..n).map(|i| ids[i % 3]).collect() } else { ids[..n].to_vec() };
        prop_assert_eq!(
            bits(&m.remapped_entries_desc(&map)),
            bits(&dense_remap(&m, &map, target))
        );
    }
}
