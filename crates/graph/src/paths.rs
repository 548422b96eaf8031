//! Shortest paths, k-shortest paths, the pairs a damaged fabric still
//! connects, diameter, and average path length.
//!
//! TopoOpt routes model-parallel transfers over (k-)shortest paths on the
//! combined topology (Algorithm 1, line 20).

use crate::graph::{Graph, NodeId};
use std::cell::RefCell;
use std::collections::VecDeque;

/// A path as an ordered list of nodes, starting at the source and ending at
/// the destination.
pub type NodePath = Vec<NodeId>;

/// Reusable BFS state. A node counts as seen in the current search iff its
/// stamp equals `epoch`, so starting a search clears nothing and a search
/// costs O(nodes visited) rather than O(graph).
#[derive(Default)]
struct BfsScratch {
    epoch: u32,
    stamp: Vec<u32>,
    prev: Vec<NodeId>,
    /// FIFO of discovered nodes; the search pops by advancing an index.
    queue: Vec<NodeId>,
}

impl BfsScratch {
    /// Start a search over a graph of `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.prev.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from 2^32 searches ago would alias the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Mark `v` seen via `from` and queue it, unless it already was seen.
    fn discover(&mut self, v: NodeId, from: NodeId) {
        if self.stamp[v] != self.epoch {
            self.stamp[v] = self.epoch;
            self.prev[v] = from;
            self.queue.push(v);
        }
    }

    /// The discovered path from `src` to `dst`.
    fn path(&self, src: NodeId, dst: NodeId) -> NodePath {
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = self.prev[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }
}

thread_local! {
    /// One scratch per thread, grown to the largest graph searched on it.
    static BFS_SCRATCH: RefCell<BfsScratch> = RefCell::new(BfsScratch::default());
}

/// BFS shortest path by hop count. Returns `None` if `dst` is unreachable.
/// Each node's neighbours are discovered in ascending id order, which fixes
/// the tie-break among equal-length paths.
pub fn bfs_shortest_path(g: &Graph, src: NodeId, dst: NodeId) -> Option<NodePath> {
    if src == dst {
        return Some(vec![src]);
    }
    BFS_SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        s.begin(g.num_nodes());
        s.discover(src, src);
        let mut head = 0;
        while let Some(&u) = s.queue.get(head) {
            head += 1;
            // `dst` is unseen until found, so the first expanded node with an
            // edge to it is its BFS parent: test that edge by binary search
            // instead of scanning up to `dst` in `u`'s neighbour list (the
            // whole cluster when `u` is a switch hub).
            if g.has_edge(u, dst) {
                s.discover(dst, u);
                return Some(s.path(src, dst));
            }
            for v in g.out_neighbors(u) {
                s.discover(v, u);
            }
        }
        None
    })
}

/// Hop-count distances from `src` to every node (usize::MAX if unreachable).
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<usize> {
    let n = g.num_nodes();
    let mut dist = vec![usize::MAX; n];
    let mut q = VecDeque::new();
    dist[src] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        for v in g.out_neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// The ordered pairs among the first `num_servers` nodes that are still
/// path-connected on `g` — what a repair can and must keep deliverable.
pub fn surviving_pairs(g: &Graph, num_servers: usize) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for src in 0..num_servers {
        let dist = bfs_distances(g, src);
        for (dst, &d) in dist.iter().enumerate().take(num_servers) {
            if src != dst && d != usize::MAX {
                pairs.push((src, dst));
            }
        }
    }
    pairs
}

/// Yen's algorithm: up to `k` loop-free shortest paths by hop count, in order
/// of increasing length.
pub fn k_shortest_paths(g: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<NodePath> {
    let mut result: Vec<NodePath> = Vec::new();
    let first = match bfs_shortest_path(g, src, dst) {
        Some(p) => p,
        None => return result,
    };
    result.push(first);
    let mut candidates: Vec<NodePath> = Vec::new();

    while result.len() < k {
        let last = result.last().unwrap().clone();
        for i in 0..last.len().saturating_sub(1) {
            let spur_node = last[i];
            let root_path = &last[..=i];

            // Copy graph and remove edges that would recreate already-found
            // paths sharing this root, and nodes already on the root path.
            let mut gg = g.clone();
            for p in &result {
                if p.len() > i + 1 && &p[..=i] == root_path {
                    // remove edge p[i] -> p[i+1]
                    let ids: Vec<_> = gg
                        .out_edges(p[i])
                        .filter(|(_, e)| e.dst == p[i + 1])
                        .map(|(id, _)| id)
                        .collect();
                    for id in ids {
                        gg.remove_edge(id);
                    }
                }
            }
            for &node in &root_path[..root_path.len() - 1] {
                let ids: Vec<_> = gg
                    .out_edges(node)
                    .map(|(id, _)| id)
                    .chain(gg.in_edges(node).map(|(id, _)| id))
                    .collect();
                for id in ids {
                    gg.remove_edge(id);
                }
            }

            if let Some(spur_path) = bfs_shortest_path(&gg, spur_node, dst) {
                let mut total: NodePath = root_path[..root_path.len() - 1].to_vec();
                total.extend(spur_path);
                if !result.contains(&total) && !candidates.contains(&total) {
                    candidates.push(total);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by_key(|p| p.len());
        result.push(candidates.remove(0));
    }
    result
}

/// All-pairs shortest-path hop counts. `usize::MAX` marks unreachable pairs.
pub fn all_pairs_shortest_path_lengths(g: &Graph) -> Vec<Vec<usize>> {
    (0..g.num_nodes()).map(|s| bfs_distances(g, s)).collect()
}

/// Diameter in hops (maximum finite shortest-path length over all ordered
/// pairs). Returns `None` if the graph is disconnected.
pub fn diameter(g: &Graph) -> Option<usize> {
    let d = all_pairs_shortest_path_lengths(g);
    let mut max = 0;
    for (i, row) in d.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if i == j {
                continue;
            }
            if v == usize::MAX {
                return None;
            }
            max = max.max(v);
        }
    }
    Some(max)
}

/// Average shortest-path hop count over all ordered pairs (excluding
/// self-pairs). Unreachable pairs are skipped.
pub fn average_path_length(g: &Graph) -> f64 {
    let d = all_pairs_shortest_path_lengths(g);
    let mut sum = 0usize;
    let mut count = 0usize;
    for (i, row) in d.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if i != j && v != usize::MAX {
                sum += v;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
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
    fn bfs_on_ring_walks_around() {
        let g = ring(6);
        let p = bfs_shortest_path(&g, 0, 3).unwrap();
        assert_eq!(p, vec![0, 1, 2, 3]);
        assert_eq!(bfs_shortest_path(&g, 2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn stale_stamps_do_not_survive_the_epoch_wrapping() {
        let g = ring(6);
        let expected = Some(vec![0, 1, 2, 3]);
        BFS_SCRATCH.with(|s| s.borrow_mut().epoch = 0);
        assert_eq!(bfs_shortest_path(&g, 0, 3), expected); // stamps nodes with epoch 1
        BFS_SCRATCH.with(|s| s.borrow_mut().epoch = u32::MAX);
        // The next search wraps back to epoch 1.
        assert_eq!(bfs_shortest_path(&g, 0, 3), expected);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        assert!(bfs_shortest_path(&g, 1, 0).is_none());
        assert!(bfs_shortest_path(&g, 0, 2).is_none());
    }

    #[test]
    fn surviving_pairs_excludes_severed_ones() {
        // Directed 3-ring losing 0->1: 0 is cut off from everyone (its only
        // egress) and 2->1 is stranded (its only path relayed through 0);
        // only the 1->2->0 arc survives.
        let mut g = ring(3);
        let dead = g.edges().find(|(_, e)| e.src == 0 && e.dst == 1).map(|(id, _)| id);
        g.remove_edge(dead.expect("0->1 is live"));
        assert_eq!(surviving_pairs(&g, 3), vec![(1, 0), (1, 2), (2, 0)]);
    }

    #[test]
    fn diameter_of_directed_ring_is_n_minus_one() {
        let g = ring(7);
        assert_eq!(diameter(&g), Some(6));
    }

    #[test]
    fn diameter_of_disconnected_graph_is_none() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 1.0);
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn k_shortest_returns_increasing_lengths() {
        // Two disjoint paths 0->3: 0-1-3 and 0-2-3, plus longer 0-1-2-3.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(1, 2, 1.0);
        let ps = k_shortest_paths(&g, 0, 3, 3);
        assert!(ps.len() >= 2);
        assert_eq!(ps[0].len(), 3);
        assert!(ps.windows(2).all(|w| w[0].len() <= w[1].len()));
        // All start at 0 and end at 3, loop-free.
        for p in &ps {
            assert_eq!(*p.first().unwrap(), 0);
            assert_eq!(*p.last().unwrap(), 3);
            let mut q = p.clone();
            q.sort_unstable();
            q.dedup();
            assert_eq!(q.len(), p.len(), "path has a loop: {:?}", p);
        }
    }

    #[test]
    fn average_path_length_of_full_mesh_is_one() {
        let mut g = Graph::new(4);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    g.add_edge(i, j, 1.0);
                }
            }
        }
        assert!((average_path_length(&g) - 1.0).abs() < 1e-9);
    }
}
