//! Hop-count checkers over a fabric graph.

use topoopt_graph::paths::bfs_distances;
use topoopt_graph::Graph;

/// Diameter in hops (maximum shortest-path length over all ordered pairs),
/// or `None` if some pair is unreachable.
pub fn diameter(g: &Graph) -> Option<usize> {
    let mut hops = (0..g.num_nodes()).flat_map(|s| bfs_distances(g, s));
    hops.try_fold(0, |max, h| (h != usize::MAX).then(|| max.max(h)))
}
