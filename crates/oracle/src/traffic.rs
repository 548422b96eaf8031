//! Traffic-matrix checkers.

use topoopt_graph::TrafficMatrix;

/// The paper's communication degree of `node`: the number of distinct
/// peers it sends traffic to or receives traffic from.
pub fn communication_degree(m: &TrafficMatrix, node: usize) -> usize {
    (0..m.num_nodes())
        .filter(|&peer| peer != node && (m.get(node, peer) > 0.0 || m.get(peer, node) > 0.0))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn communication_degree_counts_distinct_peers() {
        let mut m = TrafficMatrix::new(4);
        m.set(0, 1, 1.0);
        m.set(2, 0, 1.0);
        m.set(0, 1, 2.0); // same peer again
        assert_eq!(communication_degree(&m, 0), 2);
        assert_eq!(communication_degree(&m, 3), 0);
    }
}
