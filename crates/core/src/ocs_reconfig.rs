//! OCS-reconfig heuristic (Algorithm 5 / Appendix E.4).
//!
//! When the fabric reconfigures *within* training iterations, a centralized
//! controller periodically measures the unsatisfied demand and recomputes
//! the circuits. The heuristic greedily allocates parallel links to the
//! highest-demand pair, halving a pair's residual demand each time it
//! receives an extra link (the exponential discount of Eq. 2, so elephant
//! pairs do not monopolise every interface), then repairs connectivity
//! with a two-edge replacement pass.

use std::cmp::Reverse;
use topoopt_graph::{Graph, TrafficMatrix};

/// Run the OCS-reconfig circuit allocation (Algorithm 5) for the current
/// unsatisfied demand matrix: `degree` interfaces per server of `link_bps`
/// each. Node ids are `0..demand.num_nodes()`. With `ensure_connected`, the
/// two-edge replacement pass makes the final graph strongly connected
/// (required when host-based forwarding is enabled).
pub fn ocs_reconfig_topology(
    demand: &TrafficMatrix,
    degree: usize,
    link_bps: f64,
    ensure_connected: bool,
) -> Graph {
    let n = demand.num_nodes();
    let mut g = Graph::new(n);
    let mut available_tx = vec![degree; n];
    let mut available_rx = vec![degree; n];
    // Residual demand we keep scaling down as pairs receive links.
    let mut residual = demand.clone();

    loop {
        // Highest residual-demand pair whose endpoints still have free
        // interfaces (line 7).
        let mut best: Option<(usize, usize, f64)> = None;
        for (i, &tx) in available_tx.iter().enumerate() {
            if tx == 0 {
                continue;
            }
            for (j, &rx) in available_rx.iter().enumerate() {
                if i == j || rx == 0 {
                    continue;
                }
                let dem = residual.get(i, j);
                if dem > 0.0 && best.map(|(_, _, b)| dem > b).unwrap_or(true) {
                    best = Some((i, j, dem));
                }
            }
        }
        let Some((a, b, _)) = best else { break };
        g.add_edge(a, b, link_bps);
        // Line 11: halve the pair's residual demand.
        residual.scale_entry(a, b, 0.5);
        available_tx[a] -= 1;
        available_rx[b] -= 1;
    }

    if ensure_connected {
        two_edge_replacement(&mut g, degree, link_bps);
    }
    g
}

/// Two-edge replacement connectivity repair (OWAN-style, Appendix E.4, line
/// 21): while the graph is not strongly connected, pick one node that cannot
/// be reached from node 0 (or cannot reach it), free one of its interfaces by
/// dropping its lowest-capacity redundant edge (a parallel edge if possible),
/// and splice it into a ring edge that stitches the components together.
fn two_edge_replacement(g: &mut Graph, degree: usize, link_bps: f64) {
    let n = g.num_nodes();
    if n <= 1 {
        return;
    }
    // Simple, always-terminating repair: walk the +1 ring; for any missing
    // ring edge (i, i+1) between different components, free an interface at
    // each endpoint (removing one existing edge if the degree is exhausted)
    // and add the ring edge. After at most n splices the ring exists, which
    // guarantees strong connectivity.
    for i in 0..n {
        let j = (i + 1) % n;
        let reachable = g.reachable_from(i);
        if reachable.len() == n {
            // Already strongly connected in the forward direction from i;
            // keep checking other sources cheaply only if needed.
            if g.is_strongly_connected() {
                return;
            }
        }
        if g.has_edge(i, j) {
            continue;
        }
        if g.out_degree(i) >= degree {
            remove_one_redundant_out_edge(g, i);
        }
        if g.in_degree(j) >= degree {
            remove_one_redundant_in_edge(g, j);
        }
        g.add_edge(i, j, link_bps);
    }
}

/// Remove one outgoing edge of `v`, preferring a parallel (redundant) edge:
/// the oldest (lowest-id) edge to a neighbour of maximal multiplicity.
fn remove_one_redundant_out_edge(g: &mut Graph, v: usize) {
    let candidate = g.out_edges(v).map(|(id, e)| (g.multiplicity(v, e.dst), Reverse(id))).max();
    if let Some((_, Reverse(id))) = candidate {
        g.remove_edge(id);
    }
}

/// Remove one incoming edge of `v`, preferring a parallel (redundant) edge:
/// the oldest edge from a neighbour of maximal multiplicity.
fn remove_one_redundant_in_edge(g: &mut Graph, v: usize) {
    let candidate = g.in_edges(v).map(|(id, e)| (g.multiplicity(e.src, v), Reverse(id))).max();
    if let Some((_, Reverse(id))) = candidate {
        g.remove_edge(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_demand(n: usize) -> TrafficMatrix {
        let mut t = TrafficMatrix::new(n);
        // One elephant pair plus a mesh of mice.
        t.set(0, 1, 6.0e9);
        for i in 0..n {
            for j in 0..n {
                if i != j && !(i == 0 && j == 1) {
                    t.add(i, j, 1.0e9);
                }
            }
        }
        t
    }

    #[test]
    fn allocation_respects_interface_budget() {
        let g = ocs_reconfig_topology(&skewed_demand(8), 4, 25.0e9, false);
        assert!(g.respects_degree(4));
    }

    #[test]
    fn elephant_pair_gets_links_but_not_all_of_them() {
        let g = ocs_reconfig_topology(&skewed_demand(8), 4, 25.0e9, false);
        let elephant_links = g.multiplicity(0, 1);
        assert!(elephant_links >= 1);
        assert!(
            elephant_links < 4,
            "discounting should stop the elephant pair from taking every interface"
        );
    }

    #[test]
    fn connectivity_repair_produces_strongly_connected_graph() {
        // Demand concentrated in two cliques: without repair the graph
        // splits; with repair it must be strongly connected.
        let mut demand = TrafficMatrix::new(12);
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    demand.set(i, j, 10.0e9);
                }
            }
        }
        for i in 6..12 {
            for j in 6..12 {
                if i != j {
                    demand.set(i, j, 10.0e9);
                }
            }
        }
        let disconnected = ocs_reconfig_topology(&demand, 3, 25.0e9, false);
        assert!(!disconnected.is_strongly_connected());
        let repaired = ocs_reconfig_topology(&demand, 3, 25.0e9, true);
        assert!(repaired.is_strongly_connected());
        assert!(repaired.respects_degree(3));
    }

    #[test]
    fn empty_demand_allocates_nothing() {
        let g = ocs_reconfig_topology(&TrafficMatrix::new(5), 3, 1.0e9, false);
        assert_eq!(g.num_edges(), 0);
    }
}
