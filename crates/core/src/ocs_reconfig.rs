//! OCS-reconfig heuristic (Algorithm 5 / Appendix E.4) and the SiP-ML
//! variant (Appendix F).
//!
//! When the fabric reconfigures *within* training iterations, a centralized
//! controller periodically measures the unsatisfied demand and recomputes
//! the circuits. The heuristic greedily allocates parallel links to the
//! highest-demand pair, discounting a pair's residual demand each time it
//! receives an extra link (so elephant pairs do not monopolise every
//! interface), then repairs connectivity with a two-edge replacement pass.
//!
//! SiP-ML's SiP-Ring formulation optimises the same utility with no
//! diminishing returns (`Discount = 1`), which is how the paper evaluates it
//! (Appendix F).

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use topoopt_graph::{Graph, TrafficMatrix};

/// Discount schedule applied to a pair's demand after each allocated
/// parallel link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Discount {
    /// Exponential: each extra link halves the residual demand (TopoOpt's
    /// OCS-reconfig heuristic, Eq. 2).
    Exponential,
    /// No discount (SiP-ML's utility, Appendix F).
    None,
}

/// Configuration of the reconfiguration heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OcsReconfigConfig {
    /// Interfaces per server.
    pub degree: usize,
    /// Per-interface bandwidth (bps).
    pub link_bps: f64,
    /// Discount schedule.
    pub discount: Discount,
    /// If true, run the two-edge replacement pass so the final graph is
    /// strongly connected (required when host-based forwarding is enabled).
    pub ensure_connected: bool,
}

/// Utility of a topology for a demand matrix (Eq. 1 of Appendix E.4):
/// `Σ T(i,j) · Discount(L(i,j))` where `L` is the number of parallel links.
pub fn topology_utility(demand: &TrafficMatrix, g: &Graph, discount: Discount) -> f64 {
    let n = demand.num_nodes();
    let mut u = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let l = g.multiplicity(i, j);
            if l == 0 {
                continue;
            }
            let factor = match discount {
                Discount::Exponential => (1..=l).map(|x| 0.5f64.powi(x as i32)).sum::<f64>(),
                Discount::None => l as f64,
            };
            u += demand.get(i, j) * factor;
        }
    }
    u
}

/// Run the OCS-reconfig circuit allocation (Algorithm 5) for the current
/// unsatisfied demand matrix. Node ids are `0..demand.num_nodes()`.
pub fn ocs_reconfig_topology(demand: &TrafficMatrix, cfg: &OcsReconfigConfig) -> Graph {
    let n = demand.num_nodes();
    let mut g = Graph::new(n);
    let mut available_tx = vec![cfg.degree; n];
    let mut available_rx = vec![cfg.degree; n];
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
        g.add_edge(a, b, cfg.link_bps);
        // Line 11: scale residual demand by the discount factor.
        match cfg.discount {
            Discount::Exponential => residual.scale_entry(a, b, 0.5),
            Discount::None => residual.set(a, b, 0.0),
        }
        available_tx[a] -= 1;
        available_rx[b] -= 1;
    }

    if cfg.ensure_connected {
        two_edge_replacement(&mut g, cfg);
    }
    g
}

/// SiP-ML topology: the same allocator with no diminishing returns and no
/// host-based forwarding, i.e. only directly connected pairs can talk
/// between reconfigurations (Appendix F).
pub fn sipml_topology(demand: &TrafficMatrix, degree: usize, link_bps: f64) -> Graph {
    ocs_reconfig_topology(
        demand,
        &OcsReconfigConfig { degree, link_bps, discount: Discount::None, ensure_connected: false },
    )
}

/// Two-edge replacement connectivity repair (OWAN-style, Appendix E.4, line
/// 21): while the graph is not strongly connected, pick one node that cannot
/// be reached from node 0 (or cannot reach it), free one of its interfaces by
/// dropping its lowest-capacity redundant edge (a parallel edge if possible),
/// and splice it into a ring edge that stitches the components together.
fn two_edge_replacement(g: &mut Graph, cfg: &OcsReconfigConfig) {
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
        if g.out_degree(i) >= cfg.degree {
            remove_one_redundant_out_edge(g, i);
        }
        if g.in_degree(j) >= cfg.degree {
            remove_one_redundant_in_edge(g, j);
        }
        g.add_edge(i, j, cfg.link_bps);
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
        let demand = skewed_demand(8);
        let cfg = OcsReconfigConfig {
            degree: 4,
            link_bps: 25.0e9,
            discount: Discount::Exponential,
            ensure_connected: false,
        };
        let g = ocs_reconfig_topology(&demand, &cfg);
        assert!(g.respects_degree(4));
    }

    #[test]
    fn elephant_pair_gets_links_but_not_all_of_them() {
        let demand = skewed_demand(8);
        let cfg = OcsReconfigConfig {
            degree: 4,
            link_bps: 25.0e9,
            discount: Discount::Exponential,
            ensure_connected: false,
        };
        let g = ocs_reconfig_topology(&demand, &cfg);
        let elephant_links = g.multiplicity(0, 1);
        assert!(elephant_links >= 1);
        assert!(
            elephant_links < 4,
            "discounting should stop the elephant pair from taking every interface"
        );
    }

    #[test]
    fn sipml_discount_none_gives_each_pair_at_most_one_link() {
        // With Discount::None the residual demand is zeroed after the first
        // link, so no pair receives parallel links.
        let demand = skewed_demand(8);
        let g = sipml_topology(&demand, 4, 25.0e9);
        for i in 0..8 {
            for j in 0..8 {
                assert!(g.multiplicity(i, j) <= 1);
            }
        }
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
        let disconnected = ocs_reconfig_topology(
            &demand,
            &OcsReconfigConfig {
                degree: 3,
                link_bps: 25.0e9,
                discount: Discount::Exponential,
                ensure_connected: false,
            },
        );
        assert!(!disconnected.is_strongly_connected());
        let repaired = ocs_reconfig_topology(
            &demand,
            &OcsReconfigConfig {
                degree: 3,
                link_bps: 25.0e9,
                discount: Discount::Exponential,
                ensure_connected: true,
            },
        );
        assert!(repaired.is_strongly_connected());
        assert!(repaired.respects_degree(3));
    }

    #[test]
    fn utility_prefers_topology_matching_demand() {
        let demand = skewed_demand(6);
        let cfg = OcsReconfigConfig {
            degree: 2,
            link_bps: 10.0e9,
            discount: Discount::Exponential,
            ensure_connected: false,
        };
        let matched = ocs_reconfig_topology(&demand, &cfg);
        // A ring ignores the demand distribution entirely.
        let ring = topoopt_graph::topologies::from_permutations(6, &[1, 5], 10.0e9);
        let u_matched = topology_utility(&demand, &matched, Discount::Exponential);
        let u_ring = topology_utility(&demand, &ring, Discount::Exponential);
        assert!(u_matched > u_ring);
    }

    #[test]
    fn empty_demand_allocates_nothing() {
        let demand = TrafficMatrix::new(5);
        let cfg = OcsReconfigConfig {
            degree: 3,
            link_bps: 1.0e9,
            discount: Discount::Exponential,
            ensure_connected: false,
        };
        let g = ocs_reconfig_topology(&demand, &cfg);
        assert_eq!(g.num_edges(), 0);
    }
}
