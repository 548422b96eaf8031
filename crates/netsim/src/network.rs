//! The simulated network: a physical topology, its routing rules, and the
//! set of server nodes.

use topoopt_core::Routing;
use topoopt_graph::paths::bfs_shortest_path;
use topoopt_graph::Graph;
use topoopt_rdma::ForwardingPlan;

/// The kernel-relay penalty of host-based RDMA forwarding (§6, Appendix I):
/// the NPAR forwarding plan of the fabric plus the measured per-relay
/// throughput multiplier.
#[derive(Debug, Clone)]
pub struct RelayOverhead {
    /// Destination-keyed forwarding rules derived from the fabric's
    /// topology and routing (`topoopt_rdma::build_forwarding_plan`).
    pub plan: ForwardingPlan,
    /// Per-relay-hop throughput multiplier (< 1 models the kernel path's
    /// penalty versus NIC offload; 1.0 = relaying is free).
    pub relay_efficiency: f64,
}

/// A network under simulation. Servers are nodes `0..num_servers`; any
/// further nodes are switches (fat-tree) or hubs (ideal switch).
#[derive(Debug, Clone)]
pub struct SimNetwork {
    /// Physical topology with per-link capacities.
    pub graph: Graph,
    /// Number of server nodes.
    pub num_servers: usize,
    /// Explicit routing rules (TopoOpt installs coin-change + shortest-path
    /// rules); pairs without a rule fall back to BFS shortest path.
    pub routing: Routing,
    /// Per-hop propagation delay in seconds (1 µs in the paper's
    /// simulations).
    pub per_hop_latency_s: f64,
    /// Whether servers may relay traffic for other servers (host-based
    /// forwarding). When false, a flow whose shortest path crosses another
    /// server is considered unroutable on this fabric (SiP-ML's behaviour).
    pub host_forwarding: bool,
    /// RDMA forwarding-plane penalty model. `None` (the default) prices
    /// relaying as free — switched baselines and the pre-§6 abstract
    /// fabrics.
    pub relay: Option<RelayOverhead>,
}

impl SimNetwork {
    /// Create a network with default 1 µs per-hop latency and host
    /// forwarding enabled.
    pub fn new(graph: Graph, num_servers: usize, routing: Routing) -> Self {
        SimNetwork {
            graph,
            num_servers,
            routing,
            per_hop_latency_s: 1.0e-6,
            host_forwarding: true,
            relay: None,
        }
    }

    /// Create a network without explicit routing rules (all paths fall back
    /// to shortest path) — used for the switched baselines.
    pub fn without_rules(graph: Graph, num_servers: usize) -> Self {
        Self::new(graph, num_servers, Routing::new())
    }

    /// Disable host-based forwarding (SiP-ML / OCS-reconfig-noFW).
    pub fn with_host_forwarding(mut self, enabled: bool) -> Self {
        self.host_forwarding = enabled;
        self
    }

    /// Attach the RDMA forwarding plane: flows between relayed server pairs
    /// are rate-capped by `relay_efficiency` per kernel relay (see
    /// [`crate::fluid::FlowSpec::relay_factor`]).
    pub fn with_relay_overhead(mut self, plan: ForwardingPlan, relay_efficiency: f64) -> Self {
        self.relay = Some(RelayOverhead { plan, relay_efficiency });
        self
    }

    /// Rate multiplier of the logical connection between two servers:
    /// `relay_efficiency ^ relays` under the attached forwarding plan, 1.0
    /// when no plan is attached (or for self-pairs). Pairs the plan has no
    /// route for return 0.0 (their flows are stuck at rate zero, the
    /// fluid-level equivalent of "no logical RDMA connection").
    pub fn relay_factor(&self, src: usize, dst: usize) -> f64 {
        match &self.relay {
            Some(r) => r.plan.effective_throughput_factor(src, dst, r.relay_efficiency),
            None => 1.0,
        }
    }

    /// Path between two servers, applying the host-forwarding policy: when
    /// forwarding is disabled, only paths whose intermediate nodes are all
    /// switches (ids `>= num_servers`) are allowed.
    pub fn path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        let p = self.routing.path_or_shortest(&self.graph, src, dst)?;
        let relays = p.get(1..p.len().saturating_sub(1)).unwrap_or_default();
        if !self.host_forwarding && relays.iter().any(|&v| v < self.num_servers) {
            return None;
        }
        Some(p)
    }

    /// Sorted hop counts over all ordered server pairs (Figure 14): a pair's
    /// routing rule when it has one, otherwise its BFS shortest path. Hubs
    /// and switches are never endpoints, and pairs without a path are
    /// skipped.
    pub fn server_path_length_cdf(&self) -> Vec<usize> {
        let mut v: Vec<usize> = Vec::new();
        for s in 0..self.num_servers {
            for d in 0..self.num_servers {
                if s == d {
                    continue;
                }
                if let Some(h) = self.routing.hops(s, d) {
                    v.push(h);
                } else if let Some(p) = bfs_shortest_path(&self.graph, s, d) {
                    v.push(p.len() - 1);
                }
            }
        }
        v.sort_unstable();
        v
    }

    /// Average server-to-server path length in hops.
    pub fn average_server_path_length(&self) -> f64 {
        let cdf = self.server_path_length_cdf();
        if cdf.is_empty() {
            0.0
        } else {
            cdf.iter().sum::<usize>() as f64 / cdf.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_graph::topologies;

    #[test]
    fn shortest_path_fallback_works() {
        let g = topologies::from_permutations(8, &[1], 10.0e9);
        let net = SimNetwork::without_rules(g, 8);
        let p = net.path(0, 3).unwrap();
        assert_eq!(p, vec![0, 1, 2, 3]);
    }

    #[test]
    fn forwarding_policy_blocks_host_relays() {
        let g = topologies::from_permutations(8, &[1], 10.0e9);
        let net = SimNetwork::without_rules(g, 8).with_host_forwarding(false);
        // 0 -> 3 requires relaying through servers 1 and 2: not allowed.
        assert!(net.path(0, 3).is_none());
        // Direct neighbours are fine.
        assert!(net.path(0, 1).is_some());
        // A self-pair's one-node path relays through nobody.
        assert_eq!(net.path(2, 2), Some(vec![2]));
    }

    #[test]
    fn switch_relays_are_allowed_without_host_forwarding() {
        let g = topologies::ideal_switch(4, 100.0e9);
        let net = SimNetwork::without_rules(g, 4).with_host_forwarding(false);
        // 0 -> 2 goes through the hub (node 4, a switch): allowed.
        let p = net.path(0, 2).unwrap();
        assert_eq!(p, vec![0, 4, 2]);
    }

    #[test]
    fn explicit_rules_take_precedence() {
        let g = topologies::from_permutations(6, &[1, 5], 10.0e9);
        let mut routing = Routing::new();
        routing.insert(0, 2, vec![0, 1, 2]);
        let net = SimNetwork::new(g, 6, routing);
        assert_eq!(net.path(0, 2).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn path_length_cdf_is_sorted() {
        let g = topologies::from_permutations(16, &[1, 3, 7], 10.0e9);
        let net = SimNetwork::without_rules(g, 16);
        let cdf = net.server_path_length_cdf();
        assert!(!cdf.is_empty());
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!(net.average_server_path_length() >= 1.0);
    }

    #[test]
    fn path_length_cdf_counts_server_pairs_only_on_switched_fabrics() {
        // Ideal switch: 4 servers behind one hub, every pair 2 hops apart;
        // the hub<->server pairs are not part of the CDF.
        let net = SimNetwork::without_rules(topologies::ideal_switch(4, 100.0e9), 4);
        assert_eq!(net.server_path_length_cdf(), vec![2; 4 * 3]);
        // k = 4 fat-tree: 16 hosts and 20 switches; host pairs are 2, 4 or
        // 6 hops apart (same edge switch, same pod, across pods).
        let ft = topologies::fat_tree(4, 10.0e9);
        let net = SimNetwork::without_rules(ft.graph, ft.num_hosts);
        let cdf = net.server_path_length_cdf();
        assert_eq!(cdf.len(), 16 * 15);
        assert_eq!(cdf.first(), Some(&2));
        assert_eq!(cdf.last(), Some(&6));
        assert_eq!(cdf.iter().filter(|&&h| h == 2).count(), 16);
    }
}
