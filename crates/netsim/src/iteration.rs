//! Simulation of one training iteration on a dedicated network.
//!
//! An iteration consists of the busiest server's compute time plus the
//! completion time of all of the iteration's network transfers (AllReduce
//! ring flows and model-parallel flows), simulated together under max-min
//! fair sharing. This matches the no-overlap formulation the paper uses for
//! its analysis (§5.4, Eq. 1) while still capturing contention between the
//! two traffic classes, multi-hop forwarding, and load imbalance.

use crate::flows::{allreduce_flows, mp_flows, AllReducePlan};
use crate::fluid::{simulate_flows, FluidResult};
use crate::network::SimNetwork;
use serde::{Deserialize, Serialize};
use topoopt_strategy::TrafficDemands;

/// Result of simulating one iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationResult {
    /// Compute portion (input, echoed back).
    pub compute_s: f64,
    /// Communication completion time (seconds): when the last AllReduce or
    /// MP flow finished.
    pub comm_s: f64,
    /// Total iteration time (compute + communication).
    pub total_s: f64,
    /// Bandwidth tax of the iteration's traffic (carried / demanded bytes).
    pub bandwidth_tax: f64,
    /// Sorted per-link carried bytes (Figure 15's CDF).
    pub link_traffic_cdf: Vec<f64>,
    /// True if some transfer could not be routed (e.g. forwarding disabled
    /// on a direct-connect fabric without the needed circuit).
    pub unroutable: bool,
}

/// Simulate one training iteration of a job whose demands are `demands`,
/// with the AllReduce traffic laid out according to `plans` (one entry per
/// AllReduce group). `compute_s` is the busiest server's compute time,
/// typically taken from the strategy cost model.
pub fn simulate_iteration(
    net: &SimNetwork,
    demands: &TrafficDemands,
    plans: &[AllReducePlan],
    compute_s: f64,
) -> IterationResult {
    let mut flows = Vec::new();
    for plan in plans {
        flows.extend(allreduce_flows(net, plan));
    }
    flows.extend(mp_flows(net, &demands.mp));

    let result: FluidResult = simulate_flows(&net.graph, &flows, net.per_hop_latency_s);
    let unroutable = result.completion_s.iter().any(|c| c.is_infinite());
    let comm_s = if unroutable { f64::INFINITY } else { result.makespan_s };
    IterationResult {
        compute_s,
        comm_s,
        total_s: compute_s + comm_s,
        bandwidth_tax: result.bandwidth_tax(),
        link_traffic_cdf: result.link_traffic_cdf(),
        unroutable,
    }
}

/// Default AllReduce plans for a switched fabric: every group runs a single
/// natural ring.
pub fn natural_ring_plans(demands: &TrafficDemands) -> Vec<AllReducePlan> {
    demands
        .allreduce_groups
        .iter()
        .map(|g| AllReducePlan::natural_ring(g.members.clone(), g.bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SimNetwork;
    use topoopt_core::topology_finder::{topology_finder, TopologyFinderInput};
    use topoopt_graph::topologies;
    use topoopt_models::zoo::build_dlrm;
    use topoopt_models::DlrmConfig;
    use topoopt_strategy::{extract_traffic, ParallelizationStrategy};

    fn dlrm_demands(n: usize) -> TrafficDemands {
        let m = build_dlrm(&DlrmConfig::shared());
        let s = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, n);
        extract_traffic(&m, &s, 4)
    }

    fn topoopt_network(
        demands: &TrafficDemands,
        n: usize,
        d: usize,
        bps: f64,
    ) -> (SimNetwork, Vec<AllReducePlan>) {
        let out = topology_finder(&TopologyFinderInput::new(n, d, bps, demands));
        let plans = AllReducePlan::from_groups(&out.groups);
        (SimNetwork::new(out.graph, n, out.routing), plans)
    }

    #[test]
    fn iteration_time_includes_compute_and_comm() {
        let n = 16;
        let demands = dlrm_demands(n);
        let g = topologies::ideal_switch(n, 400.0e9);
        let net = SimNetwork::without_rules(g, n);
        let plans = natural_ring_plans(&demands);
        let r = simulate_iteration(&net, &demands, &plans, 0.05);
        assert!(r.comm_s > 0.0 && r.comm_s.is_finite());
        assert!((r.total_s - (0.05 + r.comm_s)).abs() < 1e-12);
        assert!(!r.unroutable);
    }

    #[test]
    fn ideal_switch_has_unit_bandwidth_tax() {
        let n = 16;
        let demands = dlrm_demands(n);
        let g = topologies::ideal_switch(n, 400.0e9);
        let net = SimNetwork::without_rules(g, n);
        let plans = natural_ring_plans(&demands);
        let r = simulate_iteration(&net, &demands, &plans, 0.0);
        // Every path is server -> hub -> server: 2 physical hops, but the
        // hub is a switch, so hosts never relay. The conventional bandwidth
        // tax counts host-relayed bytes; in our accounting the switched path
        // doubles the carried bytes, so compare fabrics with the same
        // convention (see fig13 harness). Here we only check it is finite
        // and at least 1.
        assert!(r.bandwidth_tax >= 1.0);
        assert!(r.bandwidth_tax.is_finite());
    }

    #[test]
    fn topoopt_beats_cost_equivalent_single_link_fabric_for_dlrm() {
        // TopoOpt with d=4 x 25G per server vs a "Fat-tree-like" fabric
        // where each server has a single 25G link to a big switch (the
        // cost-equivalent comparison of §5.3 at the B' chosen by the cost
        // model). TopoOpt should finish its communication faster.
        let n = 16;
        let demands = dlrm_demands(n);
        let (topo_net, plans) = topoopt_network(&demands, n, 4, 25.0e9);
        let topo = simulate_iteration(&topo_net, &demands, &plans, 0.0);

        let ft = topologies::ideal_switch(n, 25.0e9);
        let ft_net = SimNetwork::without_rules(ft, n);
        let ft_plans = natural_ring_plans(&demands);
        let fat = simulate_iteration(&ft_net, &demands, &ft_plans, 0.0);
        assert!(
            topo.comm_s < fat.comm_s,
            "TopoOpt {} should beat single-link fabric {}",
            topo.comm_s,
            fat.comm_s
        );
    }

    #[test]
    fn topoopt_close_to_ideal_switch_same_total_bandwidth() {
        // Figure 11: for mostly-data-parallel traffic TopoOpt tracks the
        // Ideal Switch with the same per-server bandwidth (d*B).
        let n = 16;
        let m = build_dlrm(&DlrmConfig::shared());
        let s = ParallelizationStrategy::pure_data_parallel(&m, n);
        let demands = extract_traffic(&m, &s, 4);
        let (topo_net, plans) = topoopt_network(&demands, n, 4, 25.0e9);
        let topo = simulate_iteration(&topo_net, &demands, &plans, 0.0);
        let ideal = {
            let g = topologies::ideal_switch(n, 100.0e9);
            let net = SimNetwork::without_rules(g, n);
            simulate_iteration(&net, &demands, &natural_ring_plans(&demands), 0.0)
        };
        assert!(topo.comm_s < ideal.comm_s * 2.0);
        assert!(ideal.comm_s < topo.comm_s * 2.0);
    }

    #[test]
    fn disabling_forwarding_makes_multi_hop_transfers_unroutable() {
        let n = 16;
        let demands = dlrm_demands(n);
        let (net, plans) = topoopt_network(&demands, n, 2, 25.0e9);
        let no_fw = net.clone().with_host_forwarding(false);
        let r = simulate_iteration(&no_fw, &demands, &plans, 0.0);
        // With degree 2 the MP all-to-all needs relays; disabling forwarding
        // leaves some transfers unroutable.
        assert!(r.unroutable);
        assert!(r.total_s.is_infinite());
    }

    #[test]
    fn relay_overhead_slows_relayed_iterations_and_unit_efficiency_is_free() {
        // Degree 2 forces most MP pairs through relays, so the kernel
        // penalty is makespan-critical.
        let n = 16;
        let demands = dlrm_demands(n);
        let (net, plans) = topoopt_network(&demands, n, 2, 25.0e9);
        let plan = topoopt_rdma::build_forwarding_plan(&net.graph, n, &net.routing);
        assert!(plan.relayed_fraction() > 0.0, "fabric should have relayed pairs");
        let base = simulate_iteration(&net, &demands, &plans, 0.0);
        let free = simulate_iteration(
            &net.clone().with_relay_overhead(plan.clone(), 1.0),
            &demands,
            &plans,
            0.0,
        );
        // relay_efficiency = 1.0 is bit-identical to the plan-less fabric.
        assert_eq!(base, free);
        let taxed =
            simulate_iteration(&net.clone().with_relay_overhead(plan, 0.3), &demands, &plans, 0.0);
        assert!(
            taxed.comm_s > base.comm_s,
            "kernel relays at 30% efficiency must slow the iteration: {} vs {}",
            taxed.comm_s,
            base.comm_s
        );
    }

    #[test]
    fn bandwidth_tax_grows_with_mp_share() {
        let n = 16;
        let m_small = build_dlrm(&DlrmConfig::all_to_all(32));
        let m_large = build_dlrm(&DlrmConfig::all_to_all(512));
        let tax = |m: &topoopt_models::DnnModel| {
            let s = ParallelizationStrategy::hybrid_embeddings_round_robin(m, n);
            let demands = extract_traffic(m, &s, 4);
            let (net, plans) = topoopt_network(&demands, n, 4, 25.0e9);
            simulate_iteration(&net, &demands, &plans, 0.0).bandwidth_tax
        };
        assert!(tax(&m_large) >= tax(&m_small));
    }
}
