//! Flow-set builders: turn AllReduce plans and model-parallel demand
//! matrices into routed [`FlowSpec`]s.

use crate::fluid::FlowSpec;
use crate::network::SimNetwork;
use topoopt_collectives::ring::{ring_bytes_per_node, RingPermutation};
use topoopt_core::topology_finder::SelectedGroup;
use topoopt_graph::TrafficMatrix;

/// How one AllReduce group's traffic is laid onto rings.
#[derive(Debug, Clone)]
pub struct AllReducePlan {
    /// The ring permutations the group's bytes are load-balanced over (one
    /// per allocated interface for TopoOpt; a single natural +1 ring for the
    /// switched baselines).
    pub permutations: Vec<RingPermutation>,
    /// Total parameter bytes the group synchronises per iteration.
    pub bytes: f64,
}

impl AllReducePlan {
    /// A single natural (+1) ring over `members` — the default AllReduce
    /// layout for switched fabrics.
    pub fn natural_ring(members: Vec<usize>, bytes: f64) -> Self {
        AllReducePlan { permutations: vec![RingPermutation::new(members, 1)], bytes }
    }

    /// One plan per `TopologyFinder` group: the group's selected ring
    /// permutations carrying its bytes.
    pub fn from_groups(groups: &[SelectedGroup]) -> Vec<AllReducePlan> {
        groups
            .iter()
            .map(|g| AllReducePlan { permutations: g.permutations(), bytes: g.bytes })
            .collect()
    }
}

/// One flow of `bytes` from `src` to `dst`, routed over `net`. A pair the
/// fabric cannot route (e.g. forwarding disabled and no direct circuit)
/// keeps the two-node virtual path `[src, dst]` with no relay penalty:
/// callers detect it via the missing route.
fn routed_flow(net: &SimNetwork, src: usize, dst: usize, bytes: f64) -> FlowSpec {
    match net.path(src, dst) {
        Some(path) => FlowSpec::new(path, bytes).with_relay_factor(net.relay_factor(src, dst)),
        None => FlowSpec { src, dst, bytes, path: vec![src, dst], relay_factor: 1.0 },
    }
}

/// Build the flows of one AllReduce plan on `net`: the bytes are split
/// evenly across the plan's permutations; every ring edge becomes one flow
/// of `2·share·(k-1)/k` bytes routed over the network.
pub fn allreduce_flows(net: &SimNetwork, plan: &AllReducePlan) -> Vec<FlowSpec> {
    let mut flows = Vec::new();
    if plan.permutations.is_empty() || plan.bytes <= 0.0 {
        return flows;
    }
    let share = plan.bytes / plan.permutations.len() as f64;
    for perm in &plan.permutations {
        let k = perm.len();
        if k < 2 {
            continue;
        }
        let per_node = ring_bytes_per_node(share, k);
        for (src, dst) in perm.edges() {
            flows.push(routed_flow(net, src, dst, per_node));
        }
    }
    flows
}

/// Build one flow per non-zero entry of the model-parallel demand matrix,
/// routed over the network.
pub fn mp_flows(net: &SimNetwork, mp: &TrafficMatrix) -> Vec<FlowSpec> {
    demand_flows(net, mp.entries_desc())
}

/// One routed flow per `(src, dst, bytes)` demand, in the given order.
pub(crate) fn demand_flows(net: &SimNetwork, demands: Vec<(usize, usize, f64)>) -> Vec<FlowSpec> {
    demands.into_iter().map(|(src, dst, bytes)| routed_flow(net, src, dst, bytes)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SimNetwork;
    use topoopt_graph::topologies;

    #[test]
    fn natural_ring_plan_builds_one_flow_per_edge() {
        let g = topologies::ideal_switch(8, 100.0e9);
        let net = SimNetwork::without_rules(g, 8);
        let plan = AllReducePlan::natural_ring((0..8).collect(), 1.0e9);
        let flows = allreduce_flows(&net, &plan);
        assert_eq!(flows.len(), 8);
        // Each flow carries 2 * (1/1) GB * 7/8.
        let expected = ring_bytes_per_node(1.0e9, 8);
        for f in &flows {
            assert!((f.bytes - expected).abs() < 1.0);
            assert!(f.hops() == 2); // server -> hub -> server
        }
    }

    #[test]
    fn multi_permutation_plan_splits_bytes() {
        let g = topologies::from_permutations(16, &[1, 3, 7], 25.0e9);
        let net = SimNetwork::without_rules(g, 16);
        let plan = AllReducePlan {
            permutations: vec![
                RingPermutation::new((0..16).collect(), 1),
                RingPermutation::new((0..16).collect(), 3),
                RingPermutation::new((0..16).collect(), 7),
            ],
            bytes: 3.0e9,
        };
        let flows = allreduce_flows(&net, &plan);
        assert_eq!(flows.len(), 48);
        // Every ring edge has a direct physical link, so each flow is 1 hop.
        assert!(flows.iter().all(|f| f.hops() == 1));
        let single = allreduce_flows(&net, &AllReducePlan::natural_ring((0..16).collect(), 3.0e9));
        assert!(flows[0].bytes < single[0].bytes);
    }

    #[test]
    fn mp_flows_follow_routing() {
        let g = topologies::from_permutations(8, &[1], 25.0e9);
        let net = SimNetwork::without_rules(g, 8);
        let mut mp = TrafficMatrix::new(8);
        mp.set(0, 3, 5.0e6);
        mp.set(3, 0, 5.0e6);
        let flows = mp_flows(&net, &mp);
        assert_eq!(flows.len(), 2);
        let f03 = flows.iter().find(|f| f.src == 0 && f.dst == 3).unwrap();
        assert_eq!(f03.hops(), 3); // 0 -> 1 -> 2 -> 3 on a +1 ring
    }

    #[test]
    fn empty_plan_or_empty_matrix_produce_no_flows() {
        let g = topologies::ideal_switch(4, 1.0e9);
        let net = SimNetwork::without_rules(g, 4);
        assert!(
            allreduce_flows(&net, &AllReducePlan { permutations: vec![], bytes: 1.0 }).is_empty()
        );
        assert!(mp_flows(&net, &TrafficMatrix::new(4)).is_empty());
    }
}
