//! Shared helpers for the figure/table regeneration harness (`reproduce`
//! binary) and the Criterion benches, plus the [`experiments`] registry of
//! report-returning experiment builders.

pub mod experiments;

use std::time::{Duration, Instant};
use topoopt_core::topology_finder::{topology_finder, TopologyFinderInput, TopologyFinderOutput};
use topoopt_core::totient::TotientPermsConfig;
use topoopt_graph::matching::MatchingAlgo;
use topoopt_models::{build_model, ModelKind, ModelPreset};
use topoopt_netsim::iteration::natural_ring_plans;
use topoopt_netsim::{simulate_iteration, AllReducePlan, IterationParams, SimNetwork};
use topoopt_rdma::{build_forwarding_plan, ForwardingPlan};
use topoopt_strategy::{
    estimate_iteration_time, extract_traffic, ComputeParams, ParallelizationStrategy, TopologyView,
    TrafficDemands,
};

/// Default compute model used by the whole harness.
pub fn compute_params() -> ComputeParams {
    ComputeParams::default()
}

/// Median wall time of `runs` executions; the benches assert their
/// speedups on it.
pub fn median_time<F: FnMut()>(runs: usize, mut f: F) -> Duration {
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// The heuristic strategy the switched baselines use: hybrid placement for
/// embedding models, pure data parallelism otherwise.
pub fn baseline_strategy(
    kind: ModelKind,
    preset: ModelPreset,
    n: usize,
) -> (topoopt_models::DnnModel, ParallelizationStrategy) {
    let model = build_model(kind, preset);
    // Hybrid (embedding tables placed on single servers) only pays off when
    // the embedding tables dominate the parameter bytes (DLRM / NCF); BERT's
    // token embedding stays replicated, as in practice.
    let strategy = if model.embedding_param_bytes() > model.dense_param_bytes() {
        ParallelizationStrategy::hybrid_embeddings_round_robin(&model, n)
    } else {
        ParallelizationStrategy::pure_data_parallel(&model, n)
    };
    (model, strategy)
}

/// Extract demands and the compute-time estimate for a strategy on a
/// `d x B` full-mesh view.
pub fn demands_and_compute(
    model: &topoopt_models::DnnModel,
    strategy: &ParallelizationStrategy,
    n: usize,
    per_server_bps: f64,
) -> (TrafficDemands, f64) {
    let params = compute_params();
    let demands = extract_traffic(model, strategy, params.gpus_per_server);
    let est = estimate_iteration_time(
        model,
        strategy,
        &TopologyView::FullMesh { n, per_server_bps },
        &params,
    );
    (demands, est.compute_s)
}

/// Run `TopologyFinder` for a demand set (historical routing: coin-change
/// ring routes win over MP shortest paths; all committed artifacts up to
/// `fig16_dynamic` use this).
pub fn build_topoopt_fabric(
    demands: &TrafficDemands,
    n: usize,
    degree: usize,
    link_bps: f64,
) -> TopologyFinderOutput {
    topology_finder(&TopologyFinderInput {
        num_servers: n,
        degree,
        link_bps,
        demands,
        totient: TotientPermsConfig::default(),
        matching: MatchingAlgo::Auto,
        mp_shortest_path: false,
        availability_aware: false,
    })
}

/// [`build_topoopt_fabric`] with `mp_shortest_path` routing enabled: MP
/// pairs covered by an AllReduce ring are re-routed onto strictly shorter
/// BFS paths, so matched MP links carry the MP traffic they were built for.
/// Used by the datacenter-scale experiments (`fig16_dynamic_scale`).
pub fn build_topoopt_fabric_routed(
    demands: &TrafficDemands,
    n: usize,
    degree: usize,
    link_bps: f64,
) -> TopologyFinderOutput {
    topology_finder(&TopologyFinderInput {
        num_servers: n,
        degree,
        link_bps,
        demands,
        totient: TotientPermsConfig::default(),
        matching: MatchingAlgo::Auto,
        mp_shortest_path: true,
        availability_aware: false,
    })
}

/// Simulated iteration time of a TopoOpt fabric for the given demands.
pub fn topoopt_iteration(
    demands: &TrafficDemands,
    n: usize,
    degree: usize,
    link_bps: f64,
    compute_s: f64,
) -> topoopt_netsim::IterationResult {
    let out = build_topoopt_fabric(demands, n, degree, link_bps);
    let plans = AllReducePlan::from_groups(&out.groups);
    let net = SimNetwork::new(out.graph.clone(), n, out.routing.clone());
    simulate_iteration(&net, demands, &plans, &IterationParams { compute_s })
}

/// A §6-testbed-style fabric: the `TopologyFinder` output plus the NPAR
/// forwarding plan its routing implies (Appendix I).
pub struct RdmaFabric {
    /// Number of servers.
    pub num_servers: usize,
    /// Topology, routing, and AllReduce group selections.
    pub out: TopologyFinderOutput,
    /// Destination-keyed kernel forwarding rules + per-pair relay counts.
    pub plan: ForwardingPlan,
}

impl RdmaFabric {
    /// The per-pair throughput-factor matrix of this fabric at a given
    /// relay efficiency (feeds `TopologyView::with_pair_factors`).
    pub fn pair_factors(&self, relay_efficiency: f64) -> Vec<Vec<f64>> {
        (0..self.num_servers)
            .map(|s| {
                (0..self.num_servers)
                    .map(|d| self.plan.effective_throughput_factor(s, d, relay_efficiency))
                    .collect()
            })
            .collect()
    }

    /// Simulate one iteration on this fabric with the RDMA forwarding
    /// plane attached: flows between relayed pairs are rate-capped by
    /// `relay_efficiency` per kernel relay. At `relay_efficiency = 1.0`
    /// the result is bit-identical to [`topoopt_iteration`]'s.
    pub fn simulate(
        &self,
        demands: &TrafficDemands,
        compute_s: f64,
        relay_efficiency: f64,
    ) -> topoopt_netsim::IterationResult {
        let plans = AllReducePlan::from_groups(&self.out.groups);
        let net =
            SimNetwork::new(self.out.graph.clone(), self.num_servers, self.out.routing.clone())
                .with_relay_overhead(self.plan.clone(), relay_efficiency);
        simulate_iteration(&net, demands, &plans, &IterationParams { compute_s })
    }
}

/// Run `TopologyFinder` for a demand set and derive the fabric's NPAR
/// forwarding plan from the resulting topology + routing.
pub fn build_rdma_fabric(
    demands: &TrafficDemands,
    n: usize,
    degree: usize,
    link_bps: f64,
) -> RdmaFabric {
    let out = build_topoopt_fabric(demands, n, degree, link_bps);
    let plan = build_forwarding_plan(&out.graph, n, &out.routing);
    RdmaFabric { num_servers: n, out, plan }
}

/// [`build_rdma_fabric`] with the availability-aware knob on: the degree
/// split gives every AllReduce group redundant rings and stride selection
/// is repaired until no single link loss disconnects a group's circulant.
/// Used by the failure-degradation experiment; the committed default
/// fabrics keep the knob off.
pub fn build_rdma_fabric_available(
    demands: &TrafficDemands,
    n: usize,
    degree: usize,
    link_bps: f64,
) -> RdmaFabric {
    let out = topology_finder(&TopologyFinderInput {
        num_servers: n,
        degree,
        link_bps,
        demands,
        totient: TotientPermsConfig::default(),
        matching: MatchingAlgo::Auto,
        mp_shortest_path: false,
        availability_aware: true,
    });
    let plan = build_forwarding_plan(&out.graph, n, &out.routing);
    RdmaFabric { num_servers: n, out, plan }
}

/// Simulated TopoOpt iteration priced through the RDMA forwarding plane
/// (§6): the fabric is synthesized with `TopologyFinder`, its forwarding
/// plan derived, and relayed logical connections pay the kernel penalty.
pub fn topoopt_rdma_iteration(
    demands: &TrafficDemands,
    n: usize,
    degree: usize,
    link_bps: f64,
    compute_s: f64,
    relay_efficiency: f64,
) -> topoopt_netsim::IterationResult {
    build_rdma_fabric(demands, n, degree, link_bps).simulate(demands, compute_s, relay_efficiency)
}

/// Simulated iteration time on a non-blocking switch of `per_server_bps`
/// per server (used for the Ideal Switch and the cost-equivalent Fat-tree).
pub fn switch_iteration(
    demands: &TrafficDemands,
    n: usize,
    per_server_bps: f64,
    compute_s: f64,
) -> topoopt_netsim::IterationResult {
    let g = topoopt_graph::topologies::ideal_switch(n, per_server_bps);
    let net = SimNetwork::without_rules(g, n);
    simulate_iteration(&net, demands, &natural_ring_plans(demands), &IterationParams { compute_s })
}

/// Simulated iteration on an expander fabric of the same degree.
pub fn expander_iteration(
    demands: &TrafficDemands,
    n: usize,
    degree: usize,
    link_bps: f64,
    compute_s: f64,
) -> topoopt_netsim::IterationResult {
    let g = topoopt_graph::topologies::expander(n, degree, link_bps, 11);
    let net = SimNetwork::without_rules(g, n);
    simulate_iteration(&net, demands, &natural_ring_plans(demands), &IterationParams { compute_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_compose_into_a_comparison() {
        let n = 8;
        let (model, strategy) = baseline_strategy(ModelKind::Candle, ModelPreset::Shared, n);
        let (demands, compute_s) = demands_and_compute(&model, &strategy, n, 100.0e9);
        let topo = topoopt_iteration(&demands, n, 4, 25.0e9, compute_s);
        let ideal = switch_iteration(&demands, n, 100.0e9, compute_s);
        assert!(topo.total_s.is_finite());
        assert!(ideal.total_s.is_finite());
    }

    #[test]
    fn rdma_iteration_at_unit_efficiency_matches_the_abstract_shortcut() {
        // The §6 acceptance invariant: pricing TopoOpt through the real
        // forwarding plane with relay_efficiency = 1.0 is bit-identical to
        // the plan-less topoopt_iteration path.
        let n = 12;
        let (model, strategy) = baseline_strategy(ModelKind::Dlrm, ModelPreset::Testbed, n);
        let (demands, compute_s) = demands_and_compute(&model, &strategy, n, 100.0e9);
        let shortcut = topoopt_iteration(&demands, n, 4, 25.0e9, compute_s);
        let rdma = topoopt_rdma_iteration(&demands, n, 4, 25.0e9, compute_s, 1.0);
        assert_eq!(shortcut, rdma);
    }

    #[test]
    fn rdma_fabric_exposes_plan_and_factors() {
        let n = 12;
        let (model, strategy) = baseline_strategy(ModelKind::Dlrm, ModelPreset::Testbed, n);
        let (demands, _) = demands_and_compute(&model, &strategy, n, 100.0e9);
        let fabric = build_rdma_fabric(&demands, n, 4, 25.0e9);
        // Every pair has a logical connection on the connected testbed.
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    assert!(fabric.plan.has_connection(s, d));
                }
            }
        }
        let factors = fabric.pair_factors(0.5);
        assert_eq!(factors.len(), n);
        // Self-pairs are loopback (factor 1); relayed pairs decay.
        assert_eq!(factors[0][0], 1.0);
        let min = factors.iter().flat_map(|row| row.iter()).cloned().fold(f64::INFINITY, f64::min);
        assert!(min < 1.0, "a 12-server d=4 fabric must relay some pairs");
    }
}
