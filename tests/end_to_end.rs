//! Integration tests spanning the whole workspace: model zoo → strategy
//! search → topology finder → flow-level simulation → cost model.

use topoopt::graph::topologies;
use topoopt::models::zoo::build_dlrm;
use topoopt::models::DlrmConfig;
use topoopt::netsim::iteration::natural_ring_plans;
use topoopt::prelude::*;
use topoopt::rdma::build_forwarding_plan;

fn co_optimize_quick(kind: ModelKind, n: usize, d: usize, bps: f64) -> CoOptResult {
    let model = build_model(kind, ModelPreset::Shared);
    let mut cfg = AlternatingConfig::new(d, bps);
    cfg.max_rounds = 2;
    cfg.mcmc.iterations = 80;
    co_optimize(&model, n, &cfg)
}

#[test]
fn full_pipeline_produces_valid_fabric_and_finite_iteration_time() {
    for kind in [ModelKind::Dlrm, ModelKind::Candle, ModelKind::Bert] {
        let n = 16;
        let r = co_optimize_quick(kind, n, 4, 25.0e9);
        assert!(r.network.graph.respects_degree(4), "{kind:?} violates degree");
        assert!(r.network.graph.is_strongly_connected(), "{kind:?} disconnected");
        r.network.routing.validate_against(&r.network.graph).unwrap();

        let plans = AllReducePlan::from_groups(&r.network.groups);
        let net = SimNetwork::new(r.network.graph.clone(), n, r.network.routing.clone());
        let it = simulate_iteration(&net, &r.demands, &plans, r.estimate.compute_s);
        assert!(it.total_s.is_finite() && it.total_s > 0.0, "{kind:?} iteration broken");
        assert!(!it.unroutable);
    }
}

#[test]
fn topoopt_beats_cost_equivalent_fat_tree_for_communication_heavy_candle() {
    // The paper's headline comparison (§5.3): at equal cost, TopoOpt's
    // iteration time is substantially lower than the Fat-tree's for the
    // communication-heavy, mostly-data-parallel CANDLE workload (2.8x in
    // Figure 11a). DLRM's all-to-all-heavy variants are covered by the
    // Figure 12 harness, where the crossover against the Fat-tree is the
    // expected behaviour.
    let n = 16;
    let degree = 4;
    let link_bps = 25.0e9;
    let compute = ComputeParams::default();

    let model = build_model(ModelKind::Candle, ModelPreset::Shared);
    let strategy = ParallelizationStrategy::pure_data_parallel(&model, n);
    let demands = extract_traffic(&model, &strategy, compute.gpus_per_server);
    let est = estimate_iteration_time(
        &model,
        &strategy,
        &TopologyView::FullMesh { n, per_server_bps: degree as f64 * link_bps },
        &compute,
    );

    // TopoOpt fabric.
    let out = topology_finder(&TopologyFinderInput::new(n, degree, link_bps, &demands));
    let plans = AllReducePlan::from_groups(&out.groups);
    let topo_net = SimNetwork::new(out.graph.clone(), n, out.routing.clone());
    let topo = simulate_iteration(&topo_net, &demands, &plans, est.compute_s);

    // Cost-equivalent Fat-tree (modelled as a non-blocking switch at the
    // reduced per-server bandwidth B').
    let ft_bw = equivalent_fat_tree_bandwidth(n, degree, link_bps);
    assert!(ft_bw < degree as f64 * link_bps);
    let ft_net = SimNetwork::without_rules(topologies::ideal_switch(n, ft_bw), n);
    let ft = simulate_iteration(&ft_net, &demands, &natural_ring_plans(&demands), est.compute_s);

    assert!(
        topo.comm_s < ft.comm_s,
        "TopoOpt comm {} should beat cost-equivalent Fat-tree {}",
        topo.comm_s,
        ft.comm_s
    );
}

#[test]
fn reconfigurable_fabric_degrades_with_reconfiguration_latency() {
    // Figure 17's trend: larger OCS reconfiguration latency raises the
    // iteration time, and at microsecond latency the reconfigurable fabric
    // approaches TopoOpt's static one-shot topology.
    let n = 16;
    let model = build_dlrm(&DlrmConfig::shared());
    let strategy = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, n);
    let demands = extract_traffic(&model, &strategy, 4);

    let mut last = 0.0;
    for latency in [1.0e-6, 100.0e-6, 1.0e-3, 10.0e-3] {
        let r = simulate_reconfigurable_iteration(
            &demands,
            &ReconfigParams {
                degree: 4,
                link_bps: 25.0e9,
                reconfig_latency_s: latency,
                ..Default::default()
            },
        );
        assert!(r.comm_s >= last, "latency {latency}: {} < previous {last}", r.comm_s);
        last = r.comm_s;
    }
}

#[test]
fn rdma_forwarding_covers_every_pair_of_the_co_optimized_fabric() {
    let r = co_optimize_quick(ModelKind::Dlrm, 12, 4, 25.0e9);
    let plan = build_forwarding_plan(&r.network.graph, 12, &r.network.routing);
    for s in 0..12 {
        for d in 0..12 {
            if s != d {
                assert!(plan.has_connection(s, d), "no RDMA connection {s}->{d}");
            }
        }
    }
}

#[test]
fn relay_overhead_pipeline_prices_kernel_forwarding_and_exports_round_trip() {
    // The §6 loop end to end: co-optimize, derive the forwarding plan,
    // simulate with the kernel penalty attached, export to JSON, parse back.
    let n = 12;
    let r = co_optimize_quick(ModelKind::Dlrm, n, 4, 25.0e9);
    let plan = build_forwarding_plan(&r.network.graph, n, &r.network.routing);

    let plans = AllReducePlan::from_groups(&r.network.groups);
    let base_net = SimNetwork::new(r.network.graph.clone(), n, r.network.routing.clone());
    let compute_s = r.estimate.compute_s;
    let base = simulate_iteration(&base_net, &r.demands, &plans, compute_s);
    let free = simulate_iteration(
        &base_net.clone().with_relay_overhead(plan.clone(), 1.0),
        &r.demands,
        &plans,
        compute_s,
    );
    assert_eq!(base, free, "relay efficiency 1.0 must be free");
    let taxed = simulate_iteration(
        &base_net.clone().with_relay_overhead(plan.clone(), 0.3),
        &r.demands,
        &plans,
        compute_s,
    );
    assert!(taxed.total_s >= base.total_s);

    // JSON export round-trips through the vendored serde parser.
    let topology = TopologyExport::from_graph(&r.network.graph, n);
    assert_eq!(TopologyExport::from_json(&topology.to_json()).unwrap(), topology);
    let forwarding = ForwardingExport::from_plan(&plan);
    assert_eq!(ForwardingExport::from_json(&forwarding.to_json()).unwrap(), forwarding);
    let coopt = CoOptimizationExport::from_result("DLRM", n, &r);
    assert_eq!(CoOptimizationExport::from_json(&coopt.to_json()).unwrap(), coopt);
}

#[test]
fn cost_model_and_architectures_are_consistent() {
    // The Ideal Switch is the most expensive mainstream fabric, TopoOpt and
    // the cost-equivalent Fat-tree are (by construction) comparable.
    let n = 128;
    let d = 4;
    let b = 100.0e9;
    let ideal = interconnect_cost(CostedArchitecture::IdealSwitch, n, d, b).total();
    let topo = interconnect_cost(CostedArchitecture::TopoOptPatchPanel, n, d, b).total();
    assert!(ideal > 1.5 * topo);
    let b_eq = equivalent_fat_tree_bandwidth(n, d, b);
    assert!(b_eq < d as f64 * b);
}

#[test]
fn mutability_multi_ring_balances_traffic_without_changing_volume() {
    use topoopt::workloads::{dlrm_hybrid_heatmap, topoopt_combined_heatmap};
    let single = dlrm_hybrid_heatmap(16, 1);
    let combined = topoopt_combined_heatmap(16, &[1, 3, 7]);
    assert!((single.total() - combined.total()).abs() / single.total() < 1e-9);
    assert!(combined.max_entry() < single.max_entry());
}
