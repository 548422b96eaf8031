//! §6 and Appendix I: the 12-server degree-4 testbed. Training throughput,
//! time-to-accuracy and all-to-all impact through each fabric's NPAR
//! forwarding plan, the kernel-relay overhead sweep, and degraded-mode
//! throughput under link failures.

use rayon::prelude::*;
use topoopt_core::topology_finder::TopologyFinderInput;
use topoopt_cost::equivalent_fat_tree_bandwidth;
use topoopt_graph::{Graph, TrafficMatrix};
use topoopt_models::zoo::build_dlrm;
use topoopt_models::{DlrmConfig, ModelKind, ModelPreset};
use topoopt_rdma::RepairMode;
use topoopt_report::{row, Cell, Column, ExperimentReport, Table};
use topoopt_strategy::{
    estimate_from_demands, estimate_iteration_time, extract_traffic, ParallelizationStrategy,
    TopologyView,
};
use topoopt_workloads::{time_to_accuracy, AccuracyCurve};

use super::{par_rows, Scale, GB};
use crate::{
    baseline_strategy, build_rdma_fabric, compute_params, demands_and_compute, switch_iteration,
    RdmaFabric,
};

/// Relay efficiency the committed §6 figures run at. 1.0 calibrates the
/// testbed to the paper's tuned forwarding path (DPDK-grade relaying);
/// `rdma_relay_overhead` sweeps the penalty itself.
pub(super) const TESTBED_RELAY_EFFICIENCY: f64 = 1.0;

/// The 12-server degree-4 §6 testbed: synthesize the TopoOpt fabric for
/// one model with `TopologyFinder`, derive its NPAR forwarding plan, and
/// return it together with the model, demands, and compute estimate.
fn testbed_fabric(
    kind: ModelKind,
) -> (topoopt_models::DnnModel, RdmaFabric, topoopt_strategy::TrafficDemands, f64) {
    let n = 12;
    let (model, strategy) = baseline_strategy(kind, ModelPreset::Testbed, n);
    let (demands, compute_s) = demands_and_compute(&model, &strategy, n, 100.0e9);
    let fabric = build_rdma_fabric(&demands, n, 4, 25.0e9);
    (model, fabric, demands, compute_s)
}

/// Samples/second of one model on its already-built testbed fabric:
/// TopoOpt 4x25G (host-forwarded over its real forwarding plan) vs 100G
/// switch vs 25G switch.
fn testbed_throughput_on(
    model: &topoopt_models::DnnModel,
    fabric: &RdmaFabric,
    demands: &topoopt_strategy::TrafficDemands,
    compute_s: f64,
) -> (f64, f64, f64) {
    let n = fabric.num_servers;
    let params = compute_params();
    let global_batch = (model.batch_per_gpu * params.gpus_per_server * n) as f64;
    let topo = fabric.simulate(demands, compute_s, TESTBED_RELAY_EFFICIENCY);
    let sw100 = switch_iteration(demands, n, 100.0e9, compute_s);
    let sw25 = switch_iteration(demands, n, 25.0e9, compute_s);
    (global_batch / topo.total_s, global_batch / sw100.total_s, global_batch / sw25.total_s)
}

fn testbed_throughput(kind: ModelKind) -> (f64, f64, f64) {
    let (model, fabric, demands, compute_s) = testbed_fabric(kind);
    testbed_throughput_on(&model, &fabric, &demands, compute_s)
}

pub(super) fn fig19(_s: &Scale) -> ExperimentReport {
    let mut table = Table::titled(
        "testbed training throughput (samples/second), 12 servers",
        vec![
            Column::text("model"),
            Column::fixed("TopoOpt 4x25G", 1),
            Column::fixed("Switch 100G", 1),
            Column::fixed("Switch 25G", 1),
        ],
    )
    .with_paper("TopoOpt at 4 x 25 Gbps matches or beats the 100 Gbps switch");
    // Each model row builds its own fabric; the DLRM row's plan statistics
    // feed the note, so that fabric is synthesized exactly once.
    let results: Vec<(Vec<Cell>, Option<String>)> = vec![
        ModelKind::Bert,
        ModelKind::Dlrm,
        ModelKind::Vgg16,
        ModelKind::Candle,
        ModelKind::ResNet50,
    ]
    .into_par_iter()
    .map(|kind| {
        let (model, fabric, demands, compute_s) = testbed_fabric(kind);
        let (topo, sw100, sw25) = testbed_throughput_on(&model, &fabric, &demands, compute_s);
        let dlrm_stats = (kind == ModelKind::Dlrm).then(|| {
            format!(
                "The DLRM row's fabric: {} destination-keyed kernel rules, {:.0}% of server \
                 pairs relayed, relay histogram {:?} (pairs by relay count).",
                fabric.plan.num_rules(),
                fabric.plan.relayed_fraction() * 100.0,
                fabric.plan.relay_histogram(),
            )
        });
        (row![kind.name(), topo, sw100, sw25], dlrm_stats)
    })
    .collect();
    let mut dlrm_stats = String::new();
    for (row, stats) in results {
        table.push(row);
        if let Some(s) = stats {
            dlrm_stats = s;
        }
    }
    ExperimentReport::new().table(table).note(format!(
        "Each TopoOpt row runs on its own synthesized 12-server degree-4 fabric through \
         that fabric's NPAR forwarding plan (Appendix I), at relay efficiency \
         {TESTBED_RELAY_EFFICIENCY}. {dlrm_stats}",
    ))
}

/// Figure 20 rows for one top-5 accuracy target. Unreachable targets (the
/// curve saturates below them) produce empty "n/a" cells instead of
/// panicking the whole `reproduce all` run.
pub(super) fn fig20_rows(target: f64) -> Vec<Vec<Cell>> {
    let curve = AccuracyCurve::vgg19_imagenet();
    let (topo, sw100, sw25) = testbed_throughput(ModelKind::Vgg16);
    let samples_per_epoch = 1.28e6;
    [("TopoOpt 4x25G", topo), ("Switch 100G", sw100), ("Switch 25G", sw25)]
        .into_iter()
        .map(|(name, thr)| {
            let hours = time_to_accuracy(&curve, target, thr, samples_per_epoch);
            row![name, hours]
        })
        .collect()
}

pub(super) fn fig20(_s: &Scale) -> ExperimentReport {
    let mut table = Table::titled(
        "time-to-accuracy of VGG19/ImageNet (top-5 target 90%)",
        vec![Column::text("network"), Column::fixed("hours", 1)],
    );
    table.extend(fig20_rows(0.90));
    ExperimentReport::new().table(table)
}

pub(super) fn fig21(_s: &Scale) -> ExperimentReport {
    let n = 12;
    let mut table = Table::titled(
        "testbed all-to-all impact (12 servers, §6 DLRM)",
        vec![
            Column::int("batch"),
            Column::fixed("alltoall/AR (%)", 0),
            Column::fixed("TopoOpt 4x25G (s)", 4),
            Column::fixed("Switch 100G (s)", 4),
            Column::fixed("Switch 25G (s)", 4),
        ],
    );
    let rows = par_rows(vec![32usize, 64, 128, 256, 512], |batch| {
        let model = build_dlrm(&DlrmConfig::testbed(batch));
        let strategy = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, n);
        let (demands, compute_s) = demands_and_compute(&model, &strategy, n, 100.0e9);
        let fabric = build_rdma_fabric(&demands, n, 4, 25.0e9);
        let topo = fabric.simulate(&demands, compute_s, TESTBED_RELAY_EFFICIENCY);
        let sw100 = switch_iteration(&demands, n, 100.0e9, compute_s);
        let sw25 = switch_iteration(&demands, n, 25.0e9, compute_s);
        row![
            batch,
            demands.mp_to_allreduce_ratio() * 100.0,
            topo.total_s,
            sw100.total_s,
            sw25.total_s
        ]
    });
    table.extend(rows);
    ExperimentReport::new().table(table)
}

pub(super) fn rdma_relay_overhead(_s: &Scale) -> ExperimentReport {
    // §6 / Appendix I: what does host-based forwarding actually cost? Sweep
    // the kernel-relay efficiency against the server degree on the 12-node
    // DLRM testbed. Lower degree = longer rule chains = more connections
    // paying the kernel penalty; efficiency 1.0 is the committed fig19/21
    // operating point.
    let n = 12;
    let (model, strategy) = baseline_strategy(ModelKind::Dlrm, ModelPreset::Testbed, n);
    let params = compute_params();
    let (demands, compute_s) = demands_and_compute(&model, &strategy, n, 100.0e9);
    let mut table = Table::titled(
        "kernel-relay overhead sweep (12-server DLRM testbed, B = 25 Gbps per interface)",
        vec![
            Column::int("degree"),
            Column::fixed("relay eff", 2),
            Column::int("rules"),
            Column::fixed("relayed pairs (%)", 0),
            Column::int("max relays"),
            Column::fixed("sim iter (s)", 4),
            Column::fixed("est iter (s)", 4),
            Column::fixed("slowdown (x)", 2),
        ],
    )
    .with_paper(
        "Appendix I measures the relay datapath at near line rate once tuned; the sweep \
         shows how fast an untuned kernel path erodes TopoOpt's advantage",
    );
    // The fabric and its efficiency-1.0 baseline depend only on the degree:
    // build each once and sweep the efficiencies against it.
    let row_blocks: Vec<Vec<Vec<Cell>>> = vec![2usize, 3, 4]
        .into_par_iter()
        .map(|degree| {
            let fabric = build_rdma_fabric(&demands, n, degree, 25.0e9);
            let baseline = fabric.simulate(&demands, compute_s, 1.0);
            let hist = fabric.plan.relay_histogram();
            let base_view = TopologyView::from_graph(&fabric.out.graph, n);
            [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
                .into_iter()
                .map(|eff| {
                    let sim = if eff >= 1.0 {
                        baseline.clone()
                    } else {
                        fabric.simulate(&demands, compute_s, eff)
                    };
                    // The analytical estimate sees the same penalty through
                    // the per-pair factors of the topology view.
                    let view = base_view.clone().with_pair_factors(fabric.pair_factors(eff));
                    let est = estimate_iteration_time(&model, &strategy, &view, &params);
                    row![
                        degree,
                        eff,
                        fabric.plan.num_rules(),
                        fabric.plan.relayed_fraction() * 100.0,
                        hist.len().saturating_sub(1),
                        sim.total_s,
                        est.total_s,
                        sim.total_s / baseline.total_s
                    ]
                })
                .collect()
        })
        .collect();
    table.extend(row_blocks.into_iter().flatten());
    ExperimentReport::new().table(table).note(
        "sim = flow-level simulation with per-flow kernel-relay rate caps; est = FlexNet \
         cost model with the same per-pair factors; slowdown is sim vs the same fabric at \
         relay efficiency 1.0. The penalty is eff^relays with up to 10 relays on this \
         fabric, so the cap stays above the fabric's max-min fair shares (no slowdown) \
         until it abruptly dominates — the cliff between 0.6 and 0.5 is the model, not \
         noise. The rule set is degree-invariant because TopologyFinder gives this \
         MP-heavy job d_A = 1 (one shared AllReduce ring carries all routed traffic); \
         the extra MP links of higher degrees show up only in the estimate's bandwidth \
         terms.",
    )
}

/// Degraded-mode throughput of one repaired fabric: kill the given links,
/// run [`topoopt_rdma::ForwardingPlan::repair`] at the chosen granularity,
/// and price the surviving fabric through the repaired plan's relay
/// factors (severed pairs get factor 0 = no logical connection).
struct DegradedRun {
    repaired: usize,
    dropped: usize,
    severed: usize,
    extra_relays: usize,
    connected_pct: f64,
    samples_per_s: f64,
}

fn degraded_run(
    fabric: &RdmaFabric,
    killed: &[topoopt_graph::EdgeId],
    mode: RepairMode,
    model: &topoopt_models::DnnModel,
    strategy: &ParallelizationStrategy,
    demands: &topoopt_strategy::TrafficDemands,
    global_batch: f64,
) -> DegradedRun {
    let n = fabric.num_servers;
    let mut degraded = fabric.out.graph.clone();
    for &id in killed {
        degraded.remove_edge(id);
    }
    let mut plan = fabric.plan.clone();
    let report = plan.repair(&degraded, mode);
    let factors: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            (0..n)
                .map(|d| plan.effective_throughput_factor(s, d, TESTBED_RELAY_EFFICIENCY))
                .collect()
        })
        .collect();
    let view = TopologyView::from_graph(&degraded, n).with_pair_factors(factors);
    let est = estimate_from_demands(model, strategy, demands, &view, &compute_params());
    let connected = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .filter(|&(s, d)| s != d)
        .filter(|&(s, d)| plan.has_connection(s, d));
    DegradedRun {
        repaired: report.repaired_rules,
        dropped: report.dropped_rules,
        severed: report.degraded.len(),
        extra_relays: report.extra_relays,
        connected_pct: connected.count() as f64 / (n * (n - 1)) as f64 * 100.0,
        samples_per_s: if est.total_s.is_finite() { global_batch / est.total_s } else { 0.0 },
    }
}

pub(super) fn fig_failure_degradation(s: &Scale) -> ExperimentReport {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    // The §6 testbed under fire: 12 servers, degree 4, DLRM demands. Kill
    // a seeded shuffle's prefix of the fabric's directed links (so each
    // failure rate's casualty set contains the previous one's), repair the
    // NPAR forwarding plan around the corpses at both granularities, and
    // price the degraded fabric against the cost-equivalent fat-tree.
    let n = 12;
    let degree = 4;
    let link_bps = 25.0e9;
    let (model, strategy) = baseline_strategy(ModelKind::Dlrm, ModelPreset::Testbed, n);
    let params = compute_params();
    let demands = extract_traffic(&model, &strategy, params.gpus_per_server);
    let global_batch = (model.batch_per_gpu * params.gpus_per_server * n) as f64;
    let fabric = build_rdma_fabric(&demands, n, degree, link_bps);

    let kill_order = |g: &Graph| -> Vec<topoopt_graph::EdgeId> {
        let mut ids: Vec<_> = g.edges().map(|(id, _)| id).collect();
        ids.shuffle(&mut StdRng::seed_from_u64(s.seed));
        ids
    };
    let order = kill_order(&fabric.out.graph);
    let num_links = order.len();

    let ft_bps = equivalent_fat_tree_bandwidth(n, degree, link_bps);
    let ft_est = estimate_from_demands(
        &model,
        &strategy,
        &demands,
        &TopologyView::FullMesh { n, per_server_bps: ft_bps },
        &params,
    );
    let ft_samples = global_batch / ft_est.total_s;
    let healthy = degraded_run(
        &fabric,
        &[],
        RepairMode::PerDestination,
        &model,
        &strategy,
        &demands,
        global_batch,
    );

    let mut table = Table::titled(
        "degraded-mode throughput under link failures (12-server degree-4 DLRM testbed)",
        vec![
            Column::int("failed links"),
            Column::fixed("failed (%)", 0),
            Column::text("repair"),
            Column::int("repaired"),
            Column::int("dropped"),
            Column::int("severed pairs"),
            Column::int("extra relays"),
            Column::fixed("connected (%)", 0),
            Column::fixed("TopoOpt (samples/s)", 1),
            Column::fixed("vs healthy (%)", 0),
            Column::fixed("fat-tree (samples/s)", 1),
        ],
    )
    .with_paper("host-forwarded fabrics degrade gracefully: repairs detour rule chains");
    table.push(row![
        0usize,
        0.0,
        "-",
        healthy.repaired,
        healthy.dropped,
        healthy.severed,
        healthy.extra_relays,
        healthy.connected_pct,
        healthy.samples_per_s,
        100.0,
        ft_samples
    ]);
    let sweep: Vec<(usize, RepairMode, &str)> = [1usize, 2, 4, 8]
        .iter()
        .flat_map(|&k| {
            [(k, RepairMode::PerRule, "per-rule"), (k, RepairMode::PerDestination, "per-dest")]
        })
        .collect();
    let rows = par_rows(sweep, |(k, mode, label)| {
        let run =
            degraded_run(&fabric, &order[..k], mode, &model, &strategy, &demands, global_batch);
        row![
            k,
            k as f64 / num_links as f64 * 100.0,
            label,
            run.repaired,
            run.dropped,
            run.severed,
            run.extra_relays,
            run.connected_pct,
            run.samples_per_s,
            run.samples_per_s / healthy.samples_per_s * 100.0,
            ft_samples
        ]
    });
    table.extend(rows);

    // Second axis: the availability-aware synthesis knob. The DLRM
    // testbed's one job-spanning DP group already earns redundant rings,
    // so the knob bites on a fabric shared by two half-cluster tenants
    // (no global AllReduce group): default synthesis spends the degree on
    // the larger tenant and leaves the connectivity fallback a lone +1
    // ring, availability-aware placement doubles the global rings so no
    // single cut partitions the fabric.
    let mut tenant_mp = TrafficMatrix::new(n);
    tenant_mp.set(0, 6, 1.0e9);
    tenant_mp.set(7, 2, 1.0e9);
    let tenant_demands = topoopt_strategy::TrafficDemands {
        num_servers: n,
        allreduce_groups: vec![
            topoopt_strategy::AllReduceGroup { members: (0..6).collect(), bytes: 3.0 * GB },
            topoopt_strategy::AllReduceGroup { members: (6..12).collect(), bytes: 2.0 * GB },
        ],
        mp: tenant_mp,
        samples_per_server: demands.samples_per_server,
    };
    let mut knob_table = Table::titled(
        "availability-aware synthesis vs default (two half-cluster tenants, degree 4)",
        vec![
            Column::text("synthesis"),
            Column::int("links"),
            Column::int("rings"),
            Column::int("critical links"),
            Column::fixed("worst cut connected (%)", 0),
            Column::int("severed pairs @4 kills"),
            Column::int("repaired rules @4 kills"),
        ],
    );
    let fabric_row = |label: &str, fab: &RdmaFabric| -> Vec<Cell> {
        let g = &fab.out.graph;
        let ids: Vec<_> = g.edges().map(|(id, _)| id).collect();
        let mut critical = 0usize;
        let mut worst_connected = usize::MAX;
        for &id in &ids {
            let mut cut = g.clone();
            cut.remove_edge(id);
            let connected = topoopt_graph::paths::surviving_pairs(&cut, n).len();
            if connected < n * (n - 1) {
                critical += 1;
            }
            worst_connected = worst_connected.min(connected);
        }
        let order = kill_order(g);
        let mut degraded = g.clone();
        for &id in &order[..4] {
            degraded.remove_edge(id);
        }
        let mut plan = fab.plan.clone();
        let rep = plan.repair(&degraded, RepairMode::PerDestination);
        row![
            label,
            ids.len(),
            fab.out.groups.iter().map(|gr| gr.strides.len()).sum::<usize>(),
            critical,
            worst_connected as f64 / (n * (n - 1)) as f64 * 100.0,
            rep.degraded.len(),
            rep.repaired_rules
        ]
    };
    knob_table
        .push(fabric_row("default", &build_rdma_fabric(&tenant_demands, n, degree, link_bps)));
    let available = RdmaFabric::new(&TopologyFinderInput {
        availability_aware: true,
        ..TopologyFinderInput::new(n, degree, link_bps, &tenant_demands)
    });
    knob_table.push(fabric_row("availability-aware", &available));

    ExperimentReport::new().table(table).table(knob_table).note(format!(
        "Casualties are a seed-{} shuffle of the fabric's directed links; each failure \
         count kills a prefix of the same shuffle, so casualty sets are nested. Repairs \
         re-point destination-keyed kernel rules onto shortest paths of the degraded \
         fabric: per-rule touches only broken rules (stale/fresh mixtures can loop, \
         surfacing as severed pairs), per-destination resyncs every rule towards an \
         affected destination. Throughput is the cost-model estimate through the \
         repaired plan's relay factors at relay efficiency {TESTBED_RELAY_EFFICIENCY}; \
         severed pairs carry factor 0. The fat-tree column is the cost-equivalent \
         switched fabric at {:.0} Gbps per server, assumed to absorb these failure \
         counts via its path redundancy. In the tenant table, critical links are \
         directed links whose lone loss partitions the fabric; rings counts selected \
         AllReduce strides (including the connectivity fallback).",
        s.seed,
        ft_bps / 1.0e9,
    ))
}
