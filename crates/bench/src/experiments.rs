//! The experiment registry: every figure/table of the TopoOpt evaluation
//! as a builder returning a structured [`ExperimentReport`].
//!
//! Experiments compute *data*; presentation (aligned text, markdown for
//! `EXPERIMENTS.md`, JSON for `BENCH_<id>.json`) is rendered from the
//! report by `topoopt-report`. Sweeps inside an experiment run in parallel
//! with rayon and are collected in input order, so reports — and therefore
//! every rendering — are byte-for-byte stable run-over-run for a fixed
//! seed and scale.

use rayon::prelude::*;
use std::sync::Arc;
use topoopt_cluster::{
    job_mix_for_load, poisson_arrival_times, ClusterShards, MixModel, TransitionSchedule,
};
use topoopt_collectives::tree::{double_binary_tree, tree_allreduce_traffic};
use topoopt_core::topology_finder::TopologyFinderOutput;
use topoopt_cost::{
    component_costs, equivalent_fat_tree_bandwidth, interconnect_cost, optical_technologies,
    CostedArchitecture,
};
use topoopt_graph::{Graph, TrafficMatrix};
use topoopt_models::zoo::build_dlrm;
use topoopt_models::{DlrmConfig, ModelKind, ModelPreset};
use topoopt_netsim::iteration::natural_ring_plans;
use topoopt_netsim::multijob::{
    build_job_flows, simulate_shared_cluster, simulate_shared_cluster_stats, solo_iteration_s,
    JobSpec,
};
use topoopt_netsim::{
    simulate_dynamic_cluster, simulate_iteration, simulate_reconfigurable_iteration, AllReducePlan,
    DynamicClusterParams, DynamicFabric, DynamicJobSpec, IterationParams, MigrationMode,
    ReconfigParams, SharedEngineMode, SimNetwork,
};
use topoopt_rdma::RepairMode;
use topoopt_reconfig::{
    FabricSpec, FabricState, MigrationPlanner, MigrationProblem, NaiveOrdered, PairReachability,
    RandomPermutation, Strategy, ThroughputDip, TreeSearch,
};
use topoopt_report::{row, Cell, Column, ExperimentReport, ScaleInfo, Table};
use topoopt_strategy::{
    estimate_from_demands, estimate_iteration_time, extract_traffic, search_strategy, McmcConfig,
    ParallelizationStrategy, TopologyView,
};
use topoopt_workloads::production::cdf_points;
use topoopt_workloads::{
    dlrm_hybrid_heatmap, dlrm_pure_dp_heatmap, overhead_scaling, production_style_heatmap,
    sample_production_jobs, time_to_accuracy, topoopt_combined_heatmap, AccuracyCurve,
};

use crate::{
    baseline_strategy, build_rdma_fabric, build_rdma_fabric_available, build_topoopt_fabric,
    build_topoopt_fabric_routed, compute_params, demands_and_compute, expander_iteration,
    switch_iteration, topoopt_iteration, RdmaFabric,
};

const GB: f64 = 1.0e9;

/// Run configuration every experiment builder receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// True for paper-scale cluster sizes (`--full`).
    pub full: bool,
    /// Dedicated-cluster server count (paper: 128).
    pub dedicated: usize,
    /// Shared-cluster server count (paper: 432).
    pub shared: usize,
    /// MCMC iterations in strategy-search runs.
    pub mcmc_iters: usize,
    /// RNG seed for the sampling / MCMC experiments (`--seed`).
    pub seed: u64,
}

/// Default seed: keeps the seeded trajectories of the original harness.
pub const DEFAULT_SEED: u64 = 7;

impl Scale {
    /// Reduced-scale (default) or paper-scale (`--full`) sizes.
    pub fn new(full: bool, seed: u64) -> Scale {
        if full {
            Scale { full, dedicated: 128, shared: 432, mcmc_iters: 400, seed }
        } else {
            Scale { full, dedicated: 32, shared: 64, mcmc_iters: 100, seed }
        }
    }

    /// The report-metadata view of this configuration.
    pub fn info(&self) -> ScaleInfo {
        ScaleInfo {
            full: self.full,
            dedicated: self.dedicated,
            shared: self.shared,
            mcmc_iters: self.mcmc_iters,
        }
    }
}

/// One registry entry: identity plus the builder function.
pub struct ExperimentDef {
    /// Stable id, also the `BENCH_<id>.json` artifact name.
    pub id: &'static str,
    /// Figure/table name in the paper.
    pub title: &'static str,
    /// Paper section the experiment reproduces.
    pub section: &'static str,
    /// Builds the report body (tables + notes); the harness stamps
    /// identity and run metadata via [`run`].
    pub build: fn(&Scale) -> ExperimentReport,
}

/// Every experiment of the evaluation, in presentation order.
pub const EXPERIMENTS: &[ExperimentDef] = &[
    ExperimentDef { id: "fig01_dlrm_heatmaps", title: "Figure 1", section: "§2.1", build: fig01 },
    ExperimentDef {
        id: "fig02_production_cdfs", title: "Figure 2", section: "§2.2", build: fig02
    },
    ExperimentDef {
        id: "fig03_network_overhead",
        title: "Figure 3",
        section: "§2.2",
        build: fig03,
    },
    ExperimentDef { id: "fig04_prod_heatmaps", title: "Figure 4", section: "§2.2", build: fig04 },
    ExperimentDef { id: "table01_optical_tech", title: "Table 1", section: "§3", build: table01 },
    ExperimentDef {
        id: "mcmc_strategy_search",
        title: "FlexNet MCMC search",
        section: "§4.1",
        build: mcmc_search,
    },
    ExperimentDef {
        id: "fig07_09_mutability",
        title: "Figures 7–9",
        section: "§4.2",
        build: fig07_09,
    },
    ExperimentDef { id: "fig10_cost", title: "Figure 10", section: "§5.1", build: fig10 },
    ExperimentDef {
        id: "fig11_dedicated_d4",
        title: "Figure 11",
        section: "§5.2",
        build: fig11_d4,
    },
    ExperimentDef { id: "fig12_alltoall", title: "Figure 12", section: "§5.3", build: fig12 },
    ExperimentDef { id: "fig13_bandwidth_tax", title: "Figure 13", section: "§5.4", build: fig13 },
    ExperimentDef { id: "fig14_path_length", title: "Figure 14", section: "§5.5", build: fig14 },
    ExperimentDef { id: "fig15_link_traffic", title: "Figure 15", section: "§5.5", build: fig15 },
    ExperimentDef { id: "fig16_shared", title: "Figure 16", section: "§5.6", build: fig16 },
    ExperimentDef {
        id: "fig16_dynamic",
        title: "Figure 16 (dynamic)",
        section: "§5.6 + Appendix C",
        build: fig16_dynamic,
    },
    ExperimentDef {
        id: "fig16_dynamic_scale",
        title: "Figure 16 (datacenter scale)",
        section: "§5.6 + ROADMAP",
        build: fig16_dynamic_scale,
    },
    ExperimentDef { id: "fig17_reconfig", title: "Figure 17", section: "§5.7", build: fig17 },
    ExperimentDef {
        id: "fig_reconfig_planned",
        title: "Planned reconfiguration",
        section: "§5.7 + ROADMAP",
        build: fig_reconfig_planned,
    },
    ExperimentDef {
        id: "fig_failure_degradation",
        title: "Failure degradation",
        section: "§6 + ROADMAP",
        build: fig_failure_degradation,
    },
    ExperimentDef {
        id: "fig19_testbed_throughput",
        title: "Figure 19",
        section: "§6",
        build: fig19,
    },
    ExperimentDef {
        id: "fig20_time_to_accuracy", title: "Figure 20", section: "§6", build: fig20
    },
    ExperimentDef {
        id: "fig21_testbed_alltoall", title: "Figure 21", section: "§6", build: fig21
    },
    ExperimentDef {
        id: "rdma_relay_overhead",
        title: "Kernel-relay overhead",
        section: "§6 + Appendix I",
        build: rdma_relay_overhead,
    },
    ExperimentDef {
        id: "figA_dbt_heatmaps",
        title: "Appendix A figure",
        section: "Appendix A",
        build: fig_a,
    },
    ExperimentDef {
        id: "table02_component_costs",
        title: "Table 2",
        section: "Appendix G",
        build: table02,
    },
    ExperimentDef {
        id: "fig27_dedicated_d8",
        title: "Figure 27",
        section: "Appendix",
        build: fig27_d8,
    },
    ExperimentDef {
        id: "fig28_degree_sweep",
        title: "Figure 28",
        section: "Appendix",
        build: fig28,
    },
];

/// Look up an experiment by id.
pub fn find(id: &str) -> Option<&'static ExperimentDef> {
    EXPERIMENTS.iter().find(|def| def.id == id)
}

/// Run one experiment: build the report body, then stamp identity, scale,
/// seed, and wall time.
pub fn run(def: &ExperimentDef, scale: &Scale) -> ExperimentReport {
    let started = std::time::Instant::now();
    let mut report = (def.build)(scale);
    report.wall_time_s = started.elapsed().as_secs_f64();
    report.id = def.id.to_string();
    report.title = def.title.to_string();
    report.section = def.section.to_string();
    report.scale = scale.info();
    report.seed = scale.seed;
    report
}

/// Compute one row of cells per item in parallel, preserving input order
/// (the vendored rayon's `collect` is order-stable).
fn par_rows<T: Send>(items: Vec<T>, f: impl Fn(T) -> Vec<Cell> + Sync) -> Vec<Vec<Cell>> {
    items.into_par_iter().map(f).collect()
}

/// Columns of a traffic-heatmap summary table.
fn heatmap_columns() -> Vec<Column> {
    vec![
        Column::text("heatmap"),
        Column::fixed("total (GB)", 1),
        Column::fixed("max pair (GB)", 2),
        Column::int("non-zero pairs"),
    ]
}

fn heatmap_row(label: &str, tm: &topoopt_graph::TrafficMatrix) -> Vec<Cell> {
    row![label, tm.total() / GB, tm.max_entry() / GB, tm.nonzero_pairs()]
}

fn fig01(_s: &Scale) -> ExperimentReport {
    let dp = dlrm_pure_dp_heatmap(16);
    let hybrid = dlrm_hybrid_heatmap(16, 1);
    let mut table =
        Table::titled("DLRM traffic heatmaps (16 servers, §2.1 model)", heatmap_columns())
            .with_paper("hybrid parallelism concentrates the 22 GB DLRM's traffic on few pairs");
    table.push(heatmap_row("(a) pure data parallelism", &dp));
    table.push(heatmap_row("(b) hybrid parallelism", &hybrid));
    ExperimentReport::new().table(table).note(format!(
        "(b) hybrid heatmap (relative intensity 1-9):\n{}",
        hybrid.ascii_heatmap().trim_end()
    ))
}

fn fig02(s: &Scale) -> ExperimentReport {
    let jobs = sample_production_jobs(500, s.seed);
    let workers = cdf_points(&jobs, |j| j.workers as f64);
    let duration = cdf_points(&jobs, |j| j.duration_hours);
    let quantile = |points: &[(f64, f64)], pct: usize| {
        let idx = ((points.len() * pct) / 100).min(points.len() - 1);
        points[idx].0
    };
    let mut table = Table::titled(
        "production job CDFs (500 sampled jobs)",
        vec![
            Column::text("percentile"),
            Column::fixed("workers", 0),
            Column::fixed("duration (hours)", 1),
        ],
    )
    .with_paper("production jobs span orders of magnitude in size and duration");
    for pct in [10usize, 25, 50, 75, 90, 99] {
        table.push(row![format!("p{pct}"), quantile(&workers, pct), quantile(&duration, pct)]);
    }
    ExperimentReport::new().table(table)
}

fn fig03(_s: &Scale) -> ExperimentReport {
    let rows = overhead_scaling(100.0e9);
    let mut table = Table::titled(
        "network overhead (%) vs number of GPUs (B = 100 Gbps/server)",
        vec![
            Column::text("model"),
            Column::fixed("8", 1),
            Column::fixed("16", 1),
            Column::fixed("32", 1),
            Column::fixed("64", 1),
            Column::fixed("128", 1),
        ],
    )
    .with_paper("communication grows to tens of percent of iteration time at 128 GPUs");
    for kind in ModelKind::all() {
        let vals: Vec<f64> =
            rows.iter().filter(|(k, _, _)| *k == kind).map(|(_, _, v)| *v).collect();
        table.push(row![kind.name(), vals[0], vals[1], vals[2], vals[3], vals[4]]);
    }
    ExperimentReport::new().table(table)
}

fn fig04(_s: &Scale) -> ExperimentReport {
    let mut table = Table::titled(
        "production-style traffic heatmaps (ring + model-dependent MP rows)",
        heatmap_columns(),
    );
    for (label, n, hosts) in [
        ("(a) vision", 48, vec![0usize]),
        ("(b) image processing", 48, vec![0, 24]),
        ("(c) object tracking", 49, vec![5, 17, 33]),
        ("(d) speech recognition", 48, vec![]),
    ] {
        let tm = production_style_heatmap(n, &hosts, 2.0, 0.5);
        table.push(heatmap_row(label, &tm));
    }
    ExperimentReport::new().table(table)
}

fn table01(_s: &Scale) -> ExperimentReport {
    let mut table = Table::titled(
        "optical switching technologies",
        vec![
            Column::text("technology"),
            Column::int("ports"),
            Column::sci("reconfig (s)", 3),
            Column::fixed("loss (dB)", 1),
            Column::fixed("$/port", 0),
        ],
    )
    .with_paper("Table 1 values are the paper's own survey data");
    for t in optical_technologies() {
        table.push(row![
            t.name,
            t.port_count,
            t.reconfig_latency_s,
            t.insertion_loss_db,
            t.cost_per_port
        ]);
    }
    ExperimentReport::new().table(table)
}

fn mcmc_search(s: &Scale) -> ExperimentReport {
    let n = 16;
    let cfg = McmcConfig { iterations: s.mcmc_iters, seed: s.seed, ..Default::default() };
    let params = compute_params();
    let view = TopologyView::FullMesh { n, per_server_bps: 400.0e9 };
    let mut table = Table::titled(
        format!(
            "FlexNet-style MCMC strategy search ({} iterations x {} chains, {n} servers, \
             4 x 100 Gbps)",
            s.mcmc_iters, cfg.chains
        ),
        vec![
            Column::text("model"),
            Column::fixed("pure-DP est (s)", 4),
            Column::fixed("best est (s)", 4),
            Column::fixed("speedup", 2),
            Column::int("accepted"),
            Column::int("evaluated"),
        ],
    )
    .with_paper("MCMC finds hybrid placements for embedding-dominated models (§4.1)");
    let rows = par_rows(vec![ModelKind::Dlrm, ModelKind::Ncf, ModelKind::Bert], |kind| {
        let model = topoopt_models::build_model(kind, ModelPreset::Shared);
        let initial = ParallelizationStrategy::pure_data_parallel(&model, n);
        let initial_est = estimate_iteration_time(&model, &initial, &view, &params);
        let result = search_strategy(&model, initial, &view, &params, &cfg);
        row![
            kind.name(),
            initial_est.total_s,
            result.estimate.total_s,
            initial_est.total_s / result.estimate.total_s,
            result.accepted,
            result.evaluated
        ]
    });
    table.extend(rows);
    ExperimentReport::new().table(table)
}

fn fig07_09(_s: &Scale) -> ExperimentReport {
    let mut table =
        Table::titled("AllReduce mutability (16 servers, DLRM §2.1)", heatmap_columns())
            .with_paper("permuting ring neighbours load-balances AllReduce across the fabric");
    for stride in [1usize, 3, 7] {
        let tm = dlrm_hybrid_heatmap(16, stride);
        table.push(heatmap_row(&format!("+{stride} ring permutation"), &tm));
    }
    let combined = topoopt_combined_heatmap(16, &[1, 3, 7]);
    table.push(heatmap_row("TopoOpt combined {+1,+3,+7}", &combined));
    let single = dlrm_hybrid_heatmap(16, 1);
    ExperimentReport::new().table(table).note(format!(
        "max-entry reduction from load balancing: {:.2}x",
        single.max_entry() / combined.max_entry()
    ))
}

fn fig10(_s: &Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new();
    for (d, b) in [(4usize, 100.0e9), (8usize, 200.0e9)] {
        let mut table = Table::titled(
            format!("interconnect cost (M$), d = {d}, B = {} Gbps", b / 1.0e9),
            vec![
                Column::int("servers"),
                Column::fixed("TopoOpt", 2),
                Column::fixed("OCS", 2),
                Column::fixed("Fat-tree*", 2),
                Column::fixed("Ideal", 2),
                Column::fixed("SiP-ML", 2),
                Column::fixed("Expander", 2),
            ],
        );
        for n in [128usize, 432, 1024, 2000] {
            let c = |a| interconnect_cost(a, n, d, b).total() / 1.0e6;
            table.push(row![
                n,
                c(CostedArchitecture::TopoOptPatchPanel),
                c(CostedArchitecture::TopoOptOcs),
                c(CostedArchitecture::TopoOptPatchPanel), // cost-equivalent by construction
                c(CostedArchitecture::IdealSwitch),
                c(CostedArchitecture::SipMl),
                c(CostedArchitecture::Expander),
            ]);
        }
        report = report.table(table);
    }
    report.note("(* the Fat-tree baseline's bandwidth is chosen for cost parity with TopoOpt)")
}

fn dedicated_sweep(s: &Scale, degree: usize) -> ExperimentReport {
    let n = s.dedicated;
    let mut table = Table::titled(
        format!("training iteration time (s), dedicated cluster of {n} servers, d = {degree}"),
        vec![
            Column::text("model"),
            Column::fixed("B (Gbps)", 0),
            Column::fixed("TopoOpt", 4),
            Column::fixed("IdealSwitch", 4),
            Column::fixed("Fat-tree", 4),
            Column::fixed("Oversub FT", 4),
            Column::fixed("Expander", 4),
        ],
    )
    .with_paper(
        "128 servers in the paper; TopoOpt tracks the ideal switch and beats the \
         cost-equivalent fat-tree",
    );
    let combos: Vec<(ModelKind, f64)> = ModelKind::all()
        .into_iter()
        .flat_map(|kind| [25.0, 100.0].map(|gbps| (kind, gbps)))
        .collect();
    let rows = par_rows(combos, |(kind, link_gbps)| {
        let link_bps = link_gbps * 1.0e9;
        let (model, strategy) = baseline_strategy(kind, ModelPreset::Shared, n);
        let (demands, compute_s) =
            demands_and_compute(&model, &strategy, n, degree as f64 * link_bps);
        let topo = topoopt_iteration(&demands, n, degree, link_bps, compute_s);
        let ideal = switch_iteration(&demands, n, degree as f64 * link_bps, compute_s);
        let ft_bw = equivalent_fat_tree_bandwidth(n, degree, link_bps);
        let ft = switch_iteration(&demands, n, ft_bw, compute_s);
        let oversub = switch_iteration(&demands, n, degree as f64 * link_bps / 2.0, compute_s);
        let exp = expander_iteration(&demands, n, degree, link_bps, compute_s);
        row![
            kind.name(),
            link_gbps,
            topo.total_s,
            ideal.total_s,
            ft.total_s,
            oversub.total_s,
            exp.total_s
        ]
    });
    table.extend(rows);
    ExperimentReport::new().table(table)
}

fn fig11_d4(s: &Scale) -> ExperimentReport {
    dedicated_sweep(s, 4)
}

fn fig27_d8(s: &Scale) -> ExperimentReport {
    dedicated_sweep(s, 8)
}

fn alltoall_row(n: usize, degree: usize, batch: usize) -> (f64, f64, f64, f64, f64) {
    let model = build_dlrm(&DlrmConfig::all_to_all(batch));
    let strategy = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, n);
    let params = compute_params();
    let demands = extract_traffic(&model, &strategy, params.gpus_per_server);
    let link_bps = 100.0e9;
    let est = estimate_iteration_time(
        &model,
        &strategy,
        &TopologyView::FullMesh { n, per_server_bps: degree as f64 * link_bps },
        &params,
    );
    let topo = topoopt_iteration(&demands, n, degree, link_bps, est.compute_s);
    let ideal = switch_iteration(&demands, n, degree as f64 * link_bps, est.compute_s);
    let ft_bw = equivalent_fat_tree_bandwidth(n, degree, link_bps);
    let ft = switch_iteration(&demands, n, ft_bw, est.compute_s);
    (demands.mp_to_allreduce_ratio(), topo.total_s, ideal.total_s, ft.total_s, topo.bandwidth_tax)
}

fn fig12(s: &Scale) -> ExperimentReport {
    let n = s.dedicated;
    let mut report = ExperimentReport::new();
    for degree in [4usize, 8] {
        let mut table = Table::titled(
            format!("impact of all-to-all traffic, {n} servers, B = 100 Gbps, d = {degree}"),
            vec![
                Column::int("batch"),
                Column::fixed("alltoall/AR (%)", 0),
                Column::fixed("TopoOpt", 4),
                Column::fixed("Ideal", 4),
                Column::fixed("Fat-tree", 4),
            ],
        )
        .with_paper("128 servers in the paper");
        let rows = par_rows(vec![64usize, 128, 256, 512, 1024, 2048], |batch| {
            let (ratio, topo, ideal, ft, _tax) = alltoall_row(n, degree, batch);
            row![batch, ratio * 100.0, topo, ideal, ft]
        });
        table.extend(rows);
        report = report.table(table);
    }
    report
}

fn fig13(s: &Scale) -> ExperimentReport {
    let n = s.dedicated;
    let mut table = Table::titled(
        format!("bandwidth tax of host-based forwarding, {n} servers"),
        vec![Column::int("batch"), Column::fixed("d=4 (x)", 2), Column::fixed("d=8 (x)", 2)],
    );
    let rows = par_rows(vec![64usize, 128, 256, 512, 1024, 2048], |batch| {
        let (_, _, _, _, tax4) = alltoall_row(n, 4, batch);
        let (_, _, _, _, tax8) = alltoall_row(n, 8, batch);
        row![batch, tax4, tax8]
    });
    table.extend(rows);
    ExperimentReport::new().table(table)
}

fn topoopt_fabric_for(
    n: usize,
    degree: usize,
) -> (TopologyFinderOutput, topoopt_strategy::TrafficDemands) {
    let model = build_dlrm(&DlrmConfig::all_to_all(128));
    let strategy = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, n);
    let demands = extract_traffic(&model, &strategy, 4);
    let out = build_topoopt_fabric(&demands, n, degree, 100.0e9);
    (out, demands)
}

fn fig14(s: &Scale) -> ExperimentReport {
    let n = s.dedicated;
    let mut table = Table::titled(
        format!("path-length CDF over all server pairs, {n} servers"),
        vec![
            Column::int("degree"),
            Column::fixed("average (hops)", 2),
            Column::int("p50"),
            Column::int("p90"),
            Column::int("max"),
        ],
    );
    let rows = par_rows(vec![4usize, 8], |degree| {
        let (out, _) = topoopt_fabric_for(n, degree);
        let net = SimNetwork::new(out.graph.clone(), n, out.routing.clone());
        let cdf = net.server_path_length_cdf();
        let avg = net.average_server_path_length();
        let p = |q: f64| cdf[((cdf.len() as f64 * q) as usize).min(cdf.len() - 1)];
        row![degree, avg, p(0.5), p(0.9), *cdf.last().unwrap()]
    });
    table.extend(rows);
    ExperimentReport::new().table(table)
}

fn fig15(s: &Scale) -> ExperimentReport {
    let n = s.dedicated;
    let mut table = Table::titled(
        format!("per-link carried traffic for the all-to-all DLRM, {n} servers"),
        vec![
            Column::int("degree"),
            Column::int("links"),
            Column::fixed("min (MB)", 1),
            Column::fixed("max (MB)", 1),
            Column::fixed("min/max imbalance (%)", 0),
        ],
    );
    let rows: Vec<Option<Vec<Cell>>> = vec![4usize, 8]
        .into_par_iter()
        .map(|degree| {
            let (out, demands) = topoopt_fabric_for(n, degree);
            let plans = AllReducePlan::from_groups(&out.groups);
            let net = SimNetwork::new(out.graph.clone(), n, out.routing.clone());
            let it =
                simulate_iteration(&net, &demands, &plans, &IterationParams { compute_s: 0.0 });
            let cdf = it.link_traffic_cdf;
            if cdf.is_empty() {
                return None;
            }
            let min = cdf.first().unwrap() / 1.0e6;
            let max = cdf.last().unwrap() / 1.0e6;
            Some(row![degree, cdf.len(), min, max, (1.0 - min / max) * 100.0])
        })
        .collect();
    table.extend(rows.into_iter().flatten());
    ExperimentReport::new().table(table)
}

fn fig16(s: &Scale) -> ExperimentReport {
    let total = s.shared;
    let degree = 8;
    let link_bps = 100.0e9;
    let mix = MixModel { servers_per_job: 16, ..MixModel::default() };
    // Default seed 7 reproduces the original harness's job-mix stream
    // (which used a fixed seed of 11).
    let mix_seed = s.seed.wrapping_add(4);
    let mut table = Table::titled(
        format!("shared cluster of {total} servers (d = {degree}, B = 100 Gbps), §5.6 job mix"),
        vec![
            Column::fixed("load (%)", 0),
            Column::int("jobs"),
            Column::fixed("TopoOpt avg (s)", 4),
            Column::fixed("TopoOpt p99 (s)", 4),
            Column::fixed("Fat-tree avg (s)", 4),
            Column::fixed("Fat-tree p99 (s)", 4),
        ],
    )
    .with_paper("432 servers in the paper");
    let rows = par_rows(vec![0.2, 0.4, 0.6, 0.8, 1.0], |load| {
        let requests = job_mix_for_load(&mix, total, load, mix_seed);
        let mut shards = ClusterShards::new(total);
        let mut union = topoopt_graph::Graph::new(total);
        let mut jobs_data = Vec::new();
        for req in &requests {
            let Some((_, servers)) = shards.allocate(req.servers) else { break };
            let (model, strategy) = baseline_strategy(req.model, ModelPreset::Shared, req.servers);
            let (demands, compute_s) =
                demands_and_compute(&model, &strategy, req.servers, degree as f64 * link_bps);
            let out = build_topoopt_fabric(&demands, req.servers, degree, link_bps);
            for (_, e) in out.graph.edges() {
                union.add_edge(servers[e.src], servers[e.dst], e.capacity_bps);
            }
            let plans = AllReducePlan::from_groups(&out.groups);
            jobs_data.push((demands, plans, servers, compute_s, model.name.clone()));
        }
        let topo_net = SimNetwork::without_rules(union, total);
        let topo_jobs: Vec<JobSpec> = jobs_data
            .iter()
            .map(|(demands, plans, servers, compute_s, name)| {
                JobSpec::new(
                    name.clone(),
                    build_job_flows(&topo_net, demands, plans, servers),
                    *compute_s,
                )
            })
            .collect();
        let topo = simulate_shared_cluster(&topo_net, &topo_jobs);

        let ft_bw = equivalent_fat_tree_bandwidth(total, degree, link_bps);
        let ft_net =
            SimNetwork::without_rules(topoopt_graph::topologies::ideal_switch(total, ft_bw), total);
        let ft_jobs: Vec<JobSpec> = jobs_data
            .iter()
            .map(|(demands, _plans, servers, compute_s, name)| {
                JobSpec::new(
                    name.clone(),
                    build_job_flows(&ft_net, demands, &natural_ring_plans(demands), servers),
                    *compute_s,
                )
            })
            .collect();
        let ft = simulate_shared_cluster(&ft_net, &ft_jobs);
        row![load * 100.0, topo_jobs.len(), topo.average_s, topo.p99_s, ft.average_s, ft.p99_s]
    });
    table.extend(rows);
    ExperimentReport::new().table(table)
}

fn fig16_dynamic(s: &Scale) -> ExperimentReport {
    let total = s.shared;
    let degree = 8;
    let link_bps = 100.0e9;
    let iterations = 20usize;
    let mix = MixModel { servers_per_job: 16, ..MixModel::default() };
    let mix_seed = s.seed.wrapping_add(4);
    let mut table = Table::titled(
        format!(
            "dynamic shared cluster of {total} servers (d = {degree}, B = 100 Gbps): \
             Poisson arrivals, {iterations}-iteration jobs, look-ahead provisioning"
        ),
        vec![
            Column::fixed("load (%)", 0),
            Column::int("jobs"),
            Column::fixed("TopoOpt mean JCT (s)", 4),
            Column::fixed("TopoOpt p99 JCT (s)", 4),
            Column::fixed("queue wait (s)", 4),
            Column::fixed("switch-over (s)", 4),
            Column::int("flips"),
            Column::fixed("Fat-tree mean JCT (s)", 4),
            Column::fixed("Fat-tree p99 JCT (s)", 4),
        ],
    )
    .with_paper(
        "Appendix C: the look-ahead bank pre-wires the next job's topology while jobs \
         train, so patch-panel rewiring is (mostly) hidden behind queueing",
    );
    let rows = par_rows(vec![0.2, 0.4, 0.6, 0.8, 1.0], |load| {
        // Twice the steady-state job count, so the cluster sees sustained
        // turnover (departures freeing shards for queued arrivals).
        let requests = job_mix_for_load(&mix, total * 2, load, mix_seed);

        // Per-request demands, plans, shard topology, and solo iteration
        // time (over local ids; the dynamic simulator places the shard).
        let built: Vec<(DynamicJobSpec, f64)> = requests
            .iter()
            .map(|req| {
                let (model, strategy) =
                    baseline_strategy(req.model, ModelPreset::Shared, req.servers);
                let (demands, compute_s) =
                    demands_and_compute(&model, &strategy, req.servers, degree as f64 * link_bps);
                let out = build_topoopt_fabric(&demands, req.servers, degree, link_bps);
                let plans = AllReducePlan::from_groups(&out.groups);
                let spec = DynamicJobSpec {
                    name: model.name.clone(),
                    servers: req.servers,
                    demands,
                    plans,
                    topology: Some(out.graph),
                    compute_s,
                    arrival_s: 0.0,
                    iterations,
                };
                // The exact per-iteration cost the dynamic simulator will
                // charge this job, so the arrival-rate calibration below
                // can never drift from the simulated durations.
                let solo_iter_s = solo_iteration_s(&spec, 1.0e-6);
                (spec, solo_iter_s)
            })
            .collect();

        // Arrival spacing that offers `load` of the cluster on average:
        // rate = total*load / (servers_per_job * mean job duration).
        let mean_duration_s = iterations as f64 * built.iter().map(|(_, it)| it).sum::<f64>()
            / built.len().max(1) as f64;
        let mean_gap_s =
            mean_duration_s * mix.servers_per_job as f64 / (total as f64 * load.max(0.05));
        let arrivals = poisson_arrival_times(built.len(), mean_gap_s, mix_seed);
        // Patch-panel rewiring takes minutes against jobs that train for
        // hours; a tenth of a (scaled-down) job's runtime keeps the
        // hide-it-behind-training mechanism visible in the table.
        let provisioning_s = 0.1 * mean_duration_s;

        let topo_jobs: Vec<DynamicJobSpec> = built
            .iter()
            .zip(&arrivals)
            .map(|((spec, _), &t)| {
                let mut spec = spec.clone();
                spec.arrival_s = t;
                spec
            })
            .collect();
        let topo = simulate_dynamic_cluster(
            &topo_jobs,
            &DynamicClusterParams {
                total_servers: total,
                fabric: DynamicFabric::Partitioned,
                provisioning_time_s: provisioning_s,
                per_hop_latency_s: 1.0e-6,
                migration: MigrationMode::Atomic,
                shared_engine: SharedEngineMode::Persistent,
                window_cap: None,
                faults: vec![],
            },
        );

        let ft_bw = equivalent_fat_tree_bandwidth(total, degree, link_bps);
        let ft_jobs: Vec<DynamicJobSpec> = topo_jobs
            .iter()
            .map(|spec| {
                let mut spec = spec.clone();
                spec.plans = natural_ring_plans(&spec.demands);
                spec.topology = None;
                spec
            })
            .collect();
        let ft = simulate_dynamic_cluster(
            &ft_jobs,
            &DynamicClusterParams {
                total_servers: total,
                fabric: DynamicFabric::Shared(topoopt_graph::topologies::ideal_switch(
                    total, ft_bw,
                )),
                provisioning_time_s: 0.0,
                per_hop_latency_s: 1.0e-6,
                migration: MigrationMode::Atomic,
                shared_engine: SharedEngineMode::Persistent,
                window_cap: None,
                faults: vec![],
            },
        );
        row![
            load * 100.0,
            topo_jobs.len(),
            topo.mean_jct_s,
            topo.p99_jct_s,
            topo.mean_queue_delay_s,
            topo.mean_switch_over_s,
            topo.flips,
            ft.mean_jct_s,
            ft.p99_jct_s
        ]
    });
    table.extend(rows);
    ExperimentReport::new().table(table).note(
        "JCT = submission to departure. TopoOpt pays switch-over only when the look-ahead \
         bank's wiring did not finish in time; the fat-tree never rewires but runs every \
         job at the cost-equivalent (lower) per-server bandwidth.",
    )
}

fn fig16_dynamic_scale(s: &Scale) -> ExperimentReport {
    let degree = 8;
    let link_bps = 100.0e9;
    let iterations = 20usize;
    let mix = MixModel { servers_per_job: 16, ..MixModel::default() };
    let mix_seed = s.seed.wrapping_add(5);
    // Fixed datacenter sizes regardless of --full: the point of this
    // experiment is the committed, diffable scaling curve of the flat
    // engine, not a paper figure at a paper size.
    let sizes = [512usize, 2048, 8192];

    // Every request asks for the same 16-server shard, so one
    // TopologyFinder run per model kind covers every job at every cluster
    // size. These fabrics use `mp_shortest_path` routing: MP pairs covered
    // by a DP ring still ride their matched direct links.
    let kinds = [ModelKind::Dlrm, ModelKind::Bert, ModelKind::Candle, ModelKind::Vgg16];
    let prototypes: Vec<(ModelKind, DynamicJobSpec, f64)> = kinds
        .par_iter()
        .map(|&kind| {
            let n = mix.servers_per_job;
            let (model, strategy) = baseline_strategy(kind, ModelPreset::Shared, n);
            let (demands, compute_s) =
                demands_and_compute(&model, &strategy, n, degree as f64 * link_bps);
            let out = build_topoopt_fabric_routed(&demands, n, degree, link_bps);
            let plans = AllReducePlan::from_groups(&out.groups);
            let spec = DynamicJobSpec {
                name: model.name.clone(),
                servers: n,
                demands,
                plans,
                topology: Some(out.graph),
                compute_s,
                arrival_s: 0.0,
                iterations,
            };
            let solo_iter_s = solo_iteration_s(&spec, 1.0e-6);
            (kind, spec, solo_iter_s)
        })
        .collect();
    let prototype = |kind: ModelKind| {
        prototypes.iter().find(|(k, _, _)| *k == kind).expect("prototype for every mix kind")
    };

    // Table 1: the dynamic sweep — Poisson arrivals at two offered loads
    // per cluster size, partitioned TopoOpt fabric with look-ahead
    // provisioning (a cost-equivalent shared fat-tree at 8k servers would
    // re-simulate every co-resident flow set on each of thousands of
    // events; the partitioned sweep is the regime the paper's provisioner
    // targets, and there each job trains at its solo iteration time).
    let mut dynamic_table = Table::titled(
        format!(
            "dynamic TopoOpt cluster at datacenter scale (d = {degree}, B = 100 Gbps, \
             16-server jobs, {iterations} iterations each): Poisson arrivals, \
             look-ahead provisioning"
        ),
        vec![
            Column::int("servers"),
            Column::fixed("load (%)", 0),
            Column::int("jobs"),
            Column::fixed("mean JCT (s)", 4),
            Column::fixed("p99 JCT (s)", 4),
            Column::fixed("queue wait (s)", 4),
            Column::fixed("switch-over (s)", 4),
            Column::int("flips"),
            Column::fixed("makespan (s)", 4),
        ],
    )
    .with_paper("extends Figure 16 / Appendix C from 432 to 8192 servers (ROADMAP north-star)");
    let mut points: Vec<(usize, f64)> = Vec::new();
    for &total in &sizes {
        for load in [0.6, 0.9] {
            points.push((total, load));
        }
    }
    let rows = par_rows(points, |(total, load)| {
        // Twice the steady-state job count, so the cluster sees sustained
        // turnover (departures freeing shards for queued arrivals).
        let requests = job_mix_for_load(&mix, total * 2, load, mix_seed);
        let built: Vec<(&DynamicJobSpec, f64)> = requests
            .iter()
            .map(|req| {
                let (_, spec, solo) = prototype(req.model);
                (spec, *solo)
            })
            .collect();
        let mean_duration_s = iterations as f64 * built.iter().map(|(_, it)| it).sum::<f64>()
            / built.len().max(1) as f64;
        let mean_gap_s =
            mean_duration_s * mix.servers_per_job as f64 / (total as f64 * load.max(0.05));
        let arrivals = poisson_arrival_times(built.len(), mean_gap_s, mix_seed);
        let provisioning_s = 0.1 * mean_duration_s;
        let jobs: Vec<DynamicJobSpec> = built
            .iter()
            .zip(&arrivals)
            .map(|((spec, _), &t)| {
                let mut spec = (*spec).clone();
                spec.arrival_s = t;
                spec
            })
            .collect();
        let r = simulate_dynamic_cluster(
            &jobs,
            &DynamicClusterParams {
                total_servers: total,
                fabric: DynamicFabric::Partitioned,
                provisioning_time_s: provisioning_s,
                per_hop_latency_s: 1.0e-6,
                migration: MigrationMode::Atomic,
                shared_engine: SharedEngineMode::Persistent,
                window_cap: None,
                faults: vec![],
            },
        );
        row![
            total,
            load * 100.0,
            jobs.len(),
            r.mean_jct_s,
            r.p99_jct_s,
            r.mean_queue_delay_s,
            r.mean_switch_over_s,
            r.flips,
            r.makespan_s
        ]
    });
    dynamic_table.extend(rows);

    // Table 2: one fully-occupied static round per size on the union
    // fabric, with the engine's work counters. Every job is a disjoint
    // component simulated on a fresh engine of its own, so max_component
    // stays at one job's flow count no matter how large the cluster grows.
    let mut round_table = Table::titled(
        "full-occupancy static round on the union fabric (engine work counters)".to_string(),
        vec![
            Column::int("servers"),
            Column::int("jobs"),
            Column::int("flows"),
            Column::int("events"),
            Column::int("waterfills"),
            Column::int("max component"),
            Column::fixed("avg iter (s)", 4),
            Column::fixed("p99 iter (s)", 4),
        ],
    );
    let round_rows = par_rows(sizes.to_vec(), |total| {
        let requests = job_mix_for_load(&mix, total, 1.0, mix_seed);
        let mut shards = ClusterShards::new(total);
        let mut union = topoopt_graph::Graph::new(total);
        let mut placed: Vec<(&DynamicJobSpec, Vec<usize>)> = Vec::new();
        for req in &requests {
            let Some((_, servers)) = shards.allocate(req.servers) else { break };
            let (_, spec, _) = prototype(req.model);
            let topo = spec.topology.as_ref().expect("prototype fabrics are partitioned");
            for (_, e) in topo.edges() {
                union.add_edge(servers[e.src], servers[e.dst], e.capacity_bps);
            }
            placed.push((spec, servers));
        }
        let net = SimNetwork::without_rules(union, total);
        let jobs: Vec<JobSpec> = placed
            .iter()
            .map(|(spec, servers)| {
                JobSpec::new(
                    spec.name.clone(),
                    build_job_flows(&net, &spec.demands, &spec.plans, servers),
                    spec.compute_s,
                )
            })
            .collect();
        let flow_count: usize = jobs.iter().map(|j| j.flows.len()).sum();
        let (round, stats) = simulate_shared_cluster_stats(&net, &jobs);
        row![
            total,
            jobs.len(),
            flow_count,
            stats.events,
            stats.waterfills,
            stats.max_component,
            round.average_s,
            round.p99_s
        ]
    });
    round_table.extend(round_rows);

    // Table 3: the window-cache payoff — the same Poisson mix on a
    // cost-equivalent shared fat-tree, where every arrival/departure
    // re-rates the co-resident set. One window cache survives the whole run
    // (links intern once, and each window simulates only its dirty
    // job-level components, each on a fresh engine); the window counters
    // prove the reuse: jobs are server-disjoint on the ideal switch, so a
    // window touches one component and every other resident keeps its
    // cached round time.
    let mut window_table = Table::titled(
        "shared fat-tree arm: persistent engine window counters (60% offered load)".to_string(),
        vec![
            Column::int("servers"),
            Column::int("jobs"),
            Column::int("windows"),
            Column::int("incremental"),
            Column::int("rebuilt"),
            Column::int("jobs re-rated"),
            Column::int("jobs reused"),
            Column::int("events"),
            Column::int("waterfills"),
            Column::int("max component"),
            Column::fixed("mean JCT (s)", 4),
        ],
    );
    let window_rows = par_rows(sizes.to_vec(), |total| {
        let load = 0.6;
        let requests = job_mix_for_load(&mix, total * 2, load, mix_seed);
        let built: Vec<(&DynamicJobSpec, f64)> = requests
            .iter()
            .map(|req| {
                let (_, spec, solo) = prototype(req.model);
                (spec, *solo)
            })
            .collect();
        let mean_duration_s = iterations as f64 * built.iter().map(|(_, it)| it).sum::<f64>()
            / built.len().max(1) as f64;
        let mean_gap_s =
            mean_duration_s * mix.servers_per_job as f64 / (total as f64 * load.max(0.05));
        let arrivals = poisson_arrival_times(built.len(), mean_gap_s, mix_seed);
        let ft_bw = equivalent_fat_tree_bandwidth(total, degree, link_bps);
        let jobs: Vec<DynamicJobSpec> = built
            .iter()
            .zip(&arrivals)
            .map(|((spec, _), &t)| {
                let mut spec = (*spec).clone();
                spec.arrival_s = t;
                spec.plans = natural_ring_plans(&spec.demands);
                spec.topology = None;
                spec
            })
            .collect();
        let r = simulate_dynamic_cluster(
            &jobs,
            &DynamicClusterParams {
                total_servers: total,
                fabric: DynamicFabric::Shared(topoopt_graph::topologies::ideal_switch(
                    total, ft_bw,
                )),
                provisioning_time_s: 0.0,
                per_hop_latency_s: 1.0e-6,
                migration: MigrationMode::Atomic,
                shared_engine: SharedEngineMode::Persistent,
                window_cap: None,
                faults: vec![],
            },
        );
        let e = r.engine;
        row![
            total,
            jobs.len(),
            e.windows,
            e.windows_incremental,
            e.windows_rebuilt,
            e.jobs_rerated,
            e.jobs_reused,
            e.events,
            e.waterfills,
            e.max_component,
            r.mean_jct_s
        ]
    });
    window_table.extend(window_rows);

    ExperimentReport::new().table(dynamic_table).table(round_table).table(window_table).note(
        "Flat index-based engine, one fresh engine per job-level component: disjoint \
         16-server jobs are simulated fully independently, so the largest re-rated \
         component is one job's flow set even at 8192 servers. MP pairs use shortest-path \
         routes over their matched links (mp_shortest_path). The shared-arm table keeps a \
         window cache across every arrival/departure window and re-simulates only the \
         dirty components, each on a fresh engine: 'jobs reused' counts resident jobs \
         whose cached round time survived a window untouched (bit-identical to a full \
         rebuild).",
    )
}

fn fig17(s: &Scale) -> ExperimentReport {
    let n = s.dedicated.min(32);
    let degree = 8;
    let mut report = ExperimentReport::new();
    for kind in [ModelKind::Dlrm, ModelKind::Bert] {
        let (model, strategy) = baseline_strategy(kind, ModelPreset::Shared, n);
        let (demands, compute_s) = demands_and_compute(&model, &strategy, n, 800.0e9);
        let topo = topoopt_iteration(&demands, n, degree, 100.0e9, compute_s);
        let mut table = Table::titled(
            format!(
                "OCS reconfiguration latency, {} on {n} servers, d = {degree} \
                 (TopoOpt static: {:.4} s)",
                kind.name(),
                topo.total_s
            ),
            vec![
                Column::fixed("latency (us)", 0),
                Column::fixed("OCS-reconfig-FW (s)", 4),
                Column::fixed("OCS-reconfig-noFW (s)", 4),
            ],
        );
        let rows = par_rows(vec![1.0, 10.0, 100.0, 1000.0, 10000.0], |latency_us| {
            let base = ReconfigParams {
                degree,
                link_bps: 100.0e9,
                reconfig_latency_s: latency_us * 1.0e-6,
                compute_s,
                ..Default::default()
            };
            let fw = simulate_reconfigurable_iteration(&demands, &base);
            let nofw = simulate_reconfigurable_iteration(
                &demands,
                &ReconfigParams { host_forwarding: false, ..base },
            );
            row![latency_us, fw.total_s, nofw.total_s]
        });
        table.extend(rows);
        report = report.table(table);
    }
    report
}

/// Relay efficiency the committed §6 figures run at. 1.0 calibrates the
/// testbed to the paper's tuned forwarding path (DPDK-grade relaying);
/// `rdma_relay_overhead` sweeps the penalty itself.
const TESTBED_RELAY_EFFICIENCY: f64 = 1.0;

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

fn fig19(_s: &Scale) -> ExperimentReport {
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
fn fig20_rows(target: f64) -> Vec<Vec<Cell>> {
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

fn fig20(_s: &Scale) -> ExperimentReport {
    let mut table = Table::titled(
        "time-to-accuracy of VGG19/ImageNet (top-5 target 90%)",
        vec![Column::text("network"), Column::fixed("hours", 1)],
    );
    table.extend(fig20_rows(0.90));
    ExperimentReport::new().table(table)
}

fn fig21(_s: &Scale) -> ExperimentReport {
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
        let params = compute_params();
        let demands = extract_traffic(&model, &strategy, params.gpus_per_server);
        let est = estimate_iteration_time(
            &model,
            &strategy,
            &TopologyView::FullMesh { n, per_server_bps: 100.0e9 },
            &params,
        );
        let fabric = build_rdma_fabric(&demands, n, 4, 25.0e9);
        let topo = fabric.simulate(&demands, est.compute_s, TESTBED_RELAY_EFFICIENCY);
        let sw100 = switch_iteration(&demands, n, 100.0e9, est.compute_s);
        let sw25 = switch_iteration(&demands, n, 25.0e9, est.compute_s);
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

fn rdma_relay_overhead(_s: &Scale) -> ExperimentReport {
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

fn fig_a(_s: &Scale) -> ExperimentReport {
    let members: Vec<usize> = (0..16).collect();
    let dbt = double_binary_tree(&members);
    let tm = tree_allreduce_traffic(16, 22.0 * GB, &dbt);
    let mut table = Table::titled(
        "double binary tree AllReduce permutations (Appendix A), 16 servers",
        heatmap_columns(),
    );
    table.push(heatmap_row("DBT AllReduce of a 22 GB model", &tm));
    // Permuting the labels preserves volume.
    let permuted: Vec<usize> = (0..16).map(|i| (i * 5) % 16).collect();
    let dbt2 = double_binary_tree(&permuted);
    let tm2 = tree_allreduce_traffic(16, 22.0 * GB, &dbt2);
    table.push(heatmap_row("relabelled DBT (same cost)", &tm2));
    ExperimentReport::new().table(table)
}

fn table02(_s: &Scale) -> ExperimentReport {
    let mut table = Table::titled(
        "component costs ($)",
        vec![
            Column::fixed("bandwidth (Gbps)", 0),
            Column::fixed("transceiver", 0),
            Column::fixed("NIC", 0),
            Column::fixed("switch port", 0),
            Column::fixed("patch panel", 0),
            Column::fixed("OCS", 0),
            Column::fixed("1x2 switch", 0),
        ],
    )
    .with_paper("Table 2 (Appendix G) values are the paper's own price survey");
    for gbps in [10.0, 25.0, 40.0, 100.0, 200.0] {
        let c = component_costs(gbps * 1.0e9);
        table.push(row![
            gbps,
            c.transceiver,
            c.nic,
            c.electrical_switch_port,
            c.patch_panel_port,
            c.ocs_port,
            c.one_by_two_switch
        ]);
    }
    ExperimentReport::new().table(table)
}

fn fig28(s: &Scale) -> ExperimentReport {
    let n = s.dedicated;
    let mut table = Table::titled(
        format!("impact of server degree on iteration time, {n} servers"),
        vec![
            Column::text("model"),
            Column::int("degree"),
            Column::fixed("B=40 Gbps (s)", 4),
            Column::fixed("B=100 Gbps (s)", 4),
        ],
    );
    let combos: Vec<(ModelKind, usize)> = [ModelKind::Dlrm, ModelKind::Candle, ModelKind::Bert]
        .into_iter()
        .flat_map(|kind| [4usize, 6, 8, 10].map(|degree| (kind, degree)))
        .collect();
    let rows = par_rows(combos, |(kind, degree)| {
        let (model, strategy) = baseline_strategy(kind, ModelPreset::Shared, n);
        let mut per_bw = Vec::new();
        for b in [40.0e9, 100.0e9] {
            let (demands, compute_s) = demands_and_compute(&model, &strategy, n, degree as f64 * b);
            let topo = topoopt_iteration(&demands, n, degree, b, compute_s);
            per_bw.push(topo.total_s);
        }
        row![kind.name(), degree, per_bw[0], per_bw[1]]
    });
    table.extend(rows);
    ExperimentReport::new().table(table)
}

/// The migration-planner callback [`fig_reconfig_planned`] hands the
/// dynamic cluster: tree-search sequencing with per-destination rule
/// repair, each link operation costing an equal slice of the atomic
/// rewiring time. Falls back to the atomic swap — naming the violated
/// policy on the schedule — when no safe ordering is found.
fn planned_migration_mode(provisioning_s: f64) -> MigrationMode {
    MigrationMode::Planned(Arc::new(move |prev: Option<&Graph>, target: &Graph| {
        let n = target.num_nodes();
        let per_step_s = provisioning_s / target.num_edges().max(1) as f64;
        let source = prev.cloned().unwrap_or_else(|| Graph::new(n));
        let problem = MigrationProblem::new(
            n,
            FabricSpec::shortest_path(source),
            FabricSpec::shortest_path(target.clone()),
        );
        let planner = MigrationPlanner::new(Box::new(TreeSearch::default()));
        match planner.plan(&problem) {
            Ok(plan) => TransitionSchedule::planned(
                (1..=plan.link_ops()).map(|i| i as f64 * per_step_s).collect(),
            ),
            Err(fb) => TransitionSchedule {
                step_offsets_s: vec![provisioning_s],
                planned: false,
                fallback: Some(fb.violation.policy),
            },
        }
    }))
}

/// Rows of the §6 testbed migration table: one atomic baseline plus the
/// three planner strategies for the migration `source` → `target`, with
/// the fluid-engine throughput dip as the soft policy.
fn reconfig_testbed_rows(name: &str, source: &Graph, target: &Graph, seed: u64) -> Vec<Vec<Cell>> {
    let n = source.num_nodes();
    let problem = MigrationProblem::new(
        n,
        FabricSpec::shortest_path(source.clone()),
        FabricSpec::shortest_path(target.clone()),
    );
    let ops = problem.ops().len();
    let all_pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).filter(|&(s, d)| s != d).collect();
    let mut probe = TrafficMatrix::new(n);
    for &(s, d) in &all_pairs {
        probe.add(s, d, 1.0e6);
    }
    let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
        ("naive ordered", Box::new(NaiveOrdered)),
        ("random perms", Box::new(RandomPermutation::new(4, seed))),
        ("tree search", Box::new(TreeSearch::default())),
    ];
    // The atomic swap: the whole fabric is dark for the full rewiring, a
    // throughput dip of 1.0 by definition.
    let mut rows =
        vec![row![name, "atomic swap", ops, 1usize, 1.0, 1.0, 0usize, "dark while rewiring"]];
    for (label, strategy) in strategies {
        let src_state = FabricState::from_spec(&problem.source, n);
        let dip = ThroughputDip::new(probe.clone(), 1.0e-6, TESTBED_RELAY_EFFICIENCY, &src_state);
        let planner = MigrationPlanner::new(strategy)
            .with_hard(Box::new(PairReachability::new(all_pairs.clone())))
            .with_soft(Box::new(dip));
        rows.push(match planner.plan(&problem) {
            Ok(plan) => row![
                name,
                label,
                plan.link_ops(),
                plan.steps.len(),
                plan.peak_cost,
                plan.mean_cost,
                plan.states_checked,
                "ok"
            ],
            Err(fb) => row![
                name,
                label,
                ops,
                1usize,
                1.0,
                1.0,
                fb.states_checked,
                format!("fallback: {}", fb.violation.policy)
            ],
        });
    }
    rows
}

fn fig_reconfig_planned(s: &Scale) -> ExperimentReport {
    // Table 1: §6 testbed model-to-model migrations (12 servers, d = 4,
    // 25 Gbps), atomic swap vs the three planner strategies.
    let n = 12usize;
    let degree = 4usize;
    let kinds = [ModelKind::Bert, ModelKind::Dlrm, ModelKind::Vgg16, ModelKind::Candle];
    let fabrics: Vec<(ModelKind, Graph)> = kinds
        .par_iter()
        .map(|&kind| {
            let (model, strategy) = baseline_strategy(kind, ModelPreset::Testbed, n);
            let (demands, _) = demands_and_compute(&model, &strategy, n, 100.0e9);
            (kind, build_topoopt_fabric(&demands, n, degree, 25.0e9).graph)
        })
        .collect();
    let mut testbed_table = Table::titled(
        format!(
            "§6 testbed migrations ({n} servers, d = {degree}, 25 Gbps): atomic swap vs \
             planned per-link sequencing (hard: loop freedom + all-pairs reachability; \
             soft: fluid-engine throughput dip, 0 = no loss, 1 = fabric dark)"
        ),
        vec![
            Column::text("migration"),
            Column::text("strategy"),
            Column::int("link ops"),
            Column::int("steps"),
            Column::fixed("peak dip", 4),
            Column::fixed("mean dip", 4),
            Column::int("states"),
            Column::text("outcome"),
        ],
    )
    .with_paper(
        "Snowcap-style reconfiguration synthesis applied to the patch panel: every \
         intermediate fabric must keep all rule chains loop-free and every pair reachable",
    );
    let migrations: Vec<(String, Graph, Graph)> = (0..fabrics.len())
        .map(|i| {
            let (ka, ga) = &fabrics[i];
            let (kb, gb) = &fabrics[(i + 1) % fabrics.len()];
            (format!("{} -> {}", ka.name(), kb.name()), ga.clone(), gb.clone())
        })
        .collect();
    let seed = s.seed;
    let row_groups: Vec<Vec<Vec<Cell>>> = migrations
        .into_par_iter()
        .map(|(name, ga, gb)| reconfig_testbed_rows(&name, &ga, &gb, seed))
        .collect();
    for group in row_groups {
        testbed_table.extend(group);
    }

    // Table 2: a fig16-style dynamic workload, atomic vs planned
    // transitions end to end — same jobs, same arrivals, same provisioner.
    let total = s.shared;
    let dyn_degree = 8;
    let link_bps = 100.0e9;
    let iterations = 20usize;
    let mix = MixModel { servers_per_job: 16, ..MixModel::default() };
    let mix_seed = s.seed.wrapping_add(6);
    let mut dynamic_table = Table::titled(
        format!(
            "dynamic cluster of {total} servers (d = {dyn_degree}, B = 100 Gbps): atomic \
             swap vs planned per-link migration at every job transition"
        ),
        vec![
            Column::fixed("load (%)", 0),
            Column::text("migration"),
            Column::int("jobs"),
            Column::fixed("mean JCT (s)", 4),
            Column::fixed("p99 JCT (s)", 4),
            Column::fixed("queue wait (s)", 4),
            Column::fixed("switch-over (s)", 4),
            Column::int("planned"),
            Column::int("fallbacks"),
        ],
    )
    .with_paper(
        "the planned column counts transitions sequenced by the tree-search planner \
         (stale wiring of departed jobs is torn down link by link); fallbacks counts \
         transitions that reverted to the atomic swap",
    );
    let dyn_groups: Vec<Vec<Vec<Cell>>> = vec![0.6, 0.9]
        .into_par_iter()
        .map(|load| {
            let requests = job_mix_for_load(&mix, total * 2, load, mix_seed);
            let built: Vec<(DynamicJobSpec, f64)> = requests
                .iter()
                .map(|req| {
                    let (model, strategy) =
                        baseline_strategy(req.model, ModelPreset::Shared, req.servers);
                    let (demands, compute_s) = demands_and_compute(
                        &model,
                        &strategy,
                        req.servers,
                        dyn_degree as f64 * link_bps,
                    );
                    let out = build_topoopt_fabric(&demands, req.servers, dyn_degree, link_bps);
                    let plans = AllReducePlan::from_groups(&out.groups);
                    let spec = DynamicJobSpec {
                        name: model.name.clone(),
                        servers: req.servers,
                        demands,
                        plans,
                        topology: Some(out.graph),
                        compute_s,
                        arrival_s: 0.0,
                        iterations,
                    };
                    let solo_iter_s = solo_iteration_s(&spec, 1.0e-6);
                    (spec, solo_iter_s)
                })
                .collect();
            let mean_duration_s = iterations as f64 * built.iter().map(|(_, it)| it).sum::<f64>()
                / built.len().max(1) as f64;
            let mean_gap_s =
                mean_duration_s * mix.servers_per_job as f64 / (total as f64 * load.max(0.05));
            let arrivals = poisson_arrival_times(built.len(), mean_gap_s, mix_seed);
            let provisioning_s = 0.1 * mean_duration_s;
            let jobs: Vec<DynamicJobSpec> = built
                .iter()
                .zip(&arrivals)
                .map(|((spec, _), &t)| {
                    let mut spec = spec.clone();
                    spec.arrival_s = t;
                    spec
                })
                .collect();
            let modes = [
                ("atomic", MigrationMode::Atomic),
                ("planned", planned_migration_mode(provisioning_s)),
            ];
            modes
                .into_iter()
                .map(|(label, migration)| {
                    let r = simulate_dynamic_cluster(
                        &jobs,
                        &DynamicClusterParams {
                            total_servers: total,
                            fabric: DynamicFabric::Partitioned,
                            provisioning_time_s: provisioning_s,
                            per_hop_latency_s: 1.0e-6,
                            migration,
                            shared_engine: SharedEngineMode::Persistent,
                            window_cap: None,
                            faults: vec![],
                        },
                    );
                    row![
                        load * 100.0,
                        label,
                        jobs.len(),
                        r.mean_jct_s,
                        r.p99_jct_s,
                        r.mean_queue_delay_s,
                        r.mean_switch_over_s,
                        r.planned_transitions,
                        r.fallback_transitions
                    ]
                })
                .collect()
        })
        .collect();
    for group in dyn_groups {
        dynamic_table.extend(group);
    }

    ExperimentReport::new().table(testbed_table).table(dynamic_table).note(
        "Peak/mean dip is the worst/average fraction of source-fabric goodput lost across \
         the migration's intermediate states (fluid-simulated over an all-pairs probe); \
         the atomic swap scores 1.0 because the whole fabric is dark while it rewires. \
         Planned transitions pay the same provisioner mechanics (look-ahead wiring hidden \
         behind queueing), with the schedule's total time scaled to the number of link \
         operations the migration actually needs.",
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

fn fig_failure_degradation(s: &Scale) -> ExperimentReport {
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
            let connected = topoopt_reconfig::surviving_pairs(&cut, n).len();
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
    knob_table.push(fabric_row(
        "availability-aware",
        &build_rdma_fabric_available(&tenant_demands, n, degree, link_bps),
    ));

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        for def in EXPERIMENTS {
            assert_eq!(find(def.id).unwrap().id, def.id);
            assert_eq!(EXPERIMENTS.iter().filter(|d| d.id == def.id).count(), 1);
        }
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn fast_experiment_produces_a_stamped_report() {
        let s = Scale::new(false, DEFAULT_SEED);
        let def = find("table01_optical_tech").unwrap();
        let report = run(def, &s);
        assert_eq!(report.id, "table01_optical_tech");
        assert_eq!(report.title, "Table 1");
        assert_eq!(report.section, "§3");
        assert_eq!(report.seed, DEFAULT_SEED);
        assert!(!report.scale.full);
        assert!(report.wall_time_s >= 0.0);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].rows.len(), 6);
        // The report is renderable and serializable.
        assert!(report.render_text().contains("3D MEMS"));
        let back = ExperimentReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn sampling_experiment_is_deterministic_per_seed() {
        let s = Scale::new(false, 7);
        let a = fig02(&s);
        let b = fig02(&s);
        assert_eq!(a, b);
        let c = fig02(&Scale::new(false, 99));
        assert_ne!(a.tables[0].rows, c.tables[0].rows);
    }

    #[test]
    fn reconfig_testbed_rows_keep_planned_dips_no_worse_than_atomic() {
        let src = topoopt_graph::topologies::from_permutations(8, &[1, 3], 25.0e9);
        let dst = topoopt_graph::topologies::from_permutations(8, &[2, 5], 25.0e9);
        let rows = reconfig_testbed_rows("a -> b", &src, &dst, DEFAULT_SEED);
        assert_eq!(rows.len(), 4, "atomic baseline plus three strategies");
        // The atomic swap is dark for the full rewiring: peak dip 1.0.
        let Cell::Float(atomic_peak) = rows[0][4] else { panic!("peak dip must be a float") };
        assert_eq!(atomic_peak, 1.0);
        // The tree-search row must sequence this uncapped migration and
        // never dip below the atomic worst case.
        let tree = &rows[3];
        assert_eq!(tree[7], Cell::Str("ok".into()));
        let Cell::Float(tree_peak) = tree[4] else { panic!("peak dip must be a float") };
        assert!(tree_peak <= atomic_peak + 1e-9, "planned peak dip {tree_peak} worse than atomic");
        // Every strategy row either succeeds or names the violated policy.
        for r in &rows[1..] {
            let Cell::Str(outcome) = &r[7] else { panic!("outcome must be text") };
            assert!(outcome == "ok" || outcome.starts_with("fallback: "), "outcome {outcome}");
        }
    }

    #[test]
    fn planned_migration_mode_schedules_or_falls_back_with_a_policy() {
        let MigrationMode::Planned(planner) = planned_migration_mode(1.0) else {
            panic!("planned_migration_mode must return the planned variant")
        };
        // Dark shard: every target link is one step, total = provisioning.
        let target = topoopt_graph::topologies::from_permutations(6, &[1, 2], 25.0e9);
        let schedule = planner(None, &target);
        assert!(schedule.planned && schedule.fallback.is_none());
        assert_eq!(schedule.steps(), target.num_edges());
        assert!((schedule.total_s() - 1.0).abs() < 1e-12);
        // Stale wiring: tear-down steps extend the schedule beyond the
        // atomic total instead of being teleported away.
        let stale = topoopt_graph::topologies::from_permutations(6, &[3], 25.0e9);
        let schedule = planner(Some(&stale), &target);
        assert!(schedule.planned && schedule.fallback.is_none());
        assert!(schedule.steps() > target.num_edges());
    }

    #[test]
    fn fig20_unreachable_accuracy_target_yields_na_cells_not_a_panic() {
        // Regression: the 0.93-asymptote VGG19 curve can never hit 99%
        // top-5; fig20 must render "n/a" cells instead of unwrapping None.
        let rows = fig20_rows(0.99);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row[1], Cell::Empty, "unreachable target should give an empty cell");
        }
        // The committed 90% target stays numeric.
        for row in fig20_rows(0.90) {
            assert!(matches!(row[1], Cell::Float(h) if h.is_finite() && h > 0.0));
        }
    }

    #[test]
    fn relay_overhead_sweep_is_anchored_at_unit_efficiency() {
        let s = Scale::new(false, DEFAULT_SEED);
        let report = rdma_relay_overhead(&s);
        let rows = &report.tables[0].rows;
        assert_eq!(rows.len(), 18);
        for chunk in rows.chunks(6) {
            // First row of each degree block is efficiency 1.0: slowdown 1x.
            let Cell::Float(slowdown) = chunk[0][7] else { panic!("slowdown must be float") };
            assert!((slowdown - 1.0).abs() < 1e-12);
            // Harsher kernels never speed the iteration up.
            let totals: Vec<f64> = chunk
                .iter()
                .map(|r| match r[5] {
                    Cell::Float(t) => t,
                    _ => panic!("sim iter must be float"),
                })
                .collect();
            for w in totals.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "lower efficiency must not be faster: {totals:?}");
            }
        }
    }

    #[test]
    fn mcmc_search_improves_embedding_models() {
        let s = Scale { full: false, dedicated: 32, shared: 64, mcmc_iters: 60, seed: 7 };
        let report = mcmc_search(&s);
        let rows = &report.tables[0].rows;
        assert_eq!(rows.len(), 3);
        // DLRM row: speedup (col 3) must be >= 1 (search never regresses).
        let Cell::Float(speedup) = rows[0][3] else { panic!("speedup cell should be a float") };
        assert!(speedup >= 1.0, "MCMC should not regress: {speedup}");
    }
}
