//! §2–§4 and Appendix A: the motivation figures (DLRM and production
//! traffic heatmaps, production job CDFs, network overhead), the optical
//! technology survey, the MCMC strategy search, AllReduce mutability and
//! double-binary-tree permutations.

use topoopt_collectives::tree::{double_binary_tree, tree_allreduce_traffic};
use topoopt_cost::optical_technologies;
use topoopt_models::{ModelKind, ModelPreset};
use topoopt_report::{row, Cell, Column, ExperimentReport, Table};
use topoopt_strategy::{
    estimate_iteration_time, search_strategy, McmcConfig, ParallelizationStrategy, TopologyView,
};
use topoopt_workloads::production::cdf_points;
use topoopt_workloads::{
    dlrm_hybrid_heatmap, dlrm_pure_dp_heatmap, overhead_scaling, production_style_heatmap,
    sample_production_jobs, topoopt_combined_heatmap,
};

use super::{par_rows, Scale, GB};
use crate::compute_params;

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

pub(super) fn fig01(_s: &Scale) -> ExperimentReport {
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

pub(super) fn fig02(s: &Scale) -> ExperimentReport {
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

pub(super) fn fig03(_s: &Scale) -> ExperimentReport {
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

pub(super) fn fig04(_s: &Scale) -> ExperimentReport {
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

pub(super) fn table01(_s: &Scale) -> ExperimentReport {
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

pub(super) fn mcmc_search(s: &Scale) -> ExperimentReport {
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

pub(super) fn fig07_09(_s: &Scale) -> ExperimentReport {
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

pub(super) fn fig_a(_s: &Scale) -> ExperimentReport {
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
