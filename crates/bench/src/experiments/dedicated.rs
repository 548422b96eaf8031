//! §5.1–§5.5 and the dedicated-cluster appendix figures: interconnect and
//! component costs, iteration time on a dedicated cluster at degree 4 and
//! 8, all-to-all traffic and its bandwidth tax, path lengths, per-link
//! traffic, and the server-degree sweep.

use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use topoopt_core::topology_finder::TopologyFinderOutput;
use topoopt_cost::{
    component_costs, equivalent_fat_tree_bandwidth, interconnect_cost, CostedArchitecture,
};
use topoopt_models::zoo::build_dlrm;
use topoopt_models::{DlrmConfig, ModelKind, ModelPreset};
use topoopt_netsim::{simulate_iteration, AllReducePlan, IterationResult, SimNetwork};
use topoopt_report::{row, Cell, Column, ExperimentReport, Table};
use topoopt_strategy::{extract_traffic, ParallelizationStrategy, TrafficDemands};

use super::{par_rows, Scale};
use crate::{
    baseline_strategy, build_topoopt_fabric, demands_and_compute, expander_iteration,
    switch_iteration, topoopt_iteration,
};

pub(super) fn fig10(_s: &Scale) -> ExperimentReport {
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

pub(super) fn fig11_d4(s: &Scale) -> ExperimentReport {
    dedicated_sweep(s, 4)
}

pub(super) fn fig27_d8(s: &Scale) -> ExperimentReport {
    dedicated_sweep(s, 8)
}

/// Per-interface bandwidth of the all-to-all sweeps (fig12, fig13).
const ALLTOALL_LINK_BPS: f64 = 100.0e9;

/// The all-to-all DLRM's demands and compute time at one batch size, and
/// its simulated iteration on the TopoOpt fabric.
type AllToAllCell = Arc<(TrafficDemands, f64, IterationResult)>;

/// [`alltoall_topoopt`]'s cells by `(n, degree, batch)`, for the life of
/// the process: fig13's cells are the TopoOpt cells fig12 simulates, so a
/// run of both simulates each once, and either run alone its own.
static ALLTOALL_CELLS: Mutex<BTreeMap<(usize, usize, usize), AllToAllCell>> =
    Mutex::new(BTreeMap::new());

/// The all-to-all cell at `(n, degree, batch)`, simulated on first use.
fn alltoall_topoopt(n: usize, degree: usize, batch: usize) -> AllToAllCell {
    let cells = || ALLTOALL_CELLS.lock().expect("no thread panics holding the all-to-all memo");
    if let Some(cell) = cells().get(&(n, degree, batch)) {
        return Arc::clone(cell);
    }
    // Simulated outside the lock: fig12's rows run in parallel.
    let model = build_dlrm(&DlrmConfig::all_to_all(batch));
    let strategy = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, n);
    let (demands, compute_s) =
        demands_and_compute(&model, &strategy, n, degree as f64 * ALLTOALL_LINK_BPS);
    let topo = topoopt_iteration(&demands, n, degree, ALLTOALL_LINK_BPS, compute_s);
    let cell = Arc::new((demands, compute_s, topo));
    Arc::clone(cells().entry((n, degree, batch)).or_insert(cell))
}

fn alltoall_row(n: usize, degree: usize, batch: usize) -> (f64, f64, f64, f64) {
    let cell = alltoall_topoopt(n, degree, batch);
    let (demands, compute_s, topo) = &*cell;
    let ideal = switch_iteration(demands, n, degree as f64 * ALLTOALL_LINK_BPS, *compute_s);
    let ft_bw = equivalent_fat_tree_bandwidth(n, degree, ALLTOALL_LINK_BPS);
    let ft = switch_iteration(demands, n, ft_bw, *compute_s);
    (demands.mp_to_allreduce_ratio(), topo.total_s, ideal.total_s, ft.total_s)
}

pub(super) fn fig12(s: &Scale) -> ExperimentReport {
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
            let (ratio, topo, ideal, ft) = alltoall_row(n, degree, batch);
            row![batch, ratio * 100.0, topo, ideal, ft]
        });
        table.extend(rows);
        report = report.table(table);
    }
    report
}

pub(super) fn fig13(s: &Scale) -> ExperimentReport {
    let n = s.dedicated;
    let mut table = Table::titled(
        format!("bandwidth tax of host-based forwarding, {n} servers"),
        vec![Column::int("batch"), Column::fixed("d=4 (x)", 2), Column::fixed("d=8 (x)", 2)],
    );
    // Only the TopoOpt fabric pays a bandwidth tax, so only its iteration
    // is simulated, once per process with fig12's.
    let rows = par_rows(vec![64usize, 128, 256, 512, 1024, 2048], |batch| {
        let tax = |degree| alltoall_topoopt(n, degree, batch).2.bandwidth_tax;
        row![batch, tax(4), tax(8)]
    });
    table.extend(rows);
    ExperimentReport::new().table(table)
}

fn topoopt_fabric_for(n: usize, degree: usize) -> (TopologyFinderOutput, TrafficDemands) {
    let model = build_dlrm(&DlrmConfig::all_to_all(128));
    let strategy = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, n);
    let demands = extract_traffic(&model, &strategy, 4);
    let out = build_topoopt_fabric(&demands, n, degree, 100.0e9);
    (out, demands)
}

pub(super) fn fig14(s: &Scale) -> ExperimentReport {
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

pub(super) fn fig15(s: &Scale) -> ExperimentReport {
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
            let it = simulate_iteration(&net, &demands, &plans, 0.0);
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

pub(super) fn table02(_s: &Scale) -> ExperimentReport {
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

pub(super) fn fig28(s: &Scale) -> ExperimentReport {
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
