//! Quickstart: co-optimize the topology and parallelization strategy of one
//! DLRM training job, derive the fabric's RDMA forwarding plan, and
//! simulate a training iteration on the result.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Pass `--json <dir>` to export the fabric as JSON (`topology.json`,
//! `forwarding.json`, `cooptimization.json` — the schema documented in
//! `topoopt::export`); every file is parsed back through the workspace's
//! serde parser before the process exits, so a zero exit code certifies the
//! artifacts round-trip.

use std::path::PathBuf;
use std::process::ExitCode;

use topoopt::export::{CoOptimizationExport, ForwardingExport, TopologyExport};
use topoopt::prelude::*;
use topoopt::rdma::build_forwarding_plan;

fn parse_args() -> Result<Option<PathBuf>, String> {
    let mut json_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let dir = args.next().ok_or("--json requires a directory")?;
                json_dir = Some(PathBuf::from(dir));
            }
            other => {
                return Err(format!(
                    "unknown argument '{other}' (usage: quickstart [--json <dir>])"
                ))
            }
        }
    }
    Ok(json_dir)
}

fn main() -> ExitCode {
    let json_dir = match parse_args() {
        Ok(dir) => dir,
        Err(msg) => {
            eprintln!("quickstart: {msg}");
            return ExitCode::from(2);
        }
    };

    // A 16-server job, 4 GPUs per server, 4 x 25 Gbps optical interfaces
    // per server (the same shape as the paper's testbed, §6).
    let num_servers = 16;
    let degree = 4;
    let link_bps = 25.0e9;

    let model = build_model(ModelKind::Dlrm, ModelPreset::Shared);
    println!(
        "model: {} ({} operators, {:.1} GB parameters, {} embedding tables)",
        model.name,
        model.num_ops(),
        model.total_param_bytes() / 1.0e9,
        model.embedding_ops().len()
    );

    // Alternating optimization (§4.1): MCMC strategy search <-> TopologyFinder.
    let mut cfg = AlternatingConfig::new(degree, link_bps);
    cfg.max_rounds = 3;
    cfg.mcmc.iterations = 200;
    let result = co_optimize(&model, num_servers, &cfg);

    println!("\n--- co-optimization result ({} rounds) ---", result.rounds);
    println!(
        "strategy: {} model-parallel operators, {:.2} GB AllReduce, {:.2} GB MP per iteration",
        result.strategy.num_model_parallel_ops(),
        result.demands.total_allreduce_bytes() / 1.0e9,
        result.demands.total_mp_bytes() / 1.0e9
    );
    println!(
        "topology: degree split d_A = {} / d_MP = {}, {} physical links, strongly connected = {}",
        result.network.degree_allreduce,
        result.network.degree_mp,
        result.network.graph.num_edges(),
        result.network.graph.is_strongly_connected()
    );
    for g in &result.network.groups {
        println!(
            "  AllReduce group of {} servers -> ring strides {:?}",
            g.members.len(),
            g.strides
        );
    }
    println!(
        "routing: {} installed rules, average path length {:.2} hops",
        result.network.routing.len(),
        result.network.routing.average_hops()
    );

    // The RDMA forwarding plane this fabric needs (§6, Appendix I):
    // destination-keyed kernel rules on every relay server.
    let plan = build_forwarding_plan(&result.network.graph, num_servers, &result.network.routing);
    println!("\n--- NPAR forwarding plane ---");
    println!(
        "kernel rules: {} ({} conflicts), relayed logical connections: {:.0}%",
        plan.num_rules(),
        plan.conflicts.len(),
        plan.relayed_fraction() * 100.0
    );
    println!("relay histogram (pairs by relay count): {:?}", plan.relay_histogram());

    // Simulate one training iteration on the fabric (flow-level simulator),
    // with relayed connections priced through the forwarding plane.
    let plans = AllReducePlan::from_groups(&result.network.groups);
    let net =
        SimNetwork::new(result.network.graph.clone(), num_servers, result.network.routing.clone())
            .with_relay_overhead(plan.clone(), 1.0);
    let iteration = simulate_iteration(
        &net,
        &result.demands,
        &plans,
        &IterationParams { compute_s: result.estimate.compute_s },
    );

    println!("\n--- simulated training iteration ---");
    println!("compute:        {:.4} s", iteration.compute_s);
    println!("communication:  {:.4} s", iteration.comm_s);
    println!("total:          {:.4} s", iteration.total_s);
    println!("bandwidth tax:  {:.2}x", iteration.bandwidth_tax);

    // And the cost of this fabric vs an equivalently fast Ideal Switch.
    let topo_cost =
        interconnect_cost(CostedArchitecture::TopoOptPatchPanel, num_servers, degree, link_bps)
            .total();
    let ideal_cost =
        interconnect_cost(CostedArchitecture::IdealSwitch, num_servers, degree, link_bps).total();
    println!("\n--- interconnect cost ---");
    println!("TopoOpt (patch panel): ${:.0}", topo_cost);
    println!("Ideal Switch:          ${:.0} ({:.1}x)", ideal_cost, ideal_cost / topo_cost);

    // JSON export: write the fabric, then prove every artifact parses back.
    if let Some(dir) = json_dir {
        let topology = TopologyExport::from_graph(&result.network.graph, num_servers);
        let forwarding = ForwardingExport::from_plan(&plan);
        let coopt = CoOptimizationExport::from_result(model.name.clone(), num_servers, &result);
        let files = [
            ("topology.json", topology.to_json()),
            ("forwarding.json", forwarding.to_json()),
            ("cooptimization.json", coopt.to_json()),
        ];
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!("quickstart: cannot create {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
        for (name, text) in &files {
            if let Err(err) = std::fs::write(dir.join(name), text) {
                eprintln!("quickstart: cannot write {name}: {err}");
                return ExitCode::FAILURE;
            }
        }
        // Round-trip through the vendored serde parser: typed and generic.
        let topo_ok = TopologyExport::from_json(&files[0].1).map(|t| t == topology);
        let fwd_ok = ForwardingExport::from_json(&files[1].1).map(|f| f == forwarding);
        let co_ok = CoOptimizationExport::from_json(&files[2].1).map(|c| c == coopt);
        match (topo_ok, fwd_ok, co_ok) {
            (Ok(true), Ok(true), Ok(true)) => {
                println!("\n[wrote topology.json, forwarding.json, cooptimization.json to {}; all round-trip]", dir.display());
            }
            other => {
                eprintln!("quickstart: JSON round-trip failed: {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
