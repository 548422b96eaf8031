//! Dedicated-cluster architecture comparison (a reduced-size Figure 11).
//!
//! For one DNN model, compare the simulated training iteration time of
//! TopoOpt, Ideal Switch, cost-equivalent Fat-tree, oversubscribed Fat-tree
//! and Expander on a dedicated cluster.
//!
//! Run with: `cargo run --release --example dedicated_cluster [model] [servers]`
//! where `model` is one of dlrm, candle, bert, ncf, resnet, vgg.

use topoopt::netsim::iteration::natural_ring_plans;
use topoopt::prelude::*;

fn parse_model(name: &str) -> ModelKind {
    match name.to_ascii_lowercase().as_str() {
        "dlrm" => ModelKind::Dlrm,
        "candle" => ModelKind::Candle,
        "bert" => ModelKind::Bert,
        "ncf" => ModelKind::Ncf,
        "resnet" | "resnet50" => ModelKind::ResNet50,
        "vgg" | "vgg16" => ModelKind::Vgg16,
        other => panic!("unknown model '{other}'"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = parse_model(args.get(1).map(String::as_str).unwrap_or("dlrm"));
    let num_servers: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let degree = 4;
    let link_bps = 25.0e9;

    let model = build_model(kind, ModelPreset::Shared);
    let compute = ComputeParams::default();
    println!(
        "{} on a dedicated cluster of {} servers (d = {}, B = {} Gbps)",
        model.name,
        num_servers,
        degree,
        link_bps / 1.0e9
    );

    // The hybrid heuristic placement is the starting point everywhere; the
    // TopoOpt row additionally runs the alternating optimization.
    let strategy = if model.embedding_param_bytes() > model.dense_param_bytes() {
        ParallelizationStrategy::hybrid_embeddings_round_robin(&model, num_servers)
    } else {
        ParallelizationStrategy::pure_data_parallel(&model, num_servers)
    };
    let demands = extract_traffic(&model, &strategy, compute.gpus_per_server);
    let est = estimate_iteration_time(
        &model,
        &strategy,
        &TopologyView::FullMesh { n: num_servers, per_server_bps: degree as f64 * link_bps },
        &compute,
    );

    println!("{:<22} {:>12} {:>14} {:>10}", "architecture", "comm (s)", "iteration (s)", "tax");

    // TopoOpt: co-optimized strategy + topology.
    let mut cfg = AlternatingConfig::new(degree, link_bps);
    cfg.max_rounds = 2;
    cfg.mcmc.iterations = 150;
    let co = co_optimize(&model, num_servers, &cfg);
    let plans = AllReducePlan::from_groups(&co.network.groups);
    let topo_net =
        SimNetwork::new(co.network.graph.clone(), num_servers, co.network.routing.clone());
    let topo = simulate_iteration(&topo_net, &co.demands, &plans, co.estimate.compute_s);
    print_row("TopoOpt", &topo);

    // Ideal Switch: d*B per server through a non-blocking hub.
    let ideal_graph =
        topoopt::graph::topologies::ideal_switch(num_servers, degree as f64 * link_bps);
    let ideal_net = SimNetwork::without_rules(ideal_graph, num_servers);
    let ideal =
        simulate_iteration(&ideal_net, &demands, &natural_ring_plans(&demands), est.compute_s);
    print_row("Ideal Switch", &ideal);

    // Cost-equivalent Fat-tree: one NIC of reduced bandwidth per server.
    let ft_bw = equivalent_fat_tree_bandwidth(num_servers, degree, link_bps);
    let ft_graph = topoopt::graph::topologies::ideal_switch(num_servers, ft_bw);
    let ft_net = SimNetwork::without_rules(ft_graph, num_servers);
    let ft = simulate_iteration(&ft_net, &demands, &natural_ring_plans(&demands), est.compute_s);
    print_row(&format!("Fat-tree ({:.0}G)", ft_bw / 1.0e9), &ft);

    // Oversubscribed Fat-tree at full host bandwidth.
    let k = topoopt::graph::topologies::fat_tree_arity_for_hosts(num_servers);
    let over_graph =
        topoopt::graph::topologies::oversubscribed_fat_tree(k, degree as f64 * link_bps).graph;
    let over_net = SimNetwork::without_rules(over_graph, num_servers);
    let over =
        simulate_iteration(&over_net, &demands, &natural_ring_plans(&demands), est.compute_s);
    print_row("Oversub Fat-tree", &over);

    // Expander: random regular direct-connect graph, demand-oblivious.
    let exp_graph = topoopt::graph::topologies::expander(num_servers, degree, link_bps, 7);
    let exp_net = SimNetwork::without_rules(exp_graph, num_servers);
    let exp = simulate_iteration(&exp_net, &demands, &natural_ring_plans(&demands), est.compute_s);
    print_row("Expander", &exp);
}

fn print_row(name: &str, r: &topoopt::netsim::IterationResult) {
    println!("{:<22} {:>12.4} {:>14.4} {:>9.2}x", name, r.comm_s, r.total_s, r.bandwidth_tax);
}
