//! DLRM all-to-all stress study (a reduced-size Figure 12/13/21) plus the
//! RDMA forwarding plan of the §6 testbed.
//!
//! Sweeps the batch size of a DLRM whose embedding tables are spread across
//! every server (worst-case all-to-all MP traffic) and reports iteration
//! time and bandwidth tax for TopoOpt vs an Ideal Switch, then prints the
//! NPAR forwarding-rule summary a 12-node testbed would install.
//!
//! Run with: `cargo run --release --example dlrm_all_to_all`

use topoopt::models::zoo::build_dlrm;
use topoopt::models::DlrmConfig;
use topoopt::netsim::iteration::natural_ring_plans;
use topoopt::prelude::*;
use topoopt::rdma::build_forwarding_plan;
use topoopt::rdma::forwarding::split_all_nics;

fn main() {
    let num_servers = 16;
    let degree = 4;
    let link_bps = 25.0e9;
    let compute = ComputeParams::default();

    println!(
        "DLRM all-to-all sweep on {} servers (d = {}, B = {} Gbps)",
        num_servers,
        degree,
        link_bps / 1.0e9
    );
    println!(
        "{:>6} {:>14} {:>16} {:>12} {:>16}",
        "batch", "MP/AllReduce", "TopoOpt iter (s)", "tax", "Ideal iter (s)"
    );

    for batch in [64usize, 128, 256, 512, 1024] {
        let model = build_dlrm(&DlrmConfig::all_to_all(batch));
        let strategy = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, num_servers);
        let demands = extract_traffic(&model, &strategy, compute.gpus_per_server);
        let est = estimate_iteration_time(
            &model,
            &strategy,
            &TopologyView::FullMesh { n: num_servers, per_server_bps: degree as f64 * link_bps },
            &compute,
        );

        let out = topology_finder(&TopologyFinderInput {
            num_servers,
            degree,
            link_bps,
            demands: &demands,
            totient: TotientPermsConfig::default(),
            matching: MatchingAlgo::Auto,
            mp_shortest_path: false,
            availability_aware: false,
        });
        let plans = AllReducePlan::from_groups(&out.groups);
        let topo_net = SimNetwork::new(out.graph.clone(), num_servers, out.routing.clone());
        let topo = simulate_iteration(
            &topo_net,
            &demands,
            &plans,
            &IterationParams { compute_s: est.compute_s },
        );

        let ideal_graph =
            topoopt::graph::topologies::ideal_switch(num_servers, degree as f64 * link_bps);
        let ideal_net = SimNetwork::without_rules(ideal_graph, num_servers);
        let ideal = simulate_iteration(
            &ideal_net,
            &demands,
            &natural_ring_plans(&demands),
            &IterationParams { compute_s: est.compute_s },
        );

        println!(
            "{:>6} {:>13.1}% {:>16.4} {:>11.2}x {:>16.4}",
            batch,
            demands.mp_to_allreduce_ratio() * 100.0,
            topo.total_s,
            topo.bandwidth_tax,
            ideal.total_s
        );
    }

    // RDMA forwarding plan for the 12-node testbed configuration (§6,
    // Appendix I).
    let testbed_servers = 12;
    let model = build_dlrm(&DlrmConfig::testbed(64));
    let strategy = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, testbed_servers);
    let demands = extract_traffic(&model, &strategy, 1);
    let out = topology_finder(&TopologyFinderInput {
        num_servers: testbed_servers,
        degree,
        link_bps,
        demands: &demands,
        totient: TotientPermsConfig::default(),
        matching: MatchingAlgo::Auto,
        mp_shortest_path: false,
        availability_aware: false,
    });
    let plan = build_forwarding_plan(&out.graph, testbed_servers, &out.routing);
    let nics = split_all_nics(testbed_servers, degree);
    let max_relays = (0..testbed_servers)
        .flat_map(|s| (0..testbed_servers).map(move |d| (s, d)))
        .filter(|(s, d)| s != d)
        .filter_map(|(s, d)| plan.relay_count(s, d))
        .max()
        .unwrap_or(0);
    println!("\n--- 12-node testbed RDMA forwarding plan ---");
    println!("logical interfaces (NPAR): {}", nics.len() * 2);
    println!("forwarding rules installed: {}", plan.num_rules());
    println!("maximum relays on any logical RDMA connection: {}", max_relays);
    println!(
        "all-pairs RDMA connectivity: {}",
        (0..testbed_servers)
            .all(|s| (0..testbed_servers).all(|d| s == d || plan.has_connection(s, d)))
    );
}
