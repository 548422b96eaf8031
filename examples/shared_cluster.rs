//! Shared-cluster study (a reduced-size Figure 16): several jobs with the
//! §5.6 mix share the fabric; TopoOpt shards the optical ports per job while
//! a switched fabric makes everyone contend.
//!
//! Run with: `cargo run --release --example shared_cluster [total_servers]`

use topoopt::cluster::{job_mix_for_load, ClusterShards, MixModel};
use topoopt::netsim::iteration::natural_ring_plans;
use topoopt::netsim::multijob::{build_job_flows, simulate_shared_cluster, JobSpec};
use topoopt::prelude::*;

/// Everything one job contributes to the shared simulation: demands, ring
/// plans, its server shard, compute time, and a display name.
type JobData = (TrafficDemands, Vec<AllReducePlan>, Vec<usize>, f64, String);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let total_servers: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let degree = 4;
    let link_bps = 25.0e9;
    let compute = ComputeParams::default();
    let mix = MixModel { servers_per_job: 8, ..MixModel::default() };

    println!(
        "shared cluster of {} servers (d = {}, B = {} Gbps), job mix 40/30/20/10 DLRM/BERT/CANDLE/VGG",
        total_servers,
        degree,
        link_bps / 1.0e9
    );
    println!(
        "{:>6} {:>6} {:>16} {:>16} {:>16} {:>16}",
        "load", "jobs", "TopoOpt avg (s)", "TopoOpt p99 (s)", "Fabric avg (s)", "Fabric p99 (s)"
    );

    for load in [0.25, 0.5, 0.75, 1.0] {
        let requests = job_mix_for_load(&mix, total_servers, load, 42);
        let mut shards = ClusterShards::new(total_servers);

        // Build each job's demands once.
        let mut topoopt_jobs: Vec<JobSpec> = Vec::new();
        let mut fabric_jobs: Vec<JobSpec> = Vec::new();

        // TopoOpt: disjoint shard + per-job topology. The physical network is
        // the union of all shard topologies.
        let mut union = Graph::new(total_servers);
        let mut per_job: Vec<JobData> = Vec::new();
        for req in &requests {
            let Some((_, servers)) = shards.allocate(req.servers) else { break };
            let model = build_model(req.model, ModelPreset::Shared);
            let strategy = if model.embedding_param_bytes() > model.dense_param_bytes() {
                ParallelizationStrategy::hybrid_embeddings_round_robin(&model, req.servers)
            } else {
                ParallelizationStrategy::pure_data_parallel(&model, req.servers)
            };
            let demands = extract_traffic(&model, &strategy, compute.gpus_per_server);
            let out = topology_finder(&TopologyFinderInput {
                num_servers: req.servers,
                degree,
                link_bps,
                demands: &demands,
                totient: TotientPermsConfig::default(),
                matching: MatchingAlgo::Auto,
                mp_shortest_path: false,
                availability_aware: false,
            });
            // Splice the shard's topology into the cluster-wide graph.
            for (_, e) in out.graph.edges() {
                union.add_edge(servers[e.src], servers[e.dst], e.capacity_bps);
            }
            let plans = AllReducePlan::from_groups(&out.groups);
            let est = estimate_iteration_time(
                &model,
                &strategy,
                &TopologyView::from_graph(&out.graph, req.servers),
                &compute,
            );
            per_job.push((demands, plans, servers, est.compute_s, model.name.clone()));
        }
        let topo_net = SimNetwork::without_rules(union, total_servers);
        for (demands, plans, servers, compute_s, name) in &per_job {
            topoopt_jobs.push(JobSpec::new(
                name.clone(),
                build_job_flows(&topo_net, demands, plans, servers),
                *compute_s,
            ));
        }
        let topo_result = simulate_shared_cluster(&topo_net, &topoopt_jobs);

        // Shared switched fabric (cost-equivalent bandwidth), same jobs.
        let ft_bw = equivalent_fat_tree_bandwidth(total_servers, degree, link_bps);
        let fabric = topoopt::graph::topologies::ideal_switch(total_servers, ft_bw);
        let fabric_net = SimNetwork::without_rules(fabric, total_servers);
        for (demands, _plans, servers, compute_s, name) in &per_job {
            let ring_plans = natural_ring_plans(demands);
            fabric_jobs.push(JobSpec::new(
                name.clone(),
                build_job_flows(&fabric_net, demands, &ring_plans, servers),
                *compute_s,
            ));
        }
        let fabric_result = simulate_shared_cluster(&fabric_net, &fabric_jobs);

        println!(
            "{:>5.0}% {:>6} {:>16.4} {:>16.4} {:>16.4} {:>16.4}",
            load * 100.0,
            topoopt_jobs.len(),
            topo_result.average_s,
            topo_result.p99_s,
            fabric_result.average_s,
            fabric_result.p99_s
        );
    }
}
