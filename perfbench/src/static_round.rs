//! `static_round`: one full-occupancy round on the partitioned union fabric
//! (the `fig16_dynamic_scale` Table 2 set-up). The measured phase builds
//! every job's flows with `build_job_flows`, then simulates the round with
//! `simulate_shared_cluster_stats`.

use crate::digest::Digest;
use crate::inputs::{prototype, prototypes, SERVERS_PER_JOB};
use crate::trace::Tracer;
use crate::{Checked, Layers, Workload};
use topoopt_cluster::{job_mix_for_load, ClusterShards, MixModel};
use topoopt_graph::Graph;
use topoopt_netsim::multijob::{build_job_flows, simulate_shared_cluster_stats};
use topoopt_netsim::{
    AllReducePlan, EngineStats, FlowSpec, JobSpec, SharedClusterResult, SimNetwork,
};
use topoopt_strategy::TrafficDemands;

/// One job placed on its shard of the union fabric.
#[derive(Debug, Clone)]
pub struct Placed {
    /// Model name.
    pub name: String,
    /// Demands over the job's local server ids.
    pub demands: TrafficDemands,
    /// AllReduce layout over local ids.
    pub plans: Vec<AllReducePlan>,
    /// Global server id of each local server.
    pub servers: Vec<usize>,
    /// Compute time per iteration.
    pub compute_s: f64,
}

/// Inputs of the static round.
#[derive(Debug, Clone)]
pub struct StaticRound {
    /// The union of every placed job's shard topology.
    pub net: SimNetwork,
    /// The placed jobs, in placement order.
    pub jobs: Vec<Placed>,
}

/// What the measured phase produced.
pub struct RoundOutput {
    /// Every job with its built flows.
    pub jobs: Vec<JobSpec>,
    /// Per-job round times.
    pub round: SharedClusterResult,
    /// Engine work counters of the round.
    pub stats: EngineStats,
}

impl StaticRound {
    /// Fill a `servers`-server cluster with the seeded §5.6 job mix, each job
    /// on its own shard wired with its prototype's TopoOpt fabric.
    pub fn setup(servers: usize, seed: u64) -> Self {
        let protos = prototypes();
        let mix = MixModel { servers_per_job: SERVERS_PER_JOB, ..MixModel::default() };
        let mut shards = ClusterShards::new(servers);
        let mut union = Graph::new(servers);
        let mut jobs = Vec::new();
        for req in job_mix_for_load(&mix, servers, 1.0, seed) {
            let Some((_, placed)) = shards.allocate(req.servers) else { break };
            let spec = &prototype(&protos, req.model).spec;
            let topo = spec.topology.as_ref().expect("prototype fabrics are partitioned");
            for (_, e) in topo.edges() {
                union.add_edge(placed[e.src], placed[e.dst], e.capacity_bps);
            }
            jobs.push(Placed {
                name: spec.name.clone(),
                demands: spec.demands.clone(),
                plans: spec.plans.clone(),
                servers: placed,
                compute_s: spec.compute_s,
            });
        }
        StaticRound { net: SimNetwork::without_rules(union, servers), jobs }
    }
}

/// True when every hop of the flow's path is a link of the fabric.
fn routable(net: &SimNetwork, path: &[usize]) -> bool {
    path.len() >= 2 && path.windows(2).all(|h| net.graph.has_edge(h[0], h[1]))
}

impl Workload for StaticRound {
    type Output = RoundOutput;

    fn measure(&self, tracer: &Tracer) -> RoundOutput {
        let jobs: Vec<JobSpec> = self
            .jobs
            .iter()
            .map(|p| {
                let flows = tracer.span("netsim.flows", || {
                    build_job_flows(&self.net, &p.demands, &p.plans, &p.servers)
                });
                JobSpec::new(p.name.clone(), flows, p.compute_s)
            })
            .collect();
        let (round, stats) =
            tracer.span("netsim.engine", || simulate_shared_cluster_stats(&self.net, &jobs));
        RoundOutput { jobs, round, stats }
    }

    fn check(&self, out: &RoundOutput) -> Checked {
        let mut d = Digest::default();
        let (mut ops, mut failed) = (0u64, 0u64);
        for job in &out.jobs {
            d.count(job.flows.len());
            for f in &job.flows {
                ops += 1;
                if !routable(&self.net, &f.path) {
                    failed += 1;
                }
                d.count(f.src).count(f.dst).float(f.bytes).float(f.relay_factor);
                d.count(f.path.len());
                for &v in &f.path {
                    d.count(v);
                }
            }
        }
        for &t in &out.round.per_job_total_s {
            if !t.is_finite() {
                failed += 1;
            }
            d.float(t);
        }
        d.float(out.round.average_s).float(out.round.p99_s);
        let s = out.stats;
        d.count(s.events).count(s.waterfills).count(s.flows_rerated).count(s.max_component);
        let counters = Layers::from([
            ("netsim.flows.flows_built".to_string(), ops as f64),
            ("netsim.engine.events".to_string(), s.events as f64),
            ("netsim.engine.waterfills".to_string(), s.waterfills as f64),
            ("netsim.engine.flows_rerated".to_string(), s.flows_rerated as f64),
            ("netsim.engine.max_component".to_string(), s.max_component as f64),
        ]);
        Checked { ops, failed, digest: d.value(), counters }
    }

    /// Route every built flow's (src, dst) pair again with `SimNetwork::path`,
    /// one span per job, to split routing from the matrix remap inside
    /// `build_job_flows`.
    fn replay(&self, out: &RoundOutput, _measured: &Layers, tracer: &Tracer) -> (Layers, u64) {
        let mut routes = Routes::default();
        for job in &out.jobs {
            routes.replay(&self.net, &job.flows, tracer);
        }
        (routes.layers(), routes.failed)
    }
}

/// Tally of a routing replay.
#[derive(Debug, Default)]
pub(crate) struct Routes {
    paths: usize,
    hops: usize,
    /// Pairs with no route, or a route other than the built flow's path.
    pub(crate) failed: u64,
}

impl Routes {
    /// Route every flow's (src, dst) pair again with `SimNetwork::path`, in
    /// one `netsim.routing` span.
    pub(crate) fn replay(&mut self, net: &SimNetwork, flows: &[FlowSpec], tracer: &Tracer) {
        tracer.span("netsim.routing", || {
            for f in flows {
                match net.path(f.src, f.dst) {
                    Some(p) if p == f.path => {
                        self.paths += 1;
                        self.hops += p.len() - 1;
                    }
                    _ => self.failed += 1,
                }
            }
        });
    }

    /// `netsim.routing.paths` and `netsim.routing.mean_hops`.
    pub(crate) fn layers(&self) -> Layers {
        let mean_hops = if self.paths == 0 { 0.0 } else { self.hops as f64 / self.paths as f64 };
        Layers::from([
            ("netsim.routing.paths".to_string(), self.paths as f64),
            ("netsim.routing.mean_hops".to_string(), mean_hops),
        ])
    }
}
