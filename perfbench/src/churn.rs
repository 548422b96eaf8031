//! `shared_churn` and `partitioned_churn`: a seeded Poisson trace of the
//! §5.6 job mix through `simulate_dynamic_cluster`, either on a shared
//! cost-equivalent ideal-switch fat-tree (persistent engine windows) or on
//! the partitioned TopoOpt fabric (per-admission solo iterations, shard
//! allocation and look-ahead provisioning).

use crate::digest::Digest;
use crate::inputs::{
    cluster_params, prototype, prototypes, shuffle, DEGREE, ITERATIONS, LINK_BPS,
    PER_HOP_LATENCY_S, SERVERS_PER_JOB,
};
use crate::static_round::Routes;
use crate::trace::Tracer;
use crate::{Checked, Layers, Workload};
use topoopt_cluster::{job_mix_for_load, poisson_arrival_times, MixModel};
use topoopt_cost::equivalent_fat_tree_bandwidth;
use topoopt_graph::topologies::ideal_switch;
use topoopt_netsim::iteration::natural_ring_plans;
use topoopt_netsim::multijob::{build_job_flows, solo_iteration_s};
use topoopt_netsim::{
    simulate_dynamic_cluster, DynamicClusterParams, DynamicClusterResult, DynamicFabric,
    DynamicJobSpec, SimNetwork,
};

/// Size and fabric of a churn trace.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Cluster servers.
    pub servers: usize,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Offered load (share of the cluster the arrival rate asks for).
    pub load: f64,
    /// Shared fat-tree (true) or partitioned TopoOpt fabric (false).
    pub shared: bool,
}

/// Inputs of a churn trace.
#[derive(Debug, Clone)]
pub struct Churn {
    /// The trace, in arrival order.
    pub jobs: Vec<DynamicJobSpec>,
    /// Cluster parameters.
    pub params: DynamicClusterParams,
    /// The shared fabric as a network (shared traces only), for replays.
    pub shared_net: Option<SimNetwork>,
}

impl Churn {
    /// Draw `cfg.jobs` jobs from the seeded mix and space their arrivals so
    /// they offer `cfg.load` of the cluster, calibrated on the jobs' solo
    /// iteration times on their TopoOpt shards.
    pub fn setup(cfg: ChurnConfig, seed: u64) -> Self {
        let protos = prototypes();
        let mix = MixModel { servers_per_job: SERVERS_PER_JOB, ..MixModel::default() };
        let mut requests = job_mix_for_load(&mix, cfg.jobs * SERVERS_PER_JOB, 1.0, seed);
        shuffle(&mut requests, seed);
        let picked: Vec<_> = requests.iter().map(|r| prototype(&protos, r.model)).collect();
        let mean_solo_s =
            picked.iter().map(|p| p.solo_iter_s).sum::<f64>() / picked.len().max(1) as f64;
        let mean_duration_s = ITERATIONS as f64 * mean_solo_s;
        let mean_gap_s =
            mean_duration_s * SERVERS_PER_JOB as f64 / (cfg.servers as f64 * cfg.load.max(0.05));
        let arrivals = poisson_arrival_times(picked.len(), mean_gap_s, seed);
        let jobs = picked
            .iter()
            .zip(&arrivals)
            .map(|(p, &t)| {
                let mut spec = p.spec.clone();
                spec.arrival_s = t;
                if cfg.shared {
                    spec.plans = natural_ring_plans(&spec.demands);
                    spec.topology = None;
                }
                spec
            })
            .collect();
        let (params, shared_net) = if cfg.shared {
            let bw = equivalent_fat_tree_bandwidth(cfg.servers, DEGREE, LINK_BPS);
            let graph = ideal_switch(cfg.servers, bw);
            let mut net = SimNetwork::without_rules(graph.clone(), cfg.servers);
            net.per_hop_latency_s = PER_HOP_LATENCY_S;
            (cluster_params(cfg.servers, DynamicFabric::Shared(graph), 0.0), Some(net))
        } else {
            let fabric = DynamicFabric::Partitioned;
            (cluster_params(cfg.servers, fabric, 0.1 * mean_duration_s), None)
        };
        Churn { jobs, params, shared_net }
    }

    fn simulate(&self, jobs: &[DynamicJobSpec]) -> DynamicClusterResult {
        simulate_dynamic_cluster(jobs, &self.params)
    }
}

/// Host cost units of a dynamic run: engine windows on a shared fabric,
/// admitted jobs on a partitioned one (which runs no windows).
fn cost_units(r: &DynamicClusterResult) -> f64 {
    if r.engine.windows > 0 {
        r.engine.windows as f64
    } else {
        r.jobs.iter().filter(|j| j.completed).count() as f64
    }
}

impl Workload for Churn {
    type Output = DynamicClusterResult;

    fn measure(&self, tracer: &Tracer) -> DynamicClusterResult {
        tracer.span("netsim.dynamic", || self.simulate(&self.jobs))
    }

    fn check(&self, r: &DynamicClusterResult) -> Checked {
        let mut d = Digest::default();
        let mut failed = 0u64;
        for j in &r.jobs {
            if !j.completed || !j.jct_s().is_finite() {
                failed += 1;
            }
            d.float(j.arrival_s).float(j.admitted_s).float(j.switch_over_delay_s);
            d.float(j.start_s)
                .float(j.finish_s)
                .float(j.iteration_s)
                .count(usize::from(j.completed));
        }
        let ops = r.jobs.len() as u64;
        if r.truncated {
            failed = ops;
        }
        d.float(r.makespan_s).count(r.flips).float(r.mean_jct_s).float(r.p99_jct_s);
        let e = r.engine;
        for c in [
            e.windows,
            e.windows_incremental,
            e.windows_rebuilt,
            e.jobs_rerated,
            e.jobs_reused,
            e.events,
            e.waterfills,
            e.flows_rerated,
            e.max_component,
        ] {
            d.count(c);
        }
        let rated = e.jobs_rerated + e.jobs_reused;
        let reuse = if rated == 0 { 0.0 } else { e.jobs_reused as f64 / rated as f64 };
        let completed = r.jobs.iter().filter(|j| j.completed).count();
        let counters = Layers::from([
            ("netsim.dynamic.windows".to_string(), e.windows as f64),
            ("netsim.dynamic.windows_incremental".to_string(), e.windows_incremental as f64),
            ("netsim.dynamic.jobs_rerated".to_string(), e.jobs_rerated as f64),
            ("netsim.dynamic.jobs_reused".to_string(), e.jobs_reused as f64),
            ("netsim.dynamic.reuse_ratio".to_string(), reuse),
            ("netsim.dynamic.events".to_string(), e.events as f64),
            ("netsim.dynamic.waterfills".to_string(), e.waterfills as f64),
            ("netsim.dynamic.flows_rerated".to_string(), e.flows_rerated as f64),
            ("netsim.dynamic.max_component".to_string(), e.max_component as f64),
            ("netsim.dynamic.jobs_completed".to_string(), completed as f64),
        ]);
        Checked { ops, failed, digest: d.value(), counters }
    }

    /// Split the dynamic loop into layers, and measure how its per-window
    /// cost grows with history:
    /// * shared fabric — build every job's flows on a shard of the fabric
    ///   (`netsim.flows`) and route their pairs again (`netsim.routing`);
    /// * partitioned fabric — every admission's `solo_iteration_s`
    ///   (`netsim.solo`);
    /// * both — run the first half of the trace alone: the late-window cost
    ///   ratio is the host cost per window (per job on a partitioned fabric)
    ///   of the second half over that of the first half.
    fn replay(
        &self,
        full: &DynamicClusterResult,
        measured: &Layers,
        tracer: &Tracer,
    ) -> (Layers, u64) {
        let mut layers = Layers::new();
        let mut failed = 0u64;
        if let Some(net) = &self.shared_net {
            let shards = (net.num_servers / SERVERS_PER_JOB).max(1);
            let mut built = 0usize;
            let mut routes = Routes::default();
            for (i, job) in self.jobs.iter().enumerate() {
                let base = (i % shards) * SERVERS_PER_JOB;
                let servers: Vec<usize> = (base..base + job.servers).collect();
                let flows = tracer.span("netsim.flows", || {
                    build_job_flows(net, &job.demands, &job.plans, &servers)
                });
                built += flows.len();
                routes.replay(net, &flows, tracer);
            }
            layers.insert("netsim.flows.flows_built".into(), built as f64);
            layers.extend(routes.layers());
            failed += routes.failed;
        } else {
            for job in &self.jobs {
                let t = tracer.span("netsim.solo", || solo_iteration_s(job, PER_HOP_LATENCY_S));
                if !t.is_finite() {
                    failed += 1;
                }
            }
        }

        let half = &self.jobs[..self.jobs.len() / 2];
        let mark = tracer.mark();
        let first = tracer.span("netsim.dynamic.first_half", || self.simulate(half));
        let (first_s, _) = tracer.busy_since(mark, "netsim.dynamic.first_half");
        let full_s = measured.get("netsim.dynamic.busy_s").copied().unwrap_or(0.0);
        let (first_units, full_units) = (cost_units(&first), cost_units(full));
        let ratio = if first_units > 0.0 && full_units > first_units && first_s > 0.0 {
            ((full_s - first_s) / (full_units - first_units)) / (first_s / first_units)
        } else {
            0.0
        };
        layers.insert("netsim.dynamic.late_window_cost_ratio".into(), ratio);
        (layers, failed)
    }
}
