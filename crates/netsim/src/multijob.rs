//! Shared-cluster simulation (§5.6): several jobs, each on its own set of
//! servers, sharing (or not sharing) the physical fabric.
//!
//! On TopoOpt every job gets a dedicated shard of optical ports, so jobs
//! never contend; on a Fat-tree the jobs' flows compete inside the shared
//! core. Both cases are handled by simply simulating all jobs' flows on the
//! same graph — for TopoOpt that graph is the union of disjoint per-job
//! topologies.
//!
//! Two layers live here:
//!
//! * [`simulate_shared_cluster`] — one *round*: a static set of co-resident
//!   jobs, each contributing one iteration's flows, simulated together on
//!   the fluid engine.
//! * [`simulate_dynamic_cluster`] — the dynamic layer: jobs arrive over
//!   time, queue for servers ([`topoopt_cluster::ClusterShards`]), train for
//!   a number of iterations, and depart. On a partitioned TopoOpt fabric
//!   every transition rewires the patch panel through the Active/Look-ahead
//!   provisioner ([`topoopt_cluster::LookaheadProvisioner`]), so a job pays
//!   the `switch_over_delay` that pre-provisioning could not hide.

use crate::engine::EngineStats;
use crate::flows::{allreduce_flows, demand_flows, AllReducePlan};
use crate::fluid::FlowSpec;
use crate::iteration::simulate_iteration;
use crate::network::SimNetwork;
use crate::shared_engine::SharedFabricEngine;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use topoopt_cluster::{ClusterShards, LookaheadProvisioner, TransitionRecord, TransitionSchedule};
use topoopt_collectives::ring::RingPermutation;
use topoopt_graph::Graph;
use topoopt_strategy::TrafficDemands;

/// One job in a shared cluster: its flows (already mapped to global server
/// ids) and its compute time.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job label (model name).
    pub name: String,
    /// The job's network flows for one iteration, over global node ids.
    pub flows: Vec<FlowSpec>,
    /// Compute time of the job's busiest server.
    pub compute_s: f64,
}

impl JobSpec {
    /// A job of a shared round, which every job starts at time zero.
    pub fn new(name: impl Into<String>, flows: Vec<FlowSpec>, compute_s: f64) -> Self {
        JobSpec { name: name.into(), flows, compute_s }
    }
}

/// Result of one shared-cluster round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedClusterResult {
    /// Per-job iteration times (compute + that job's own communication
    /// completion), in the order the jobs were supplied.
    pub per_job_total_s: Vec<f64>,
    /// Mean iteration time across jobs.
    pub average_s: f64,
    /// 99th-percentile iteration time across jobs (Figure 16b).
    pub p99_s: f64,
}

/// Remap a job's local traffic demands onto global server ids and build its
/// flows on the shared network. `server_map[i]` is the global id of the
/// job's local server `i`.
///
/// The cost is set by the job, not the cluster: the MP demands are
/// remapped entry by entry
/// ([`topoopt_graph::TrafficMatrix::remapped_entries_desc`]) in the order
/// a cluster-sized matrix would list them, and each route's BFS touches
/// only the nodes it visits.
pub fn build_job_flows(
    net: &SimNetwork,
    demands: &TrafficDemands,
    plans: &[AllReducePlan],
    server_map: &[usize],
) -> Vec<FlowSpec> {
    assert_eq!(demands.num_servers, server_map.len());
    // Remap the AllReduce plans.
    let global_plans: Vec<AllReducePlan> = plans
        .iter()
        .map(|p| AllReducePlan {
            bytes: p.bytes,
            permutations: p
                .permutations
                .iter()
                .map(|perm| {
                    RingPermutation::new(
                        perm.members.iter().map(|&m| server_map[m]).collect(),
                        perm.stride,
                    )
                })
                .collect(),
        })
        .collect();
    let mut flows = Vec::new();
    for p in &global_plans {
        flows.extend(allreduce_flows(net, p));
    }
    flows.extend(demand_flows(net, demands.mp.remapped_entries_desc(server_map)));
    flows
}

/// Simulate one round of a shared cluster: all jobs' flows coexist on the
/// fabric; each job's iteration time is its compute time plus the completion
/// of the last of its own flows.
///
/// Each job-level component (jobs linked by shared links) is simulated on
/// an engine of its own, in parallel — disjoint TopoOpt shards never pay
/// for each other's events — and components of equal shape, such as
/// copies of one job on other shards, share one run.
pub fn simulate_shared_cluster(net: &SimNetwork, jobs: &[JobSpec]) -> SharedClusterResult {
    simulate_shared_cluster_stats(net, jobs).0
}

/// [`simulate_shared_cluster`] returning the fluid engine's work counters
/// alongside the result, so scale experiments can report how much
/// incremental recomputation the round actually cost (events, waterfills,
/// largest re-rated component), summed over the component engines.
pub fn simulate_shared_cluster_stats(
    net: &SimNetwork,
    jobs: &[JobSpec],
) -> (SharedClusterResult, EngineStats) {
    // A one-window shared fabric: every job is admitted, and the whole
    // window simulated exactly as the dynamic layer's windows are.
    let mut sim = SharedFabricEngine::new(net);
    let handles: Vec<usize> =
        jobs.iter().map(|job| sim.admit(job.flows.clone(), job.compute_s)).collect();
    sim.run_window();
    let per_job: Vec<f64> = handles.iter().map(|&h| sim.round_total_s(h)).collect();
    (summarize_round(per_job), sim.engine_stats())
}

/// Mean / p99 summary over per-job round times.
fn summarize_round(per_job: Vec<f64>) -> SharedClusterResult {
    let average =
        if per_job.is_empty() { 0.0 } else { per_job.iter().sum::<f64>() / per_job.len() as f64 };
    let p99 = percentile(&per_job, 0.99);
    SharedClusterResult { per_job_total_s: per_job, average_s: average, p99_s: p99 }
}

/// Percentile (nearest-rank) of a slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

// ---------------------------------------------------------------------------
// Work counters of the dynamic layer (solo iterations and the shared-fabric
// engine's windows, `shared_engine`).
// ---------------------------------------------------------------------------

/// Work counters for the dynamic layer — the observable payoff of its
/// reuse. On a partitioned fabric only `solo_simulations` moves: one solo
/// iteration per distinct job. On a shared fabric the rest count the
/// windows: engine-level counters (events, waterfills, flows re-rated,
/// largest component) are cumulative across every window of the run, the
/// window counters split how many arrival/departure windows were served
/// incrementally (at least one resident job kept its cached round time)
/// versus fully rebuilt, `probes_reused` counts the job-windows an
/// admission probe served, and `shapes_reused` the engine runs another
/// run of the same shape served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynamicEngineStats {
    /// Shared-fabric re-rate windows executed (arrivals + departures).
    pub windows: usize,
    /// Windows where at least one resident job reused its cached rate.
    pub windows_incremental: usize,
    /// Windows where every resident job had to be re-rated.
    pub windows_rebuilt: usize,
    /// Job-windows re-rated: dirty residents, simulated in the window or
    /// served by their admission probe.
    pub jobs_rerated: usize,
    /// Job-windows served from the per-component cache.
    pub jobs_reused: usize,
    /// Re-rated job-windows that took the job's admission probe instead
    /// of simulating it again: the job was alone in its component.
    /// Counted within `jobs_rerated`.
    pub probes_reused: usize,
    /// Engine runs served by a run of the same shape (the component's flows
    /// relabeled by node rank, with the capacities of the links they cross)
    /// instead of a fresh engine: dirty components that took the run of an
    /// earlier component of their window, and admitted jobs whose probe
    /// took a probed resident's run.
    pub shapes_reused: usize,
    /// Engine events processed across all windows. A run that serves
    /// several components (a probe, or a run of a shared shape) counts once
    /// per component it serves, here and in the three counters below, so
    /// they equal what a run per component would count.
    pub events: usize,
    /// Water-filling passes across all windows.
    pub waterfills: usize,
    /// Flows re-rated across all waterfills.
    pub flows_rerated: usize,
    /// Largest connected component ever re-waterfilled at once.
    pub max_component: usize,
    /// Solo iterations simulated on a partitioned fabric
    /// ([`solo_iteration_s`]): one per distinct job, since a job whose
    /// inputs repeat an earlier job's bit for bit reuses its time.
    pub solo_simulations: usize,
}

// ---------------------------------------------------------------------------
// Dynamic shared cluster: arrivals, departures, and fabric reconfiguration.
// ---------------------------------------------------------------------------

/// One job request in the dynamic shared-cluster simulation, over *local*
/// server ids `0..servers`; the simulator assigns the global shard.
#[derive(Debug, Clone)]
pub struct DynamicJobSpec {
    /// Job label (model name).
    pub name: String,
    /// Servers the job requests.
    pub servers: usize,
    /// The job's traffic demands over local ids.
    pub demands: TrafficDemands,
    /// AllReduce layout over local ids.
    pub plans: Vec<AllReducePlan>,
    /// The job's dedicated fabric over local ids (TopoOpt partitioned
    /// clusters); `None` when the cluster fabric is shared (fat-tree).
    pub topology: Option<Graph>,
    /// Compute time of the busiest server per iteration.
    pub compute_s: f64,
    /// When the job is submitted.
    pub arrival_s: f64,
    /// Training iterations before the job departs.
    pub iterations: usize,
}

/// Which physical fabric the dynamic cluster runs on.
#[derive(Debug, Clone)]
pub enum DynamicFabric {
    /// TopoOpt: each job trains on its own disjoint shard topology
    /// (provided per job via [`DynamicJobSpec::topology`]), rewired through
    /// the look-ahead provisioner at every job transition.
    Partitioned,
    /// A fixed shared fabric (ideal switch / fat-tree) all co-resident jobs
    /// contend on; no rewiring between jobs.
    Shared(Graph),
}

/// Planner callback for [`MigrationMode::Planned`]: given the stale wiring
/// left on the job's shard by departed jobs (over the job's *local* server
/// ids; `None` when the shard is dark) and the job's target topology, return
/// the per-step rewiring schedule. A planner that cannot sequence the
/// migration safely should return an atomic schedule with
/// [`TransitionSchedule::fallback`] naming the violated policy.
pub type MigrationPlanFn = Arc<dyn Fn(Option<&Graph>, &Graph) -> TransitionSchedule + Send + Sync>;

/// How a partitioned-fabric transition rewires the patch panel.
#[derive(Clone, Default)]
pub enum MigrationMode {
    /// Teleport the shard topology: one opaque step of
    /// [`DynamicClusterParams::provisioning_time_s`] (the historical
    /// behavior, and the default).
    #[default]
    Atomic,
    /// Sequence each transition through a migration planner (see the
    /// `topoopt-migration` crate): per-link unplug/replug steps whose
    /// schedule the callback decides, with the stale source wiring tracked
    /// across shard reuse.
    Planned(MigrationPlanFn),
}

impl std::fmt::Debug for MigrationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationMode::Atomic => f.write_str("Atomic"),
            MigrationMode::Planned(_) => f.write_str("Planned(..)"),
        }
    }
}

/// How the shared-fabric rates are maintained across event windows.
/// There is one path; this one-variant enum and
/// [`DynamicClusterParams::shared_engine`] remain because the repo
/// benchmark (`perfbench/`) names them, and the next change to the
/// benchmark drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharedEngineMode {
    /// Window-level reuse across the run: each window re-simulates only
    /// the job-level link-sharing components the event touched, each on a
    /// fresh [`FluidEngine`](crate::FluidEngine), and every other resident
    /// keeps its cached round time.
    #[default]
    Persistent,
}

/// Parameters of the dynamic shared-cluster simulation.
#[derive(Debug, Clone)]
pub struct DynamicClusterParams {
    /// Total servers in the cluster.
    pub total_servers: usize,
    /// The cluster fabric.
    pub fabric: DynamicFabric,
    /// Patch-panel rewiring time for one job topology (only paid on
    /// [`DynamicFabric::Partitioned`]; hidden when the look-ahead bank
    /// finished wiring before the job starts).
    pub provisioning_time_s: f64,
    /// Per-hop propagation latency.
    pub per_hop_latency_s: f64,
    /// How partitioned-fabric transitions rewire the patch panel
    /// ([`MigrationMode::Atomic`] reproduces the historical opaque swap).
    pub migration: MigrationMode,
    /// Unread: there is one shared-fabric path (see [`SharedEngineMode`];
    /// the next change to the benchmark drops it).
    pub shared_engine: SharedEngineMode,
    /// Override for the event-loop guard (`4 * jobs + 16` when `None`).
    /// Only tests cap it; a run cut off by the cap reports
    /// [`DynamicClusterResult::truncated`].
    pub window_cap: Option<usize>,
    /// Always empty: the simulator injects no fabric faults, and
    /// [`Infallible`](std::convert::Infallible) has no values, so nothing
    /// can be passed here and then ignored. The field remains because the
    /// repo benchmark (`perfbench/`) writes `faults: vec![]`; the next
    /// change to the benchmark drops it.
    pub faults: Vec<std::convert::Infallible>,
}

impl DynamicClusterParams {
    /// A cluster of `total_servers` on `fabric` with every other parameter
    /// at its default: no patch-panel rewiring time, 1 µs per hop, atomic
    /// transitions and the default event-loop guard. Callers set the rest
    /// with struct-update syntax.
    pub fn new(total_servers: usize, fabric: DynamicFabric) -> Self {
        DynamicClusterParams {
            total_servers,
            fabric,
            provisioning_time_s: 0.0,
            per_hop_latency_s: 1.0e-6,
            migration: MigrationMode::Atomic,
            shared_engine: SharedEngineMode::Persistent,
            window_cap: None,
            faults: vec![],
        }
    }
}

/// Per-job outcome of a dynamic run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicJobOutcome {
    /// Job label.
    pub name: String,
    /// Submission time (input, echoed back).
    pub arrival_s: f64,
    /// When servers were granted (end of queueing).
    pub admitted_s: f64,
    /// Switch-over delay paid waiting for the patch panel (0 when the
    /// look-ahead bank was pre-wired in time, or on a shared fabric).
    pub switch_over_delay_s: f64,
    /// When training actually started (`admitted_s + switch_over_delay_s`).
    pub start_s: f64,
    /// When the job departed (infinite if it never finished).
    pub finish_s: f64,
    /// Average iteration time over the job's lifetime.
    pub iteration_s: f64,
    /// False if the job was still queued/running when the run was cut off.
    pub completed: bool,
    /// The patch-panel transition that admitted this job: the executed
    /// schedule with per-step rewiring timestamps ([`TransitionRecord`]).
    /// `None` on a shared fabric (no rewiring) or if the job never started.
    pub rewiring: Option<TransitionRecord>,
}

impl DynamicJobOutcome {
    /// Job completion time: submission to departure.
    pub fn jct_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }

    /// Time spent waiting for servers.
    pub fn queue_delay_s(&self) -> f64 {
        self.admitted_s - self.arrival_s
    }
}

/// Result of a dynamic shared-cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicClusterResult {
    /// Per-job outcomes, in input order.
    pub jobs: Vec<DynamicJobOutcome>,
    /// When the last job departed.
    pub makespan_s: f64,
    /// 1×2-switch flips performed by the provisioner.
    pub flips: usize,
    /// Mean job completion time over completed jobs.
    pub mean_jct_s: f64,
    /// 99th-percentile job completion time over completed jobs.
    pub p99_jct_s: f64,
    /// Mean queueing delay over completed jobs.
    pub mean_queue_delay_s: f64,
    /// Mean switch-over delay over completed jobs.
    pub mean_switch_over_s: f64,
    /// Transitions executed with a planner-produced per-step schedule.
    pub planned_transitions: usize,
    /// Transitions where the planner fell back to the atomic swap (the
    /// fallback string on the job's [`TransitionRecord`] names the policy).
    pub fallback_transitions: usize,
    /// True when the event-loop guard cut the run off with jobs still
    /// queued or running (those jobs end `completed: false`). Never set
    /// with the default guard, which exceeds the maximum possible event
    /// count; only a [`DynamicClusterParams::window_cap`] can trip it.
    pub truncated: bool,
    /// Work counters: solo iterations on a partitioned fabric, windows on
    /// a shared one (see [`DynamicEngineStats`]).
    pub engine: DynamicEngineStats,
}

/// A job currently training: its position in the input slice, no name.
struct RunningJob {
    job: usize,
    shard: usize,
    servers: Vec<usize>,
    remaining_iters: f64,
    iter_s: f64,
    settled_s: f64,
    /// Resident handle in the [`SharedFabricEngine`] (`None` on a
    /// partitioned fabric).
    slot: Option<usize>,
}

/// Simulate a dynamic shared cluster: jobs queue FIFO for server shards,
/// train `iterations` iterations, and depart, releasing their servers.
///
/// On [`DynamicFabric::Partitioned`] each admission rewires the patch panel
/// for the job's own topology. Look-ahead ports are per server interface
/// and shards are disjoint, so wiring different jobs' shards proceeds in
/// parallel: a job's look-ahead wiring starts at its submission and runs
/// while earlier jobs train, so the job only pays the portion of
/// `provisioning_time_s` that its queueing time did not hide (a job
/// admitted to an idle cluster pays it all — there is nothing to hide
/// behind). On [`DynamicFabric::Shared`] jobs contend on one fabric: every
/// arrival/departure re-simulates the co-resident set's iteration times,
/// between events progress is linear (a job-level fluid model, mirroring
/// the flow-level engine one layer down).
pub fn simulate_dynamic_cluster(
    jobs: &[DynamicJobSpec],
    params: &DynamicClusterParams,
) -> DynamicClusterResult {
    // The shared fabric and its window simulator: links intern once here,
    // and every event window re-rates only what it touched.
    let mut shared: Option<(SimNetwork, SharedFabricEngine)> = match &params.fabric {
        DynamicFabric::Shared(g) => {
            let mut net = SimNetwork::without_rules(g.clone(), params.total_servers);
            net.per_hop_latency_s = params.per_hop_latency_s;
            let sim = SharedFabricEngine::new(&net);
            Some((net, sim))
        }
        DynamicFabric::Partitioned => None,
    };

    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| jobs[a].arrival_s.total_cmp(&jobs[b].arrival_s).then_with(|| a.cmp(&b)));

    let mut outcomes: Vec<DynamicJobOutcome> = jobs
        .iter()
        .map(|j| DynamicJobOutcome {
            name: j.name.clone(),
            arrival_s: j.arrival_s,
            admitted_s: f64::INFINITY,
            switch_over_delay_s: 0.0,
            start_s: f64::INFINITY,
            finish_s: f64::INFINITY,
            iteration_s: f64::INFINITY,
            completed: false,
            rewiring: None,
        })
        .collect();

    // Solo times of the distinct jobs seen so far (partitioned fabric).
    let mut solo: BTreeMap<SoloInputs<'_>, f64> = BTreeMap::new();
    let mut shards = ClusterShards::new(params.total_servers);
    // Stale wiring (global server ids) left behind by departed jobs; only
    // maintained in planned-migration mode, where the planner needs the
    // source fabric of each shard migration. Atomic mode never reads it.
    let planned_mode = matches!(params.migration, MigrationMode::Planned(_));
    let mut stale_links = Graph::new(params.total_servers);
    let mut provisioner = LookaheadProvisioner::default();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut next_arrival = 0usize;
    let mut running: Vec<RunningJob> = Vec::new();
    let mut now = 0.0f64;
    let mut guard = 0usize;
    // Each loop iteration processes exactly one arrival or one departure,
    // so the default guard can never legitimately exhaust; see
    // `truncated`.
    let max_events = params.window_cap.unwrap_or(4 * jobs.len() + 16);
    let mut exhausted = true;

    while guard < max_events {
        guard += 1;
        let arrival_t = order.get(next_arrival).map(|&j| jobs[j].arrival_s);
        let departure = running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.iter_s.is_finite() && r.iter_s > 0.0)
            .map(|(k, r)| (r.settled_s + r.remaining_iters * r.iter_s, k))
            .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        match (arrival_t, departure) {
            (None, None) => {
                exhausted = false;
                break;
            }
            // Departures at the same instant run first so freed servers are
            // visible to the arriving job.
            (arr, Some((dep_t, k))) if arr.map(|a| dep_t <= a).unwrap_or(true) => {
                now = now.max(dep_t);
                settle_running(&mut running, now);
                let done = running.swap_remove(k);
                let j = done.job;
                let job = &jobs[j];
                outcomes[j].finish_s = now;
                outcomes[j].completed = true;
                outcomes[j].iteration_s = if job.iterations > 0 {
                    (now - outcomes[j].start_s) / job.iterations as f64
                } else {
                    0.0
                };
                shards.release(done.shard);
                if let (Some((_, sim)), Some(slot)) = (shared.as_mut(), done.slot) {
                    sim.retire(slot);
                }
                if planned_mode {
                    // The departed job's wiring stays plugged until another
                    // job's migration tears it down.
                    if let Some(topo) = &job.topology {
                        for (_, e) in topo.edges() {
                            stale_links.add_edge(
                                done.servers[e.src],
                                done.servers[e.dst],
                                e.capacity_bps,
                            );
                        }
                    }
                }
                admit_queued(
                    jobs,
                    params,
                    &mut shared,
                    &mut solo,
                    &mut shards,
                    &mut provisioner,
                    &mut stale_links,
                    &mut queue,
                    &mut running,
                    &mut outcomes,
                    now,
                );
                refresh_shared_rates(&mut shared, &mut running, now);
            }
            (Some(arr_t), _) => {
                now = now.max(arr_t);
                queue.push_back(order[next_arrival]);
                next_arrival += 1;
                let admitted = admit_queued(
                    jobs,
                    params,
                    &mut shared,
                    &mut solo,
                    &mut shards,
                    &mut provisioner,
                    &mut stale_links,
                    &mut queue,
                    &mut running,
                    &mut outcomes,
                    now,
                );
                if admitted {
                    refresh_shared_rates(&mut shared, &mut running, now);
                }
            }
            (None, Some(_)) => unreachable!("departure arm above covers this"),
        }
    }

    let truncated =
        exhausted && (next_arrival < order.len() || !running.is_empty() || !queue.is_empty());
    debug_assert!(
        !truncated || params.window_cap.is_some(),
        "default event guard exhausted with work pending: each loop iteration \
         processes one arrival or one departure, so 4*jobs + 16 cannot run out"
    );
    let engine_stats = DynamicEngineStats {
        solo_simulations: solo.len(),
        ..shared.as_ref().map(|(_, sim)| sim.stats()).unwrap_or_default()
    };

    let completed: Vec<&DynamicJobOutcome> = outcomes.iter().filter(|o| o.completed).collect();
    let mean = |f: &dyn Fn(&DynamicJobOutcome) -> f64| {
        if completed.is_empty() {
            0.0
        } else {
            completed.iter().map(|o| f(o)).sum::<f64>() / completed.len() as f64
        }
    };
    let jcts: Vec<f64> = completed.iter().map(|o| o.jct_s()).collect();
    let makespan = completed.iter().map(|o| o.finish_s).fold(0.0, f64::max);
    let transition = |f: &dyn Fn(&TransitionRecord) -> bool| {
        outcomes.iter().filter(|o| o.rewiring.as_ref().is_some_and(f)).count()
    };
    DynamicClusterResult {
        makespan_s: makespan,
        flips: provisioner.flips,
        mean_jct_s: mean(&|o| o.jct_s()),
        p99_jct_s: percentile(&jcts, 0.99),
        mean_queue_delay_s: mean(&|o| o.queue_delay_s()),
        mean_switch_over_s: mean(&|o| o.switch_over_delay_s),
        planned_transitions: transition(&|r| r.schedule.planned),
        fallback_transitions: transition(&|r| r.schedule.fallback.is_some()),
        truncated,
        engine: engine_stats,
        jobs: outcomes,
    }
}

/// Linearly advance every running job's progress to `now`.
fn settle_running(running: &mut [RunningJob], now: f64) {
    for r in running.iter_mut() {
        if r.iter_s.is_finite() && r.iter_s > 0.0 && now > r.settled_s {
            r.remaining_iters = (r.remaining_iters - (now - r.settled_s) / r.iter_s).max(0.0);
        }
        r.settled_s = now.max(r.settled_s);
    }
}

/// Admit queued jobs FIFO while shards are available. Infeasible requests —
/// a size the cluster can never satisfy, or a job whose iteration time is
/// undefined (no topology / unroutable transfers) — are rejected on the
/// spot instead of holding servers or blocking the queue head forever.
/// A rejected job never touches the patch panel: it ends the run with
/// `completed: false`, no admission or start time and no rewiring record.
/// Jobs with zero work depart the instant they start. Returns true if any
/// job started.
#[allow(clippy::too_many_arguments)]
fn admit_queued<'a>(
    jobs: &'a [DynamicJobSpec],
    params: &DynamicClusterParams,
    shared: &mut Option<(SimNetwork, SharedFabricEngine)>,
    solo: &mut BTreeMap<SoloInputs<'a>, f64>,
    shards: &mut ClusterShards,
    provisioner: &mut LookaheadProvisioner,
    stale_links: &mut Graph,
    queue: &mut VecDeque<usize>,
    running: &mut Vec<RunningJob>,
    outcomes: &mut [DynamicJobOutcome],
    now: f64,
) -> bool {
    let mut admitted_any = false;
    while let Some(&j) = queue.front() {
        let job = &jobs[j];
        if job.servers == 0 || job.servers > shards.total_servers() {
            // No future departure can make this allocatable: reject rather
            // than head-of-line-block every job behind it.
            queue.pop_front();
            continue;
        }
        let Some((shard, servers)) = shards.allocate(job.servers) else { break };
        queue.pop_front();

        // Feasibility first, from the job's solo iteration time: on its own
        // shard (simulated once per distinct job), or the probe of its
        // flows on the shared fabric, which its first window reuses.
        let (iter_s, probe) = match shared.as_ref() {
            Some((net, sim)) => {
                let flows = build_job_flows(net, &job.demands, &job.plans, &servers);
                let probe = sim.probe(flows, job.compute_s);
                (probe.total_s(), Some(probe))
            }
            None => {
                let latency = params.per_hop_latency_s;
                let solo_s =
                    solo.entry(SoloInputs(job)).or_insert_with(|| solo_iteration_s(job, latency));
                (*solo_s, None)
            }
        };
        if !iter_s.is_finite() {
            // The job could train forever without finishing an iteration;
            // release the shard instead of stranding it.
            shards.release(shard);
            continue;
        }
        outcomes[j].admitted_s = now;

        let (start, delay) = match params.fabric {
            DynamicFabric::Partitioned => {
                // The job's shard is disjoint from everyone else's, so its
                // look-ahead ports started wiring at submission, hidden
                // behind the queueing time; the flip costs whatever wiring
                // is still outstanding when servers free up.
                let schedule = match (&params.migration, &job.topology) {
                    (MigrationMode::Planned(planner), Some(topo)) => {
                        let previous = take_stale_shard(stale_links, &servers);
                        planner(previous.as_ref(), topo)
                    }
                    _ => TransitionSchedule::atomic(params.provisioning_time_s),
                };
                provisioner.start_provisioning_for(schedule.total_s());
                provisioner.advance((now - job.arrival_s).max(0.0));
                let delay = provisioner.flip();
                outcomes[j].rewiring = Some(TransitionRecord {
                    wiring_started_s: job.arrival_s,
                    schedule,
                    residual_s: delay,
                });
                (now + delay, delay)
            }
            DynamicFabric::Shared(_) => (now, 0.0),
        };
        outcomes[j].switch_over_delay_s = delay;
        outcomes[j].start_s = start;
        admitted_any = true;
        if iter_s <= 0.0 || job.iterations == 0 {
            // Zero work: depart the instant training would have started.
            outcomes[j].finish_s = start;
            outcomes[j].iteration_s = 0.0;
            outcomes[j].completed = true;
            shards.release(shard);
            continue;
        }
        // Only jobs that will actually train become engine residents.
        // Contended fabrics are re-rated for the whole co-resident set
        // right after admission (see `refresh_shared_rates`); until then
        // the job runs at its probed solo time.
        let slot = match (shared.as_mut(), probe) {
            (Some((_, sim)), Some(probe)) => Some(sim.admit_probed(probe)),
            _ => None,
        };
        running.push(RunningJob {
            job: j,
            shard,
            servers,
            remaining_iters: job.iterations as f64,
            iter_s,
            settled_s: start,
            slot,
        });
    }
    admitted_any
}

/// Extract the stale wiring sitting on a freshly allocated shard: every
/// stale link with *both* endpoints inside the shard, relabeled to the
/// job's local server ids — the source fabric the migration planner tears
/// down. All stale links touching the shard (including half-in links whose
/// other end belongs to servers elsewhere) are unplugged from the ledger:
/// the shard's interfaces are being rewired either way. Returns `None`
/// when the shard is dark (no stale wiring to migrate from).
fn take_stale_shard(stale_links: &mut Graph, servers: &[usize]) -> Option<Graph> {
    let mut local = vec![usize::MAX; stale_links.num_nodes()];
    for (l, &g) in servers.iter().enumerate() {
        local[g] = l;
    }
    let mut sub = Graph::new(servers.len());
    let mut unplug = Vec::new();
    for (id, e) in stale_links.edges() {
        let (s, d) = (local[e.src], local[e.dst]);
        if s != usize::MAX && d != usize::MAX {
            sub.add_edge(s, d, e.capacity_bps);
        }
        if s != usize::MAX || d != usize::MAX {
            unplug.push(id);
        }
    }
    for id in unplug {
        stale_links.remove_edge(id);
    }
    if sub.num_edges() == 0 {
        None
    } else {
        Some(sub)
    }
}

/// Iteration time of a job alone on its own shard topology (infinite when
/// the job has no topology or some transfer is unroutable on it). This is
/// the per-iteration cost [`simulate_dynamic_cluster`] charges a job on a
/// partitioned fabric; exposed so experiments can calibrate arrival rates
/// against the exact same number. It is a pure function of the inputs
/// `SoloInputs` lists, so the dynamic loop memoizes it within each run:
/// one call per distinct job.
pub fn solo_iteration_s(job: &DynamicJobSpec, per_hop_latency_s: f64) -> f64 {
    let Some(topo) = &job.topology else {
        return f64::INFINITY; // partitioned fabric but no topology supplied
    };
    let mut net = SimNetwork::without_rules(topo.clone(), job.servers);
    net.per_hop_latency_s = per_hop_latency_s;
    simulate_iteration(&net, &job.demands, &job.plans, job.compute_s).total_s
}

/// A job as [`solo_iteration_s`] sees it: the key of the dynamic loop's
/// per-run table of solo times, which borrows the first job of each kind.
/// Two keys are equal exactly when every input `solo_iteration_s` reads is
/// — `servers`, `compute_s`, `plans`, `topology` and `demands.mp` — with
/// floats compared by their bits, so `-0.0` and `0.0` differ and a NaN
/// matches itself. A hit is the same simulation, to the bit. Names,
/// arrivals and iteration counts are not read, so clones that differ only
/// there share an entry.
struct SoloInputs<'a>(&'a DynamicJobSpec);

impl Ord for SoloInputs<'_> {
    /// Part by part, scalars first, so keys of different jobs usually
    /// differ early. Sequences compare lexicographically, length included,
    /// so distinct inputs never compare equal.
    fn cmp(&self, other: &Self) -> Ordering {
        fn scalars(job: &DynamicJobSpec) -> (usize, u64, Option<usize>, usize) {
            let nodes = job.topology.as_ref().map(Graph::num_nodes);
            (job.servers, job.compute_s.to_bits(), nodes, job.demands.mp.num_nodes())
        }
        fn plans(job: &DynamicJobSpec) -> impl Iterator<Item = (u64, &[RingPermutation])> {
            job.plans.iter().map(|p| (p.bytes.to_bits(), &p.permutations[..]))
        }
        fn links(job: &DynamicJobSpec) -> impl Iterator<Item = (usize, usize, usize, u64)> + '_ {
            let edges = job.topology.iter().flat_map(Graph::edges);
            edges.map(|(id, e)| (id, e.src, e.dst, e.capacity_bps.to_bits()))
        }
        fn demands(job: &DynamicJobSpec) -> impl Iterator<Item = u64> + '_ {
            let (mp, n) = (&job.demands.mp, job.demands.mp.num_nodes());
            (0..n).flat_map(move |s| (0..n).map(move |d| mp.get(s, d).to_bits()))
        }
        let (a, b) = (self.0, other.0);
        scalars(a)
            .cmp(&scalars(b))
            .then_with(|| plans(a).cmp(plans(b)))
            .then_with(|| links(a).cmp(links(b)))
            .then_with(|| demands(a).cmp(demands(b)))
    }
}

impl PartialOrd for SoloInputs<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SoloInputs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SoloInputs<'_> {}

/// Window refresh on the shared-fabric engine: settle progress, run one
/// event window (only the components the event touched re-rate), and read
/// every resident's round time — cached or freshly simulated, the values
/// are bit-identical to a fresh engine over the same residents. A
/// partitioned fabric (`None`) or an empty cluster has no shared rates to
/// refresh.
fn refresh_shared_rates(
    shared: &mut Option<(SimNetwork, SharedFabricEngine)>,
    running: &mut [RunningJob],
    now: f64,
) {
    let Some((_, sim)) = shared else { return };
    if running.is_empty() {
        return;
    }
    settle_running(running, now);
    sim.run_window();
    for r in running.iter_mut() {
        r.iter_s = sim.round_total_s(r.slot.expect("shared-fabric resident without a slot"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_graph::{topologies, TrafficMatrix};

    fn small_demands(n: usize, bytes: f64) -> TrafficDemands {
        TrafficDemands {
            num_servers: n,
            allreduce_groups: vec![topoopt_strategy::AllReduceGroup {
                members: (0..n).collect(),
                bytes,
            }],
            mp: TrafficMatrix::new(n),
            samples_per_server: 1.0,
        }
    }

    fn ring_graph(n: usize, cap: f64) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, cap);
        }
        g
    }

    fn dynamic_job(name: &str, n: usize, arrival_s: f64, iterations: usize) -> DynamicJobSpec {
        DynamicJobSpec {
            name: name.into(),
            servers: n,
            demands: small_demands(n, 1.0e9),
            plans: vec![AllReducePlan::natural_ring((0..n).collect(), 1.0e9)],
            topology: Some(ring_graph(n, 100.0e9)),
            compute_s: 0.0,
            arrival_s,
            iterations,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn disjoint_shards_do_not_interfere() {
        // Two 4-server jobs on disjoint rings of a direct-connect fabric.
        let mut g = topoopt_graph::Graph::new(8);
        for base in [0usize, 4] {
            for i in 0..4 {
                g.add_edge(base + i, base + (i + 1) % 4, 100.0e9);
            }
        }
        let net = SimNetwork::without_rules(g, 8);
        let demands = small_demands(4, 1.0e9);
        let plans = vec![AllReducePlan::natural_ring((0..4).collect(), 1.0e9)];
        let job_a = JobSpec::new("a", build_job_flows(&net, &demands, &plans, &[0, 1, 2, 3]), 0.0);
        let job_b = JobSpec::new("b", build_job_flows(&net, &demands, &plans, &[4, 5, 6, 7]), 0.0);
        let both = simulate_shared_cluster(&net, &[job_a.clone(), job_b.clone()]);
        let solo = simulate_shared_cluster(&net, &[job_a]);
        assert!((both.per_job_total_s[0] - solo.per_job_total_s[0]).abs() < 1e-9);
    }

    #[test]
    fn sharing_one_fabric_slows_jobs_down() {
        // Two jobs whose rings share the same hub links contend.
        let g = topologies::ideal_switch(8, 50.0e9);
        let net = SimNetwork::without_rules(g, 8);
        let demands = small_demands(8, 1.0e9);
        let plans = vec![AllReducePlan::natural_ring((0..8).collect(), 1.0e9)];
        let map: Vec<usize> = (0..8).collect();
        let job = JobSpec::new("j", build_job_flows(&net, &demands, &plans, &map), 0.0);
        let solo = simulate_shared_cluster(&net, std::slice::from_ref(&job));
        let loaded = simulate_shared_cluster(&net, &[job.clone(), job.clone(), job]);
        assert!(loaded.average_s > solo.average_s * 1.5);
        assert!(loaded.p99_s >= loaded.average_s);
    }

    #[test]
    fn per_job_results_align_with_input_order() {
        let g = topologies::ideal_switch(4, 100.0e9);
        let net = SimNetwork::without_rules(g, 4);
        let demands = small_demands(4, 1.0e9);
        let plans = vec![AllReducePlan::natural_ring((0..4).collect(), 1.0e9)];
        let busy =
            JobSpec::new("busy", build_job_flows(&net, &demands, &plans, &[0, 1, 2, 3]), 0.0);
        let idle = JobSpec::new("idle", vec![], 0.25);
        let r = simulate_shared_cluster(&net, &[busy, idle]);
        assert_eq!(r.per_job_total_s.len(), 2);
        assert!((r.per_job_total_s[1] - 0.25).abs() < 1e-12);
        assert!(r.per_job_total_s[0] > 0.0);
    }

    #[test]
    fn dynamic_partitioned_cluster_runs_jobs_through_the_provisioner() {
        // 8 servers, 4 per job, so two jobs run concurrently and the third
        // queues. Provisioning is instantaneous here.
        let jobs = vec![
            dynamic_job("a", 4, 0.0, 10),
            dynamic_job("b", 4, 0.0, 10),
            dynamic_job("c", 4, 0.0, 10),
        ];
        let params = DynamicClusterParams {
            per_hop_latency_s: 0.0,
            ..DynamicClusterParams::new(8, DynamicFabric::Partitioned)
        };
        let r = simulate_dynamic_cluster(&jobs, &params);
        assert!(r.jobs.iter().all(|o| o.completed));
        assert_eq!(r.flips, 3);
        // a and b start immediately; c queues behind them.
        assert_eq!(r.jobs[0].admitted_s, 0.0);
        assert_eq!(r.jobs[1].admitted_s, 0.0);
        assert!(r.jobs[2].queue_delay_s() > 0.0);
        assert!((r.jobs[2].admitted_s - r.jobs[0].finish_s.min(r.jobs[1].finish_s)).abs() < 1e-9);
        assert!(r.makespan_s >= r.jobs[2].finish_s - 1e-9);
        assert!(r.mean_jct_s > 0.0 && r.p99_jct_s >= r.mean_jct_s - 1e-12);
    }

    #[test]
    fn queueing_hides_provisioning_time() {
        // Job c waits in the queue much longer than the patch panel needs,
        // so its look-ahead wiring finishes before servers free up: the
        // flip is free. A cold job b arriving at a busy panel pays.
        let mut jobs = vec![
            dynamic_job("a", 8, 0.0, 10),
            dynamic_job("b", 8, 0.0, 10),
            dynamic_job("c", 8, 0.0, 10),
        ];
        jobs[1].arrival_s = 0.0;
        jobs[2].arrival_s = 0.0;
        let solo_iter = {
            let params = DynamicClusterParams {
                per_hop_latency_s: 0.0,
                ..DynamicClusterParams::new(8, DynamicFabric::Partitioned)
            };
            let r = simulate_dynamic_cluster(&jobs[..1], &params);
            r.jobs[0].finish_s
        };
        let provisioning = solo_iter * 0.5; // hidden by one job's runtime
        let params = DynamicClusterParams {
            provisioning_time_s: provisioning,
            per_hop_latency_s: 0.0,
            ..DynamicClusterParams::new(8, DynamicFabric::Partitioned)
        };
        let r = simulate_dynamic_cluster(&jobs, &params);
        assert!(r.jobs.iter().all(|o| o.completed));
        // First job pays the full cold wiring, the queued ones hide it.
        assert!((r.jobs[0].switch_over_delay_s - provisioning).abs() < 1e-9);
        assert!(r.jobs[2].switch_over_delay_s < provisioning - 1e-9);
    }

    #[test]
    fn infeasible_jobs_are_rejected_without_blocking_the_queue() {
        // Job 0 wants more servers than the cluster has; job 1 has no
        // topology on a partitioned fabric (infinite iteration time); job 2
        // has zero iterations; job 3 is a normal job queued behind them all.
        let mut oversized = dynamic_job("oversized", 16, 0.0, 5);
        oversized.servers = 16; // cluster only has 8
        let mut unroutable = dynamic_job("unroutable", 4, 0.0, 5);
        unroutable.topology = None;
        let instant = dynamic_job("instant", 4, 0.0, 0);
        let normal = dynamic_job("normal", 4, 0.0, 5);
        let params = DynamicClusterParams {
            per_hop_latency_s: 0.0,
            ..DynamicClusterParams::new(8, DynamicFabric::Partitioned)
        };
        let r = simulate_dynamic_cluster(&[oversized, unroutable, instant, normal], &params);
        assert!(!r.jobs[0].completed);
        assert!(!r.jobs[1].completed);
        assert!(r.jobs[2].completed && r.jobs[2].finish_s == 0.0);
        assert!(r.jobs[3].completed, "a normal job must not starve behind infeasible ones");
        assert!(r.jobs[3].finish_s.is_finite() && r.jobs[3].finish_s > 0.0);
        // Both rejected jobs end alike: never admitted, never started, and
        // the patch panel never flipped for them.
        for o in &r.jobs[..2] {
            assert_eq!(o.admitted_s, f64::INFINITY, "{}", o.name);
            assert_eq!(o.start_s, f64::INFINITY, "{}", o.name);
            assert!(o.rewiring.is_none(), "{} was rewired", o.name);
        }
        assert_eq!(r.flips, 2, "one flip each for the instant and the normal job");
    }

    #[test]
    fn shared_fabric_contention_slows_dynamic_jobs() {
        let mk = |fabric: DynamicFabric| {
            let jobs = vec![dynamic_job("a", 4, 0.0, 5), dynamic_job("b", 4, 0.0, 5)];
            let params = DynamicClusterParams {
                per_hop_latency_s: 0.0,
                ..DynamicClusterParams::new(8, fabric)
            };
            simulate_dynamic_cluster(&jobs, &params)
        };
        let partitioned = mk(DynamicFabric::Partitioned);
        // One ring over all 8 servers: each job's wrap-around flow is
        // relayed through the other job's links, so co-residents contend
        // (and a departure speeds the survivor up via re-rating).
        let shared = mk(DynamicFabric::Shared(ring_graph(8, 100.0e9)));
        assert!(shared.jobs.iter().all(|o| o.completed));
        assert!(shared.mean_jct_s > partitioned.mean_jct_s * 1.2);
    }

    #[test]
    fn atomic_mode_records_one_opaque_step_per_transition() {
        let jobs = vec![dynamic_job("a", 4, 0.0, 5), dynamic_job("b", 4, 0.0, 5)];
        let params = DynamicClusterParams {
            provisioning_time_s: 0.5,
            per_hop_latency_s: 0.0,
            ..DynamicClusterParams::new(8, DynamicFabric::Partitioned)
        };
        let r = simulate_dynamic_cluster(&jobs, &params);
        assert_eq!(r.planned_transitions, 0);
        assert_eq!(r.fallback_transitions, 0);
        for o in &r.jobs {
            let rec = o.rewiring.as_ref().expect("partitioned admissions record the transition");
            assert!(!rec.schedule.planned);
            assert_eq!(rec.schedule.step_offsets_s.len(), 1);
            assert_eq!(rec.schedule.total_s(), 0.5);
            assert_eq!(rec.residual_s, o.switch_over_delay_s);
            assert_eq!(rec.wiring_started_s, o.arrival_s);
        }
    }

    #[test]
    fn planned_mode_with_equal_total_matches_atomic_timing() {
        // A planner that splits the same total rewiring time into per-link
        // steps changes the transition's *accounting*, not its end time: the
        // provisioner hides the same amount behind queueing either way.
        let jobs = || {
            vec![
                dynamic_job("a", 8, 0.0, 10),
                dynamic_job("b", 8, 0.0, 10),
                dynamic_job("c", 8, 0.0, 10),
            ]
        };
        let mk = |migration: MigrationMode| {
            let params = DynamicClusterParams {
                provisioning_time_s: 0.4,
                per_hop_latency_s: 0.0,
                migration,
                ..DynamicClusterParams::new(8, DynamicFabric::Partitioned)
            };
            simulate_dynamic_cluster(&jobs(), &params)
        };
        let atomic = mk(MigrationMode::Atomic);
        let planned = mk(MigrationMode::Planned(Arc::new(|_prev, target: &Graph| {
            // One evenly spaced step per target link, same 0.4 s total.
            let n = target.num_edges().max(1);
            TransitionSchedule::planned((1..=n).map(|i| 0.4 * i as f64 / n as f64).collect())
        })));
        assert_eq!(planned.planned_transitions, 3);
        assert_eq!(planned.fallback_transitions, 0);
        for (a, p) in atomic.jobs.iter().zip(planned.jobs.iter()) {
            assert!((a.switch_over_delay_s - p.switch_over_delay_s).abs() < 1e-12);
            assert!((a.finish_s - p.finish_s).abs() < 1e-9);
            let rec = p.rewiring.as_ref().unwrap();
            assert_eq!(rec.schedule.step_offsets_s.len(), 8, "one step per ring link");
        }
        assert!((atomic.mean_jct_s - planned.mean_jct_s).abs() < 1e-9);
    }

    #[test]
    fn planned_mode_hands_the_planner_the_stale_shard_wiring() {
        use std::sync::Mutex;
        // a trains on all 8 servers and departs; b (arriving later) reuses
        // the shard, so its migration starts from a's ring — relabeled to
        // b's local ids. The first admission sees a dark shard. In between,
        // a job whose topology has no links is rejected (its ring is
        // unroutable) before its migration is planned, so a's ring stays
        // plugged for b.
        type SeenWirings = Vec<Option<Vec<(usize, usize)>>>;
        let seen: Arc<Mutex<SeenWirings>> = Arc::new(Mutex::new(Vec::new()));
        let seen_cb = Arc::clone(&seen);
        let mut rejected = dynamic_job("rejected", 8, 0.5e6, 2);
        rejected.topology = Some(Graph::new(8));
        let jobs = vec![dynamic_job("a", 8, 0.0, 2), rejected, dynamic_job("b", 8, 1.0e6, 2)];
        let params = DynamicClusterParams {
            provisioning_time_s: 0.1,
            per_hop_latency_s: 0.0,
            migration: MigrationMode::Planned(Arc::new(move |prev, target: &Graph| {
                seen_cb
                    .lock()
                    .unwrap()
                    .push(prev.map(|g| g.edges().map(|(_, e)| (e.src, e.dst)).collect()));
                TransitionSchedule::planned(vec![0.1 * target.num_edges() as f64])
            })),
            ..DynamicClusterParams::new(8, DynamicFabric::Partitioned)
        };
        let r = simulate_dynamic_cluster(&jobs, &params);
        assert!(r.jobs[0].completed && r.jobs[2].completed);
        assert!(!r.jobs[1].completed && r.jobs[1].rewiring.is_none());
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "the rejected job's migration is never planned");
        assert!(seen[0].is_none(), "first job migrates from a dark shard");
        let stale = seen[1].as_ref().expect("second job must see a's stale ring");
        let mut expected: Vec<(usize, usize)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        let mut got = stale.clone();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected, "stale wiring is a's ring over local ids");
    }

    #[test]
    fn planner_fallbacks_are_counted() {
        let jobs = vec![dynamic_job("a", 4, 0.0, 3), dynamic_job("b", 4, 0.0, 3)];
        let params = DynamicClusterParams {
            provisioning_time_s: 0.2,
            per_hop_latency_s: 0.0,
            migration: MigrationMode::Planned(Arc::new(|_, _: &Graph| TransitionSchedule {
                step_offsets_s: vec![0.2],
                planned: false,
                fallback: Some("loop-freedom: synthetic".into()),
            })),
            ..DynamicClusterParams::new(8, DynamicFabric::Partitioned)
        };
        let r = simulate_dynamic_cluster(&jobs, &params);
        assert_eq!(r.planned_transitions, 0);
        assert_eq!(r.fallback_transitions, 2);
    }
}
