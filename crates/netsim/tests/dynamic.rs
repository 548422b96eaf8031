//! Dynamic shared-cluster runs: random Poisson arrival traces (with and
//! without faults) run to the end under the default event-loop guard,
//! faults stall and slow jobs as documented, the guard surfaces
//! truncation instead of silently dropping jobs, and a partitioned run
//! simulates each distinct job once. Bit-exactness of the persistent
//! engine's cached round times is checked at its seam, in
//! `src/shared_engine.rs`.

use proptest::prelude::*;
use topoopt_graph::{topologies, Graph, TrafficMatrix};
use topoopt_netsim::{
    simulate_dynamic_cluster, AllReducePlan, DynamicClusterParams, DynamicClusterResult,
    DynamicFabric, DynamicJobSpec, FaultEvent, FaultInjection, MigrationMode, SharedEngineMode,
};
use topoopt_strategy::{AllReduceGroup, TrafficDemands};

fn ring_job(
    name: String,
    n: usize,
    bytes: f64,
    compute_s: f64,
    arrival_s: f64,
    iterations: usize,
) -> DynamicJobSpec {
    DynamicJobSpec {
        name,
        servers: n,
        demands: TrafficDemands {
            num_servers: n,
            allreduce_groups: vec![AllReduceGroup { members: (0..n).collect(), bytes }],
            mp: TrafficMatrix::new(n),
            samples_per_server: 1.0,
        },
        plans: vec![AllReducePlan::natural_ring((0..n).collect(), bytes)],
        topology: None,
        compute_s,
        arrival_s,
        iterations,
    }
}

fn shared_ring(total: usize, cap: f64) -> Graph {
    let mut g = Graph::new(total);
    for i in 0..total {
        g.add_edge(i, (i + 1) % total, cap);
        g.add_edge((i + 1) % total, i, cap);
    }
    g
}

/// One run of `jobs` on a shared `fabric` under the default guard.
fn run_shared(
    jobs: &[DynamicJobSpec],
    fabric: &Graph,
    total: usize,
    faults: Vec<FaultInjection>,
) -> DynamicClusterResult {
    simulate_dynamic_cluster(
        jobs,
        &DynamicClusterParams {
            total_servers: total,
            fabric: DynamicFabric::Shared(fabric.clone()),
            provisioning_time_s: 0.0,
            per_hop_latency_s: 1.0e-6,
            migration: MigrationMode::Atomic,
            shared_engine: SharedEngineMode::Persistent,
            window_cap: None,
            faults,
        },
    )
}

/// A fault-free trace never exhausts the default guard, and every job,
/// queued or not, trains to completion.
fn assert_runs_to_completion(jobs: &[DynamicJobSpec], fabric: &Graph, total: usize) {
    let r = run_shared(jobs, fabric, total, vec![]);
    assert!(!r.truncated, "the default guard cut a fault-free trace short");
    for o in &r.jobs {
        assert!(o.completed && o.finish_s.is_finite(), "{} did not complete: {o:?}", o.name);
    }
}

proptest! {
    // Random Poisson arrival traces on an ideal switch: jobs are
    // server-disjoint (per-job components), so most windows reuse every
    // other resident's cached rate.
    #[test]
    fn ideal_switch_traces_run_to_completion(
        total in 8usize..20,
        trace in proptest::collection::vec(
            // (servers, iterations, exponential quantile, GB, compute)
            (2usize..6, 1usize..4, 0.0f64..0.95, 0.2f64..3.0, 0.0f64..0.2),
            1usize..10),
        mean_gap in 0.05f64..1.5,
    ) {
        let mut t = 0.0f64;
        let jobs: Vec<DynamicJobSpec> = trace
            .into_iter()
            .enumerate()
            .map(|(i, (n, iters, u, gb, compute))| {
                // Inverse-CDF exponential gap: a Poisson arrival process.
                t += -mean_gap * (1.0 - u).ln();
                ring_job(format!("j{i}"), n, gb * 1.0e9, compute, t, iters)
            })
            .collect();
        assert_runs_to_completion(&jobs, &topologies::ideal_switch(total, 100.0e9), total);
    }

    // The same traces on a shared ring fabric: BFS routes cross other
    // jobs' server ranges, so components span multiple jobs.
    #[test]
    fn shared_ring_traces_run_to_completion(
        total in 6usize..14,
        trace in proptest::collection::vec(
            (2usize..5, 1usize..4, 0.0f64..0.95, 0.2f64..3.0, 0.0f64..0.2),
            1usize..8),
        mean_gap in 0.05f64..1.0,
    ) {
        let mut t = 0.0f64;
        let jobs: Vec<DynamicJobSpec> = trace
            .into_iter()
            .enumerate()
            .map(|(i, (n, iters, u, gb, compute))| {
                t += -mean_gap * (1.0 - u).ln();
                ring_job(format!("j{i}"), n, gb * 1.0e9, compute, t, iters)
            })
            .collect();
        assert_runs_to_completion(&jobs, &shared_ring(total, 60.0e9), total);
    }

    // Poisson traces with injected fault/recovery events: link and OCS-port
    // failures (some never recovered), stragglers, all firing between
    // arrival/departure windows. Each fault batch costs one loop iteration,
    // so the default guard still covers the run, and stalled jobs end
    // incomplete rather than with a NaN.
    #[test]
    fn fault_traces_never_exhaust_the_default_guard(
        total in 6usize..12,
        trace in proptest::collection::vec(
            (2usize..5, 1usize..4, 0.0f64..0.95, 0.2f64..3.0, 0.0f64..0.2),
            1usize..6),
        fault_seed in proptest::collection::vec(
            // (time quantile, kind, endpoint pick, straggler factor, recovery gap)
            (0.0f64..1.0, 0usize..4, 0usize..64, 0.2f64..1.4, 0.01f64..0.5),
            0usize..6),
        mean_gap in 0.05f64..1.0,
    ) {
        let mut t = 0.0f64;
        let jobs: Vec<DynamicJobSpec> = trace
            .into_iter()
            .enumerate()
            .map(|(i, (n, iters, u, gb, compute))| {
                t += -mean_gap * (1.0 - u).ln();
                ring_job(format!("j{i}"), n, gb * 1.0e9, compute, t, iters)
            })
            .collect();
        let horizon = t + 2.0;
        let mut faults = Vec::new();
        for (u, kind, pick, factor, gap) in fault_seed {
            let at = u * horizon;
            let s = pick % total;
            let link = (s, (s + 1) % total);
            match kind {
                0 => {
                    faults.push(FaultInjection { time_s: at, event: FaultEvent::LinkDown(link) });
                    faults.push(FaultInjection { time_s: at + gap, event: FaultEvent::LinkUp(link) });
                }
                1 => {
                    faults.push(FaultInjection { time_s: at, event: FaultEvent::OcsPortDown(s) });
                    faults.push(FaultInjection { time_s: at + gap, event: FaultEvent::OcsPortUp(s) });
                }
                2 => {
                    faults.push(FaultInjection {
                        time_s: at,
                        event: FaultEvent::Straggler { server: s, egress_factor: factor },
                    });
                    faults.push(FaultInjection {
                        time_s: at + gap,
                        event: FaultEvent::Straggler { server: s, egress_factor: 1.0 },
                    });
                }
                // A transceiver that never comes back: surviving jobs stall.
                _ => faults.push(FaultInjection { time_s: at, event: FaultEvent::LinkDown(link) }),
            }
        }
        let r = run_shared(&jobs, &shared_ring(total, 60.0e9), total, faults);
        assert!(!r.truncated, "fault batches exhausted the default guard");
        assert!(r.jobs.iter().all(|o| !o.iteration_s.is_nan() && !o.finish_s.is_nan()));
    }
}

#[test]
fn link_failure_stalls_job_until_recovery() {
    // One ring job on a 4-ring fabric. Killing a directed link its AllReduce
    // crosses stalls the job (rate 0, not dropped); recovery revives it.
    let jobs = vec![ring_job("j0".into(), 4, 1.0e9, 0.0, 0.0, 2)];
    let fabric = shared_ring(4, 100.0e9);
    let run = |faults| run_shared(&jobs, &fabric, 4, faults);
    let healthy = run(vec![]);
    assert!(healthy.jobs[0].completed);
    let finish = healthy.jobs[0].finish_s;
    let mid = finish * 0.5;

    // Fault with no recovery: the job stalls forever — reported as never
    // completed, not silently dropped or priced as finished.
    let stalled = run(vec![FaultInjection { time_s: mid, event: FaultEvent::LinkDown((0, 1)) }]);
    assert!(!stalled.jobs[0].completed, "a job stalled on a dead link cannot complete");
    assert!(stalled.jobs[0].finish_s.is_infinite());
    assert!(!stalled.truncated, "a permanent stall is not guard truncation");

    // Same fault with recovery: the job finishes, later than healthy.
    let revived = run(vec![
        FaultInjection { time_s: mid, event: FaultEvent::LinkDown((0, 1)) },
        FaultInjection { time_s: mid + finish, event: FaultEvent::LinkUp((0, 1)) },
    ]);
    assert!(revived.jobs[0].completed, "recovery must revive a stalled job");
    assert!(revived.jobs[0].finish_s > finish, "the outage must cost time");
}

#[test]
fn straggler_slows_shared_jobs() {
    let jobs = vec![ring_job("j0".into(), 4, 1.0e9, 0.0, 0.0, 2)];
    let fabric = topologies::ideal_switch(4, 100.0e9);
    let run = |faults| run_shared(&jobs, &fabric, 4, faults);
    let healthy = run(vec![]);
    let slowed = run(vec![FaultInjection {
        time_s: 0.0,
        event: FaultEvent::Straggler { server: 0, egress_factor: 0.25 },
    }]);
    assert!(healthy.jobs[0].completed && slowed.jobs[0].completed);
    assert!(
        slowed.jobs[0].finish_s > healthy.jobs[0].finish_s,
        "a straggling server must slow the ring: {} vs {}",
        slowed.jobs[0].finish_s,
        healthy.jobs[0].finish_s
    );
}

#[test]
fn window_cap_truncation_is_surfaced() {
    // Three sequential jobs but only one loop iteration allowed: the run
    // is cut off with work pending, and the result must say so instead of
    // silently reporting the survivors as the whole story.
    let jobs: Vec<DynamicJobSpec> =
        (0..3).map(|i| ring_job(format!("j{i}"), 4, 1.0e9, 0.0, i as f64 * 0.1, 2)).collect();
    let params = |cap: Option<usize>| DynamicClusterParams {
        total_servers: 4,
        fabric: DynamicFabric::Shared(topologies::ideal_switch(4, 100.0e9)),
        provisioning_time_s: 0.0,
        per_hop_latency_s: 1.0e-6,
        migration: MigrationMode::Atomic,
        shared_engine: SharedEngineMode::Persistent,
        window_cap: cap,
        faults: vec![],
    };
    let cut = simulate_dynamic_cluster(&jobs, &params(Some(1)));
    assert!(cut.truncated, "guard exhaustion with pending jobs must be reported");
    assert!(cut.jobs.iter().any(|o| !o.completed));
    let full = simulate_dynamic_cluster(&jobs, &params(None));
    assert!(!full.truncated);
    assert!(full.jobs.iter().all(|o| o.completed));
    // A cap large enough to finish the trace is not truncation either.
    let roomy = simulate_dynamic_cluster(&jobs, &params(Some(64)));
    assert!(!roomy.truncated);
}

#[test]
fn persistent_engine_reports_window_reuse() {
    // Disjoint jobs on an ideal switch arriving one at a time: each
    // arrival/departure window touches one job-level component, so the
    // stats must show cache reuse and a max component of one job's flows.
    let jobs: Vec<DynamicJobSpec> =
        (0..4).map(|i| ring_job(format!("j{i}"), 4, 1.0e9, 0.0, i as f64 * 0.01, 3)).collect();
    let r = run_shared(&jobs, &topologies::ideal_switch(16, 100.0e9), 16, vec![]);
    assert!(r.jobs.iter().all(|o| o.completed));
    assert!(r.engine.windows > 0);
    assert!(r.engine.jobs_reused > 0, "disjoint residents must reuse cached rates: {:?}", r.engine);
    assert!(
        r.engine.windows_incremental > 0,
        "windows must be served incrementally: {:?}",
        r.engine
    );
    // Ring flows through a star hub are pairwise link-disjoint (flow k
    // owns up(k) and down(k+1)), so no waterfill ever couples flows.
    assert_eq!(
        r.engine.max_component, 1,
        "star-routed ring flows are link-disjoint: {:?}",
        r.engine
    );
}

/// One run of `jobs` on a partitioned 16-server fabric.
fn run_partitioned(jobs: &[DynamicJobSpec]) -> DynamicClusterResult {
    simulate_dynamic_cluster(
        jobs,
        &DynamicClusterParams {
            total_servers: 16,
            fabric: DynamicFabric::Partitioned,
            provisioning_time_s: 0.0,
            per_hop_latency_s: 1.0e-6,
            migration: MigrationMode::Atomic,
            shared_engine: SharedEngineMode::Persistent,
            window_cap: None,
            faults: vec![],
        },
    )
}

#[test]
fn partitioned_runs_simulate_each_distinct_job_once() {
    // Three job templates, each on its own ring shard.
    let templates: Vec<DynamicJobSpec> = [(4, 1.0e9, 0.0), (4, 2.0e9, 0.01), (8, 1.0e9, 0.02)]
        .into_iter()
        .map(|(n, bytes, compute_s)| DynamicJobSpec {
            topology: Some(shared_ring(n, 100.0e9)),
            ..ring_job("template".into(), n, bytes, compute_s, 0.0, 1)
        })
        .collect();
    // 200 clones that differ only in name, arrival and iteration count.
    let trace: Vec<DynamicJobSpec> = (0..200)
        .map(|i| DynamicJobSpec {
            name: format!("j{i}"),
            arrival_s: 0.01 * i as f64,
            iterations: 1 + i % 3,
            ..templates[i % 3].clone()
        })
        .collect();
    let r = run_partitioned(&trace);
    assert!(r.jobs.iter().all(|o| o.completed));
    assert_eq!(r.engine.solo_simulations, 3, "{:?}", r.engine);

    // Any other difference in what a solo iteration reads, down to the
    // sign of a zero or one ULP, is a job of its own.
    type Change = fn(&mut DynamicJobSpec);
    let variants: [(&str, Change); 5] = [
        ("-0.0 compute time", |j| j.compute_s = -0.0),
        ("one ULP of one link", |j| {
            let topo = j.topology.as_mut().expect("templates carry a topology");
            let cap = topo.edge(0).capacity_bps;
            topo.edge_mut(0).capacity_bps = f64::from_bits(cap.to_bits() + 1);
        }),
        ("one MP entry", |j| j.demands.mp.set(0, 1, 1.0e6)),
        ("one plan's bytes", |j| j.plans[0].bytes *= 1.5),
        ("one ring stride", |j| j.plans[0].permutations[0].stride = 3),
    ];
    for (what, change) in variants {
        let mut variant = trace[0].clone();
        change(&mut variant);
        let mut jobs = trace.clone();
        jobs.push(variant);
        let r = run_partitioned(&jobs);
        assert_eq!(r.engine.solo_simulations, 4, "{what}: {:?}", r.engine);
    }
}
