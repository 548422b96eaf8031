//! Dynamic shared-cluster runs: random Poisson arrival traces run to the
//! end under the default event-loop guard, the guard surfaces truncation
//! instead of silently dropping jobs, and a partitioned run simulates each
//! distinct job once. Bit-exactness of the persistent
//! engine's cached round times is checked at its seam, in
//! `src/shared_engine.rs`.

use proptest::prelude::*;
use topoopt_graph::{topologies, Graph, TrafficMatrix};
use topoopt_netsim::{
    simulate_dynamic_cluster, AllReducePlan, DynamicClusterParams, DynamicClusterResult,
    DynamicFabric, DynamicJobSpec,
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
fn run_shared(jobs: &[DynamicJobSpec], fabric: &Graph, total: usize) -> DynamicClusterResult {
    simulate_dynamic_cluster(
        jobs,
        &DynamicClusterParams::new(total, DynamicFabric::Shared(fabric.clone())),
    )
}

/// A trace never exhausts the default guard, and every job, queued or
/// not, trains to completion.
fn assert_runs_to_completion(jobs: &[DynamicJobSpec], fabric: &Graph, total: usize) {
    let r = run_shared(jobs, fabric, total);
    assert!(!r.truncated, "the default guard cut a trace short");
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
}

#[test]
fn window_cap_truncation_is_surfaced() {
    // Three sequential jobs but only one loop iteration allowed: the run
    // is cut off with work pending, and the result must say so instead of
    // silently reporting the survivors as the whole story.
    let jobs: Vec<DynamicJobSpec> =
        (0..3).map(|i| ring_job(format!("j{i}"), 4, 1.0e9, 0.0, i as f64 * 0.1, 2)).collect();
    let params = |cap: Option<usize>| DynamicClusterParams {
        window_cap: cap,
        ..DynamicClusterParams::new(4, DynamicFabric::Shared(topologies::ideal_switch(4, 100.0e9)))
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
    let r = run_shared(&jobs, &topologies::ideal_switch(16, 100.0e9), 16);
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
    simulate_dynamic_cluster(jobs, &DynamicClusterParams::new(16, DynamicFabric::Partitioned))
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
            let cap = topo.edge_mut(0).capacity_bps;
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
