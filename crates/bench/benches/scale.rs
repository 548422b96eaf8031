//! Datacenter-scale netsim benchmark: the flat index-based incremental
//! engine against the map-keyed from-scratch reference.
//!
//! The workload is the Figure-16 dynamic shape at cluster scale: disjoint
//! 8-server rings covering every server, two flows of distinct sizes per
//! ring edge, all starting together, so the run exercises a stream of
//! completions and re-rating — not just one waterfill.
//!
//! * At 512 servers both allocators run and the bench *asserts* the flat
//!   engine is at least 5x faster (the vendored criterion stand-in has no
//!   baseline comparison, so the acceptance gate is an explicit
//!   median-of-runs assertion — the bench binary fails loudly if the
//!   speedup regresses).
//! * At 2048 and 8192 servers only the flat engine runs (the from-scratch
//!   loop re-rates every active flow on every event and would take minutes
//!   per sample); these points are the committed scaling curve, compared
//!   PR-over-PR via `BENCH_fig16_dynamic_scale.json`.
//! * A 2048-server, 60%-load dynamic trace benches the shared-fabric
//!   windows and gates their reuse with deterministic counters: at most
//!   one in five job-windows may be re-rated, every re-rated one must be
//!   served by the job's admission probe, and every probe but the first
//!   must take the run of a resident of the same shape (47 of 48).
//!
//! Run with `cargo bench -p topoopt-bench --bench scale`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use topoopt_bench::median_time;
use topoopt_graph::{topologies, Graph, TrafficMatrix};
use topoopt_netsim::fluid::{simulate_flows, FlowSpec};
use topoopt_netsim::{
    simulate_dynamic_cluster, AllReducePlan, DynamicClusterParams, DynamicFabric, DynamicJobSpec,
};
use topoopt_oracle::simulate_flows_reference;
use topoopt_strategy::{AllReduceGroup, TrafficDemands};

/// Disjoint 8-server rings covering `servers` nodes: two flows per edge, one
/// of distinct size per edge and one of 0.75x that, so completions spread
/// over many events and disjoint components keep scheduling independently.
fn dynamic_workload(servers: usize) -> (Graph, Vec<FlowSpec>) {
    let size = 8usize;
    let rings = servers / size;
    let mut g = Graph::new(servers);
    let mut flows = Vec::new();
    for r in 0..rings {
        let base = r * size;
        for i in 0..size {
            g.add_edge(base + i, base + (i + 1) % size, 100.0e9);
            let bytes = 1.0e9 * (1.0 + ((r * size + i) % 17) as f64 / 4.0);
            flows.push(FlowSpec::new(vec![base + i, base + (i + 1) % size], bytes));
            flows.push(FlowSpec::new(vec![base + i, base + (i + 1) % size], bytes * 0.75));
        }
    }
    (g, flows)
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(3);

    // 512-server point: flat vs reference, with the acceptance assertion.
    let (g, flows) = dynamic_workload(512);
    group.bench_with_input(BenchmarkId::new("flat_engine", 512), &512usize, |b, _| {
        b.iter(|| simulate_flows(&g, &flows, 1.0e-6))
    });
    let flat = median_time(3, || {
        simulate_flows(&g, &flows, 1.0e-6);
    });
    let reference = median_time(1, || {
        simulate_flows_reference(&g, &flows, 1.0e-6);
    });
    let speedup = reference.as_secs_f64() / flat.as_secs_f64().max(1e-12);
    println!(
        "  scale/512 speedup: {speedup:.1}x (flat {flat:?} vs map-keyed reference {reference:?})"
    );
    assert!(
        speedup >= 5.0,
        "flat engine must beat the map-keyed reference by >= 5x on the 512-server \
         dynamic workload, measured {speedup:.2}x"
    );

    // Scaling curve: flat engine only.
    for &servers in &[2048usize, 8192] {
        let (g, flows) = dynamic_workload(servers);
        group.bench_with_input(BenchmarkId::new("flat_engine", servers), &servers, |b, _| {
            b.iter(|| simulate_flows(&g, &flows, 1.0e-6))
        });
    }

    // Mid-run-arrival shared-fabric workload: 2048 servers at 60% offered
    // load, Poisson arrivals on an ideal switch. Each arrival/departure
    // window re-simulates only the job-level components it touched, one
    // engine run per distinct component shape, and serves every other
    // resident from its cached round time, so the gate is a work counter,
    // not wall time: re-rating every resident every window would fail it.
    // On an ideal switch every dirty component is a lone newcomer, so each
    // re-rated job-window must take the newcomer's admission probe instead
    // of simulating the job a second time.
    let jobs = mid_run_arrival_trace(2048, 0.6);
    let params = DynamicClusterParams::new(
        2048,
        DynamicFabric::Shared(topologies::ideal_switch(2048, 100.0e9)),
    );
    group.bench_with_input(BenchmarkId::new("dynamic_persistent", 2048), &2048usize, |b, _| {
        b.iter(|| simulate_dynamic_cluster(&jobs, &params))
    });
    let e = simulate_dynamic_cluster(&jobs, &params).engine;
    let job_windows = e.jobs_rerated + e.jobs_reused;
    println!(
        "  scale/dynamic-2048 reuse: {} of {job_windows} job-windows re-rated ({} windows, \
         {} served by admission probes, {} engine runs served by an equal-shape run)",
        e.jobs_rerated, e.windows, e.probes_reused, e.shapes_reused
    );
    assert!(
        e.jobs_rerated * 5 <= job_windows,
        "the shared-fabric windows must serve at least 4 of 5 job-windows from the cache on the \
         2048-server 60%-load mid-run-arrival workload: re-rated {} of {job_windows}",
        e.jobs_rerated
    );
    assert_eq!(
        e.probes_reused, e.jobs_rerated,
        "every re-rated job-window on the 2048-server ideal switch is a newcomer alone, which \
         its admission probe must serve"
    );
    // Every job of the trace is the same ring on another 16 servers, in
    // order, and some job is always resident when the next one arrives:
    // only the first admission probe builds an engine.
    assert_eq!(
        e.shapes_reused, 47,
        "every admission probe but the first on the 2048-server trace must take the run of a \
         resident of the same shape"
    );
    group.finish();
}

/// Poisson trace of 16-server ring-allreduce jobs on a shared fabric at the
/// given offered load: arrival gaps are inverse-CDF exponentials from a
/// fixed splitmix-style stream, so the trace is identical run to run.
fn mid_run_arrival_trace(total: usize, load: f64) -> Vec<DynamicJobSpec> {
    let n = 16usize;
    let bytes = 1.0e9;
    let iterations = 10usize;
    let compute_s = 0.02;
    // Ring allreduce moves ~2(n-1)/n * bytes per server through 100 Gbps
    // links: ~0.15 s/iteration. The gap keeps `load` of the cluster busy.
    let iter_estimate_s = 0.15;
    let mean_gap_s = iter_estimate_s * iterations as f64 * n as f64 / (total as f64 * load);
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut t = 0.0f64;
    (0..48)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((state >> 11) as f64) / ((1u64 << 53) as f64);
            t += -mean_gap_s * (1.0 - u).ln();
            DynamicJobSpec {
                name: format!("j{i}"),
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
                arrival_s: t,
                iterations,
            }
        })
        .collect()
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
