//! Equivalence of the incremental event-driven engine and the from-scratch
//! reference loop: random flow sets on random graphs must produce the same
//! completion times, byte accounting, and makespan. The shared fabric's
//! per-component fan-out must not depend on the thread count.

use proptest::prelude::*;
use topoopt_graph::{topologies, Graph, TrafficMatrix};
use topoopt_netsim::fluid::{simulate_flows, FlowSpec};
use topoopt_netsim::{
    allreduce_flows, simulate_dynamic_cluster, simulate_shared_cluster_stats, AllReducePlan,
    DynamicClusterParams, DynamicFabric, DynamicJobSpec, FluidEngine, JobSpec, SimNetwork,
};
use topoopt_oracle::simulate_flows_reference;
use topoopt_strategy::{AllReduceGroup, TrafficDemands};

/// Mixed absolute/relative closeness at the 1e-9 level (the two simulators
/// settle float progress in different orders).
fn close(a: f64, b: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn assert_equivalent(g: &Graph, flows: &[FlowSpec], per_hop_latency_s: f64) {
    let engine = simulate_flows(g, flows, per_hop_latency_s);
    let reference = simulate_flows_reference(g, flows, per_hop_latency_s);
    for (i, (a, b)) in engine.completion_s.iter().zip(&reference.completion_s).enumerate() {
        assert!(
            close(*a, *b),
            "flow {i} completion diverged: engine {a} vs reference {b} (flow {:?})",
            flows[i]
        );
    }
    assert!(
        close(engine.makespan_s, reference.makespan_s),
        "makespan diverged: {} vs {}",
        engine.makespan_s,
        reference.makespan_s
    );
    assert!(
        close(engine.carried_bytes, reference.carried_bytes),
        "carried bytes diverged: {} vs {}",
        engine.carried_bytes,
        reference.carried_bytes
    );
    assert!(close(engine.demand_bytes, reference.demand_bytes));
    for (link, bytes) in &reference.link_bytes {
        let eng = engine.link_bytes.get(link).copied().unwrap_or(0.0);
        assert!(close(eng, *bytes), "link {link:?} bytes diverged: {eng} vs {bytes}");
    }
}

proptest! {
    // Random ring-walk flows (some wrapping all the way around, revisiting
    // links) with random sizes, arrival times, and extra chords.
    #[test]
    fn engine_matches_reference_on_random_ring_walks(
        n in 3usize..10,
        extra_edges in proptest::collection::vec(
            (0usize..64, 0usize..64, 1.0f64..200.0), 0usize..12),
        flows in proptest::collection::vec(
            (0usize..64, 1usize..7, 1.0f64..2000.0, 0.0f64..3.0, 0.2f64..1.3), 1usize..14),
    ) {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, 80.0);
        }
        for (s, d, cap) in extra_edges {
            let (s, d) = (s % n, d % n);
            if s != d {
                g.add_edge(s, d, cap);
            }
        }
        let specs: Vec<FlowSpec> = flows
            .into_iter()
            .map(|(start, len, bytes, start_s, relay_factor)| {
                let path: Vec<usize> = (0..=len).map(|k| (start + k) % n).collect();
                let mut f = FlowSpec::new(path, bytes).with_relay_factor(relay_factor);
                f.start_s = start_s;
                f
            })
            .collect();
        assert_equivalent(&g, &specs, 1.0e-3);
    }

    // Arbitrary node-sequence paths: many are unroutable (zero-capacity
    // virtual hops) and must be declared infinite by both simulators.
    #[test]
    fn engine_matches_reference_on_arbitrary_paths(
        n in 3usize..9,
        flows in proptest::collection::vec(
            (proptest::collection::vec(0usize..64, 2usize..6), 0.5f64..500.0, 0.0f64..2.0),
            1usize..10),
    ) {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, 40.0);
            g.add_edge((i + 1) % n, i, 40.0);
        }
        let specs: Vec<FlowSpec> = flows
            .into_iter()
            .map(|(raw, bytes, start_s)| {
                let mut path: Vec<usize> = raw.into_iter().map(|v| v % n).collect();
                path.dedup();
                if path.len() < 2 {
                    path = vec![0, 1];
                }
                let mut f = FlowSpec::new(path, bytes);
                f.start_s = start_s;
                f
            })
            .collect();
        assert_equivalent(&g, &specs, 0.0);
    }
}

proptest! {
    // Random *sharded* workloads: several disjoint rings, each with its own
    // random flow mix (neighbour flows, chords, staggered arrivals), so
    // event batches touch several disjoint components at once.
    #[test]
    fn flat_engine_matches_reference_on_random_sharded_workloads(
        rings in 2usize..6,
        size in 3usize..7,
        flows in proptest::collection::vec(
            (0usize..64, 0usize..64, 1usize..4, 1.0f64..900.0, 0.0f64..2.0), 4usize..28),
    ) {
        let mut g = Graph::new(rings * size);
        for r in 0..rings {
            let base = r * size;
            for i in 0..size {
                g.add_edge(base + i, base + (i + 1) % size, 60.0);
            }
        }
        let specs: Vec<FlowSpec> = flows
            .into_iter()
            .map(|(ring, start, len, bytes, start_s)| {
                let base = (ring % rings) * size;
                let path: Vec<usize> =
                    (0..=len.min(size - 1)).map(|k| base + (start + k) % size).collect();
                let mut f = FlowSpec::new(path, bytes);
                f.start_s = start_s;
                f
            })
            .collect();
        assert_equivalent(&g, &specs, 1.0e-4);
    }

    // Random *fully-coupled* workloads: every flow crosses one shared hub
    // link, so the whole flow set is a single connected component and
    // every event re-rates everything — the worst case for incremental
    // recomputation must still match the oracle.
    #[test]
    fn flat_engine_matches_reference_on_fully_coupled_workloads(
        n in 3usize..8,
        flows in proptest::collection::vec(
            (0usize..64, 1.0f64..700.0, 0.0f64..2.0, 0.3f64..1.2), 2usize..16),
    ) {
        // Star: spokes feed hub 0, plus one shared uplink 0 -> 1 that every
        // flow traverses.
        let mut g = Graph::new(n + 1);
        g.add_edge(0, 1, 90.0);
        for s in 2..=n {
            g.add_edge(s, 0, 45.0);
        }
        let specs: Vec<FlowSpec> = flows
            .into_iter()
            .map(|(spoke, bytes, start_s, relay)| {
                let s = 2 + spoke % (n - 1);
                let mut f = FlowSpec::new(vec![s, 0, 1], bytes).with_relay_factor(relay);
                f.start_s = start_s;
                f
            })
            .collect();
        assert_equivalent(&g, &specs, 1.0e-4);
    }
}

#[test]
fn sharded_event_loops_are_deterministic_across_thread_counts() {
    // Disjoint rings with staggered arrivals inside each ring, so every
    // component sees a real multi-event sequence inside the one loop.
    let rings = 12usize;
    let size = 6usize;
    let mut g = Graph::new(rings * size);
    let mut flows = Vec::new();
    for r in 0..rings {
        let base = r * size;
        for i in 0..size {
            g.add_edge(base + i, base + (i + 1) % size, 100.0);
            let mut f = FlowSpec::new(
                vec![base + i, base + (i + 1) % size, base + (i + 2) % size],
                30.0 * (1.0 + ((r * 13 + i) % 9) as f64),
            );
            f.start_s = 0.25 * ((r + i) % 3) as f64;
            flows.push(f);
        }
    }
    assert_equivalent(&g, &flows, 1.0e-4);
}

/// A line `0 -> 1 -> ...` with one link per entry of `capacities`.
fn line(capacities: &[f64]) -> Graph {
    let mut g = Graph::new(capacities.len() + 1);
    for (i, &c) in capacities.iter().enumerate() {
        g.add_edge(i, i + 1, c);
    }
    g
}

#[test]
fn reference_loop_matches_engine_on_contended_and_capped_cases() {
    // Contended: a mid-run arrival shares the 100 bps first hop with a
    // flow held to 10 bps by the second.
    let mut late = FlowSpec::new(vec![0, 1], 90.0);
    late.start_s = 2.0;
    assert_equivalent(&line(&[100.0, 10.0]), &[FlowSpec::new(vec![0, 1, 2], 10.0), late], 0.0);
    // A lone flow relay-capped at 50% of its 100 bps path takes 16 s.
    let g = line(&[100.0, 100.0]);
    let capped = [FlowSpec::new(vec![0, 1, 2], 100.0).with_relay_factor(0.5)];
    let reference = simulate_flows_reference(&g, &capped, 0.0);
    assert!((reference.completion_s[0] - 16.0).abs() < 1e-9);
    assert_equivalent(&g, &capped, 0.0);
    // A flow capped at 25 bps leaves the other 75 bps to its sharer.
    let sharers = [
        FlowSpec::new(vec![0, 1], 100.0).with_relay_factor(0.25),
        FlowSpec::new(vec![0, 1], 150.0),
    ];
    assert_equivalent(&line(&[100.0]), &sharers, 0.0);
}

#[test]
fn mid_simulation_arrival_matches_reference() {
    let mut g = Graph::new(2);
    g.add_edge(0, 1, 100.0);
    let flows: Vec<FlowSpec> = [0.0, 1.5, 1.5, 4.0]
        .iter()
        .map(|&t| {
            let mut f = FlowSpec::new(vec![0, 1], 100.0);
            f.start_s = t;
            f
        })
        .collect();
    assert_equivalent(&g, &flows, 0.0);
}

#[test]
fn zero_byte_zero_hop_and_unroutable_mix_matches_reference() {
    let mut g = Graph::new(3);
    g.add_edge(0, 1, 50.0);
    let flows = vec![
        FlowSpec::new(vec![0, 1], 0.0),   // zero bytes
        FlowSpec::new(vec![2], 100.0),    // zero hops
        FlowSpec::new(vec![1, 2], 10.0),  // unroutable
        FlowSpec::new(vec![0, 1], 100.0), // normal
    ];
    assert_equivalent(&g, &flows, 0.5);
}

#[test]
fn parallel_component_waterfilling_is_deterministic_across_thread_counts() {
    // A t = 0 arrival wave across 24 disjoint rings (each with all
    // intra-ring neighbour+chord flows): one event batch re-rates 24
    // components, which must still agree with the from-scratch oracle.
    let rings = 24usize;
    let size = 6usize;
    let mut g = Graph::new(rings * size);
    let mut flows = Vec::new();
    for r in 0..rings {
        let base = r * size;
        for i in 0..size {
            g.add_edge(base + i, base + (i + 1) % size, 100.0);
            flows.push(FlowSpec::new(
                vec![base + i, base + (i + 1) % size],
                40.0 * (1.0 + ((r * 7 + i) % 11) as f64),
            ));
            // Two-hop chord sharing both links, to make components
            // non-trivial.
            flows.push(FlowSpec::new(
                vec![base + i, base + (i + 1) % size, base + (i + 2) % size],
                25.0 * (1.0 + ((r * 5 + i) % 7) as f64),
            ));
        }
    }
    assert_equivalent(&g, &flows, 1.0e-4);
}

#[test]
fn incremental_engine_does_less_work_on_disjoint_shards() {
    // 8 disjoint rings of 8 nodes, one flow per edge with distinct sizes:
    // 64 flows, but no waterfill may ever span more than one ring.
    let rings = 8usize;
    let size = 8usize;
    let mut g = Graph::new(rings * size);
    let mut engine_flows = Vec::new();
    for r in 0..rings {
        let base = r * size;
        for i in 0..size {
            g.add_edge(base + i, base + (i + 1) % size, 100.0);
            engine_flows.push(FlowSpec::new(
                vec![base + i, base + (i + 1) % size],
                50.0 * (1.0 + (r * size + i) as f64),
            ));
        }
    }
    let mut engine = FluidEngine::new(&g, 0.0);
    for f in &engine_flows {
        engine.add_flow(f.clone());
    }
    engine.run();
    let stats = engine.stats();
    assert!(stats.max_component <= size, "waterfill spanned shards: {stats:?}");
    // The from-scratch loop would re-rate ~64 flows per event; the engine's
    // average component is bounded by one ring.
    assert!(
        stats.flows_rerated <= stats.waterfills * size,
        "incremental recomputation exceeded one shard per event: {stats:?}"
    );
    assert_equivalent(&g, &engine_flows, 0.0);
}

/// A ring-allreduce job of `n` servers for the dynamic cluster.
fn ring_job(i: usize, n: usize, bytes: f64, arrival_s: f64, iterations: usize) -> DynamicJobSpec {
    DynamicJobSpec {
        name: format!("d{i}"),
        servers: n,
        demands: TrafficDemands {
            num_servers: n,
            allreduce_groups: vec![AllReduceGroup { members: (0..n).collect(), bytes }],
            mp: TrafficMatrix::new(n),
            samples_per_server: 1.0,
        },
        plans: vec![AllReducePlan::natural_ring((0..n).collect(), bytes)],
        topology: None,
        compute_s: 0.01,
        arrival_s,
        iterations,
    }
}

#[test]
fn shared_fabric_fan_out_is_deterministic_across_thread_counts() {
    // A shared-fabric window simulates each dirty job-level component on
    // an engine of its own, fanned out over rayon and merged in component
    // order, so one thread and two must agree to the bit: round times,
    // `EngineStats` and `DynamicEngineStats` (the Debug rendering prints
    // every f64 in its shortest round-trip form, so equal strings mean
    // equal bits).
    //
    // Env mutation is safe here: reads go through std::env (internally
    // serialized; no C-level getenv in this process), and a concurrently
    // running test that transiently sees the capped value only loses
    // parallelism, never determinism — the property this test asserts.
    let (jobs, servers) = (12usize, 4usize);
    let total = jobs * servers;
    let mut net = SimNetwork::without_rules(topologies::ideal_switch(total, 100.0e9), total);
    net.per_hop_latency_s = 1.0e-6;
    // Twelve server-disjoint jobs: one window, twelve components.
    let round: Vec<JobSpec> = (0..jobs)
        .map(|j| {
            let members: Vec<usize> = (j * servers..(j + 1) * servers).collect();
            let bytes = 1.0e8 * (1 + j % 5) as f64;
            let flows = allreduce_flows(&net, &AllReducePlan::natural_ring(members, bytes));
            JobSpec::new(format!("j{j}"), flows, 0.01)
        })
        .collect();
    // A two-level tree: four leaf switches (nodes 16..20) of four servers
    // under one root (node 20). Jobs straddling leaves share uplinks, which
    // chains them into multi-job components.
    let mut tree = Graph::new(21);
    for s in 0..16 {
        tree.add_edge(s, 16 + s / 4, 100.0e9);
        tree.add_edge(16 + s / 4, s, 100.0e9);
    }
    for leaf in 16..20 {
        tree.add_edge(leaf, 20, 100.0e9);
        tree.add_edge(20, leaf, 100.0e9);
    }
    // Servers are granted lowest-first, so jobs 1, 2 and 3 straddle leaves
    // 0–1, 1–2 and 2–3; job 2 departs first and splits their component.
    let trace: Vec<DynamicJobSpec> = (0..10)
        .map(|i| {
            let (servers, iterations) = [(3, 6), (2, 6), (4, 1), (4, 6), (3, 6)][i % 5];
            ring_job(i, servers, 5.0e8 * (1 + i % 3) as f64, 0.02 * i as f64, iterations)
        })
        .collect();
    let params = DynamicClusterParams::new(16, DynamicFabric::Shared(tree));
    let run = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let (result, stats) = simulate_shared_cluster_stats(&net, &round);
        let dynamic = simulate_dynamic_cluster(&trace, &params);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert!(dynamic.jobs.iter().all(|o| o.completed), "{dynamic:?}");
        format!("{result:?}\n{stats:?}\n{dynamic:?}")
    };
    assert_eq!(run("1"), run("2"));
}
