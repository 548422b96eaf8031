//! Property tests of the forwarding plan: on any connected fabric, the
//! destination-keyed rule chains must actually deliver every pair's
//! traffic — walk from the source, follow one rule per hop, arrive at the
//! destination's RDMA interface, never loop, and agree with the plan's
//! per-pair relay accounting. After links die, a repaired plan must keep
//! that accounting honest for every pair it still delivers.

use proptest::prelude::*;
use topoopt_core::Routing;
use topoopt_graph::paths::bfs_distances;
use topoopt_graph::{topologies, Graph};
use topoopt_rdma::{build_forwarding_plan, ForwardingPlan, NparPartition, RepairMode, WalkOutcome};

/// A random connected fabric: a +1 ring (connectivity) plus random ring
/// permutations and random chords.
fn fabric(n: usize, strides: &[usize], chords: &[(usize, usize)]) -> Graph {
    let mut ps: Vec<usize> = vec![1];
    ps.extend(strides.iter().map(|s| 1 + s % (n - 1)));
    ps.sort_unstable();
    ps.dedup();
    let mut g = topologies::from_permutations(n, &ps, 25.0e9);
    for &(a, b) in chords {
        let (a, b) = (a % n, b % n);
        if a != b {
            g.add_edge(a, b, 25.0e9);
        }
    }
    g
}

/// Walk the rule chain for one pair via the shared [`ForwardingPlan::walk`]
/// oracle (also used by the reconfiguration planner's hard policies);
/// returns the node path taken after checking the per-hop rule invariants.
fn walk_chain(plan: &ForwardingPlan, n: usize, src: usize, dst: usize) -> Vec<usize> {
    let path = match plan.walk(src, dst) {
        WalkOutcome::Delivered(path) => path,
        WalkOutcome::Blackhole(path) => {
            panic!(
                "rule chain {src}->{dst} blackholes: no rule on {} ({path:?})",
                path[path.len() - 1]
            )
        }
        WalkOutcome::Loop(path) => panic!("rule chain {src}->{dst} loops: {path:?}"),
    };
    assert!(path.len() <= n + 1, "rule chain {src}->{dst} runs away: {path:?}");
    for hop in path.windows(2) {
        let rule = plan.rule_towards(hop[0], dst).expect("walked hop must have a rule");
        assert_eq!(rule.on_server, hop[0]);
        assert_eq!(rule.next_hop, hop[1]);
        // Terminal hops address the destination's RDMA partition; every
        // other hop addresses the next relay's forwarding partition.
        if rule.next_hop == dst {
            assert_eq!(rule.next_hop_partition, NparPartition::Rdma);
        } else {
            assert_eq!(rule.next_hop_partition, NparPartition::Forwarding);
        }
    }
    path
}

fn assert_plan_delivers(graph: &Graph, n: usize, plan: &ForwardingPlan) {
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            assert!(plan.has_connection(src, dst), "missing connection {src}->{dst}");
            let path = walk_chain(plan, n, src, dst);
            // Every hop of the walk is a physical edge.
            for w in path.windows(2) {
                assert!(graph.has_edge(w[0], w[1]), "rule uses missing edge {}->{}", w[0], w[1]);
            }
            // The plan's relay count matches the walked path: intermediate
            // servers only.
            assert_eq!(
                plan.relay_count(src, dst),
                Some(path.len() - 2),
                "relay count of {src}->{dst} disagrees with walked path {path:?}"
            );
        }
    }
    // Dedupe invariant: at most one rule per (server, final_dst).
    for server in 0..n {
        let mut dsts: Vec<usize> = plan.rules_on(server).iter().map(|r| r.final_dst).collect();
        let before = dsts.len();
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts.len(), before, "duplicate destination rules on server {server}");
    }
}

proptest! {
    // Random connected fabrics: a +1 ring (connectivity) plus random ring
    // permutations and random chords, under shortest-path routing.
    #[test]
    fn rule_chains_deliver_on_random_connected_fabrics(
        n in 3usize..12,
        strides in proptest::collection::vec(2usize..11, 0usize..3),
        chords in proptest::collection::vec((0usize..64, 0usize..64), 0usize..10),
    ) {
        let g = fabric(n, &strides, &chords);
        let plan = build_forwarding_plan(&g, n, &Routing::new());
        assert_plan_delivers(&g, n, &plan);
        // Shortest-path routing: conflicts are benign (equal-length
        // alternatives), so every walk is as short as the routing's path.
        for ((src, dst), &relays) in &plan.relays {
            let hops = topoopt_graph::paths::bfs_shortest_path(&g, *src, *dst)
                .expect("connected fabric")
                .len() - 1;
            prop_assert_eq!(relays, hops - 1);
        }
    }

    // TopologyFinder-flavoured routing: explicit multi-hop rules (coin-change
    // style suffix-consistent decompositions are the common case, but the
    // walk must hold for arbitrary explicit rules too).
    #[test]
    fn rule_chains_deliver_under_explicit_routing(
        n in 4usize..10,
        detours in proptest::collection::vec((0usize..64, 1usize..5), 0usize..8),
    ) {
        let g = topologies::from_permutations(n, &[1], 25.0e9);
        // Explicit +1-ring walks of random length, the rest shortest-path.
        let mut routing = Routing::new();
        for (start, len) in detours {
            let src = start % n;
            let len = len.min(n - 1);
            let dst = (src + len) % n;
            if src == dst {
                continue;
            }
            let path: Vec<usize> = (0..=len).map(|k| (src + k) % n).collect();
            routing.insert(src, dst, path);
        }
        let plan = build_forwarding_plan(&g, n, &routing);
        assert_plan_delivers(&g, n, &plan);
    }

    // Kill 1-3 random links and repair at a random granularity. No rule
    // may point over a dead link, and every pair either delivers with its
    // relay count equal to its walk, or is a typed degraded record absent
    // from the relay table. A per-destination repair resyncs whole
    // destination chains, so it never loops and keeps exactly the pairs
    // the degraded fabric still connects.
    #[test]
    fn repair_delivers_every_pair_the_degraded_fabric_still_connects(
        n in 3usize..12,
        strides in proptest::collection::vec(2usize..11, 0usize..3),
        chords in proptest::collection::vec((0usize..64, 0usize..64), 0usize..10),
        kills in proptest::collection::vec(0usize..256, 1usize..4),
        per_destination in proptest::bool::ANY,
    ) {
        let g = fabric(n, &strides, &chords);
        let mut plan = build_forwarding_plan(&g, n, &Routing::new());
        let connected: Vec<(usize, usize)> = plan.relays.keys().copied().collect();
        let live: Vec<usize> = g.edges().map(|(id, _)| id).collect();
        let mut degraded = g.clone();
        for k in kills {
            degraded.remove_edge(live[k % live.len()]);
        }
        let mode = if per_destination { RepairMode::PerDestination } else { RepairMode::PerRule };
        let report = plan.repair(&degraded, mode);
        for r in plan.rules.values().flatten() {
            prop_assert!(
                degraded.has_edge(r.on_server, r.next_hop),
                "rule ({}, {}) points over dead link {}->{}",
                r.on_server, r.final_dst, r.on_server, r.next_hop
            );
        }
        for &(src, dst) in &connected {
            let walk = plan.walk(src, dst);
            match &walk {
                WalkOutcome::Delivered(path) => prop_assert_eq!(
                    plan.relay_count(src, dst),
                    Some(path.len() - 2),
                    "relay count of {}->{} disagrees with walk {:?}", src, dst, path
                ),
                WalkOutcome::Blackhole(_) | WalkOutcome::Loop(_) => {
                    prop_assert!(!plan.has_connection(src, dst), "{}->{} priced: {:?}", src, dst, walk);
                    prop_assert!(
                        report.degraded.iter().any(|d| (d.src, d.dst) == (src, dst)),
                        "{}->{} broke without a degraded record: {:?}", src, dst, walk
                    );
                }
            }
            if mode == RepairMode::PerDestination {
                prop_assert!(!matches!(walk, WalkOutcome::Loop(_)), "{}->{} loops: {:?}", src, dst, walk);
                let reachable = bfs_distances(&degraded, src)[dst] != usize::MAX;
                prop_assert_eq!(
                    plan.has_connection(src, dst),
                    reachable,
                    "{}->{}: connection disagrees with the degraded fabric ({:?})", src, dst, walk
                );
            }
        }
    }
}
