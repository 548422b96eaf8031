//! Property tests of the forwarding plan: on any connected fabric, the
//! destination-keyed rule chains must actually deliver every pair's
//! traffic — walk from the source, follow one rule per hop, arrive at the
//! destination's RDMA interface, never loop, and agree with the plan's
//! per-pair relay accounting. After links die, a repaired plan must keep
//! that accounting honest for every pair it still delivers. The dense-slot
//! build, whose walks stop early, is held to a map-keyed walk of every hop
//! of the same rules, kept here as an oracle.

use proptest::prelude::*;
use std::collections::BTreeMap;
use topoopt_core::Routing;
use topoopt_graph::paths::bfs_distances;
use topoopt_graph::{topologies, Graph};
use topoopt_rdma::{
    build_forwarding_plan, ForwardingPlan, ForwardingRule, NparPartition, RepairMode, RuleConflict,
    WalkOutcome,
};

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

/// The forwarding build with its rules under construction in a map keyed
/// `(server, final_dst)`, walked one lookup per hop: the oracle for the
/// dense-slot build.
fn map_walk_plan(graph: &Graph, num_servers: usize, routing: &Routing) -> ForwardingPlan {
    // (server, final_dst) -> (next_hop, installing src).
    let mut next_hop: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
    let mut plan = ForwardingPlan::default();
    for src in 0..num_servers {
        for dst in 0..num_servers {
            if src == dst {
                continue;
            }
            let Some(intended) = routing.path_or_shortest(graph, src, dst) else {
                continue;
            };
            let mut cur = src;
            let mut pos = 0;
            let mut on_intended = true;
            let mut hops = 0usize;
            while cur != dst {
                hops += 1;
                assert!(hops <= graph.num_nodes(), "oracle walk for ({src},{dst}) cycled");
                let nh = match next_hop.get(&(cur, dst)) {
                    Some(&(nh, _)) => {
                        if on_intended && intended[pos + 1] != nh {
                            plan.conflicts.push(RuleConflict {
                                on_server: cur,
                                final_dst: dst,
                                installed_next_hop: nh,
                                demanded_next_hop: intended[pos + 1],
                                demanding_src: src,
                            });
                        }
                        nh
                    }
                    None => {
                        assert!(on_intended, "oracle walk for ({src},{dst}) left its path");
                        let nh = intended[pos + 1];
                        next_hop.insert((cur, dst), (nh, src));
                        nh
                    }
                };
                if on_intended && intended[pos + 1] == nh {
                    pos += 1;
                } else {
                    on_intended = false;
                }
                cur = nh;
            }
            plan.relays.insert((src, dst), hops.saturating_sub(1));
        }
    }
    for (&(server, final_dst), &(nh, installer)) in &next_hop {
        plan.rules
            .entry(server)
            .or_default()
            .push(ForwardingRule::new(server, final_dst, installer, nh));
    }
    plan
}

/// Insert explicit simple routes between servers `0..num_servers`: from
/// each `(src, dst, choices)` a walk that takes the `choices[i]`-th
/// unvisited out-neighbour at step `i` (any node, switches included), kept
/// when it reaches `dst`. Detours through other relays than the shortest
/// path make destination-keyed rules disagree.
fn insert_random_routes(
    routing: &mut Routing,
    g: &Graph,
    num_servers: usize,
    walks: &[(usize, usize, Vec<usize>)],
) {
    for (src, dst, choices) in walks {
        let (src, dst) = (src % num_servers, dst % num_servers);
        let mut path = vec![src];
        for &c in choices {
            let cur = path[path.len() - 1];
            if cur == dst {
                break;
            }
            let next: Vec<usize> = g.out_neighbors(cur).filter(|v| !path.contains(v)).collect();
            if next.is_empty() {
                break;
            }
            path.push(if next.contains(&dst) && c % 3 == 0 { dst } else { next[c % next.len()] });
        }
        if src != dst && path.last() == Some(&dst) {
            routing.insert(src, dst, path);
        }
    }
}

/// A ring group over servers `0..n` from `(keys, k, strides)`: its members
/// are `1 + (k − 1) mod n` servers in the order of their random keys, and
/// `g` gains every ring edge its strides use.
fn ring_group(
    g: &mut Graph,
    n: usize,
    (keys, k, strides): &(Vec<usize>, usize, Vec<usize>),
) -> (Vec<usize>, Vec<usize>) {
    let k = 1 + (k - 1) % n;
    let mut members: Vec<usize> = (0..n).collect();
    members.sort_by_key(|&v| (keys[v], v));
    members.truncate(k);
    for &stride in strides {
        for i in 0..k {
            let (a, b) = (members[i], members[(i + stride) % k]);
            if a != b && !g.has_edge(a, b) {
                g.add_edge(a, b, 25.0e9);
            }
        }
    }
    (members, strides.clone())
}

/// Up to 23 `(src, dst, choices)` walks for [`insert_random_routes`].
fn walks() -> impl Strategy<Value = Vec<(usize, usize, Vec<usize>)>> {
    proptest::collection::vec(
        (0usize..64, 0usize..64, proptest::collection::vec(0usize..64, 1usize..8)),
        0usize..24,
    )
}

/// A ring group for [`ring_group`]: per-server ring-order keys, a size
/// (2 included) and up to three strides below 24, which may repeat or be
/// multiples of the size.
fn group() -> impl Strategy<Value = (Vec<usize>, usize, Vec<usize>)> {
    (
        proptest::collection::vec(0usize..1000, 12usize),
        1usize..13,
        proptest::collection::vec(0usize..24, 0usize..4),
    )
}

proptest! {
    // The dense-slot build returns exactly the map walk's plan: rules,
    // relays and conflicts, under shortest-path routing, under explicit
    // detours that conflict, and under ring groups, whose walks stop at the
    // first slot tagged with their own group. Each case draws several
    // ring routings on one fabric: overlapping groups in random member
    // orders, with explicit detours installed before them (a group drops
    // those it reaches) and after them (they override the group's routes
    // and conflict with its rules).
    #[test]
    fn dense_build_matches_the_map_walk(
        n in 3usize..12,
        strides in proptest::collection::vec(2usize..11, 0usize..3),
        chords in proptest::collection::vec((0usize..64, 0usize..64), 0usize..10),
        detours in walks(),
        rings in proptest::collection::vec(
            (proptest::collection::vec(group(), 1usize..4), walks(), walks()),
            6usize..10,
        ),
    ) {
        let g = fabric(n, &strides, &chords);
        let shortest = Routing::new();
        prop_assert_eq!(build_forwarding_plan(&g, n, &shortest), map_walk_plan(&g, n, &shortest));
        let mut routing = Routing::new();
        insert_random_routes(&mut routing, &g, n, &detours);
        prop_assert_eq!(build_forwarding_plan(&g, n, &routing), map_walk_plan(&g, n, &routing));
        for (groups, before, after) in &rings {
            let mut g = g.clone();
            let groups: Vec<_> = groups.iter().map(|group| ring_group(&mut g, n, group)).collect();
            let mut routing = Routing::new();
            insert_random_routes(&mut routing, &g, n, before);
            for (members, strides) in &groups {
                routing.insert_ring(members, strides);
            }
            insert_random_routes(&mut routing, &g, n, after);
            let plan = build_forwarding_plan(&g, n, &routing);
            prop_assert_eq!(&plan, &map_walk_plan(&g, n, &routing));
            assert_plan_delivers(&g, n, &plan);
        }
    }

    // Switch nodes (ids >= num_servers) relay too, so each destination's
    // row has a slot per graph node: an ideal switch plus random server
    // chords.
    #[test]
    fn dense_build_matches_the_map_walk_through_switches(
        n in 2usize..10,
        chords in proptest::collection::vec((0usize..64, 0usize..64), 0usize..10),
        walks in walks(),
    ) {
        let mut g = topologies::ideal_switch(n, 100.0e9);
        for &(a, b) in &chords {
            let (a, b) = (a % n, b % n);
            if a != b {
                g.add_edge(a, b, 25.0e9);
            }
        }
        prop_assert!(g.num_nodes() > n);
        let shortest = Routing::new();
        prop_assert_eq!(build_forwarding_plan(&g, n, &shortest), map_walk_plan(&g, n, &shortest));
        let mut routing = Routing::new();
        insert_random_routes(&mut routing, &g, n, &walks);
        prop_assert_eq!(build_forwarding_plan(&g, n, &routing), map_walk_plan(&g, n, &routing));
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
