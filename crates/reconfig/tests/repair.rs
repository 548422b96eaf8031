//! Property tests of planner-driven fault repair: on random connected
//! fabrics, kill EVERY live link in turn and demand that the
//! per-destination repair plans — and that each replayed intermediate
//! state keeps every surviving pair deliverable over live links with no
//! rule chain looping anywhere. Verified by independently replaying the
//! steps and walking the materialized rules, not by trusting the search.

use proptest::prelude::*;
use topoopt_graph::{topologies, Graph};
use topoopt_rdma::{RepairMode, WalkOutcome};
use topoopt_reconfig::{
    plan_link_repair, repair_problem, replay, surviving_pairs, FabricSpec, Link, TreeSearch,
};

/// A random strongly connected fabric: a +1 ring for connectivity plus
/// random ring permutations and chords.
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

proptest! {
    // Satellite property: planner-driven repairs keep every surviving
    // pair reachable and loop-free under ANY single link failure. A
    // per-destination controller resyncs whole destination chains, so a
    // one-link casualty always admits a safe schedule — a fallback here
    // is a bug, not an unlucky fabric.
    #[test]
    fn any_single_link_failure_repairs_safely(
        n in 4usize..8,
        strides in proptest::collection::vec(0usize..16, 0usize..2),
        chords in proptest::collection::vec((0usize..64, 0usize..64), 0usize..4),
    ) {
        let healthy = FabricSpec::shortest_path(fabric(n, &strides, &chords));
        let casualties: Vec<Link> = healthy
            .graph
            .edges()
            .map(|(_, e)| Link { src: e.src, dst: e.dst, capacity_bps: e.capacity_bps })
            .collect();
        for &casualty in &casualties {
            let dead = [casualty];
            let problem = repair_problem(&healthy, &dead, n, RepairMode::PerDestination);
            let survivors = surviving_pairs(&problem.target.graph, n);
            let plan = plan_link_repair(
                Box::new(TreeSearch::default()),
                &healthy,
                &dead,
                n,
                RepairMode::PerDestination,
            )
            .unwrap_or_else(|fb| {
                panic!(
                    "per-destination repair of single dead link {}->{} must plan: {:?}",
                    casualty.src, casualty.dst, fb.violation
                )
            });
            for (i, state) in replay(&problem, &plan).iter().enumerate() {
                let fp = state.plan();
                for s in 0..n {
                    for d in 0..n {
                        if s == d {
                            continue;
                        }
                        match fp.walk(s, d) {
                            WalkOutcome::Loop(path) => panic!(
                                "step {i} (dead {}->{}): chain {s}->{d} loops {path:?}",
                                casualty.src, casualty.dst
                            ),
                            WalkOutcome::Delivered(path) => {
                                for hop in path.windows(2) {
                                    prop_assert!(
                                        state.graph().has_edge(hop[0], hop[1]),
                                        "step {i}: chain {s}->{d} crosses dead link {}->{}",
                                        hop[0],
                                        hop[1]
                                    );
                                }
                            }
                            // Only pairs the fault physically severed may
                            // blackhole; survivors must stay deliverable.
                            WalkOutcome::Blackhole(path) => prop_assert!(
                                !survivors.contains(&(s, d)),
                                "step {i} (dead {}->{}): surviving pair {s}->{d} blackholes at {}",
                                casualty.src,
                                casualty.dst,
                                path[path.len() - 1]
                            ),
                        }
                    }
                }
            }
        }
    }
}
