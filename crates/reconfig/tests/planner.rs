//! Property tests of the migration planner: on random connected
//! source/target fabric pairs, every intermediate fabric a plan emits must
//! be loop-free and keep the demand pairs reachable — verified by
//! independently replaying the steps through [`FabricState`] and walking
//! the materialized rules with the shared rdma oracle, not by trusting the
//! search. Plus determinism: the same seed always yields the same plan
//! (random-permutation attempts are evaluated with rayon and merged
//! order-stably, so thread count cannot change the result).

use proptest::prelude::*;
use topoopt_graph::{topologies, Graph};
use topoopt_rdma::{RepairMode, WalkOutcome};
use topoopt_reconfig::{
    replay, FabricSpec, LoopFreedom, MigrationPlanner, MigrationProblem, PairReachability,
    RandomPermutation, StepOp, TreeSearch,
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

fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).filter(|&(s, d)| s != d).collect()
}

/// Replay the plan and assert every emitted state passes loop-freedom and
/// reachability of `pairs`, with every delivered walk crossing live links.
fn assert_states_safe(problem: &MigrationProblem, plan: &topoopt_reconfig::MigrationPlan) {
    let pairs = all_pairs(problem.num_servers);
    let states = replay(problem, plan);
    assert_eq!(states.len(), plan.steps.len());
    for (i, state) in states.iter().enumerate() {
        let fp = state.plan();
        for &(s, d) in &pairs {
            match fp.walk(s, d) {
                WalkOutcome::Loop(path) => {
                    panic!("step {i}: chain {s}->{d} loops {path:?} (op {:?})", plan.steps[i].op)
                }
                WalkOutcome::Delivered(path) => {
                    for hop in path.windows(2) {
                        assert!(
                            state.graph().has_edge(hop[0], hop[1]),
                            "step {i}: chain {s}->{d} crosses unplugged link {}->{}",
                            hop[0],
                            hop[1]
                        );
                    }
                }
                WalkOutcome::Blackhole(path) => {
                    panic!("step {i}: pair {s}->{d} blackholes at {}", path[path.len() - 1])
                }
            }
        }
    }
    // The last state is the target fabric with its own rules installed.
    assert!(matches!(plan.steps.last().unwrap().op, StepOp::InstallTargetRules));
}

fn planner_with_reachability(
    n: usize,
    strategy: Box<dyn topoopt_reconfig::Strategy>,
) -> MigrationPlanner {
    MigrationPlanner::new(strategy).with_hard(Box::new(PairReachability::new(all_pairs(n))))
}

proptest! {
    // Per-destination repair: tree search must
    // sequence EVERY random connected pair safely (additions-first keeps
    // the source intact while the target builds up), and each emitted
    // intermediate state must hold up under independent replay.
    #[test]
    fn tree_search_keeps_every_intermediate_state_safe(
        n in 4usize..9,
        src_strides in proptest::collection::vec(0usize..16, 0usize..2),
        dst_strides in proptest::collection::vec(0usize..16, 0usize..2),
        chords in proptest::collection::vec((0usize..64, 0usize..64), 0usize..6),
    ) {
        let source = FabricSpec::shortest_path(fabric(n, &src_strides, &[]));
        let target = FabricSpec::shortest_path(fabric(n, &dst_strides, &chords));
        let problem = MigrationProblem::new(n, source, target);
        let planner = planner_with_reachability(n, Box::new(TreeSearch::default()));
        let plan = planner.plan(&problem).unwrap_or_else(|fb| {
            panic!("tree search must sequence an uncapped migration: {:?}", fb.violation)
        });
        prop_assert_eq!(plan.link_ops(), problem.ops().len());
        assert_states_safe(&problem, &plan);
    }

    // Minimal-touch (per-rule) repair can make orderings transiently loop;
    // the planner must then either find a safe ordering (verified by
    // replay) or fall back naming the violated policy.
    #[test]
    fn per_rule_repair_plans_are_safe_or_fallback_names_the_policy(
        n in 4usize..8,
        src_strides in proptest::collection::vec(0usize..16, 0usize..2),
        dst_strides in proptest::collection::vec(0usize..16, 0usize..2),
    ) {
        let source = FabricSpec::shortest_path(fabric(n, &src_strides, &[]));
        let target = FabricSpec::shortest_path(fabric(n, &dst_strides, &[]));
        let mut problem = MigrationProblem::new(n, source, target);
        problem.repair = RepairMode::PerRule;
        let planner = planner_with_reachability(n, Box::new(TreeSearch { max_states: 3_000 }));
        match planner.plan(&problem) {
            Ok(plan) => assert_states_safe(&problem, &plan),
            Err(fb) => {
                prop_assert!(
                    ["loop-freedom", "pair-reachability", "search-budget"]
                        .contains(&fb.violation.policy.as_str()),
                    "fallback must name the blocking policy, got {:?}", fb.violation
                );
                prop_assert!(fb.states_checked > 0);
            }
        }
    }

    // Determinism: the same problem and seed yield byte-identical plans,
    // for both the seeded random strategy and the deterministic DFS.
    #[test]
    fn plans_are_deterministic_for_a_seed(
        n in 4usize..8,
        seed in 0u64..1000,
        src_strides in proptest::collection::vec(0usize..16, 0usize..2),
        dst_strides in proptest::collection::vec(0usize..16, 0usize..2),
    ) {
        let source = FabricSpec::shortest_path(fabric(n, &src_strides, &[]));
        let target = FabricSpec::shortest_path(fabric(n, &dst_strides, &[]));
        let problem = MigrationProblem::new(n, source, target);
        let random = |seed| planner_with_reachability(n, Box::new(RandomPermutation::new(8, seed)));
        prop_assert_eq!(random(seed).plan(&problem), random(seed).plan(&problem));
        let tree = || planner_with_reachability(n, Box::new(TreeSearch::default()));
        prop_assert_eq!(tree().plan(&problem), tree().plan(&problem));
    }
}

#[test]
fn planner_defaults_smoke() {
    // The planner's defaults: LoopFreedom only, minimize steps.
    let source = FabricSpec::shortest_path(topologies::from_permutations(6, &[1], 25.0e9));
    let target = FabricSpec::shortest_path(topologies::from_permutations(6, &[1, 2], 25.0e9));
    let problem = MigrationProblem::new(6, source, target);
    let plan = MigrationPlanner::new(Box::new(TreeSearch::default())).plan(&problem).unwrap();
    assert!(plan.link_ops() > 0);
    let _ = LoopFreedom; // the default hard policy, re-exported
}
