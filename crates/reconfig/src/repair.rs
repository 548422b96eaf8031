//! Planner-driven fault repair.
//!
//! When transceivers die, the controller faces a migration it never asked
//! for: the patch panel just lost links, while the servers' destination-keyed
//! forwarding rules still encode the healthy wiring. Repairing is exactly a
//! source-to-target migration — source: the healthy fabric with its installed
//! rules; target: the degraded fabric with freshly synced rules — whose link
//! operations are the dead-link unplugs. Driving it through
//! [`MigrationPlanner`] makes repairs respect the same hard policies as any
//! planned migration: every intermediate rule state stays loop-free
//! ([`LoopFreedom`]), and every pair that survives the fault stays
//! deliverable while chains repoint ([`PairReachability`] over
//! [`surviving_pairs`]). Each unplug repairs the rules with
//! `topoopt_rdma::ForwardingPlan::repair_rules`, the same routine the
//! unplanned `ForwardingPlan::repair` runs before re-walking its pairs.
//! Pairs the fault physically severed are *not* protected — no rule
//! shuffle can resurrect a cut fibre; they surface as `DegradedPair`
//! records when the repaired plan is priced.

use crate::planner::{MigrationFallback, MigrationPlan, MigrationProblem};
use crate::policies::{LoopFreedom, PairReachability};
use crate::state::{FabricSpec, Link};
use crate::strategies::Strategy;
use crate::MigrationPlanner;
use topoopt_graph::paths::bfs_distances;
use topoopt_graph::Graph;
use topoopt_rdma::RepairMode;

/// The fabric left after `dead` links failed: the healthy graph with one
/// live instance of each dead link removed (a dead link that was not live —
/// an overlapping double fault — is ignored).
pub fn degraded_graph(healthy: &Graph, dead: &[Link]) -> Graph {
    let mut g = healthy.clone();
    for l in dead {
        let id = g
            .edges()
            .find(|(_, e)| {
                e.src == l.src
                    && e.dst == l.dst
                    && e.capacity_bps.to_bits() == l.capacity_bps.to_bits()
            })
            .map(|(id, _)| id);
        if let Some(id) = id {
            g.remove_edge(id);
        }
    }
    g
}

/// The ordered pairs still path-connected on a graph — what a repair can
/// and must keep deliverable.
pub fn surviving_pairs(g: &Graph, num_servers: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for src in 0..num_servers {
        let dist = bfs_distances(g, src);
        for (dst, &d) in dist.iter().enumerate().take(num_servers) {
            if src != dst && d != usize::MAX {
                pairs.push((src, dst));
            }
        }
    }
    pairs
}

/// The fault-repair migration problem: tear the dead links out of the
/// healthy fabric, repairing rules at the given granularity along the way.
/// The target's rules follow shortest paths on the degraded graph — the
/// healthy fabric's explicit routing may depend on links that no longer
/// exist.
pub fn repair_problem(
    healthy: &FabricSpec,
    dead: &[Link],
    num_servers: usize,
    repair: RepairMode,
) -> MigrationProblem {
    let mut problem = MigrationProblem::new(
        num_servers,
        healthy.clone(),
        FabricSpec::shortest_path(degraded_graph(&healthy.graph, dead)),
    );
    problem.repair = repair;
    problem
}

/// Sequence a dead-link repair with the default safety policies:
/// [`LoopFreedom`] plus [`PairReachability`] over the pairs surviving on
/// the degraded fabric. Returns the planner's explicit
/// [`MigrationFallback`] when no unplug order keeps every intermediate
/// state safe (the caller then falls back to an atomic resync and prices
/// the outage).
pub fn plan_link_repair(
    strategy: Box<dyn Strategy>,
    healthy: &FabricSpec,
    dead: &[Link],
    num_servers: usize,
    repair: RepairMode,
) -> Result<MigrationPlan, MigrationFallback> {
    let problem = repair_problem(healthy, dead, num_servers, repair);
    let pairs = surviving_pairs(&problem.target.graph, num_servers);
    MigrationPlanner {
        strategy,
        hard: vec![Box::new(LoopFreedom), Box::new(PairReachability::new(pairs))],
        soft: Box::new(crate::policies::MinimizeSteps),
    }
    .plan(&problem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::StepOp;
    use crate::state::LinkOp;
    use crate::strategies::TreeSearch;
    use topoopt_graph::topologies;

    fn bidi_ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_bidi_edge(i, (i + 1) % n, 25.0e9);
        }
        g
    }

    #[test]
    fn repair_problem_ops_are_exactly_the_dead_links() {
        let healthy = FabricSpec::shortest_path(bidi_ring(5));
        let dead = vec![
            Link { src: 0, dst: 1, capacity_bps: 25.0e9 },
            Link { src: 3, dst: 2, capacity_bps: 25.0e9 },
        ];
        let problem = repair_problem(&healthy, &dead, 5, RepairMode::PerDestination);
        let ops = problem.ops();
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|op| matches!(op, LinkOp::Remove(_))));
    }

    #[test]
    fn surviving_pairs_excludes_severed_ones() {
        // Directed 3-ring: losing 0->1 cuts 0 off from everyone (its only
        // egress) and strands 2->1 (whose only path relayed through 0);
        // only the 1->2->0 arc survives.
        let healthy = topologies::from_permutations(3, &[1], 25.0e9);
        let dead = vec![Link { src: 0, dst: 1, capacity_bps: 25.0e9 }];
        let degraded = degraded_graph(&healthy, &dead);
        let pairs = surviving_pairs(&degraded, 3);
        assert_eq!(pairs, vec![(1, 0), (1, 2), (2, 0)]);
    }

    #[test]
    fn per_rule_repair_falls_back_on_loops_per_destination_plans() {
        // Bidirectional 4-ring losing 0->1: under minimal-touch repair the
        // repointed (0,1)->3 meets the stale (3,1)->0 and cycles, so the
        // planner reports the loop instead of emitting an unsafe schedule.
        // The per-destination controller resyncs every rule towards 1 and
        // sequences the same repair cleanly.
        let healthy = FabricSpec::shortest_path(bidi_ring(4));
        let dead = vec![Link { src: 0, dst: 1, capacity_bps: 25.0e9 }];
        let fb = plan_link_repair(
            Box::new(TreeSearch::default()),
            &healthy,
            &dead,
            4,
            RepairMode::PerRule,
        )
        .expect_err("stale/fresh mixture must violate a hard policy");
        assert!(
            fb.violation.policy == "loop-freedom" || fb.violation.policy == "pair-reachability",
            "unexpected violation: {:?}",
            fb.violation
        );
        let plan = plan_link_repair(
            Box::new(TreeSearch::default()),
            &healthy,
            &dead,
            4,
            RepairMode::PerDestination,
        )
        .expect("per-destination repair must sequence a single unplug");
        assert_eq!(plan.link_ops(), 1);
        assert!(matches!(plan.steps.last().unwrap().op, StepOp::InstallTargetRules));
    }
}
