//! Safe patch-panel reconfiguration planning.
//!
//! The dynamic-cluster layer historically *teleported* the fabric:
//! between jobs the whole topology swapped atomically after an opaque
//! switch-over delay. A real OCS/patch-panel migration is a sequence of
//! per-link unplug/replug steps, and between steps the destination-keyed
//! forwarding rules of the rdma crate can transiently loop or blackhole
//! traffic. This crate sequences those steps safely — Snowcap's network
//! reconfiguration synthesis transplanted to optical training fabrics —
//! around three swappable traits:
//!
//! * [`Strategy`] searches orderings of the link operations:
//!   [`NaiveOrdered`], [`RandomPermutation`], and
//!   [`TreeSearch`] (DFS with backtracking).
//! * [`HardPolicy`] is the per-state validity oracle: [`LoopFreedom`]
//!   (no rule chain cycles, checked with [`ForwardingPlan::walk`]) and
//!   [`PairReachability`] (job-critical pairs stay deliverable).
//! * [`SoftPolicy`] scores valid states: [`MinimizeSteps`] and the
//!   fluid-engine [`ThroughputDip`].
//!
//! Both policy kinds judge a [`FabricState`]'s own rule table, an rdma
//! [`ForwardingPlan`] repaired after each link operation with the plan's
//! own routines, per destination ([`RepairMode::PerDestination`]).
//!
//! [`MigrationPlanner`] composes the three. When no valid ordering exists
//! (or the search budget runs out) it reports an explicit
//! [`MigrationFallback`] naming the violated policy, and the caller falls
//! back to the atomic swap.
//!
//! ```rust
//! use topoopt_graph::topologies;
//! use topoopt_migration::{MigrationPlanner, MigrationProblem, TreeSearch};
//!
//! let source = topologies::from_permutations(8, &[1, 3], 25.0e9);
//! let target = topologies::from_permutations(8, &[2, 5], 25.0e9);
//! let planner = MigrationPlanner::new(Box::new(TreeSearch));
//! let plan = planner.plan(&MigrationProblem::new(source, target)).unwrap();
//! assert!(plan.link_ops() > 0);
//! ```
//!
//! [`ForwardingPlan`]: topoopt_rdma::ForwardingPlan
//! [`ForwardingPlan::walk`]: topoopt_rdma::ForwardingPlan::walk
//! [`RepairMode::PerDestination`]: topoopt_rdma::RepairMode::PerDestination

pub mod planner;
pub mod policies;
pub mod state;
pub mod strategies;

pub use planner::{
    evaluate_order, replay, MigrationFallback, MigrationPlan, MigrationProblem, MigrationStep,
    StepOp,
};
pub use policies::{
    HardPolicy, LoopFreedom, MinimizeSteps, PairReachability, PolicyViolation, SoftPolicy,
    ThroughputDip,
};
pub use state::{diff_ops, link_multiset, FabricState, Link, LinkOp};
pub use strategies::{NaiveOrdered, RandomPermutation, Strategy, TreeSearch};

/// A migration planner: one search strategy, a conjunction of hard
/// policies, and one soft policy ranking valid orderings.
pub struct MigrationPlanner {
    /// The ordering search.
    pub strategy: Box<dyn Strategy>,
    /// Hard policies every intermediate state must satisfy. Defaults to
    /// [`LoopFreedom`] alone.
    pub hard: Vec<Box<dyn HardPolicy>>,
    /// Soft policy scoring valid states. Defaults to [`MinimizeSteps`].
    pub soft: Box<dyn SoftPolicy>,
}

impl MigrationPlanner {
    /// A planner with the given strategy, [`LoopFreedom`] as the hard
    /// policy, and [`MinimizeSteps`] as the soft policy.
    pub fn new(strategy: Box<dyn Strategy>) -> Self {
        MigrationPlanner {
            strategy,
            hard: vec![Box::new(LoopFreedom)],
            soft: Box::new(MinimizeSteps),
        }
    }

    /// Add a hard policy (conjunctive: all must hold at every step).
    pub fn with_hard(mut self, policy: Box<dyn HardPolicy>) -> Self {
        self.hard.push(policy);
        self
    }

    /// Replace the soft policy.
    pub fn with_soft(mut self, policy: Box<dyn SoftPolicy>) -> Self {
        self.soft = policy;
        self
    }

    /// Sequence the migration: a validated plan, or an explicit fallback
    /// naming the hard policy that blocked the search.
    pub fn plan(&self, problem: &MigrationProblem) -> Result<MigrationPlan, MigrationFallback> {
        self.strategy.plan(problem, &self.hard, &*self.soft)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_graph::topologies;

    fn problem(n: usize, src: &[usize], dst: &[usize]) -> MigrationProblem {
        MigrationProblem::new(
            topologies::from_permutations(n, src, 25.0e9),
            topologies::from_permutations(n, dst, 25.0e9),
        )
    }

    fn all_pairs(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).filter(|&(s, d)| s != d).collect()
    }

    #[test]
    fn tree_search_sequences_a_ring_swap() {
        let p = problem(8, &[1, 3], &[2, 5]);
        let planner = MigrationPlanner::new(Box::new(TreeSearch))
            .with_hard(Box::new(PairReachability::new(all_pairs(8))));
        let plan = planner.plan(&p).expect("tree search must sequence the swap");
        assert_eq!(plan.strategy, "tree-search");
        assert_eq!(plan.link_ops(), p.ops().len());
        assert!(matches!(plan.steps.last().unwrap().op, StepOp::InstallTargetRules));
        // Independent replay: every emitted state passes the hard policies.
        for (i, state) in replay(&p, &plan).iter().enumerate() {
            for policy in &planner.hard {
                policy
                    .check(state)
                    .unwrap_or_else(|v| panic!("step {i} violates {}: {}", v.policy, v.detail));
            }
        }
    }

    #[test]
    fn naive_order_disconnects_and_reports_the_policy() {
        // Tearing down every source link before any add disconnects the
        // fabric; with all-pairs reachability the naive order must fail on
        // disjoint ring sets.
        let p = problem(6, &[1], &[2, 3]);
        let planner = MigrationPlanner::new(Box::new(NaiveOrdered))
            .with_hard(Box::new(PairReachability::new(all_pairs(6))));
        let fb = planner.plan(&p).expect_err("removals-first must break reachability");
        assert_eq!(fb.violation.policy, "pair-reachability");
        assert!(fb.states_checked > 0);
    }

    #[test]
    fn random_permutation_is_seed_deterministic() {
        let p = problem(6, &[1], &[1, 2]);
        let planner = |seed| {
            MigrationPlanner::new(Box::new(RandomPermutation::new(16, seed)))
                .with_hard(Box::new(PairReachability::new(all_pairs(6))))
        };
        let a = planner(11).plan(&p);
        let b = planner(11).plan(&p);
        assert_eq!(a, b, "same seed must yield the identical plan");
    }

    #[test]
    fn empty_migration_is_just_the_rule_install() {
        let p = problem(5, &[1, 2], &[1, 2]);
        let plan = MigrationPlanner::new(Box::new(TreeSearch)).plan(&p).unwrap();
        assert_eq!(plan.link_ops(), 0);
        assert_eq!(plan.steps.len(), 1);
    }
}
