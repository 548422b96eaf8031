//! Search strategies over migration-step orderings (Snowcap-style).
//!
//! A [`Strategy`] searches the permutation space of the problem's link
//! operations for an ordering whose every intermediate state passes the
//! hard policies. Three are provided, in increasing sophistication:
//!
//! * [`NaiveOrdered`] — the canonical removals-then-additions order,
//!   unmodified. Fails on most real migrations (tearing the source down
//!   first disconnects job-critical pairs) but is the honest baseline.
//! * [`RandomPermutation`] — sample N seeded random orderings, keep the
//!   valid one with the lowest (peak, mean) soft cost. Attempts are
//!   evaluated with rayon and merged order-stably, so the result is
//!   deterministic for a given seed regardless of thread count.
//! * [`TreeSearch`] — depth-first search with backtracking: grow the
//!   ordering one validated step at a time (additions preferred, so the
//!   target is built before the source is torn down), backtrack when every
//!   remaining operation violates a hard policy, and give up only when the
//!   state budget is exhausted.

use crate::planner::{
    check_state, evaluate_order, MigrationFallback, MigrationPlan, MigrationProblem,
};
use crate::policies::{HardPolicy, PolicyViolation, SoftPolicy};
use crate::state::{FabricState, LinkOp};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// A search strategy over migration-step orderings.
pub trait Strategy: Send + Sync {
    /// Stable strategy name, recorded on emitted plans.
    fn name(&self) -> &'static str;
    /// Search for a valid ordering of the problem's link operations.
    fn plan(
        &self,
        problem: &MigrationProblem,
        hard: &[Box<dyn HardPolicy>],
        soft: &dyn SoftPolicy,
    ) -> Result<MigrationPlan, MigrationFallback>;
}

/// The canonical removals-then-additions order, evaluated as-is.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveOrdered;

impl Strategy for NaiveOrdered {
    fn name(&self) -> &'static str {
        "naive-ordered"
    }

    fn plan(
        &self,
        problem: &MigrationProblem,
        hard: &[Box<dyn HardPolicy>],
        soft: &dyn SoftPolicy,
    ) -> Result<MigrationPlan, MigrationFallback> {
        match evaluate_order(problem, &problem.ops(), hard, soft) {
            Ok(mut plan) => {
                plan.strategy = self.name().to_string();
                Ok(plan)
            }
            Err((violation, states_checked)) => {
                Err(MigrationFallback { violation, states_checked })
            }
        }
    }
}

/// Sample seeded random orderings; keep the best valid one by
/// `(peak_cost, mean_cost)`.
#[derive(Debug, Clone, Copy)]
pub struct RandomPermutation {
    /// Number of orderings to sample.
    pub attempts: usize,
    /// RNG seed; the same seed always yields the same plan.
    pub seed: u64,
}

impl RandomPermutation {
    /// Sample `attempts` orderings from the given seed.
    pub fn new(attempts: usize, seed: u64) -> Self {
        RandomPermutation { attempts, seed }
    }
}

impl Strategy for RandomPermutation {
    fn name(&self) -> &'static str {
        "random-permutation"
    }

    fn plan(
        &self,
        problem: &MigrationProblem,
        hard: &[Box<dyn HardPolicy>],
        soft: &dyn SoftPolicy,
    ) -> Result<MigrationPlan, MigrationFallback> {
        let base = problem.ops();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let orders: Vec<Vec<LinkOp>> = (0..self.attempts.max(1))
            .map(|_| {
                let mut order = base.clone();
                order.shuffle(&mut rng);
                order
            })
            .collect();
        // Evaluate attempts in parallel; the collect is order-stable, so
        // the arg-min below is deterministic under any thread count.
        let evals: Vec<Result<MigrationPlan, (PolicyViolation, usize)>> =
            orders.par_iter().map(|o| evaluate_order(problem, o, hard, soft)).collect();
        let states_checked: usize = evals
            .iter()
            .map(|e| match e {
                Ok(p) => p.states_checked,
                Err((_, c)) => *c,
            })
            .sum();
        let mut best: Option<MigrationPlan> = None;
        let mut deepest: Option<(usize, PolicyViolation)> = None;
        for eval in evals {
            match eval {
                Ok(plan) => {
                    let better = match &best {
                        None => true,
                        Some(b) => (plan.peak_cost, plan.mean_cost) < (b.peak_cost, b.mean_cost),
                    };
                    if better {
                        best = Some(plan);
                    }
                }
                Err((violation, depth)) => {
                    if deepest.as_ref().is_none_or(|(d, _)| depth > *d) {
                        deepest = Some((depth, violation));
                    }
                }
            }
        }
        match best {
            Some(mut plan) => {
                plan.strategy = self.name().to_string();
                plan.states_checked = states_checked;
                Ok(plan)
            }
            None => {
                let (_, violation) = deepest.expect("at least one attempt was evaluated");
                Err(MigrationFallback { violation, states_checked })
            }
        }
    }
}

/// Depth-first search with backtracking over step orderings; it falls
/// back to atomic after validating 20,000 intermediate states.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeSearch;

/// The tree search's budget of intermediate states to validate.
const MAX_STATES: usize = 20_000;

struct Dfs<'a> {
    hard: &'a [Box<dyn HardPolicy>],
    ops: Vec<LinkOp>,
    /// Candidate indices in preference order: additions first (build the
    /// target while the source still carries traffic), then removals.
    priority: Vec<usize>,
    taken: Vec<bool>,
    order: Vec<LinkOp>,
    checked: usize,
    exhausted: bool,
    deepest: Option<(usize, PolicyViolation)>,
}

impl Dfs<'_> {
    fn record(&mut self, violation: PolicyViolation) {
        let depth = self.order.len();
        if self.deepest.as_ref().is_none_or(|(d, _)| depth >= *d) {
            self.deepest = Some((depth, violation));
        }
    }

    fn search(&mut self, state: &FabricState) -> bool {
        if self.order.len() == self.ops.len() {
            return true;
        }
        for pi in 0..self.priority.len() {
            let i = self.priority[pi];
            if self.taken[i] {
                continue;
            }
            if self.checked >= MAX_STATES {
                self.exhausted = true;
                return false;
            }
            let op = self.ops[i];
            let mut next = state.clone();
            next.apply(op);
            self.checked += 1;
            match check_state(&next, self.hard) {
                Ok(()) => {
                    self.taken[i] = true;
                    self.order.push(op);
                    if self.search(&next) {
                        return true;
                    }
                    self.order.pop();
                    self.taken[i] = false;
                }
                Err(v) => self.record(v),
            }
        }
        false
    }
}

impl Strategy for TreeSearch {
    fn name(&self) -> &'static str {
        "tree-search"
    }

    fn plan(
        &self,
        problem: &MigrationProblem,
        hard: &[Box<dyn HardPolicy>],
        soft: &dyn SoftPolicy,
    ) -> Result<MigrationPlan, MigrationFallback> {
        let ops = problem.ops();
        let mut priority: Vec<usize> =
            (0..ops.len()).filter(|&i| matches!(ops[i], LinkOp::Add(_))).collect();
        priority.extend((0..ops.len()).filter(|&i| matches!(ops[i], LinkOp::Remove(_))));
        let start = FabricState::new(&problem.source);
        let mut dfs = Dfs {
            hard,
            taken: vec![false; ops.len()],
            priority,
            ops,
            order: Vec::new(),
            checked: 1,
            exhausted: false,
            deepest: None,
        };
        if let Err(v) = check_state(&start, hard) {
            return Err(MigrationFallback {
                violation: PolicyViolation::new(
                    &v.policy,
                    format!("source state invalid: {}", v.detail),
                ),
                states_checked: 1,
            });
        }
        if dfs.search(&start) {
            let order = dfs.order.clone();
            match evaluate_order(problem, &order, hard, soft) {
                Ok(mut plan) => {
                    plan.strategy = self.name().to_string();
                    plan.states_checked += dfs.checked;
                    Ok(plan)
                }
                // Only reachable when the *final* target state violates a
                // policy (the DFS validated every step it took).
                Err((violation, states)) => {
                    Err(MigrationFallback { violation, states_checked: dfs.checked + states })
                }
            }
        } else {
            let violation = match (&dfs.deepest, dfs.exhausted) {
                (Some((depth, v)), true) => PolicyViolation::new(
                    "search-budget",
                    format!(
                        "exhausted {} states; deepest violation at depth {depth}: [{}] {}",
                        dfs.checked, v.policy, v.detail
                    ),
                ),
                (Some((depth, v)), false) => PolicyViolation::new(
                    &v.policy,
                    format!("no valid ordering; deepest violation at depth {depth}: {}", v.detail),
                ),
                (None, _) => PolicyViolation::new(
                    "search-budget",
                    format!("exhausted {} states before any violation", dfs.checked),
                ),
            };
            Err(MigrationFallback { violation, states_checked: dfs.checked })
        }
    }
}
