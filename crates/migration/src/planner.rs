//! The migration problem, plans, and the shared order evaluator.

use crate::policies::{HardPolicy, PolicyViolation, SoftPolicy};
use crate::state::{diff_ops, link_multiset, FabricState, Link, LinkOp};
use serde::{Deserialize, Serialize};
use topoopt_graph::Graph;

/// A source-to-target patch-panel migration to sequence. Both fabrics
/// span the same servers (their node counts); each end installs
/// shortest-path forwarding rules.
#[derive(Debug, Clone)]
pub struct MigrationProblem {
    /// The fabric being torn down.
    pub source: Graph,
    /// The fabric being built up.
    pub target: Graph,
}

impl MigrationProblem {
    /// The migration from `source` to `target`.
    pub fn new(source: Graph, target: Graph) -> Self {
        debug_assert_eq!(source.num_nodes(), target.num_nodes(), "one set of servers rewires");
        MigrationProblem { source, target }
    }

    /// The unordered link operations of the migration (source/target
    /// multiset difference) in the canonical removals-then-additions order.
    pub fn ops(&self) -> Vec<LinkOp> {
        diff_ops(&self.source, &self.target)
    }
}

/// One emitted migration step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StepOp {
    /// Unplug one link (rules towards every destination it broke are
    /// resynced).
    RemoveLink(Link),
    /// Plug one link (rules are filled for newly reachable pairs).
    AddLink(Link),
    /// Install the target fabric's full forwarding plan — always the final
    /// step, once the link multiset equals the target's.
    InstallTargetRules,
}

impl From<LinkOp> for StepOp {
    fn from(op: LinkOp) -> Self {
        match op {
            LinkOp::Remove(l) => StepOp::RemoveLink(l),
            LinkOp::Add(l) => StepOp::AddLink(l),
        }
    }
}

/// One step of a migration plan with the soft-policy cost of the fabric
/// state it leaves behind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationStep {
    /// The operation.
    pub op: StepOp,
    /// Soft-policy cost of the state after this step.
    pub cost: f64,
}

/// A validated migration plan: every state after every step satisfies all
/// hard policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// Name of the strategy that found the ordering.
    pub strategy: String,
    /// The ordered steps (link operations plus the final rule install).
    pub steps: Vec<MigrationStep>,
    /// Peak soft-policy cost over all intermediate states.
    pub peak_cost: f64,
    /// Mean soft-policy cost over all intermediate states.
    pub mean_cost: f64,
    /// Number of intermediate states validated against the hard policies
    /// while searching (including rejected candidates).
    pub states_checked: usize,
}

impl MigrationPlan {
    /// Number of link operations (excluding the final rule install).
    pub fn link_ops(&self) -> usize {
        self.steps.iter().filter(|s| !matches!(s.op, StepOp::InstallTargetRules)).count()
    }
}

/// The planner could not sequence the migration safely: fall back to the
/// atomic swap, reporting the hard policy that blocked the search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationFallback {
    /// The violation that blocked the deepest search state (for exhausted
    /// budgets, the policy is `search-budget` and the detail names the
    /// deepest real violation).
    pub violation: PolicyViolation,
    /// Number of intermediate states validated before giving up.
    pub states_checked: usize,
}

/// Run every hard policy on one state.
pub(crate) fn check_state(
    state: &FabricState,
    hard: &[Box<dyn HardPolicy>],
) -> Result<(), PolicyViolation> {
    hard.iter().try_for_each(|policy| policy.check(state))
}

/// Evaluate one complete ordering of the problem's link operations: apply
/// each op, validate every resulting state against the hard policies, score
/// it with the soft policy, and finish with the target rule install. On
/// violation returns the violation and how many states were checked first.
pub fn evaluate_order(
    problem: &MigrationProblem,
    order: &[LinkOp],
    hard: &[Box<dyn HardPolicy>],
    soft: &dyn SoftPolicy,
) -> Result<MigrationPlan, (PolicyViolation, usize)> {
    let mut state = FabricState::new(&problem.source);
    let mut checked = 0usize;
    checked += 1;
    if let Err(v) = check_state(&state, hard) {
        return Err((
            PolicyViolation::new(&v.policy, format!("source state invalid: {}", v.detail)),
            checked,
        ));
    }
    let mut steps = Vec::with_capacity(order.len() + 1);
    for (idx, op) in order.iter().enumerate() {
        state.apply(*op);
        checked += 1;
        match check_state(&state, hard) {
            Ok(()) => steps.push(MigrationStep { op: (*op).into(), cost: soft.state_cost(&state) }),
            Err(v) => {
                return Err((
                    PolicyViolation::new(&v.policy, format!("after step {idx}: {}", v.detail)),
                    checked,
                ))
            }
        }
    }
    debug_assert_eq!(
        link_multiset(state.graph()),
        link_multiset(&problem.target),
        "a complete ordering must land on the target link multiset"
    );
    state.sync();
    checked += 1;
    match check_state(&state, hard) {
        Ok(()) => steps
            .push(MigrationStep { op: StepOp::InstallTargetRules, cost: soft.state_cost(&state) }),
        Err(v) => {
            return Err((
                PolicyViolation::new(&v.policy, format!("target state invalid: {}", v.detail)),
                checked,
            ))
        }
    }
    let peak = steps.iter().map(|s| s.cost).fold(0.0f64, f64::max);
    let mean = steps.iter().map(|s| s.cost).sum::<f64>() / steps.len().max(1) as f64;
    Ok(MigrationPlan {
        strategy: String::new(),
        steps,
        peak_cost: peak,
        mean_cost: mean,
        states_checked: checked,
    })
}

/// Re-execute a plan's steps and return the fabric state after each one —
/// the independent verification hook the property tests use (the states
/// come from [`FabricState`] semantics, not from the search).
pub fn replay(problem: &MigrationProblem, plan: &MigrationPlan) -> Vec<FabricState> {
    let mut state = FabricState::new(&problem.source);
    let mut states = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        match &step.op {
            StepOp::RemoveLink(l) => state.apply(LinkOp::Remove(*l)),
            StepOp::AddLink(l) => state.apply(LinkOp::Add(*l)),
            StepOp::InstallTargetRules => state.sync(),
        }
        states.push(state.clone());
    }
    states
}
