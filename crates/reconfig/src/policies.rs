//! Hard and soft migration policies (Snowcap-style).
//!
//! A [`HardPolicy`] is a per-state validity oracle: every intermediate
//! fabric a migration plan visits must satisfy every hard policy, or the
//! ordering is invalid. A [`SoftPolicy`] scores valid states; the planner
//! ranks valid orderings by their peak (then mean) state cost.
//!
//! Both traits judge the *installed rule table* of a [`FabricState`],
//! materialized as a [`ForwardingPlan`] and walked with the rdma
//! rule-chain walker — the same oracle the forwarding-plan property tests
//! use.

use crate::state::FabricState;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use topoopt_graph::traffic::TrafficMatrix;
use topoopt_netsim::fluid::{simulate_flows, FlowSpec};
use topoopt_rdma::{ForwardingPlan, WalkOutcome};

/// A named hard-policy violation: which policy rejected the state and why.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyViolation {
    /// Name of the violated policy (e.g. `loop-freedom`).
    pub policy: String,
    /// Human-readable detail (the offending pair and walk).
    pub detail: String,
}

impl PolicyViolation {
    /// A violation of the named policy.
    pub fn new(policy: &str, detail: String) -> Self {
        PolicyViolation { policy: policy.to_string(), detail }
    }
}

/// Per-state validity oracle: every intermediate fabric of a migration
/// must pass, or the ordering is invalid.
pub trait HardPolicy: Send + Sync {
    /// Stable policy name, reported on violations and fallbacks.
    fn name(&self) -> &'static str;
    /// Judge one mid-migration state (`plan` is `state`'s materialized
    /// rule table, shared across policies to avoid rebuilding it).
    fn check(&self, state: &FabricState, plan: &ForwardingPlan) -> Result<(), PolicyViolation>;
}

/// No rule chain may cycle: a loop forwards packets forever, melting the
/// involved links even when the looping pair carries no demand.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopFreedom;

impl HardPolicy for LoopFreedom {
    fn name(&self) -> &'static str {
        "loop-freedom"
    }

    fn check(&self, state: &FabricState, plan: &ForwardingPlan) -> Result<(), PolicyViolation> {
        let n = state.num_servers();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                if let WalkOutcome::Loop(path) = plan.walk(src, dst) {
                    return Err(PolicyViolation::new(
                        self.name(),
                        format!("rule chain {src}->{dst} cycles: {path:?}"),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Job-critical pairs must stay deliverable at every step: their rule
/// chains terminate at the destination and every hop crosses a live link.
#[derive(Debug, Clone, Default)]
pub struct PairReachability {
    /// The ordered pairs that must stay reachable.
    pub pairs: Vec<(usize, usize)>,
}

impl PairReachability {
    /// Protect the given ordered pairs.
    pub fn new(pairs: Vec<(usize, usize)>) -> Self {
        PairReachability { pairs }
    }
}

impl HardPolicy for PairReachability {
    fn name(&self) -> &'static str {
        "pair-reachability"
    }

    fn check(&self, state: &FabricState, plan: &ForwardingPlan) -> Result<(), PolicyViolation> {
        for &(src, dst) in &self.pairs {
            if src == dst {
                continue;
            }
            match plan.walk(src, dst) {
                WalkOutcome::Delivered(path) => {
                    for hop in path.windows(2) {
                        if !state.graph().has_edge(hop[0], hop[1]) {
                            return Err(PolicyViolation::new(
                                self.name(),
                                format!(
                                    "chain {src}->{dst} crosses unplugged link {}->{}",
                                    hop[0], hop[1]
                                ),
                            ));
                        }
                    }
                }
                WalkOutcome::Blackhole(path) => {
                    return Err(PolicyViolation::new(
                        self.name(),
                        format!("pair {src}->{dst} blackholes at {}", path[path.len() - 1]),
                    ));
                }
                WalkOutcome::Loop(path) => {
                    return Err(PolicyViolation::new(
                        self.name(),
                        format!("pair {src}->{dst} loops: {path:?}"),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Scores one valid mid-migration state; the planner ranks orderings by
/// peak (then mean) state cost. Lower is better.
pub trait SoftPolicy: Send + Sync {
    /// Stable policy name, reported in plans.
    fn name(&self) -> &'static str;
    /// Cost of one valid state.
    fn state_cost(&self, state: &FabricState, plan: &ForwardingPlan) -> f64;
}

/// Every state costs 1: total cost counts migration steps, so shorter
/// schedules win. The cheapest useful default.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimizeSteps;

impl SoftPolicy for MinimizeSteps {
    fn name(&self) -> &'static str {
        "minimize-steps"
    }

    fn state_cost(&self, _state: &FabricState, _plan: &ForwardingPlan) -> f64 {
        1.0
    }
}

/// Fraction of demand pairs whose traffic is displaced from its
/// source-fabric path (rerouted over different links, or not deliverable
/// at all). Cheap: pure rule walks, no fluid simulation.
#[derive(Debug, Clone)]
pub struct DisplacedTraffic {
    pairs: Vec<(usize, usize)>,
    baseline: BTreeMap<(usize, usize), Vec<usize>>,
}

impl DisplacedTraffic {
    /// Track the demand pairs against their paths in `source_plan`.
    pub fn new(pairs: Vec<(usize, usize)>, source_plan: &ForwardingPlan) -> Self {
        let baseline = pairs
            .iter()
            .filter(|&&(s, d)| s != d)
            .filter_map(|&(s, d)| match source_plan.walk(s, d) {
                WalkOutcome::Delivered(path) => Some(((s, d), path)),
                _ => None,
            })
            .collect();
        DisplacedTraffic { pairs, baseline }
    }
}

impl SoftPolicy for DisplacedTraffic {
    fn name(&self) -> &'static str {
        "displaced-traffic"
    }

    fn state_cost(&self, _state: &FabricState, plan: &ForwardingPlan) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        let displaced = self
            .pairs
            .iter()
            .filter(|&&(s, d)| s != d)
            .filter(|&&(s, d)| match plan.walk(s, d) {
                WalkOutcome::Delivered(path) => self.baseline.get(&(s, d)) != Some(&path),
                _ => true,
            })
            .count();
        displaced as f64 / self.pairs.len() as f64
    }
}

/// Transient throughput dip relative to the source fabric, evaluated with
/// the fluid engine: probe the demand matrix along each state's actual
/// rule-walk paths (undeliverable pairs contribute nothing) and compare
/// goodput — delivered bytes over makespan — against the source fabric's.
/// `0.0` = no dip, `1.0` = fabric fully dark. The atomic swap scores a
/// dip of `1.0` by definition: while the whole fabric rewires, nothing is
/// deliverable.
#[derive(Debug, Clone)]
pub struct ThroughputDip {
    probe: TrafficMatrix,
    per_hop_latency_s: f64,
    relay_efficiency: f64,
    baseline_goodput: f64,
}

impl ThroughputDip {
    /// Probe with `probe` demand; the baseline goodput is measured on
    /// `source` (the migration's start state).
    pub fn new(
        probe: TrafficMatrix,
        per_hop_latency_s: f64,
        relay_efficiency: f64,
        source: &FabricState,
    ) -> Self {
        let mut dip =
            ThroughputDip { probe, per_hop_latency_s, relay_efficiency, baseline_goodput: 0.0 };
        dip.baseline_goodput = dip.goodput(source, &source.forwarding_plan());
        dip
    }

    /// Goodput of one state under the probe demand: bytes delivered along
    /// the rule walks, divided by the fluid-simulated makespan.
    pub fn goodput(&self, state: &FabricState, plan: &ForwardingPlan) -> f64 {
        let n = state.num_servers().min(self.probe.num_nodes());
        let mut flows = Vec::new();
        let mut delivered = 0.0;
        for src in 0..n {
            for dst in 0..n {
                let bytes = self.probe.get(src, dst);
                if src == dst || bytes <= 0.0 {
                    continue;
                }
                if let WalkOutcome::Delivered(path) = plan.walk(src, dst) {
                    let relays = path.len().saturating_sub(2);
                    let factor = self.relay_efficiency.powi(relays as i32);
                    flows.push(FlowSpec::new(path, bytes).with_relay_factor(factor));
                    delivered += bytes;
                }
            }
        }
        if flows.is_empty() {
            return 0.0;
        }
        let result = simulate_flows(state.graph(), &flows, self.per_hop_latency_s);
        if result.makespan_s <= 0.0 {
            return 0.0;
        }
        delivered / result.makespan_s
    }
}

impl SoftPolicy for ThroughputDip {
    fn name(&self) -> &'static str {
        "throughput-dip"
    }

    fn state_cost(&self, state: &FabricState, plan: &ForwardingPlan) -> f64 {
        if self.baseline_goodput <= 0.0 {
            return 0.0;
        }
        (1.0 - self.goodput(state, plan) / self.baseline_goodput).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{FabricSpec, Link, LinkOp, RuleRepair};
    use topoopt_graph::topologies;

    fn ring_state(n: usize) -> FabricState {
        let spec = FabricSpec::shortest_path(topologies::from_permutations(n, &[1], 25.0e9));
        FabricState::from_spec(&spec, n)
    }

    #[test]
    fn fresh_states_pass_both_hard_policies() {
        let state = ring_state(5);
        let plan = state.forwarding_plan();
        assert!(LoopFreedom.check(&state, &plan).is_ok());
        let all: Vec<(usize, usize)> =
            (0..5).flat_map(|s| (0..5).map(move |d| (s, d))).filter(|&(s, d)| s != d).collect();
        assert!(PairReachability::new(all).check(&state, &plan).is_ok());
    }

    #[test]
    fn reachability_names_the_blackholed_pair() {
        let mut state = ring_state(4);
        state.apply(
            LinkOp::Remove(Link { src: 0, dst: 1, capacity_bps: 25.0e9 }),
            RuleRepair::PerRule,
        );
        let plan = state.forwarding_plan();
        let err = PairReachability::new(vec![(0, 1)]).check(&state, &plan).unwrap_err();
        assert_eq!(err.policy, "pair-reachability");
        assert!(err.detail.contains("0->1"), "detail should name the pair: {}", err.detail);
        // Loop-freedom alone tolerates the blackhole (nothing cycles).
        assert!(LoopFreedom.check(&state, &plan).is_ok());
    }

    #[test]
    fn loop_freedom_names_the_cycling_chain() {
        let mut state = ring_state(4);
        state.apply(
            LinkOp::Remove(Link { src: 0, dst: 1, capacity_bps: 25.0e9 }),
            RuleRepair::PerRule,
        );
        state
            .apply(LinkOp::Add(Link { src: 0, dst: 2, capacity_bps: 25.0e9 }), RuleRepair::PerRule);
        state
            .apply(LinkOp::Add(Link { src: 3, dst: 1, capacity_bps: 25.0e9 }), RuleRepair::PerRule);
        let plan = state.forwarding_plan();
        let err = LoopFreedom.check(&state, &plan).unwrap_err();
        assert_eq!(err.policy, "loop-freedom");
        assert!(err.detail.contains("cycles"));
    }

    #[test]
    fn displaced_traffic_counts_rerouted_pairs() {
        let state = ring_state(4);
        let source_plan = state.forwarding_plan();
        let pairs = vec![(0, 1), (1, 2), (0, 2)];
        let soft = DisplacedTraffic::new(pairs, &source_plan);
        // On the unmodified source state nothing is displaced.
        assert_eq!(soft.state_cost(&state, &source_plan), 0.0);
        // Remove 0->1: (0,1) undeliverable, (0,2) was routed 0->1->2.
        let mut moved = state.clone();
        moved.apply(
            LinkOp::Remove(Link { src: 0, dst: 1, capacity_bps: 25.0e9 }),
            RuleRepair::PerRule,
        );
        let plan = moved.forwarding_plan();
        let cost = soft.state_cost(&moved, &plan);
        assert!((cost - 2.0 / 3.0).abs() < 1e-12, "got {cost}");
    }

    #[test]
    fn throughput_dip_is_zero_at_source_and_one_when_dark() {
        let state = ring_state(4);
        let mut probe = TrafficMatrix::new(4);
        for i in 0..4 {
            probe.set(i, (i + 1) % 4, 1.0e9);
        }
        let soft = ThroughputDip::new(probe, 0.0, 1.0, &state);
        let plan = state.forwarding_plan();
        assert!(soft.state_cost(&state, &plan) < 1e-9);
        // Remove every link: nothing deliverable, dip = 1.
        let mut dark = state.clone();
        for i in 0..4 {
            dark.apply(
                LinkOp::Remove(Link { src: i, dst: (i + 1) % 4, capacity_bps: 25.0e9 }),
                RuleRepair::PerRule,
            );
        }
        let dark_plan = dark.forwarding_plan();
        assert_eq!(soft.state_cost(&dark, &dark_plan), 1.0);
    }
}
