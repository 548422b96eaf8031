//! Mid-migration fabric states.
//!
//! A patch-panel migration is a sequence of per-link unplug/replug steps.
//! Between steps the fabric is neither the source nor the target: some
//! links of each are live, and the servers' destination-keyed forwarding
//! rules are a mixture of stale entries (installed for the source fabric)
//! and incremental repairs. [`FabricState`] models exactly that — the live
//! link multiset plus the installed rule table, held as an rdma
//! [`ForwardingPlan`] — and applies link operations the way the controller
//! would: unplugging a link repairs the rules it breaks
//! ([`ForwardingPlan::repair_rules`]), plugging one fills rules for newly
//! reachable pairs ([`ForwardingPlan::fill_missing_rules`]).
//!
//! The controller repairs per destination ([`RepairMode::PerDestination`]):
//! every rule towards an affected destination is resynced at once. Rule
//! chains only ever follow rules keyed on one destination, so
//! per-destination freshness makes loops impossible by construction (every
//! fresh rule strictly decreases the current-graph distance to the
//! destination) — only reachability can still be violated.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use topoopt_core::Routing;
use topoopt_graph::Graph;
use topoopt_rdma::{build_forwarding_plan, ForwardingPlan, RepairMode};

/// One directed physical link (a patch-panel fibre).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Source server.
    pub src: usize,
    /// Destination server.
    pub dst: usize,
    /// Capacity in bits per second.
    pub capacity_bps: f64,
}

/// A single patch-panel operation on one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinkOp {
    /// Unplug the link.
    Remove(Link),
    /// Plug the link.
    Add(Link),
}

/// The live link multiset of a fabric, keyed by `(src, dst, capacity
/// bits)` with parallel-link counts — the unit the planner diffs and the
/// patch panel plugs.
pub fn link_multiset(graph: &Graph) -> BTreeMap<(usize, usize, u64), usize> {
    let mut m = BTreeMap::new();
    for (_, e) in graph.edges() {
        *m.entry((e.src, e.dst, e.capacity_bps.to_bits())).or_insert(0) += 1;
    }
    m
}

/// The link operations turning `source` into `target`: every link of the
/// source multiset not in the target is removed, every target link not in
/// the source is added. Deterministic order: removals first, then
/// additions, each sorted by `(src, dst)` — strategies permute from here.
pub fn diff_ops(source: &Graph, target: &Graph) -> Vec<LinkOp> {
    let src_links = link_multiset(source);
    let dst_links = link_multiset(target);
    let mut ops = Vec::new();
    for (&(s, d, cap), &count) in &src_links {
        let keep = dst_links.get(&(s, d, cap)).copied().unwrap_or(0);
        for _ in keep..count {
            ops.push(LinkOp::Remove(Link { src: s, dst: d, capacity_bps: f64::from_bits(cap) }));
        }
    }
    for (&(s, d, cap), &count) in &dst_links {
        let keep = src_links.get(&(s, d, cap)).copied().unwrap_or(0);
        for _ in keep..count {
            ops.push(LinkOp::Add(Link { src: s, dst: d, capacity_bps: f64::from_bits(cap) }));
        }
    }
    ops
}

/// A live mid-migration fabric: the current link multiset plus the
/// destination-keyed rule table actually installed on the servers (possibly
/// stale relative to the links). Every node of the graph is a server.
#[derive(Debug, Clone)]
pub struct FabricState {
    graph: Graph,
    /// The kernel tables' content: rules only, since a mid-migration table
    /// has no per-pair relay accounting until its chains are walked.
    plan: ForwardingPlan,
}

impl FabricState {
    /// Start state of a migration: `graph`'s links with freshly built
    /// shortest-path forwarding rules installed.
    pub fn new(graph: &Graph) -> Self {
        let mut state = FabricState { graph: graph.clone(), plan: ForwardingPlan::default() };
        state.sync();
        state
    }

    /// The live links.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The installed rule table, walked with [`ForwardingPlan::walk`].
    pub fn plan(&self) -> &ForwardingPlan {
        &self.plan
    }

    /// Replace the whole rule table with freshly built shortest-path rules
    /// for the current links — the final `InstallTargetRules` step of a
    /// migration (and the only rule update that is never stale).
    pub fn sync(&mut self) {
        let n = self.graph.num_nodes();
        let rules = build_forwarding_plan(&self.graph, n, &Routing::new()).rules;
        self.plan = ForwardingPlan { rules, ..ForwardingPlan::default() };
    }

    /// Apply one link operation, repairing the rule table the way the
    /// controller would. The caller is responsible for degree feasibility;
    /// removing a link that is not live panics (the planner only emits
    /// diffed operations).
    pub fn apply(&mut self, op: LinkOp) {
        match op {
            LinkOp::Remove(l) => {
                let id = self
                    .graph
                    .edges()
                    .find(|(_, e)| {
                        e.src == l.src
                            && e.dst == l.dst
                            && e.capacity_bps.to_bits() == l.capacity_bps.to_bits()
                    })
                    .map(|(id, _)| id)
                    .unwrap_or_else(|| panic!("remove of non-live link {} -> {}", l.src, l.dst));
                self.graph.remove_edge(id);
                self.plan.repair_rules(&self.graph, RepairMode::PerDestination);
            }
            LinkOp::Add(l) => {
                self.graph.add_edge(l.src, l.dst, l.capacity_bps);
                self.plan.fill_missing_rules(&self.graph);
            }
        }
    }
}

#[cfg(test)]
impl FabricState {
    /// A state with an explicit rule table, for policy tests that need
    /// tables no per-destination controller produces.
    pub(crate) fn with_plan(graph: Graph, plan: ForwardingPlan) -> Self {
        FabricState { graph, plan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_graph::topologies;
    use topoopt_rdma::WalkOutcome;

    #[test]
    fn diff_ops_is_the_multiset_difference() {
        let a = topologies::from_permutations(6, &[1], 25.0e9);
        let b = topologies::from_permutations(6, &[2, 3], 25.0e9);
        let ops = diff_ops(&a, &b);
        let removes = ops.iter().filter(|o| matches!(o, LinkOp::Remove(_))).count();
        let adds = ops.iter().filter(|o| matches!(o, LinkOp::Add(_))).count();
        // +1 ring: 6 links, none shared with the +2/+3 fabric's 6+6 links
        // (the +3 "ring" is bidirectional pairs, still distinct from +1).
        assert_eq!(removes, 6);
        assert_eq!(adds, b.num_edges());
        assert!(diff_ops(&a, &a).is_empty());
    }

    #[test]
    fn sync_with_installs_fresh_target_rules() {
        let mut state = FabricState::new(&topologies::from_permutations(5, &[1], 25.0e9));
        for i in 0..5 {
            state.apply(LinkOp::Add(Link { src: i, dst: (i + 2) % 5, capacity_bps: 25.0e9 }));
        }
        state.sync();
        let plan = state.plan();
        // Fresh shortest-path rules: 0 -> 2 uses the new chord directly.
        assert_eq!(plan.walk(0, 2), WalkOutcome::Delivered(vec![0, 2]));
        for s in 0..5 {
            for d in 0..5 {
                assert!(matches!(plan.walk(s, d), WalkOutcome::Delivered(_)));
            }
        }
    }
}
