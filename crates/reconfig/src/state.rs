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
//! The repair granularity matters. With [`RepairMode::PerRule`] only the
//! rules whose next-hop link died are repointed (minimal touch, like
//! patching individual `tc flower` entries); the repaired next hops follow
//! shortest paths in the *current* graph while untouched rules still encode
//! source-fabric paths, and that mixture can transiently loop. With
//! [`RepairMode::PerDestination`] every rule towards an affected
//! destination is resynced at once; since rule chains only ever follow
//! rules keyed on one destination, per-destination freshness makes loops
//! impossible by construction (every fresh rule strictly decreases the
//! current-graph distance to the destination) — only reachability can
//! still be violated.

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

/// A migration endpoint: the link multiset plus the routing its
/// destination-keyed rules derive from (empty routing = shortest paths).
#[derive(Debug, Clone)]
pub struct FabricSpec {
    /// The fabric's links.
    pub graph: Graph,
    /// Routing whose paths install the fabric's forwarding rules.
    pub routing: Routing,
}

impl FabricSpec {
    /// A fabric whose rules follow explicit routing paths where given.
    pub fn new(graph: Graph, routing: Routing) -> Self {
        FabricSpec { graph, routing }
    }

    /// A fabric whose rules follow shortest paths.
    pub fn shortest_path(graph: Graph) -> Self {
        FabricSpec { graph, routing: Routing::new() }
    }
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
/// stale relative to the links).
#[derive(Debug, Clone)]
pub struct FabricState {
    num_servers: usize,
    graph: Graph,
    /// The kernel tables' content: rules only, since a mid-migration table
    /// has no per-pair relay accounting until its chains are walked.
    plan: ForwardingPlan,
}

impl FabricState {
    /// Start state of a migration: the spec's links with its freshly built
    /// forwarding rules installed. `num_servers` is the spec graph's node
    /// count.
    pub fn from_spec(spec: &FabricSpec, num_servers: usize) -> Self {
        debug_assert_eq!(spec.graph.num_nodes(), num_servers, "a fabric's nodes are its servers");
        let mut state =
            FabricState { num_servers, graph: spec.graph.clone(), plan: ForwardingPlan::default() };
        state.sync_with(&spec.routing);
        state
    }

    /// The live links.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// The installed rule table, walked with [`ForwardingPlan::walk`].
    pub fn plan(&self) -> &ForwardingPlan {
        &self.plan
    }

    /// Replace the whole rule table with freshly built rules for the
    /// current links under `routing` — the final `InstallTargetRules` step
    /// of a migration (and the only rule update that is never stale).
    pub fn sync_with(&mut self, routing: &Routing) {
        let rules = build_forwarding_plan(&self.graph, self.num_servers, routing).rules;
        self.plan = ForwardingPlan { rules, ..ForwardingPlan::default() };
    }

    /// Apply one link operation, repairing the rule table the way the
    /// controller would at the given granularity. The caller is
    /// responsible for degree feasibility; removing a link that is not
    /// live panics (the planner only emits diffed operations).
    pub fn apply(&mut self, op: LinkOp, repair: RepairMode) {
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
                self.plan.repair_rules(&self.graph, repair);
            }
            LinkOp::Add(l) => {
                self.graph.add_edge(l.src, l.dst, l.capacity_bps);
                self.plan.fill_missing_rules(&self.graph);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_graph::topologies;
    use topoopt_rdma::WalkOutcome;

    fn ring_spec(n: usize, perms: &[usize]) -> FabricSpec {
        FabricSpec::shortest_path(topologies::from_permutations(n, perms, 25.0e9))
    }

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
    fn remove_with_per_rule_repair_touches_only_broken_rules() {
        // 4-ring 0->1->2->3->0: removing 0->1 breaks exactly the rules on
        // server 0 (all its chains start over 0->1).
        let spec = ring_spec(4, &[1]);
        let mut state = FabricState::from_spec(&spec, 4);
        let rules_before = state.plan().num_rules();
        state.apply(
            LinkOp::Remove(Link { src: 0, dst: 1, capacity_bps: 25.0e9 }),
            RepairMode::PerRule,
        );
        // Server 0 is now a sink: no outgoing links, so its rules are
        // dropped; every other server's stale rules stay.
        assert_eq!(state.plan().num_rules(), rules_before - 3);
        let plan = state.plan();
        assert!(!plan.walk(0, 1).is_delivered());
        // 1 -> 2 never used the removed link: still delivered.
        assert_eq!(plan.walk(1, 2), WalkOutcome::Delivered(vec![1, 2]));
    }

    #[test]
    fn add_fills_rules_for_newly_reachable_pairs() {
        let spec = ring_spec(4, &[1]);
        let mut state = FabricState::from_spec(&spec, 4);
        state.apply(
            LinkOp::Remove(Link { src: 0, dst: 1, capacity_bps: 25.0e9 }),
            RepairMode::PerRule,
        );
        state
            .apply(LinkOp::Add(Link { src: 0, dst: 2, capacity_bps: 25.0e9 }), RepairMode::PerRule);
        let plan = state.plan();
        assert_eq!(plan.walk(0, 2), WalkOutcome::Delivered(vec![0, 2]));
        assert_eq!(plan.walk(0, 3), WalkOutcome::Delivered(vec![0, 2, 3]));
        // Server 1 lost its only in-link: still unreachable, no fill.
        assert_eq!(plan.walk(0, 1), WalkOutcome::Blackhole(vec![0]));
        // Plugging 3->1 reconnects 1; the freshly filled rule (0,1)->2
        // meets the stale ring rule (3,1)->0 and the chain cycles back to
        // the source — exactly the hazard the hard policies must catch.
        state
            .apply(LinkOp::Add(Link { src: 3, dst: 1, capacity_bps: 25.0e9 }), RepairMode::PerRule);
        let plan = state.plan();
        assert_eq!(plan.walk(0, 1), WalkOutcome::Loop(vec![0, 2, 3, 0]));
    }

    #[test]
    fn per_rule_repair_can_loop_per_destination_cannot() {
        // Chain 1->2->3->0. Add 3->1, remove 3->0 (0 becomes unreachable,
        // rules towards 0 break), then add 1->0. Under per-rule repair the
        // refill installs (3,0)->1 while 1 and 2 still hold stale chain
        // rules (1,0)->2 and (2,0)->3: the chain 2->3->1->2 cycles. A
        // per-destination resync rebuilds every rule towards 0 instead.
        let mut g = Graph::new(4);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 0, 1.0);
        let spec = FabricSpec::shortest_path(g);
        let loops_under = |repair: RepairMode| {
            let mut state = FabricState::from_spec(&spec, 4);
            state.apply(LinkOp::Add(Link { src: 3, dst: 1, capacity_bps: 1.0 }), repair);
            state.apply(LinkOp::Remove(Link { src: 3, dst: 0, capacity_bps: 1.0 }), repair);
            state.apply(LinkOp::Add(Link { src: 1, dst: 0, capacity_bps: 1.0 }), repair);
            matches!(state.plan().walk(2, 0), WalkOutcome::Loop(_))
        };
        assert!(loops_under(RepairMode::PerRule), "stale+repaired mixture must cycle");
        assert!(!loops_under(RepairMode::PerDestination), "per-destination resync is loop-free");
    }

    #[test]
    fn sync_with_installs_fresh_target_rules() {
        let spec = ring_spec(5, &[1]);
        let mut state = FabricState::from_spec(&spec, 5);
        for i in 0..5 {
            state.apply(
                LinkOp::Add(Link { src: i, dst: (i + 2) % 5, capacity_bps: 25.0e9 }),
                RepairMode::PerRule,
            );
        }
        state.sync_with(&Routing::new());
        let plan = state.plan();
        // Fresh shortest-path rules: 0 -> 2 uses the new chord directly.
        assert_eq!(plan.walk(0, 2), WalkOutcome::Delivered(vec![0, 2]));
        for s in 0..5 {
            for d in 0..5 {
                assert!(plan.walk(s, d).is_delivered());
            }
        }
    }
}
