//! Forwarding-rule construction (the Appendix I walk-through, in
//! simulation).
//!
//! For every routed pair the plan derives: at the source, which port to send
//! on and whether the first hop terminates at the destination's RDMA
//! interface (direct) or at a relay's forwarding interface; at every relay,
//! a `tc flower`-style rule keyed on the final destination that rewrites the
//! next-hop MAC and output port; at the destination, normal RDMA delivery.
//! The relay hops cross the host kernel, which is modelled as a per-hop
//! throughput penalty.
//!
//! Like the real kernel tables, the plan keys forwarding state on the
//! *final destination IP only*: a server holds exactly one rule per
//! destination, shared by every logical connection relayed through it. Pair
//! paths are therefore derived by walking the destination-keyed rules, not
//! by replaying each pair's source-routed intention — when two pairs would
//! demand different next hops for the same destination on the same server,
//! the first-installed rule wins and the disagreement is recorded as a
//! [`RuleConflict`].

use crate::npar::NparPartition;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use topoopt_core::{RingRoute, Route, Routing};
use topoopt_graph::paths::bfs_shortest_path;
use topoopt_graph::Graph;

/// One kernel forwarding rule installed on a server. There is exactly one
/// rule per `(on_server, final_dst)` — a destination-IP match, as installed
/// by `tc flower` on the forwarding interface (relays) or by the route
/// table (sources).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardingRule {
    /// Server the rule is installed on.
    pub on_server: usize,
    /// Final destination server the rule matches (destination IP match).
    pub final_dst: usize,
    /// Origin server of the *first* logical connection that installed this
    /// rule. The rule itself is destination-keyed shared state: every
    /// connection to `final_dst` relayed through `on_server` uses it.
    pub src: usize,
    /// Next-hop server the packet is re-written towards.
    pub next_hop: usize,
    /// Next-hop MAC: the forwarding partition when the next hop is another
    /// relay, the RDMA partition when the next hop is the destination.
    pub next_hop_partition: NparPartition,
}

impl ForwardingRule {
    /// The `(on_server, final_dst)` rule rewriting towards `next_hop`,
    /// installed by `src`'s connection. The next-hop MAC is the RDMA
    /// partition exactly when the next hop is the destination.
    pub fn new(on_server: usize, final_dst: usize, src: usize, next_hop: usize) -> Self {
        let next_hop_partition =
            if next_hop == final_dst { NparPartition::Rdma } else { NparPartition::Forwarding };
        ForwardingRule { on_server, final_dst, src, next_hop, next_hop_partition }
    }
}

/// Two pairs demanded different next hops for the same `(server,
/// final_dst)` slot: a destination-keyed kernel table can hold only one of
/// them, so the later pair's traffic follows the installed rule instead of
/// its own routing-table path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleConflict {
    /// Server whose rule slot was contested.
    pub on_server: usize,
    /// Destination the rule matches.
    pub final_dst: usize,
    /// Next hop of the rule that was kept (first writer wins).
    pub installed_next_hop: usize,
    /// Next hop the later pair's routing path would have needed.
    pub demanded_next_hop: usize,
    /// Source of the pair whose demand lost.
    pub demanding_src: usize,
}

/// Outcome of walking the destination-keyed rule chain from one server
/// towards a final destination (see [`ForwardingPlan::walk`]). Each variant
/// carries the node path taken, starting at the source.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkOutcome {
    /// The chain terminates at the destination; the path ends at `dst`.
    Delivered(Vec<usize>),
    /// A server without a rule towards `dst` was reached before `dst`: the
    /// packet is dropped there. The path ends at the ruleless server.
    Blackhole(Vec<usize>),
    /// The chain revisited a server: packets cycle forever. The path ends
    /// at the first repeated server (which also appears earlier in it).
    Loop(Vec<usize>),
}

impl WalkOutcome {
    /// The node path the walk took, whatever the outcome.
    pub fn path(&self) -> &[usize] {
        match self {
            WalkOutcome::Delivered(p) | WalkOutcome::Blackhole(p) | WalkOutcome::Loop(p) => p,
        }
    }
}

/// A logical connection that stays broken after a repair pass: its
/// destination-keyed rule chain no longer delivers on the degraded fabric.
/// Mirrors the migration planner's `MigrationFallback` — an explicit
/// typed record of what could not be fixed, instead of the pair silently
/// disappearing into a zero-throughput entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedPair {
    /// Source of the broken logical connection.
    pub src: usize,
    /// Final destination of the broken logical connection.
    pub dst: usize,
    /// Terminal walk outcome on the repaired table: `"blackhole"` (the
    /// chain reaches a server with no rule, or a dead next-hop link) or
    /// `"loop"` (stale rules cycle).
    pub outcome: String,
    /// Server where the chain dies: the blackholing server, or the first
    /// revisited server of a loop.
    pub at: usize,
}

/// How [`ForwardingPlan::repair_rules`] touches the rule table: the
/// controller's granularity after faults ([`ForwardingPlan::repair`]). A
/// planned migration repairs after each unplug per destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairMode {
    /// Minimal touch: only rules whose next-hop link died are repointed
    /// onto current shortest paths. Untouched rules still encode healthy
    /// paths, and the stale/fresh mixture can leave chains looping — those
    /// pairs come back as [`DegradedPair`] records.
    PerRule,
    /// Every rule towards a destination with at least one broken rule is
    /// resynced to current shortest paths (missing rules are filled).
    /// Loop-free by construction; only reachability can still fail.
    PerDestination,
}

/// Outcome of one [`ForwardingPlan::repair`] pass over a degraded fabric.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairReport {
    /// Rules whose dead next hop was repointed to a live detour.
    pub repaired_rules: usize,
    /// Rules dropped because their destination is unreachable from the
    /// rule's server on the degraded fabric.
    pub dropped_rules: usize,
    /// Total additional relay hops the surviving pairs now cross compared
    /// to their pre-repair chains — the bandwidth-tax cost of the detours.
    pub extra_relays: usize,
    /// Pairs whose chains still do not deliver after the repair, in
    /// `(src, dst)` order.
    pub degraded: Vec<DegradedPair>,
}

/// The complete forwarding plan for a topology + routing table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardingPlan {
    /// Rules grouped by the server they are installed on, at most one per
    /// `(server, final_dst)`.
    pub rules: BTreeMap<usize, Vec<ForwardingRule>>,
    /// Per-pair relay counts: how many intermediate servers each logical
    /// RDMA connection crosses, measured along the rule walk the packets
    /// actually take.
    pub relays: BTreeMap<(usize, usize), usize>,
    /// Destination-keyed next-hop disagreements observed while installing
    /// (empty on fabrics whose routing is destination-consistent).
    pub conflicts: Vec<RuleConflict>,
}

impl ForwardingPlan {
    /// Total number of rules (one per `(server, final_dst)` with traffic).
    pub fn num_rules(&self) -> usize {
        self.rules.values().map(|v| v.len()).sum()
    }

    /// Rules installed on one server.
    pub fn rules_on(&self, server: usize) -> &[ForwardingRule] {
        self.rules.get(&server).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The rule a packet for `final_dst` follows on `server`, if any.
    pub fn rule_towards(&self, server: usize, final_dst: usize) -> Option<&ForwardingRule> {
        self.rules_on(server).iter().find(|r| r.final_dst == final_dst)
    }

    /// Install or repoint the `(server, final_dst)` rule to `next_hop`
    /// (a fresh install keys the rule on the server).
    fn set_rule(&mut self, server: usize, final_dst: usize, next_hop: usize) {
        let rules = self.rules.entry(server).or_default();
        match rules.iter_mut().find(|r| r.final_dst == final_dst) {
            Some(r) => *r = ForwardingRule::new(server, final_dst, r.src, next_hop),
            None => rules.push(ForwardingRule::new(server, final_dst, server, next_hop)),
        }
    }

    /// Drop the `(server, final_dst)` rule, if installed.
    fn remove_rule(&mut self, server: usize, final_dst: usize) {
        if let Some(rules) = self.rules.get_mut(&server) {
            rules.retain(|r| r.final_dst != final_dst);
        }
    }

    /// Walk the destination-keyed rule chain from `src` towards `dst`,
    /// following one rule per hop exactly as the kernel tables would,
    /// with explicit loop and blackhole detection.
    ///
    /// This is the single chain-termination oracle shared by the
    /// forwarding-plan property tests and the migration planner's
    /// hard policies: plans freshly built by [`build_forwarding_plan`]
    /// always deliver, but mid-migration rule tables (stale rules mixed
    /// with incremental repairs) can transiently [`WalkOutcome::Loop`] or
    /// [`WalkOutcome::Blackhole`]. Always terminates: the walk stops at
    /// the first revisited server.
    pub fn walk(&self, src: usize, dst: usize) -> WalkOutcome {
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            let Some(rule) = self.rule_towards(cur, dst) else {
                return WalkOutcome::Blackhole(path);
            };
            let next = rule.next_hop;
            let looped = path.contains(&next);
            path.push(next);
            if looped {
                return WalkOutcome::Loop(path);
            }
            cur = next;
        }
        WalkOutcome::Delivered(path)
    }

    /// True if a logical RDMA connection exists between the pair.
    pub fn has_connection(&self, src: usize, dst: usize) -> bool {
        self.relays.contains_key(&(src, dst))
    }

    /// Number of relay servers between the pair (0 = direct circuit).
    pub fn relay_count(&self, src: usize, dst: usize) -> Option<usize> {
        self.relays.get(&(src, dst)).cloned()
    }

    /// Histogram of relay counts over all logical connections: `result[k]`
    /// = number of (src, dst) pairs whose traffic crosses `k` relays.
    pub fn relay_histogram(&self) -> Vec<usize> {
        let mut hist = Vec::new();
        for &relays in self.relays.values() {
            if hist.len() <= relays {
                hist.resize(relays + 1, 0);
            }
            hist[relays] += 1;
        }
        hist
    }

    /// Fraction of logical connections that cross at least one relay
    /// (0.0 when the plan is empty).
    pub fn relayed_fraction(&self) -> f64 {
        if self.relays.is_empty() {
            return 0.0;
        }
        let relayed = self.relays.values().filter(|&&r| r > 0).count();
        relayed as f64 / self.relays.len() as f64
    }

    /// Effective throughput of the pair's logical connection relative to a
    /// direct circuit: each kernel relay multiplies throughput by
    /// `relay_efficiency` (< 1), modelling the measured penalty of
    /// kernel-path forwarding versus NIC offload.
    ///
    /// Contract: self-pairs (`src == dst`) are loopback transfers that
    /// never touch the fabric and return `1.0`; pairs with *no route* in
    /// the plan return `0.0` (no logical connection exists, so its
    /// throughput is zero — use [`Self::has_connection`] to distinguish
    /// "disconnected" from "fully penalized" up front).
    pub fn effective_throughput_factor(
        &self,
        src: usize,
        dst: usize,
        relay_efficiency: f64,
    ) -> f64 {
        if src == dst {
            return 1.0;
        }
        match self.relay_count(src, dst) {
            Some(relays) => relay_efficiency.powi(relays as i32),
            None => 0.0,
        }
    }

    /// Repoint or drop every rule whose next-hop link is no longer live in
    /// `graph`, at the chosen [`RepairMode`] granularity: a rule is set to
    /// the first hop of a current shortest path, or dropped when its
    /// destination became unreachable. This is the controller's step after
    /// an unplug; it returns the `(repointed, dropped)` rule counts.
    pub fn repair_rules(&mut self, graph: &Graph, mode: RepairMode) -> (usize, usize) {
        let broken: Vec<(usize, usize)> = self
            .rules
            .values()
            .flatten()
            .filter(|r| !graph.has_edge(r.on_server, r.next_hop))
            .map(|r| (r.on_server, r.final_dst))
            .collect();
        let resync = match mode {
            RepairMode::PerRule => broken,
            RepairMode::PerDestination => {
                let mut dests: Vec<usize> = broken.into_iter().map(|(_, d)| d).collect();
                dests.sort_unstable();
                dests.dedup();
                let n = graph.num_nodes();
                dests
                    .into_iter()
                    .flat_map(|dst| (0..n).filter(move |&s| s != dst).map(move |s| (s, dst)))
                    .collect()
            }
        };
        let (mut repointed, mut dropped) = (0, 0);
        for (server, dst) in resync {
            let installed = self.rule_towards(server, dst).map(|r| r.next_hop);
            match bfs_shortest_path(graph, server, dst) {
                Some(path) if installed != Some(path[1]) => {
                    self.set_rule(server, dst, path[1]);
                    repointed += 1;
                }
                None if installed.is_some() => {
                    self.remove_rule(server, dst);
                    dropped += 1;
                }
                _ => {}
            }
        }
        self.rules.retain(|_, rules| !rules.is_empty());
        (repointed, dropped)
    }

    /// Install a shortest-path rule for every `(server, dst)` pair of
    /// `graph` that has a live path but no rule: pairs blackholed earlier,
    /// or newly connected. This is the controller's step after a plug.
    pub fn fill_missing_rules(&mut self, graph: &Graph) {
        let n = graph.num_nodes();
        for server in 0..n {
            for dst in 0..n {
                if server == dst || self.rule_towards(server, dst).is_some() {
                    continue;
                }
                if let Some(path) = bfs_shortest_path(graph, server, dst) {
                    self.set_rule(server, dst, path[1]);
                }
            }
        }
    }

    /// Repair the plan in place after links died: [`Self::repair_rules`]
    /// fixes the rules over dead links, then every logical connection is
    /// re-walked under the repaired table ([`Self::walk`] is the
    /// loop/blackhole oracle) and its relay count refreshed to the detour
    /// chain it now follows.
    ///
    /// Pairs whose chains still do not deliver are removed from the relay
    /// table (their [`Self::effective_throughput_factor`] becomes `0.0`)
    /// and surfaced as typed [`DegradedPair`] records rather than silently
    /// priced as disconnected.
    pub fn repair(&mut self, degraded: &Graph, mode: RepairMode) -> RepairReport {
        let (repaired_rules, dropped_rules) = self.repair_rules(degraded, mode);
        let mut report = RepairReport { repaired_rules, dropped_rules, ..RepairReport::default() };
        let pairs: Vec<((usize, usize), usize)> =
            self.relays.iter().map(|(&p, &r)| (p, r)).collect();
        for ((src, dst), old_relays) in pairs {
            let out = self.walk(src, dst);
            match &out {
                WalkOutcome::Delivered(path) => {
                    let relays = path.len().saturating_sub(2);
                    report.extra_relays += relays.saturating_sub(old_relays);
                    self.relays.insert((src, dst), relays);
                }
                WalkOutcome::Blackhole(path) | WalkOutcome::Loop(path) => {
                    report.degraded.push(DegradedPair {
                        src,
                        dst,
                        outcome: if matches!(out, WalkOutcome::Loop(_)) {
                            "loop".to_string()
                        } else {
                            "blackhole".to_string()
                        },
                        at: *path.last().unwrap_or(&src),
                    });
                    self.relays.remove(&(src, dst));
                }
            }
        }
        report
    }
}

/// One `(server, final_dst)` slot of the rule table under construction.
/// Fields are `u32` to keep the dense table small; [`NONE`] marks an unset
/// field.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Next hop of the installed rule.
    next_hop: u32,
    /// Source whose walk installed the rule.
    installer: u32,
    /// Hops from this server to the destination along the rule chain, set
    /// once the installing walk has finished.
    hops: u32,
    /// Ring group `g` when the rule chain from here is exactly group `g`'s
    /// coin-change route.
    group: u32,
}

const NONE: u32 = u32::MAX;

const EMPTY: Slot = Slot { next_hop: NONE, installer: NONE, hops: NONE, group: NONE };

/// A server id, group index or hop count, as a slot field.
fn dense_u32(v: usize) -> u32 {
    u32::try_from(v).expect("forwarding slot fields fit in u32")
}

/// The route a pair's walk tracks: a path borrowed from the routing or a
/// BFS shortest path when the routing has none, or a ring group's
/// coin-change route, stepped on demand.
enum Intended<'a> {
    Path(Cow<'a, [usize]>),
    Ring(RingRoute<'a>),
}

impl Intended<'_> {
    /// The route's node after `cur`, which is its `pos`-th node.
    fn next(&self, cur: usize, pos: usize) -> usize {
        match self {
            Intended::Path(p) => p[pos + 1],
            Intended::Ring(r) => {
                r.next_hop(cur).expect("every node of a ring route reaches its destination")
            }
        }
    }

    /// The ring group the route comes from, as a slot tag.
    fn group(&self) -> u32 {
        match self {
            Intended::Path(_) => NONE,
            Intended::Ring(r) => dense_u32(r.group()),
        }
    }
}

/// Build the forwarding plan for every ordered server pair of the fabric,
/// using the supplied routing (falling back to shortest paths).
///
/// Rules are installed destination-keyed, first writer wins (pairs are
/// processed in `(src, dst)` lexical order). Each pair's relay count is
/// measured along the walk its packets actually take under those shared
/// rules, which can differ from its own routing path when a
/// [`RuleConflict`] was recorded.
///
/// Cost: a pair's walk stops as soon as the rest of its hops is known.
/// Every installed rule's chain is itself installed to the destination, so
/// each slot also keeps its chain's hop count, and, when the chain is
/// exactly ring group `g`'s coin-change route, the tag `g`. A walk whose
/// route comes from group `g` stops at the first slot tagged `g` (the rest
/// of a group-`g` route after any of its nodes is that group's route from
/// there, see [`topoopt_core::routing`]), and a walk that left its route at
/// a conflict stops at the next slot; neither can install a rule or meet a
/// conflict past that point. On a single `+1` ring over `n` servers the
/// build reads at most `2·n·(n−1)` slots instead of one per hop of every
/// route, and no route is materialized. The slots live in a dense array of
/// `num_servers × graph.num_nodes()` entries of 16 bytes (1 MB at 256
/// servers); on a connected fabric every server ends up holding a rule per
/// destination, so a sparse map would be no smaller.
pub fn build_forwarding_plan(
    graph: &Graph,
    num_servers: usize,
    routing: &Routing,
) -> ForwardingPlan {
    build_counting_reads(graph, num_servers, routing).0
}

/// [`build_forwarding_plan`], also returning how many slots the walks read.
fn build_counting_reads(
    graph: &Graph,
    num_servers: usize,
    routing: &Routing,
) -> (ForwardingPlan, usize) {
    // `slots[final_dst][server]`: a walk reads one destination's row.
    let mut slots = vec![vec![EMPTY; graph.num_nodes()]; num_servers];
    let mut relays = Vec::new();
    let mut conflicts = Vec::new();
    let mut reads = 0;
    // Each slot the current walk installed, with its hop count from `src`.
    let mut installed: Vec<(usize, u32)> = Vec::new();
    for src in 0..num_servers {
        for (dst, row) in slots.iter_mut().enumerate() {
            if src == dst {
                continue;
            }
            let intended = match routing.route(src, dst) {
                Some(Route::Explicit(p)) => Intended::Path(Cow::Borrowed(p)),
                Some(Route::Ring(r)) => Intended::Ring(r),
                None => match bfs_shortest_path(graph, src, dst) {
                    Some(p) => Intended::Path(Cow::Owned(p)),
                    None => continue,
                },
            };
            let group = intended.group();
            // Walk the destination-keyed rules from src, installing this
            // pair's intended next hop wherever no rule exists yet, until
            // the rest of the walk is known: at the destination, at a slot
            // tagged with the walk's own group, or at the first slot after
            // the walk left its route.
            installed.clear();
            let (mut cur, mut pos, mut hops) = (src, 0, 0);
            let mut on_route = true;
            let total = loop {
                if cur == dst {
                    break hops;
                }
                reads += 1;
                let slot = row[cur];
                if slot.next_hop == NONE && on_route {
                    let nh = intended.next(cur, pos);
                    row[cur] = Slot { next_hop: dense_u32(nh), installer: dense_u32(src), ..EMPTY };
                    installed.push((cur, hops));
                    (cur, pos, hops) = (nh, pos + 1, hops + 1);
                    continue;
                }
                // Off its route a walk only meets finished rules: their
                // installers walked them to the destination. A rule without
                // a hop count was installed by this walk, so a non-simple
                // routing path (which `Routing::validate_against` rejects)
                // has come back to it and the rules cycle. A hard assert,
                // not debug: the count must never be read.
                assert!(
                    slot.hops != NONE,
                    "forwarding walk for ({src},{dst}) cycled — non-simple routing path?"
                );
                if !on_route || (group != NONE && slot.group == group) {
                    break hops + slot.hops;
                }
                let nh = slot.next_hop as usize;
                let demanded = intended.next(cur, pos);
                if nh != demanded {
                    conflicts.push(RuleConflict {
                        on_server: cur,
                        final_dst: dst,
                        installed_next_hop: nh,
                        demanded_next_hop: demanded,
                        demanding_src: src,
                    });
                    on_route = false;
                }
                (cur, pos, hops) = (nh, pos + 1, hops + 1);
            };
            let tag = if on_route { group } else { NONE };
            for &(server, at) in &installed {
                row[server].hops = total - at;
                row[server].group = tag;
            }
            relays.push(((src, dst), total as usize - 1));
        }
    }
    // Materialize the deduplicated rule set, grouped by server, each
    // server's rules in destination order.
    let mut rules = BTreeMap::new();
    for server in 0..graph.num_nodes() {
        let installed: Vec<ForwardingRule> = slots
            .iter()
            .enumerate()
            .filter(|(_, row)| row[server].next_hop != NONE)
            .map(|(final_dst, row)| {
                let Slot { next_hop, installer, .. } = row[server];
                ForwardingRule::new(server, final_dst, installer as usize, next_hop as usize)
            })
            .collect();
        if !installed.is_empty() {
            rules.insert(server, installed);
        }
    }
    let plan = ForwardingPlan { rules, relays: relays.into_iter().collect(), conflicts };
    (plan, reads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_graph::topologies;

    /// Unplug one live `src -> dst` link.
    fn remove_link(g: &mut Graph, src: usize, dst: usize) {
        let id = g.edges().find(|(_, e)| e.src == src && e.dst == dst).map(|(id, _)| id);
        g.remove_edge(id.unwrap_or_else(|| panic!("{src}->{dst} is live")));
    }

    #[test]
    fn direct_neighbours_need_no_relay() {
        let g = topologies::from_permutations(12, &[1, 5], 25.0e9);
        let plan = build_forwarding_plan(&g, 12, &Routing::new());
        assert_eq!(plan.relay_count(0, 1), Some(0));
        assert_eq!(plan.relay_count(0, 5), Some(0));
        assert!(plan.has_connection(0, 7));
    }

    #[test]
    fn appendix_i_chain_installs_relay_rules() {
        // A 4-server chain A=0, B=1, C=2, D=3 (the Appendix I walk-through):
        // the A->D connection relays through B and C.
        let mut g = topoopt_graph::Graph::new(4);
        for i in 0..3 {
            g.add_bidi_edge(i, i + 1, 25.0e9);
        }
        let plan = build_forwarding_plan(&g, 4, &Routing::new());
        assert_eq!(plan.relay_count(0, 3), Some(2));
        // B (server 1) has a rule matching final destination 3, rewriting to
        // C's forwarding MAC; C has one rewriting to D's RDMA MAC.
        let b_rule = plan.rules_on(1).iter().find(|r| r.src == 0 && r.final_dst == 3).unwrap();
        assert_eq!(b_rule.next_hop, 2);
        assert_eq!(b_rule.next_hop_partition, NparPartition::Forwarding);
        let c_rule = plan.rules_on(2).iter().find(|r| r.src == 0 && r.final_dst == 3).unwrap();
        assert_eq!(c_rule.next_hop, 3);
        assert_eq!(c_rule.next_hop_partition, NparPartition::Rdma);
    }

    #[test]
    fn relay_rules_are_deduplicated_per_destination() {
        // On a +1 ring every connection to server 5 from 0..4 crosses the
        // same relays; a destination-keyed kernel holds ONE rule for 5 per
        // relay, not one per (src, dst) pair.
        let g = topologies::from_permutations(6, &[1], 25.0e9);
        let plan = build_forwarding_plan(&g, 6, &Routing::new());
        for server in 0..6 {
            let mut dsts: Vec<usize> = plan.rules_on(server).iter().map(|r| r.final_dst).collect();
            let before = dsts.len();
            dsts.sort_unstable();
            dsts.dedup();
            assert_eq!(dsts.len(), before, "server {server} holds duplicate rules");
        }
        // Appendix I accounting: every server needs one rule per reachable
        // destination (n-1 of them) = 6 * 5 rules, not sum over all pair
        // paths.
        assert_eq!(plan.num_rules(), 6 * 5);
        assert!(plan.conflicts.is_empty());
    }

    #[test]
    fn conflicting_routing_paths_are_recorded_and_resolved_first_wins() {
        // Node 1 can reach 3 directly or via 2; two explicit routes demand
        // different next hops at server 1 for destination 3.
        let mut g = topoopt_graph::Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(1, 3, 1.0);
        let mut routing = Routing::new();
        routing.insert(0, 3, vec![0, 1, 2, 3]); // installs (1,3) -> 2
        routing.insert(1, 3, vec![1, 3]); // demands (1,3) -> 3: conflict
        let plan = build_forwarding_plan(&g, 4, &routing);
        assert_eq!(plan.conflicts.len(), 1);
        let c = &plan.conflicts[0];
        assert_eq!((c.on_server, c.final_dst), (1, 3));
        assert_eq!(c.installed_next_hop, 2);
        assert_eq!(c.demanded_next_hop, 3);
        assert_eq!(c.demanding_src, 1);
        // The installed rule wins, so 1 -> 3 actually relays through 2.
        assert_eq!(plan.rule_towards(1, 3).unwrap().next_hop, 2);
        assert_eq!(plan.relay_count(1, 3), Some(1));
    }

    #[test]
    fn a_single_ring_plan_reads_at_most_two_slots_per_pair() {
        // The DLRM/NCF shape at 256 servers: one AllReduce group, a +1
        // ring, routes of 128 hops on average. A walk per hop of every
        // route would read about 8.4 M slots.
        let n = 256;
        let g = topologies::from_permutations(n, &[1], 25.0e9);
        let mut routing = Routing::new();
        routing.insert_ring(&(0..n).collect::<Vec<_>>(), &[1]);
        let (plan, reads) = build_counting_reads(&g, n, &routing);
        assert_eq!(plan.relays.len(), n * (n - 1));
        assert_eq!(plan.num_rules(), n * (n - 1));
        assert!(plan.conflicts.is_empty());
        assert_eq!(plan.relay_count(1, 0), Some(n - 2));
        assert!(reads <= 2 * n * (n - 1), "{reads} slot reads");
    }

    #[test]
    #[should_panic(expected = "cycled")]
    fn a_route_that_revisits_a_node_panics() {
        // 0 -> 1 -> 0 -> 1 -> 2 on a line: the walk returns to the rule it
        // installed on 0, whose hop count is not known yet.
        let mut g = topoopt_graph::Graph::new(10);
        for i in 0..9 {
            g.add_bidi_edge(i, i + 1, 25.0e9);
        }
        let mut routing = Routing::new();
        routing.insert(0, 2, vec![0, 1, 0, 1, 2]);
        build_forwarding_plan(&g, 10, &routing);
    }

    #[test]
    fn all_pairs_have_logical_connections_on_connected_fabric() {
        let g = topologies::from_permutations(12, &[1, 5, 7], 25.0e9);
        let plan = build_forwarding_plan(&g, 12, &Routing::new());
        for s in 0..12 {
            for d in 0..12 {
                if s != d {
                    assert!(plan.has_connection(s, d), "missing connection {s}->{d}");
                }
            }
        }
        assert!(plan.num_rules() > 0);
    }

    #[test]
    fn relay_histogram_counts_pairs_by_relay_count() {
        // 4-chain: 6 direct pairs (0-1, 1-2, 2-3 both ways), 4 one-relay,
        // 2 two-relay.
        let mut g = topoopt_graph::Graph::new(4);
        for i in 0..3 {
            g.add_bidi_edge(i, i + 1, 25.0e9);
        }
        let plan = build_forwarding_plan(&g, 4, &Routing::new());
        assert_eq!(plan.relay_histogram(), vec![6, 4, 2]);
        assert!((plan.relayed_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(ForwardingPlan::default().relay_histogram(), Vec::<usize>::new());
        assert_eq!(ForwardingPlan::default().relayed_fraction(), 0.0);
    }

    #[test]
    fn throughput_factor_decays_with_relays() {
        let mut g = topoopt_graph::Graph::new(4);
        for i in 0..3 {
            g.add_bidi_edge(i, i + 1, 25.0e9);
        }
        let plan = build_forwarding_plan(&g, 4, &Routing::new());
        let direct = plan.effective_throughput_factor(0, 1, 0.9);
        let two_relays = plan.effective_throughput_factor(0, 3, 0.9);
        assert_eq!(direct, 1.0);
        assert!((two_relays - 0.81).abs() < 1e-12);
    }

    #[test]
    fn self_pairs_are_loopback_not_disconnected() {
        let mut g = topoopt_graph::Graph::new(3);
        g.add_bidi_edge(0, 1, 25.0e9);
        let plan = build_forwarding_plan(&g, 3, &Routing::new());
        // A server talking to itself never touches the fabric: full rate.
        assert_eq!(plan.effective_throughput_factor(1, 1, 0.5), 1.0);
        // Server 2 is isolated: no logical connection, zero throughput.
        assert!(!plan.has_connection(0, 2));
        assert_eq!(plan.effective_throughput_factor(0, 2, 0.5), 0.0);
    }

    #[test]
    fn walk_delivers_along_installed_chain() {
        let mut g = topoopt_graph::Graph::new(4);
        for i in 0..3 {
            g.add_bidi_edge(i, i + 1, 25.0e9);
        }
        let plan = build_forwarding_plan(&g, 4, &Routing::new());
        assert_eq!(plan.walk(0, 3), WalkOutcome::Delivered(vec![0, 1, 2, 3]));
        // Self-pairs are loopback: delivered without touching the fabric.
        assert_eq!(plan.walk(2, 2), WalkOutcome::Delivered(vec![2]));
    }

    #[test]
    fn walk_detects_blackhole_at_ruleless_server() {
        // 0 forwards towards 3 via 1, but 1 holds no rule for 3 (a stale
        // table mid-migration): the packet dies on 1.
        let mut plan = ForwardingPlan::default();
        plan.rules.insert(0, vec![ForwardingRule::new(0, 3, 0, 1)]);
        let out = plan.walk(0, 3);
        assert_eq!(out, WalkOutcome::Blackhole(vec![0, 1]));
        assert_eq!(out.path(), &[0, 1]);
    }

    #[test]
    fn repair_reroutes_around_a_dead_link() {
        // 4-ring plus a reverse chord 0->3->2->1 so every pair survives
        // losing 0->1: rules that sent traffic over the dead link repoint
        // onto the longer reverse chains.
        let mut g = topoopt_graph::Graph::new(4);
        for i in 0..4 {
            g.add_bidi_edge(i, (i + 1) % 4, 25.0e9);
        }
        let mut plan = build_forwarding_plan(&g, 4, &Routing::new());
        assert_eq!(plan.relay_count(0, 1), Some(0));
        let mut degraded = g.clone();
        remove_link(&mut degraded, 0, 1);
        let report = plan.repair(&degraded, RepairMode::PerDestination);
        assert!(report.repaired_rules > 0, "rules over 0->1 must be repointed");
        assert_eq!(report.dropped_rules, 0, "the degraded ring is still connected");
        assert!(report.degraded.is_empty(), "every pair survives one link loss: {report:?}");
        // 0 -> 1 now detours the long way round: 0 -> 3 -> 2 -> 1.
        assert_eq!(plan.walk(0, 1), WalkOutcome::Delivered(vec![0, 3, 2, 1]));
        assert_eq!(plan.relay_count(0, 1), Some(2));
        assert!(report.extra_relays >= 2, "the detour costs relays: {report:?}");
        // No repaired rule points over a dead link.
        for rules in plan.rules.values() {
            for r in rules {
                assert!(degraded.has_edge(r.on_server, r.next_hop));
            }
        }
    }

    #[test]
    fn per_rule_repair_can_loop_and_reports_it_per_destination_cannot() {
        // Same bidirectional 4-ring, same dead link. The minimal-touch
        // repair repoints (0,1)->3 while the stale healthy rule (3,1)->0
        // stays installed: the chain 0->3->0 cycles, and the walk-based
        // audit surfaces it as a typed loop record instead of delivering.
        let mut g = topoopt_graph::Graph::new(4);
        for i in 0..4 {
            g.add_bidi_edge(i, (i + 1) % 4, 25.0e9);
        }
        let mut plan = build_forwarding_plan(&g, 4, &Routing::new());
        let mut degraded = g.clone();
        remove_link(&mut degraded, 0, 1);
        let report = plan.repair(&degraded, RepairMode::PerRule);
        let loops: Vec<(usize, usize)> = report
            .degraded
            .iter()
            .filter(|d| d.outcome == "loop")
            .map(|d| (d.src, d.dst))
            .collect();
        assert!(
            loops.contains(&(0, 1)),
            "stale/fresh rule mixture must cycle for 0->1: {report:?}"
        );
        // Looping pairs are disconnected in the relay table, not priced
        // as delivered over a melting chain.
        assert!(!plan.has_connection(0, 1));
    }

    #[test]
    fn remove_with_per_rule_repair_touches_only_broken_rules() {
        // 4-ring 0->1->2->3->0: removing 0->1 breaks exactly the rules on
        // server 0 (all its chains start over 0->1).
        let mut g = topologies::from_permutations(4, &[1], 25.0e9);
        let mut plan = build_forwarding_plan(&g, 4, &Routing::new());
        let rules_before = plan.num_rules();
        remove_link(&mut g, 0, 1);
        plan.repair_rules(&g, RepairMode::PerRule);
        // Server 0 is now a sink: no outgoing links, so its rules are
        // dropped; every other server's stale rules stay.
        assert_eq!(plan.num_rules(), rules_before - 3);
        assert!(!matches!(plan.walk(0, 1), WalkOutcome::Delivered(_)));
        // 1 -> 2 never used the removed link: still delivered.
        assert_eq!(plan.walk(1, 2), WalkOutcome::Delivered(vec![1, 2]));
    }

    #[test]
    fn add_fills_rules_for_newly_reachable_pairs() {
        let mut g = topologies::from_permutations(4, &[1], 25.0e9);
        let mut plan = build_forwarding_plan(&g, 4, &Routing::new());
        remove_link(&mut g, 0, 1);
        plan.repair_rules(&g, RepairMode::PerRule);
        g.add_edge(0, 2, 25.0e9);
        plan.fill_missing_rules(&g);
        assert_eq!(plan.walk(0, 2), WalkOutcome::Delivered(vec![0, 2]));
        assert_eq!(plan.walk(0, 3), WalkOutcome::Delivered(vec![0, 2, 3]));
        // Server 1 lost its only in-link: still unreachable, no fill.
        assert_eq!(plan.walk(0, 1), WalkOutcome::Blackhole(vec![0]));
        // Plugging 3->1 reconnects 1; the freshly filled rule (0,1)->2
        // meets the stale ring rule (3,1)->0 and the chain cycles back to
        // the source — exactly the hazard a migration's hard policies
        // must catch.
        g.add_edge(3, 1, 25.0e9);
        plan.fill_missing_rules(&g);
        assert_eq!(plan.walk(0, 1), WalkOutcome::Loop(vec![0, 2, 3, 0]));
    }

    #[test]
    fn per_rule_repair_can_loop_per_destination_cannot() {
        // Chain 1->2->3->0. Add 3->1, remove 3->0 (0 becomes unreachable,
        // rules towards 0 break), then add 1->0. Under per-rule repair the
        // refill installs (3,0)->1 while 1 and 2 still hold stale chain
        // rules (1,0)->2 and (2,0)->3: the chain 2->3->1->2 cycles. A
        // per-destination resync rebuilds every rule towards 0 instead.
        let loops_under = |mode: RepairMode| {
            let mut g = Graph::new(4);
            g.add_edge(1, 2, 1.0);
            g.add_edge(2, 3, 1.0);
            g.add_edge(3, 0, 1.0);
            let mut plan = build_forwarding_plan(&g, 4, &Routing::new());
            g.add_edge(3, 1, 1.0);
            plan.fill_missing_rules(&g);
            remove_link(&mut g, 3, 0);
            plan.repair_rules(&g, mode);
            g.add_edge(1, 0, 1.0);
            plan.fill_missing_rules(&g);
            matches!(plan.walk(2, 0), WalkOutcome::Loop(_))
        };
        assert!(loops_under(RepairMode::PerRule), "stale+repaired mixture must cycle");
        assert!(!loops_under(RepairMode::PerDestination), "per-destination resync is loop-free");
    }

    #[test]
    fn repair_surfaces_unreachable_pairs_as_degraded_records() {
        // Directed 3-ring: losing 0->1 severs every chain that crossed it;
        // no detour exists, so the affected pairs become typed degraded
        // records (and zero-throughput), not silent zeros.
        let g = topologies::from_permutations(3, &[1], 25.0e9);
        let mut plan = build_forwarding_plan(&g, 3, &Routing::new());
        let mut degraded = g.clone();
        remove_link(&mut degraded, 0, 1);
        let report = plan.repair(&degraded, RepairMode::PerRule);
        // Server 0 lost its only egress: both its rules drop.
        assert_eq!(report.dropped_rules, 2);
        assert_eq!(report.repaired_rules, 0);
        let broken: Vec<(usize, usize)> = report.degraded.iter().map(|d| (d.src, d.dst)).collect();
        // 0's own pairs break, and so does (2,1), whose chain relayed
        // through server 0 over the dead link.
        assert_eq!(broken, vec![(0, 1), (0, 2), (2, 1)], "{report:?}");
        for d in &report.degraded {
            assert_eq!(d.outcome, "blackhole");
            assert_eq!(d.at, 0, "every broken chain dies on the ruleless server 0");
        }
        // Degraded pairs are priced as disconnected — but visibly so.
        assert_eq!(plan.effective_throughput_factor(0, 1, 0.9), 0.0);
        assert!(!plan.has_connection(0, 1));
        // Surviving pairs keep delivering.
        assert_eq!(plan.walk(1, 0), WalkOutcome::Delivered(vec![1, 2, 0]));
        assert_eq!(plan.relay_count(1, 0), Some(1));
    }

    #[test]
    fn walk_detects_rule_loop() {
        // Stale rules mixed with a repaired one: 1 -> 2 -> 3 -> 1 for
        // destination 0. The walk stops at the first revisited server.
        let mut plan = ForwardingPlan::default();
        plan.rules.insert(1, vec![ForwardingRule::new(1, 0, 1, 2)]);
        plan.rules.insert(2, vec![ForwardingRule::new(2, 0, 2, 3)]);
        plan.rules.insert(3, vec![ForwardingRule::new(3, 0, 3, 1)]);
        let out = plan.walk(1, 0);
        assert_eq!(out, WalkOutcome::Loop(vec![1, 2, 3, 1]));
    }
}
