//! Event-driven incremental fluid engine on flat index-based storage.
//!
//! The engine is a max-min simulator over link capacities that are fixed
//! when it is built. It advances from event to event over an explicit
//! priority queue of one event kind, a flow's predicted completion (stale
//! predictions are lazily invalidated by a per-flow version counter).
//! Every flow starts at the engine clock: the flows added since the last
//! batch join as the first batch of the next [`FluidEngine::run_until`],
//! one event each, in insertion order. The queue therefore holds only
//! completion predictions.
//!
//! The fabric changes only between simulated rounds: the OCS-reconfig
//! baseline builds an engine per window ([`crate::reconfig`]), and the
//! shared fabric builds one per dirty component shape (`shared_engine`).
//! A flow crossing a zero-capacity link stalls at rate 0 — it is *not*
//! dropped — and only a run that drains with it still stalled declares it
//! unroutable (infinite completion).
//!
//! # Flat storage
//!
//! Links are interned once into a dense `LinkArena` (`crate::arena`)
//! (`LinkId = u32`), and each flow's path is resolved to link ids at
//! [`FluidEngine::add_flow`] time into one flat CSR-style buffer
//! (`flow_links`, per-flow contiguous slices). Everything the hot path
//! touches — capacities, per-link byte counters, the active-flows-per-link
//! adjacency, BFS visit marks — is a `Vec` indexed by `LinkId`/[`FlowId`],
//! so event handling and water-filling do zero tree or hash lookups. The
//! old `BTreeMap`-ordered semantics survive at the API boundary
//! ([`FluidEngine::from_capacities`], [`FluidEngine::result`]) and in the
//! arena's key-sorted id list, which fixes the iteration order of every
//! order-sensitive float reduction. The flat allocator is bit-identical to
//! the map-keyed one (the `arena` unit tests compare `to_bits`); the engine
//! as a whole matches the from-scratch loop to 1e-9 relative
//! (`tests/engine.rs`), because the two settle float progress in different
//! orders.
//!
//! # Incremental recomputation
//!
//! The key optimisation over the from-scratch loop (`simulate_flows_reference`
//! in the dev-only `topoopt-oracle` crate) is *incremental* max-min
//! recomputation: an event can only change the rates of flows that share a
//! link — transitively — with the flows it touches, i.e. the connected
//! component of the flow/link sharing graph around the event. The engine
//! re-waterfills exactly that component and leaves every other flow's rate
//! (and its already-scheduled completion event) untouched. On a sharded
//! shared cluster (Figure 16), where each job's flows live on a disjoint
//! slice of the fabric, this turns every event from an O(all flows)
//! recomputation into an O(one job) one; [`EngineStats::max_component`]
//! makes the effect observable. Disjoint components share no links, hence
//! no float operations, so a component's results do not depend on which
//! other components ride in the same engine: the dynamic shared cluster
//! relies on this to simulate each job-level component on an engine of its
//! own (see `shared_engine::SharedFabricEngine`).
//!
//! Rates between events are constant, so flow progress is settled lazily:
//! each flow remembers the last instant its remaining bytes were reconciled
//! and is only touched when its component is re-waterfilled, when it
//! completes, or when [`FluidEngine::run_until`] settles the world at a
//! window boundary.

use crate::arena::{waterfill_ids_with, LinkArena, LinkId, WaterfillScratch};
use crate::fluid::{link_capacities, FlowSpec, FluidResult, LinkKey, COMPLETION_EPS_BYTES};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use topoopt_graph::Graph;

/// Index of a flow inside a [`FluidEngine`], in insertion order. Flows are
/// already arena-allocated (dense `Vec` storage), so the id doubles as the
/// index into every per-flow side array.
pub type FlowId = usize;

/// Lifecycle of one engine flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowState {
    /// Transferring bytes, or added and waiting for the next batch.
    Active,
    /// Finished (or declared unroutable at the end of the run).
    Done,
}

#[derive(Debug, Clone)]
struct EngineFlow {
    spec: FlowSpec,
    state: FlowState,
    remaining_bytes: f64,
    rate_bps: f64,
    /// Last instant `remaining_bytes` / `link_bytes` were reconciled.
    settled_s: f64,
    /// Bumped on every rate change; stale completion events carry an older
    /// version and are skipped when popped.
    version: u64,
    completion_s: f64,
    /// Start of this flow's link-id slice in the engine's flat `flow_links`
    /// buffer; the slice is `spec.hops()` long.
    links_start: usize,
}

/// A completion prediction: `flow` drains at `time_s` if its rate is still
/// the one of `version`.
#[derive(Debug, Clone)]
struct Event {
    time_s: f64,
    /// Insertion order, breaking time ties deterministically.
    seq: u64,
    flow: FlowId,
    version: u64,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time_s.total_cmp(&other.time_s).then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Counters describing how much work a run did — the observable payoff of
/// incremental recomputation. The shared fabric sums them over its
/// component runs, and a run that serves several components (an admission
/// probe, or one run per distinct component shape) counts once per
/// component it serves, so the sums equal those of a run per component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed (stale completion events excluded).
    pub events: usize,
    /// Water-filling passes executed.
    pub waterfills: usize,
    /// Total flows re-rated across all water-filling passes. The
    /// from-scratch loop would re-rate every active flow at every event.
    pub flows_rerated: usize,
    /// Largest connected component ever re-waterfilled at once.
    pub max_component: usize,
}

impl EngineStats {
    /// Fold another run's counters in: sums, except the component
    /// high-water mark, which takes the max. The shared fabric merges its
    /// per-component engines' counters this way.
    pub(crate) fn absorb(&mut self, other: &EngineStats) {
        self.events += other.events;
        self.waterfills += other.waterfills;
        self.flows_rerated += other.flows_rerated;
        self.max_component = self.max_component.max(other.max_component);
    }
}

/// Event-driven max-min fluid simulator with incremental rate updates over
/// flat index-based storage (see the module docs).
#[derive(Debug, Clone)]
pub struct FluidEngine {
    links: LinkArena,
    per_hop_latency_s: f64,
    flows: Vec<EngineFlow>,
    /// CSR buffer of per-flow link ids (one entry per path window, in path
    /// order, duplicates preserved); sliced via `EngineFlow::links_start`.
    flow_links: Vec<LinkId>,
    /// Active flows crossing each link, indexed by `LinkId`, one entry per
    /// traversal.
    active_on_link: Vec<Vec<FlowId>>,
    /// Bytes carried per link, indexed by `LinkId`.
    link_bytes: Vec<f64>,
    /// Flows added since the last batch, in insertion order: the first
    /// batch of the next `run_until`.
    pending: Vec<FlowId>,
    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    now_s: f64,
    stats: EngineStats,
    /// Epoch-stamped BFS scratch (per flow / per link): a mark equal to
    /// `epoch` means "visited in the current traversal", so component
    /// gathering allocates nothing per event.
    flow_mark: Vec<u64>,
    link_mark: Vec<u64>,
    epoch: u64,
    /// Pooled water-filling buffers.
    wf_scratch: WaterfillScratch,
}

impl FluidEngine {
    /// Engine over `graph`'s aggregated directed-link capacities, with a
    /// fixed per-hop propagation delay added to every completion time.
    pub fn new(graph: &Graph, per_hop_latency_s: f64) -> Self {
        Self::from_capacities(link_capacities(graph), per_hop_latency_s)
    }

    /// Engine over an explicit link-capacity map (bps per directed pair).
    /// The sorted map is interned into the flat arena here, once; the hot
    /// path never touches a tree again.
    pub fn from_capacities(capacity: BTreeMap<LinkKey, f64>, per_hop_latency_s: f64) -> Self {
        let links = LinkArena::from_sorted_capacities(capacity);
        let n = links.len();
        FluidEngine {
            links,
            per_hop_latency_s,
            flows: Vec::new(),
            flow_links: Vec::new(),
            active_on_link: vec![Vec::new(); n],
            link_bytes: vec![0.0; n],
            pending: Vec::new(),
            events: BinaryHeap::new(),
            next_seq: 0,
            now_s: 0.0,
            stats: EngineStats::default(),
            flow_mark: Vec::new(),
            link_mark: vec![0; n],
            epoch: 0,
            wf_scratch: WaterfillScratch::default(),
        }
    }

    /// Work counters for this run so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Intern a link id (a path link absent from the fabric starts at
    /// capacity 0), growing every `LinkId`-indexed side array in step with
    /// the arena.
    fn intern_link(&mut self, key: LinkKey) -> LinkId {
        let id = self.links.intern(key);
        let n = self.links.len();
        if n > self.link_bytes.len() {
            self.link_bytes.resize(n, 0.0);
            self.active_on_link.resize_with(n, Vec::new);
            self.link_mark.resize(n, 0);
        }
        id
    }

    /// Add a flow. It starts at the engine clock, as one event of the first
    /// batch of the next [`Self::run_until`]. Flows with zero hops or zero
    /// bytes complete immediately, at time 0, matching the reference loop.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        let id = self.flows.len();
        let links_start = self.flow_links.len();
        for w in spec.path.windows(2) {
            let lid = self.intern_link((w[0], w[1]));
            self.flow_links.push(lid);
        }
        let remaining = spec.bytes.max(0.0);
        let mut flow = EngineFlow {
            state: FlowState::Active,
            remaining_bytes: remaining,
            rate_bps: 0.0,
            settled_s: self.now_s,
            version: 0,
            completion_s: 0.0,
            links_start,
            spec,
        };
        if flow.spec.hops() == 0 || remaining <= 0.0 {
            flow.state = FlowState::Done;
        } else {
            self.pending.push(id);
        }
        self.flows.push(flow);
        self.flow_mark.push(0);
        id
    }

    /// Process every event; flows still active afterwards (zero-rate on a
    /// zero-capacity link) are declared unroutable with infinite completion.
    pub fn run(&mut self) {
        self.run_until(f64::INFINITY);
        for flow in &mut self.flows {
            if flow.state != FlowState::Done {
                flow.state = FlowState::Done;
                flow.completion_s = f64::INFINITY;
            }
        }
        for v in &mut self.active_on_link {
            v.clear();
        }
    }

    /// Process events up to and including `t_end`, then settle every active
    /// flow's progress to `t_end` so remaining bytes can be read exactly.
    /// The engine can continue afterwards (add flows, call `run_until`
    /// again with a later deadline).
    ///
    /// The flows added since the last batch join first, as one batch at the
    /// current clock. After that, completions predicted for the *same
    /// instant* are drained as one batch. Each batch is followed by a single
    /// recomputation pass, so a round's flows starting together, or a wave
    /// of simultaneous completions, cost one waterfill per touched
    /// component instead of one per event.
    pub fn run_until(&mut self, t_end: f64) {
        if self.now_s <= t_end && !self.pending.is_empty() {
            // Ids ascend in insertion order, so the seeds come sorted.
            let seeds = std::mem::take(&mut self.pending);
            for &id in &seeds {
                self.stats.events += 1;
                let start = self.flows[id].links_start;
                for &link in &self.flow_links[start..start + self.flows[id].spec.hops()] {
                    self.active_on_link[link as usize].push(id);
                }
            }
            self.recompute_components(&seeds);
        }
        while let Some(Reverse(head)) = self.events.peek() {
            if head.time_s > t_end {
                break;
            }
            let batch_time = head.time_s;
            self.now_s = self.now_s.max(batch_time);
            let mut seeds: Vec<FlowId> = Vec::new();
            while let Some(Reverse(ev)) = self.events.peek() {
                if ev.time_s.total_cmp(&batch_time) != Ordering::Equal {
                    break;
                }
                // lint:allow(panic-in-engine): the heap is non-empty — the
                // surrounding `while let` just peeked this event.
                let Reverse(ev) = self.events.pop().expect("peeked event vanished");
                let flow = &self.flows[ev.flow];
                if flow.state != FlowState::Active || flow.version != ev.version {
                    continue; // stale prediction
                }
                self.stats.events += 1;
                self.settle(ev.flow);
                seeds.extend(self.finish_now(ev.flow));
            }
            seeds.sort_unstable();
            seeds.dedup();
            self.recompute_components(&seeds);
        }
        // `>=`, not `>`: when the last processed event lands exactly on
        // t_end, flows in *other* components are still settled only up to
        // their previous event and need reconciling to the deadline.
        if t_end.is_finite() && t_end >= self.now_s {
            self.now_s = t_end;
            for id in 0..self.flows.len() {
                if self.flows[id].state == FlowState::Active {
                    self.settle(id);
                }
            }
        }
    }

    /// True when no flow is still making progress or waiting to join:
    /// everything is done or stuck at rate zero.
    pub fn drained(&self) -> bool {
        self.pending.is_empty()
            && self.flows.iter().all(|f| f.state != FlowState::Active || f.rate_bps <= 0.0)
    }

    /// Whether a flow has finished (routable flows only; see
    /// [`Self::completion_s`] for the unroutable marker).
    pub fn is_done(&self, id: FlowId) -> bool {
        self.flows[id].state == FlowState::Done
    }

    /// Completion time of a finished flow (infinite if declared
    /// unroutable); meaningless while the flow is still active.
    pub fn completion_s(&self, id: FlowId) -> f64 {
        self.flows[id].completion_s
    }

    /// Bytes a flow still has to send, exact as of the last `run_until`
    /// deadline or processed event.
    pub fn remaining_bytes(&self, id: FlowId) -> f64 {
        self.flows[id].remaining_bytes
    }

    /// Latest finite completion time observed so far (0.0 if none).
    pub fn makespan_so_far(&self) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.state == FlowState::Done && f.completion_s.is_finite())
            .map(|f| f.completion_s)
            .fold(0.0, f64::max)
    }

    /// Total bytes carried over all links, summed in ascending `LinkKey`
    /// order via the arena's key-sorted id list: O(links), allocation-free,
    /// and bit-stable run-over-run (float addition does not commute at the
    /// last ulp, so the order is part of the determinism contract — see
    /// `crate::arena`). Links that carried nothing contribute exact
    /// zeros, which leave every partial sum bit-unchanged.
    fn carried_bytes(&self) -> f64 {
        self.links.ids_by_key().iter().map(|&id| self.link_bytes[id as usize]).sum()
    }

    /// Snapshot the run as a [`FluidResult`] (flows indexed in insertion
    /// order). Call after [`Self::run`]; flows not yet finished report
    /// infinite completion.
    pub fn result(&self) -> FluidResult {
        let completion: Vec<f64> = self
            .flows
            .iter()
            .map(|f| if f.state == FlowState::Done { f.completion_s } else { f64::INFINITY })
            .collect();
        // Only links that actually carried bytes get a map entry, matching
        // the map-keyed engine which created entries on first positive
        // addition.
        let link_bytes: BTreeMap<LinkKey, f64> = self
            .links
            .ids_by_key()
            .iter()
            .map(|&id| (self.links.key(id), self.link_bytes[id as usize]))
            .filter(|&(_, bytes)| bytes > 0.0)
            .collect();
        let carried = self.carried_bytes();
        let demand: f64 =
            self.flows.iter().map(|f| if f.spec.hops() > 0 { f.spec.bytes } else { 0.0 }).sum();
        let makespan = completion.iter().cloned().filter(|c| c.is_finite()).fold(0.0, f64::max);
        FluidResult {
            completion_s: completion,
            makespan_s: makespan,
            link_bytes,
            carried_bytes: carried,
            demand_bytes: demand,
        }
    }

    /// Reconcile a flow's remaining bytes (and the per-link byte counters)
    /// up to the current clock at its constant rate.
    fn settle(&mut self, id: FlowId) {
        let flow = &self.flows[id];
        let dt = self.now_s - flow.settled_s;
        if dt <= 0.0 || flow.rate_bps <= 0.0 {
            self.flows[id].settled_s = self.now_s;
            return;
        }
        let sent = (flow.rate_bps * dt / 8.0).min(flow.remaining_bytes);
        if sent > 0.0 {
            let start = flow.links_start;
            let end = start + flow.spec.hops();
            for k in start..end {
                self.link_bytes[self.flow_links[k] as usize] += sent;
            }
        }
        let flow = &mut self.flows[id];
        flow.remaining_bytes -= sent;
        flow.settled_s = self.now_s;
    }

    /// Mark a settled flow finished at the current clock: drain any float
    /// residue into the byte counters, deregister it from its links, and
    /// return the smallest still-active sharer of each of its links (the
    /// seeds of the components to re-rate). Idempotent callers must check
    /// state.
    ///
    /// One sharer per link is enough: the gather BFS reaches the link's
    /// other sharers through it, and if the seed itself finishes later in
    /// the same batch, its own `finish_now` seeds the link again with the
    /// next-smallest sharer. Each re-rated component's smallest seed is
    /// then its smallest flow that shared a link with a finished flow (or
    /// its smallest newly added flow), which fixes the order components
    /// re-rate in and so every float sum. The caller sorts and dedups a
    /// batch's seeds.
    fn finish_now(&mut self, id: FlowId) -> Vec<FlowId> {
        let start = self.flows[id].links_start;
        let end = start + self.flows[id].spec.hops();
        let leftover = self.flows[id].remaining_bytes;
        if leftover > 0.0 {
            for k in start..end {
                self.link_bytes[self.flow_links[k] as usize] += leftover;
            }
            self.flows[id].remaining_bytes = 0.0;
        }
        let flow = &mut self.flows[id];
        flow.state = FlowState::Done;
        flow.rate_bps = 0.0;
        flow.version += 1;
        flow.completion_s = self.now_s + self.per_hop_latency_s * flow.spec.hops() as f64;

        let mut seeds: Vec<FlowId> = Vec::new();
        for k in start..end {
            let sharers = &mut self.active_on_link[self.flow_links[k] as usize];
            sharers.retain(|&f| f != id);
            seeds.extend(sharers.iter().min());
        }
        seeds
    }

    /// Re-waterfill every connected component (over link sharing) that
    /// contains a seed flow. Disjoint components — e.g. two jobs whose
    /// rounds end at the same instant on separate shards, or a batch of
    /// newly added flows across all shards — are re-rated independently,
    /// one after another in gather order.
    fn recompute_components(&mut self, seeds: &[FlowId]) {
        // Phase 1: gather the touched components by BFS over the flow/link
        // sharing graph (components are disjoint by construction), using
        // epoch-stamped marks instead of per-event set allocations. Links
        // visited by one component can never belong to another in the same
        // batch — a shared link would have merged the components.
        self.epoch += 1;
        let epoch = self.epoch;
        let mut components: Vec<Vec<FlowId>> = Vec::new();
        {
            let flows = &self.flows;
            let flow_links = &self.flow_links;
            let active_on_link = &self.active_on_link;
            let flow_mark = &mut self.flow_mark;
            let link_mark = &mut self.link_mark;
            for &s in seeds {
                if flows[s].state != FlowState::Active || flow_mark[s] == epoch {
                    continue;
                }
                flow_mark[s] = epoch;
                let mut component: Vec<FlowId> = vec![s];
                let mut frontier: Vec<FlowId> = vec![s];
                while let Some(f) = frontier.pop() {
                    let start = flows[f].links_start;
                    let end = start + flows[f].spec.hops();
                    for &link in &flow_links[start..end] {
                        let lid = link as usize;
                        if link_mark[lid] == epoch {
                            continue;
                        }
                        link_mark[lid] = epoch;
                        for &g in &active_on_link[lid] {
                            if flow_mark[g] != epoch {
                                flow_mark[g] = epoch;
                                component.push(g);
                                frontier.push(g);
                            }
                        }
                    }
                }
                component.sort_unstable();
                components.push(component);
            }
        }

        // Then, per component: settle each member, finish any that already
        // ran dry (exact ties with the event that triggered this recompute,
        // like the reference loop completing several flows in one step),
        // water-fill the rest and reschedule their completion predictions.
        // Every scratch buffer is fully rewritten per pass, so pooling
        // cannot change results.
        let mut scratch = std::mem::take(&mut self.wf_scratch);
        for ids in &components {
            let mut live: Vec<FlowId> = Vec::with_capacity(ids.len());
            for &f in ids {
                self.settle(f);
                // The threshold is relative to the flow size so that
                // equal-share flows predicted to finish at float-identical
                // instants all complete on the first of their events (one
                // waterfill instead of one per flow); the time error is
                // O(1e-12) of the transfer.
                let eps = COMPLETION_EPS_BYTES.max(self.flows[f].spec.bytes * 1e-12);
                if self.flows[f].remaining_bytes <= eps {
                    self.finish_now(f);
                } else {
                    live.push(f);
                }
            }
            self.stats.waterfills += 1;
            self.stats.flows_rerated += live.len();
            self.stats.max_component = self.stats.max_component.max(live.len());
            let rates =
                waterfill_live(&self.links, &self.flow_links, &self.flows, &live, &mut scratch);
            for (&f, rate) in live.iter().zip(rates) {
                let flow = &mut self.flows[f];
                flow.rate_bps = rate;
                flow.version += 1;
                if rate > 0.0 {
                    let time_s = self.now_s + flow.remaining_bytes * 8.0 / rate;
                    let event =
                        Event { time_s, seq: self.next_seq, flow: f, version: flow.version };
                    self.next_seq += 1;
                    self.events.push(Reverse(event));
                }
            }
        }
        self.wf_scratch = scratch;
        #[cfg(test)]
        tests::certify_max_min(self);
    }
}

/// Max-min rates of one component's live flows under their relay caps,
/// aligned with `live` positions (a pure function of the arena and the
/// flat spans).
fn waterfill_live(
    links: &LinkArena,
    flow_links: &[LinkId],
    flows: &[EngineFlow],
    live: &[FlowId],
    scratch: &mut WaterfillScratch,
) -> Vec<f64> {
    if live.is_empty() {
        return Vec::new();
    }
    let spans: Vec<&[LinkId]> = live
        .iter()
        .map(|&f| {
            let flow = &flows[f];
            &flow_links[flow.links_start..flow.links_start + flow.spec.hops()]
        })
        .collect();
    let factors: Vec<f64> = live.iter().map(|&f| flows[f].spec.relay_factor).collect();
    waterfill_ids_with(links, &spans, &factors, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_oracle::check_max_min;

    /// Hold the engine's current rates to the max-min certificate. Called
    /// after every recompute, so each waterfill of every netsim unit test
    /// is certified: every active flow, over the arena's capacities, capped
    /// by its relay factor. Untouched components keep rates that are still
    /// max-min, since they share no link with a re-rated one.
    pub(super) fn certify_max_min(engine: &FluidEngine) {
        let links = &engine.links;
        let capacity: BTreeMap<LinkKey, f64> =
            links.ids_by_key().iter().map(|&id| (links.key(id), links.cap(id))).collect();
        let active: Vec<&EngineFlow> =
            engine.flows.iter().filter(|f| f.state == FlowState::Active).collect();
        let paths: Vec<&[usize]> = active.iter().map(|f| &f.spec.path[..]).collect();
        let factors: Vec<f64> = active.iter().map(|f| f.spec.relay_factor).collect();
        let rates: Vec<f64> = active.iter().map(|f| f.rate_bps).collect();
        if let Err(violation) = check_max_min(&capacity, &paths, &factors, &rates) {
            panic!("engine rates are not max-min fair at t = {}: {violation}", engine.now_s);
        }
    }

    fn ring(n: usize, cap: f64) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, cap);
        }
        g
    }

    #[test]
    fn disjoint_components_are_not_rerated_together() {
        // Two disjoint 4-rings with one flow per edge: every waterfill must
        // stay inside one ring (4 flows), never touch all 8.
        let mut engine = FluidEngine::new(&disjoint_rings(2, 4), 0.0);
        for base in [0usize, 4] {
            for i in 0..4 {
                engine.add_flow(FlowSpec::new(
                    vec![base + i, base + (i + 1) % 4],
                    100.0 * (1.0 + i as f64),
                ));
            }
        }
        engine.run();
        let stats = engine.stats();
        assert!(stats.max_component <= 4, "component leaked across shards: {stats:?}");
        let r = engine.result();
        assert!(r.completion_s.iter().all(|c| c.is_finite()));
    }

    /// `rings` disjoint rings of `size` nodes on one graph.
    fn disjoint_rings(rings: usize, size: usize) -> Graph {
        let mut g = Graph::new(rings * size);
        for base in (0..rings).map(|r| r * size) {
            for i in 0..size {
                g.add_edge(base + i, base + (i + 1) % size, 100.0);
            }
        }
        g
    }

    #[test]
    fn coupled_flows_do_not_shard() {
        // One shared link couples both flows into a single component: they
        // split it evenly and finish together.
        let g = ring(2, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let a = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        let b = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        engine.run();
        assert!((engine.completion_s(a) - 16.0).abs() < 1e-9);
        assert!((engine.completion_s(b) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn run_until_reports_exact_partial_progress() {
        let g = ring(2, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let id = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0)); // 8 s total
        engine.run_until(3.0);
        assert!(!engine.is_done(id));
        assert!((engine.remaining_bytes(id) - 62.5).abs() < 1e-9); // 300 bits sent
        engine.run_until(100.0);
        assert!(engine.is_done(id));
        assert!((engine.completion_s(id) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn run_until_settles_other_components_when_an_event_lands_on_the_deadline() {
        // Flow A (625 bytes at 100 bps) completes at exactly t = 50; flow B
        // lives in a disjoint component and must still be settled to the
        // deadline rather than left at its last event.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 100.0);
        g.add_edge(2, 3, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let a = engine.add_flow(FlowSpec::new(vec![0, 1], 625.0));
        let b = engine.add_flow(FlowSpec::new(vec![2, 3], 1000.0));
        engine.run_until(50.0);
        assert!(engine.is_done(a));
        assert!((engine.completion_s(a) - 50.0).abs() < 1e-9);
        assert!(!engine.is_done(b));
        assert!((engine.remaining_bytes(b) - 375.0).abs() < 1e-9); // 5000 bits sent
    }

    #[test]
    fn zero_capacity_links_never_produce_nan_rates() {
        // A flow whose only link has zero capacity stalls at rate 0 with no
        // NaN/inf leaking out of the water-filler: it stays in flight with
        // its bytes intact at a checkpoint, and only the drained run
        // declares it unroutable.
        let mut caps = BTreeMap::new();
        caps.insert((0usize, 1usize), 0.0f64);
        caps.insert((1, 2), 100.0);
        let mut engine = FluidEngine::from_capacities(caps, 0.0);
        let dead = engine.add_flow(FlowSpec::new(vec![0, 1], 10.0));
        let live = engine.add_flow(FlowSpec::new(vec![1, 2], 10.0));
        engine.run_until(1.0);
        assert!(!engine.is_done(dead), "a stalled flow must stay in flight");
        assert!(engine.remaining_bytes(dead) == 10.0);
        assert!((engine.completion_s(live) - 0.8).abs() < 1e-9);
        engine.run();
        assert!(engine.completion_s(dead).is_infinite());
        assert!(engine.drained());
    }

    #[test]
    fn a_finishing_seed_reseeds_its_links() {
        // Three flows share one 300 bps link at 100 bps each. A and B finish
        // in one batch at t = 8: A's completion seeds only B, the smallest
        // remaining sharer, and B's own completion must seed the link again
        // so that C is re-rated to the whole link.
        let g = ring(2, 300.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let a = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        let b = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        let c = engine.add_flow(FlowSpec::new(vec![0, 1], 400.0));
        engine.run();
        assert_eq!(engine.completion_s(a), 8.0);
        assert_eq!(engine.completion_s(b), 8.0);
        // 100 bytes by t = 8, then 300 bytes at 300 bps: 8 s more.
        assert!((engine.completion_s(c) - 16.0).abs() < 1e-9, "{}", engine.completion_s(c));
        // One waterfill for the added flows and one for C after the batch.
        assert_eq!(engine.stats().waterfills, 2);
    }

    #[test]
    fn mid_simulation_arrival_splits_bandwidth() {
        // Flow A alone for 4 s (50 bytes left), then B is added at the
        // clock and shares the link: A finishes at 4 + 50*8/50 = 12 s; B
        // needs 100*8 bits at 50 bps from t=4 until A leaves at 12 (50
        // bytes sent), then 100 bps -> 16 s.
        let g = ring(2, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let a = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        engine.run_until(4.0);
        let b = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        engine.run();
        assert!((engine.completion_s(a) - 12.0).abs() < 1e-9);
        assert!((engine.completion_s(b) - 16.0).abs() < 1e-9);
    }
}
