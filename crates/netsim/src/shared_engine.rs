//! Persistent shared-fabric engine: one [`FluidEngine`] kept alive across
//! the dynamic cluster's event windows (see [`SharedFabricEngine`]).
//!
//! Its contract is checked here, at the seam where the cache lives: after
//! every window, each resident's round time and each admission probe must
//! equal, to the bit, what a fresh engine computes over the current
//! residents (in admission order) and the cumulative fault history. The
//! tests below drive random admit/retire/fault/window sequences against
//! that fresh-engine reference.

use crate::arena::{dense_u32, LinkId};
use crate::engine::{EngineStats, FaultEvent, FlowId, FluidEngine};
use crate::fluid::{FlowSpec, LinkKey};
use crate::multijob::DynamicEngineStats;
use crate::network::SimNetwork;
use std::collections::BTreeMap;

/// One resident job inside a [`SharedFabricEngine`].
struct SharedSlot {
    /// The job's engine flow ids, ascending (admission order).
    flow_ids: Vec<FlowId>,
    /// Distinct links the job's flows touch, sorted — the job-level
    /// component index used to decide which residents an event window
    /// actually perturbs.
    links: Vec<LinkId>,
    compute_s: f64,
    /// Cached max completion over the job's flows from its last simulated
    /// window (−∞ when the job has no flows; +∞ when unroutable).
    comm_s: f64,
    /// Component id assigned by the last window (`u32::MAX` before the
    /// first).
    component: u32,
    /// Must be re-simulated next window (new arrival, or a component mate
    /// departed).
    dirty: bool,
}

/// Long-lived shared-fabric round simulator: one [`FluidEngine`] survives
/// across the dynamic cluster's event windows, so links intern once per
/// cluster lifetime, admission adds only the new job's flows
/// ([`FluidEngine::add_flow_parked`]), departure retires them
/// ([`FluidEngine::remove_flows`]), and each window restarts and re-rates
/// only the connected components the arrival/departure touched — every
/// other resident keeps its cached round time.
///
/// # Why the cache is exact
///
/// Each window simulates one round with every resident's flows starting at
/// their intra-round offsets on a clock rewound to zero, exactly like a
/// fresh engine. Disjoint components share no links, hence no float
/// operations: a component's completion times are a pure function of its
/// own flows and link capacities, so re-simulating an untouched component
/// would reproduce its cached values bit for bit. Job-level components
/// (over each job's distinct link set) are coarser than flow-level ones,
/// which keeps the dirty-propagation sound: any job sharing a link —
/// transitively — with a dirty job is re-rated too. The seam proptests in
/// this module hold this to `to_bits` equality against a fresh engine
/// after every window.
pub(crate) struct SharedFabricEngine {
    engine: FluidEngine,
    per_hop_latency_s: f64,
    /// Resident jobs; handles are stable indices (freed slots are reused).
    slots: Vec<Option<SharedSlot>>,
    free: Vec<usize>,
    /// Cumulative window counters (engine counters live in `engine`).
    windows: DynamicEngineStats,
    /// Epoch-stamped scratch for the per-window job-component union-find.
    link_slot: Vec<u32>,
    link_stamp: Vec<u64>,
    epoch: u64,
    uf: Vec<u32>,
    /// Fault events injected since the last window; drained into the
    /// engine's event queue (offset 0) when the next window runs.
    pending_faults: Vec<FaultEvent>,
}

impl SharedFabricEngine {
    /// A persistent engine over the shared fabric; links intern here, once.
    pub fn new(net: &SimNetwork) -> Self {
        SharedFabricEngine {
            engine: FluidEngine::new(&net.graph, net.per_hop_latency_s),
            per_hop_latency_s: net.per_hop_latency_s,
            slots: Vec::new(),
            free: Vec::new(),
            windows: DynamicEngineStats::default(),
            link_slot: Vec::new(),
            link_stamp: Vec::new(),
            epoch: 0,
            uf: Vec::new(),
            pending_faults: Vec::new(),
        }
    }

    /// Inject a fabric fault (or recovery): every resident the fault can
    /// touch — a job crossing an affected link, or sourcing flows at a
    /// straggling server — is marked dirty, and the event itself enters the
    /// engine's queue at the start of the next window. Residents in other
    /// components keep their cached round times: their rates are a pure
    /// function of links the fault did not change.
    pub fn inject_fault(&mut self, fault: FaultEvent) {
        let lids = self.engine.fault_link_ids(&fault);
        let engine = &self.engine;
        for slot in self.slots.iter_mut().flatten() {
            let hit = match fault {
                FaultEvent::Straggler { server, .. } => {
                    slot.flow_ids.iter().any(|&f| engine.flow_src(f) == server)
                }
                _ => lids.iter().any(|lid| slot.links.binary_search(lid).is_ok()),
            };
            if hit {
                slot.dirty = true;
            }
        }
        self.pending_faults.push(fault);
    }

    /// Whether injected faults are still waiting for a window to absorb
    /// them (the dynamic loop forces a window even with no dirty resident,
    /// so admission probes never read stale health state).
    pub fn has_pending_faults(&self) -> bool {
        !self.pending_faults.is_empty()
    }

    /// Admit a job: park its flows in the engine (paths intern now, no
    /// events yet) and mark it dirty for the next window. Returns a stable
    /// slot handle.
    pub fn admit(&mut self, flows: Vec<FlowSpec>, compute_s: f64) -> usize {
        let mut flow_ids = Vec::with_capacity(flows.len());
        for f in flows {
            flow_ids.push(self.engine.add_flow_parked(f));
        }
        let mut links: Vec<LinkId> =
            flow_ids.iter().flat_map(|&f| self.engine.span(f).iter().copied()).collect();
        links.sort_unstable();
        links.dedup();
        let slot = SharedSlot {
            flow_ids,
            links,
            compute_s,
            comm_s: f64::NEG_INFINITY,
            component: u32::MAX,
            dirty: true,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    /// Retire a departing job: its component mates lose a contender (they
    /// re-rate next window), its flows leave the engine.
    pub fn retire(&mut self, handle: usize) {
        let slot = self.slots[handle].take().expect("retire of a live slot");
        if slot.component != u32::MAX {
            for s in self.slots.iter_mut().flatten() {
                if s.component == slot.component {
                    s.dirty = true;
                }
            }
        }
        self.engine.remove_flows(&slot.flow_ids);
        self.free.push(handle);
    }

    /// Simulate one event window: partition residents into job-level
    /// components over shared links, propagate dirtiness within each
    /// component, restart and re-rate exactly the dirty components'
    /// flows, and refresh their cached round times. Untouched components
    /// cost nothing — not even a restarted arrival event.
    pub fn run_window(&mut self) {
        // Job-level union-find over each slot's distinct link list,
        // epoch-stamped so the link→slot map never refills.
        let n = self.slots.len();
        self.epoch += 1;
        let epoch = self.epoch;
        let links_total = self.engine.link_count();
        if self.link_stamp.len() < links_total {
            self.link_stamp.resize(links_total, 0);
            self.link_slot.resize(links_total, 0);
        }
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize]; // path halving
                x = parent[x as usize];
            }
            x
        }
        let uf = &mut self.uf;
        uf.clear();
        uf.extend(0..dense_u32(n));
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            for &lid in &slot.links {
                let l = lid as usize;
                if self.link_stamp[l] != epoch {
                    self.link_stamp[l] = epoch;
                    self.link_slot[l] = dense_u32(i);
                } else {
                    let a = find(uf, dense_u32(i));
                    let b = find(uf, self.link_slot[l]);
                    if a != b {
                        uf[a as usize] = b;
                    }
                }
            }
        }
        // Dense component ids in ascending first-member order, then
        // propagate dirtiness to whole components.
        let mut component_of_root: Vec<u32> = vec![u32::MAX; n];
        let mut comp_dirty: Vec<bool> = Vec::new();
        let mut total_jobs = 0usize;
        for i in 0..n {
            let Some(slot) = &self.slots[i] else { continue };
            total_jobs += 1;
            let root = find(uf, dense_u32(i)) as usize;
            if component_of_root[root] == u32::MAX {
                component_of_root[root] = dense_u32(comp_dirty.len());
                comp_dirty.push(false);
            }
            let cid = component_of_root[root];
            comp_dirty[cid as usize] = comp_dirty[cid as usize] || slot.dirty;
            let slot = self.slots[i].as_mut().expect("checked above");
            slot.component = cid;
        }
        // Collect the dirty components' flows, ascending (admission order),
        // reproducing a fresh engine's flow ordering per component.
        let mut dirty_flows: Vec<FlowId> = Vec::new();
        let mut dirty_jobs = 0usize;
        for slot in self.slots.iter_mut().flatten() {
            if comp_dirty[slot.component as usize] {
                slot.dirty = true;
                dirty_jobs += 1;
                dirty_flows.extend(slot.flow_ids.iter().copied());
            }
        }
        self.windows.windows += 1;
        self.windows.jobs_rerated += dirty_jobs;
        self.windows.jobs_reused += total_jobs - dirty_jobs;
        if dirty_jobs < total_jobs || dirty_flows.is_empty() {
            self.windows.windows_incremental += 1;
        } else {
            self.windows.windows_rebuilt += 1;
        }
        if dirty_flows.is_empty() && self.pending_faults.is_empty() {
            return; // the whole window served from cache
        }
        dirty_flows.sort_unstable();
        self.engine.restart_flows(&dirty_flows);
        // Faults enter through the queue at the window origin. Restarted
        // arrivals carry lower sequence numbers, so the t=0 batch orders
        // arrivals before faults, and the batch re-rates once: every flow
        // starts on the degraded fabric, as on a fresh engine carrying the
        // same fault history.
        for fault in std::mem::take(&mut self.pending_faults) {
            self.engine.schedule_fault(0.0, fault);
        }
        self.engine.run();
        for slot in self.slots.iter_mut().flatten() {
            if !slot.dirty {
                continue;
            }
            let mut comm = f64::NEG_INFINITY;
            for &f in &slot.flow_ids {
                comm = comm.max(self.engine.completion_s(f));
            }
            slot.comm_s = comm;
            slot.dirty = false;
        }
    }

    /// Round time of a resident job: compute plus its cached communication
    /// completion (from the window origin).
    pub fn round_total_s(&self, handle: usize) -> f64 {
        self.round_total_from(handle, 0.0)
    }

    /// Round time measured from `arrival_s` inside the window (static
    /// shared rounds stagger jobs; the dynamic loop always passes 0).
    pub fn round_total_from(&self, handle: usize, arrival_s: f64) -> f64 {
        let slot = self.slots[handle].as_ref().expect("round time of a live slot");
        slot.compute_s + (slot.comm_s - arrival_s).max(0.0)
    }

    /// Round time the job would see alone on the fabric — the admission
    /// feasibility probe. Simulated on a throwaway engine whose capacities
    /// are read back from the persistent arena but restricted to the
    /// job's own links: rates depend only on span links, so this is
    /// bit-identical to a solo round on the full fabric without paying a
    /// full-fabric rebuild per admission.
    pub fn solo_total_s(&self, flows: &[FlowSpec], compute_s: f64) -> f64 {
        let mut caps: BTreeMap<LinkKey, f64> = BTreeMap::new();
        for f in flows {
            for w in f.path.windows(2) {
                let key = (w[0], w[1]);
                caps.entry(key).or_insert_with(|| self.engine.capacity_of(key));
            }
        }
        let mut probe = FluidEngine::from_capacities(caps, self.per_hop_latency_s);
        // Capacities read back above are post-fault effective values; the
        // probe also inherits straggler factors so a degraded fabric prices
        // admissions at what the job would really get.
        probe.set_straggler_factors(self.engine.straggler_factors().clone());
        for f in flows {
            probe.add_flow(f.clone());
        }
        probe.run();
        let mut comm = 0.0f64;
        for id in 0..flows.len() {
            comm = comm.max(probe.completion_s(id));
        }
        compute_s + comm.max(0.0)
    }

    /// Cumulative engine counters (events, waterfills, …) across windows.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Combined window + engine counters for the run so far.
    pub fn stats(&self) -> DynamicEngineStats {
        let e = self.engine.stats();
        DynamicEngineStats {
            events: e.events,
            waterfills: e.waterfills,
            flows_rerated: e.flows_rerated,
            max_component: e.max_component,
            ..self.windows
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{allreduce_flows, AllReducePlan};
    use proptest::prelude::*;
    use topoopt_graph::{topologies, Graph};

    /// The fresh-engine reference: one new engine over `jobs` (flows and
    /// compute time, in admission order) with the cumulative fault history
    /// applied as state before the run. Returns each job's round time from
    /// the window origin.
    fn shared_round_times_rebuild(
        net: &SimNetwork,
        jobs: &[(&[FlowSpec], f64)],
        faults: &[FaultEvent],
    ) -> Vec<f64> {
        let mut engine = FluidEngine::new(&net.graph, net.per_hop_latency_s);
        let ids: Vec<Vec<FlowId>> = jobs
            .iter()
            .map(|(flows, _)| flows.iter().map(|f| engine.add_flow(f.clone())).collect())
            .collect();
        for &fault in faults {
            engine.apply_fault_now(fault);
        }
        engine.run();
        jobs.iter()
            .zip(&ids)
            .map(|(&(_, compute_s), ids)| {
                compute_s + ids.iter().fold(0.0f64, |c, &id| c.max(engine.completion_s(id)))
            })
            .collect()
    }

    /// One step of a seam trace: `(kind, pick, pick, gigabytes, compute_s)`.
    /// Kind 0 admits a ring job, 1 retires a resident, 2 injects a fault,
    /// 3 runs a window.
    type Op = (usize, usize, usize, f64, f64);

    /// A resident as the test tracks it: handle, flows, compute time.
    type Resident = (usize, Vec<FlowSpec>, f64);

    /// Run one window, then hold each resident's round time and its solo
    /// probe to the fresh-engine reference, bit for bit.
    fn window(
        net: &SimNetwork,
        sim: &mut SharedFabricEngine,
        residents: &[Resident],
        faults: &[FaultEvent],
    ) {
        sim.run_window();
        let jobs: Vec<(&[FlowSpec], f64)> =
            residents.iter().map(|(_, f, c)| (&f[..], *c)).collect();
        let fresh = shared_round_times_rebuild(net, &jobs, faults);
        for ((handle, flows, compute), want) in residents.iter().zip(fresh) {
            assert_eq!(sim.round_total_s(*handle).to_bits(), want.to_bits(), "resident {handle}");
            let solo = shared_round_times_rebuild(net, &[(&flows[..], *compute)], faults)[0];
            assert_eq!(sim.solo_total_s(flows, *compute).to_bits(), solo.to_bits(), "probe");
        }
    }

    /// Drive a [`SharedFabricEngine`] through `ops` plus a closing window,
    /// checking the seam after every window.
    fn check_seam(graph: Graph, total: usize, ops: &[Op]) {
        let mut net = SimNetwork::without_rules(graph, total);
        net.per_hop_latency_s = 1.0e-6;
        let edges: Vec<(usize, usize)> = net.graph.edges().map(|(_, e)| (e.src, e.dst)).collect();
        let mut sim = SharedFabricEngine::new(&net);
        let mut residents: Vec<Resident> = Vec::new(); // admission order
        let mut faults: Vec<FaultEvent> = Vec::new();
        for &(kind, a, b, gb, compute_s) in ops {
            match kind {
                0 => {
                    let n = 2 + a % 4;
                    let servers: Vec<usize> = (0..n).map(|k| (b + k) % total).collect();
                    let flows =
                        allreduce_flows(&net, &AllReducePlan::natural_ring(servers, gb * 1.0e9));
                    residents.push((sim.admit(flows.clone(), compute_s), flows, compute_s));
                }
                1 if !residents.is_empty() => {
                    let (handle, _, _) = residents.remove(a % residents.len());
                    sim.retire(handle);
                }
                2 => {
                    let (s, link) = (a % total, edges[a % edges.len()]);
                    let fault = match b % 5 {
                        0 => FaultEvent::LinkDown(link),
                        1 => FaultEvent::LinkUp(link),
                        2 => FaultEvent::OcsPortDown(s),
                        3 => FaultEvent::OcsPortUp(s),
                        _ => FaultEvent::Straggler { server: s, egress_factor: gb / 2.0 },
                    };
                    sim.inject_fault(fault);
                    faults.push(fault);
                }
                3 => window(&net, &mut sim, &residents, &faults),
                _ => {}
            }
        }
        window(&net, &mut sim, &residents, &faults);
    }

    fn shared_ring(total: usize, cap: f64) -> Graph {
        let mut g = Graph::new(total);
        for i in 0..total {
            g.add_edge(i, (i + 1) % total, cap);
            g.add_edge((i + 1) % total, i, cap);
        }
        g
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (0usize..4, 0usize..64, 0usize..64, 0.2f64..3.0, 0.0f64..0.2),
            1usize..28,
        )
    }

    proptest! {
        // Jobs on an ideal switch share a component only when their
        // server sets overlap, so most windows serve some residents from
        // the cache.
        #[test]
        fn persistent_engine_matches_a_fresh_engine_on_ideal_switch_traces(
            total in 6usize..16,
            trace in ops(),
        ) {
            check_seam(topologies::ideal_switch(total, 100.0e9), total, &trace);
        }

        // On a shared ring the wrap-around flow of each job crosses other
        // jobs' links, so components span several residents and a
        // retirement must re-rate its component mates.
        #[test]
        fn persistent_engine_matches_a_fresh_engine_on_shared_ring_traces(
            total in 6usize..14,
            trace in ops(),
        ) {
            check_seam(shared_ring(total, 60.0e9), total, &trace);
        }
    }

    #[test]
    fn seam_holds_for_retire_before_first_window_and_fault_only_windows() {
        // Two overlapping jobs; one retires before the engine's first
        // window. Then two fault-only windows: link (2, 1), which the
        // survivor's wrap-around flow crosses, dies and recovers.
        let trace: [Op; 8] = [
            (0, 2, 0, 1.0, 0.05),
            (0, 2, 1, 2.0, 0.0),
            (1, 0, 0, 0.0, 0.0),
            (3, 0, 0, 0.0, 0.0),
            (2, 3, 0, 0.0, 0.0),
            (3, 0, 0, 0.0, 0.0),
            (2, 3, 1, 0.0, 0.0),
            (3, 0, 0, 0.0, 0.0),
        ];
        check_seam(shared_ring(8, 60.0e9), 8, &trace);
    }
}
