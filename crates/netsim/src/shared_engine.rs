//! Shared-fabric round simulator that lives as long as the dynamic
//! cluster (see [`SharedFabricEngine`]).
//!
//! Its contract is checked here, at the seam where the cache lives: after
//! every window, each resident's round time and each admission probe must
//! equal, to the bit, what a fresh engine computes over the current
//! residents (in admission order) and the cumulative fault history. The
//! tests below drive random admit/retire/fault/window sequences against
//! that fresh-engine reference.

use crate::arena::{dense_u32, LinkId};
use crate::engine::{EngineStats, FaultEvent, FluidEngine};
use crate::fluid::{FlowSpec, LinkKey};
use crate::multijob::DynamicEngineStats;
use crate::network::SimNetwork;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// One resident job inside a [`SharedFabricEngine`].
struct SharedSlot {
    /// The job's flows, simulated afresh whenever its component is dirty.
    flows: Vec<FlowSpec>,
    /// Admission counter: a component's engine takes its members' flows in
    /// admission order. Slot indices cannot tell that order, because freed
    /// slots are reused.
    admitted: u64,
    /// Distinct fabric links the job's flows touch, sorted — the job-level
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
    /// Must be re-simulated next window (new arrival, a component mate
    /// departed, or a fault touched it).
    dirty: bool,
}

/// Shared-fabric round simulator for the dynamic cluster's event windows.
/// Each window partitions the residents into job-level components over
/// shared links and re-simulates only the dirty components — those an
/// arrival, departure or fault touched — each on a fresh [`FluidEngine`]
/// built like the admission probe ([`Self::solo_total_s`]). Every other
/// resident keeps its cached round time. A departing job takes its flows
/// with it, so the state is bounded by the residents, not by history.
///
/// # Why the cache is exact
///
/// Each window simulates one round with every resident's flows starting at
/// their intra-round offsets from time zero. Disjoint components share no
/// links, hence no float operations: a component's completion times are a
/// pure function of its own flows (in admission order), their links'
/// capacities and the straggler factors. Re-simulating an untouched
/// component would reproduce its cached values bit for bit, and simulating
/// a dirty one on an engine of its own gives what a whole-fabric engine
/// would. Job-level components (over each job's distinct link set) are
/// coarser than flow-level ones, which keeps the dirty-propagation sound:
/// any job sharing a link — transitively — with a dirty job is re-rated
/// too. The seam proptests in this module hold this to `to_bits` equality
/// against a fresh whole-fabric engine after every window.
pub(crate) struct SharedFabricEngine {
    /// Flowless engine over the fabric: it interns every path link once,
    /// so job link sets and fault targets share one id space, and it holds
    /// the health state faults leave behind.
    fabric: FluidEngine,
    per_hop_latency_s: f64,
    /// Resident jobs; handles are stable indices (freed slots are reused).
    slots: Vec<Option<SharedSlot>>,
    free: Vec<usize>,
    /// Jobs admitted so far.
    admissions: u64,
    /// Cumulative counters of every component engine run so far.
    engine: EngineStats,
    /// Cumulative window counters.
    windows: DynamicEngineStats,
    /// Epoch-stamped scratch for the per-window job-component union-find.
    link_slot: Vec<u32>,
    link_stamp: Vec<u64>,
    epoch: u64,
    uf: Vec<u32>,
}

impl SharedFabricEngine {
    /// An engine over the shared fabric; its links intern here, once.
    pub fn new(net: &SimNetwork) -> Self {
        SharedFabricEngine {
            fabric: FluidEngine::new(&net.graph, net.per_hop_latency_s),
            per_hop_latency_s: net.per_hop_latency_s,
            slots: Vec::new(),
            free: Vec::new(),
            admissions: 0,
            engine: EngineStats::default(),
            windows: DynamicEngineStats::default(),
            link_slot: Vec::new(),
            link_stamp: Vec::new(),
            epoch: 0,
            uf: Vec::new(),
        }
    }

    /// Inject a fabric fault (or recovery): it applies to the fabric's
    /// health state at once, so the next admission probe already sees it,
    /// and every resident it can touch — a job crossing an affected link,
    /// or sourcing flows at a straggling server — is marked dirty for the
    /// next window. Residents in other components keep their cached round
    /// times: their rates are a pure function of links the fault did not
    /// change.
    pub fn inject_fault(&mut self, fault: FaultEvent) {
        let lids = self.fabric.fault_link_ids(&fault);
        for slot in self.slots.iter_mut().flatten() {
            let hit = match fault {
                FaultEvent::Straggler { server, .. } => slot.flows.iter().any(|f| f.src == server),
                _ => lids.iter().any(|lid| slot.links.binary_search(lid).is_ok()),
            };
            if hit {
                slot.dirty = true;
            }
        }
        self.fabric.schedule_fault(0.0, fault);
        self.fabric.run();
    }

    /// Admit a job: intern its path links and mark it dirty for the next
    /// window. Returns a stable slot handle.
    pub fn admit(&mut self, flows: Vec<FlowSpec>, compute_s: f64) -> usize {
        let mut links: Vec<LinkId> = flows
            .iter()
            .flat_map(|f| f.path.windows(2))
            .map(|w| self.fabric.intern_link((w[0], w[1])))
            .collect();
        links.sort_unstable();
        links.dedup();
        let slot = SharedSlot {
            flows,
            admitted: self.admissions,
            links,
            compute_s,
            comm_s: f64::NEG_INFINITY,
            component: u32::MAX,
            dirty: true,
        };
        self.admissions += 1;
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
    /// re-rate next window) and its slot is freed. Retiring a handle that
    /// is not resident does nothing.
    pub fn retire(&mut self, handle: usize) {
        let Some(slot) = self.slots[handle].take() else { return };
        if slot.component != u32::MAX {
            for s in self.slots.iter_mut().flatten() {
                if s.component == slot.component {
                    s.dirty = true;
                }
            }
        }
        self.free.push(handle);
    }

    /// Simulate one event window: partition residents into job-level
    /// components over shared links, propagate dirtiness within each
    /// component, simulate each dirty component on a fresh engine (fanned
    /// out over rayon, merged in component order), and refresh their
    /// cached round times. Untouched components cost nothing.
    pub fn run_window(&mut self) {
        // Job-level union-find over each slot's distinct link list,
        // epoch-stamped so the link→slot map never refills.
        let n = self.slots.len();
        self.epoch += 1;
        let epoch = self.epoch;
        let links_total = self.fabric.link_count();
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
        // Dense component ids in ascending first-member order. Each
        // component lists its members as (admission, slot) pairs; it is
        // dirty when any member is.
        let mut component_of_root: Vec<u32> = vec![u32::MAX; n];
        let mut members: Vec<Vec<(u64, usize)>> = Vec::new();
        let mut comp_dirty: Vec<bool> = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(slot) = slot else { continue };
            let root = find(uf, dense_u32(i)) as usize;
            if component_of_root[root] == u32::MAX {
                component_of_root[root] = dense_u32(members.len());
                members.push(Vec::new());
                comp_dirty.push(false);
            }
            let cid = component_of_root[root];
            members[cid as usize].push((slot.admitted, i));
            comp_dirty[cid as usize] |= slot.dirty;
            slot.component = cid;
        }
        let total_jobs: usize = members.iter().map(Vec::len).sum();
        // The dirty components, members in admission order: a fresh
        // engine's flow order.
        let mut dirty: Vec<Vec<(u64, usize)>> =
            members.into_iter().zip(comp_dirty).filter_map(|(m, d)| d.then_some(m)).collect();
        for m in &mut dirty {
            m.sort_unstable();
        }
        let slots = &self.slots;
        let components: Vec<Vec<&[FlowSpec]>> = dirty
            .iter()
            .map(|m| {
                m.iter().filter_map(|&(_, i)| slots[i].as_ref()).map(|s| &s.flows[..]).collect()
            })
            .collect();
        let dirty_jobs: usize = dirty.iter().map(Vec::len).sum();
        let dirty_flows: usize = components.iter().flatten().map(|flows| flows.len()).sum();
        self.windows.windows += 1;
        self.windows.jobs_rerated += dirty_jobs;
        self.windows.jobs_reused += total_jobs - dirty_jobs;
        if dirty_jobs < total_jobs || dirty_flows == 0 {
            self.windows.windows_incremental += 1;
        } else {
            self.windows.windows_rebuilt += 1;
        }
        if dirty_flows == 0 {
            return; // the whole window served from cache
        }
        let runs: Vec<(Vec<f64>, EngineStats)> =
            components.par_iter().map(|jobs| self.simulate(jobs)).collect();
        for (m, (comms, stats)) in dirty.iter().zip(runs) {
            for (&(_, i), comm) in m.iter().zip(comms) {
                if let Some(slot) = self.slots[i].as_mut() {
                    slot.comm_s = comm;
                    slot.dirty = false;
                }
            }
            self.engine.absorb(&stats);
        }
    }

    /// Simulate `jobs` together for one round on a fresh engine whose
    /// capacities are read back from the fabric (post-fault effective
    /// values) but restricted to the jobs' own path links, with the
    /// fabric's straggler factors inherited and flows added in the order
    /// given. Rates depend only on span links, so this is bit-identical to
    /// the same round on the full fabric without paying a full-fabric
    /// build. Returns each job's last completion (−∞ for a job without
    /// flows) and the run's counters.
    fn simulate(&self, jobs: &[&[FlowSpec]]) -> (Vec<f64>, EngineStats) {
        let mut caps: BTreeMap<LinkKey, f64> = BTreeMap::new();
        for f in jobs.iter().copied().flatten() {
            for w in f.path.windows(2) {
                let key = (w[0], w[1]);
                caps.entry(key).or_insert_with(|| self.fabric.capacity_of(key));
            }
        }
        let mut engine = FluidEngine::from_capacities(caps, self.per_hop_latency_s);
        engine.set_straggler_factors(self.fabric.straggler_factors().clone());
        for f in jobs.iter().copied().flatten() {
            engine.add_flow(f.clone());
        }
        engine.run();
        let mut next = 0;
        let comms = jobs
            .iter()
            .map(|flows| {
                let ids = next..next + flows.len();
                next = ids.end;
                ids.map(|id| engine.completion_s(id)).fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        (comms, engine.stats())
    }

    /// Round time of a resident job: compute plus its cached communication
    /// completion (from the window origin).
    pub fn round_total_s(&self, handle: usize) -> f64 {
        self.round_total_from(handle, 0.0)
    }

    /// Round time measured from `arrival_s` inside the window (static
    /// shared rounds stagger jobs; the dynamic loop always passes 0). A
    /// handle that is not resident never finishes a round: +∞.
    pub fn round_total_from(&self, handle: usize, arrival_s: f64) -> f64 {
        let Some(slot) = &self.slots[handle] else { return f64::INFINITY };
        slot.compute_s + (slot.comm_s - arrival_s).max(0.0)
    }

    /// Round time the job would see alone on the fabric — the admission
    /// feasibility probe, simulated the way a dirty component is.
    pub fn solo_total_s(&self, flows: &[FlowSpec], compute_s: f64) -> f64 {
        let (comms, _) = self.simulate(&[flows]);
        compute_s + comms[0].max(0.0)
    }

    /// Cumulative engine counters (events, waterfills, …) across windows,
    /// fault events included.
    pub fn engine_stats(&self) -> EngineStats {
        let mut stats = self.engine;
        stats.absorb(&self.fabric.stats());
        stats
    }

    /// Combined window + engine counters for the run so far.
    pub fn stats(&self) -> DynamicEngineStats {
        let e = self.engine_stats();
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
    use crate::engine::FlowId;
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

    #[test]
    fn no_flow_outlives_its_job_under_long_churn() {
        // 10^4 admit → window → retire cycles at a residency of at most 4:
        // the four resident jobs sit on disjoint servers of an ideal switch,
        // so each window re-rates only the newcomer, freed slots are reused,
        // and the fabric engine never holds a flow.
        let total = 16;
        let net = SimNetwork::without_rules(topologies::ideal_switch(total, 100.0e9), total);
        let mut sim = SharedFabricEngine::new(&net);
        let mut residents = std::collections::VecDeque::new();
        let cycles = 10_000;
        for k in 0..cycles {
            let servers: Vec<usize> = (0..4).map(|j| 4 * (k % 4) + j).collect();
            let flows = allreduce_flows(&net, &AllReducePlan::natural_ring(servers, 1.0e6));
            residents.push_back(sim.admit(flows, 0.0));
            sim.run_window();
            if residents.len() == 4 {
                sim.retire(residents.pop_front().expect("four residents"));
            }
            assert!(sim.slots.len() <= 4, "slot vector outgrew the peak residency");
        }
        assert!(sim.fabric.result().completion_s.is_empty(), "the fabric engine holds flows");
        assert_eq!(sim.stats().jobs_rerated, cycles, "a window re-rated more than the newcomer");
    }
}
