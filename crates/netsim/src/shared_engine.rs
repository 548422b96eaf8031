//! Shared-fabric round simulator that lives as long as the dynamic
//! cluster (see [`SharedFabricEngine`]).
//!
//! Its contract is checked here, at the seam where the cache lives: after
//! every window, each resident's round time and each admission probe must
//! equal, to the bit, what a fresh engine computes over the current
//! residents (in admission order). The tests below drive random
//! admit/retire/window sequences, which also admit relabeled copies of
//! residents, against that fresh-engine reference, admitting each job
//! through its probe as the dynamic loop does, and against a second engine
//! that admits the same jobs without probes.

use crate::arena::{dense_u32, LinkArena, LinkId};
use crate::engine::{EngineStats, FluidEngine};
use crate::fluid::{link_capacities, FlowSpec, LinkKey};
use crate::multijob::DynamicEngineStats;
use crate::network::SimNetwork;
use rayon::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything a fresh engine over a component reads, with each node id
/// replaced by its rank among the component's path nodes: per job its flow
/// count, then per flow (in admission order) its path, bytes and relay
/// factor, then the capacity of each link the flows cross, in ascending
/// link order. Components of equal shape get equal completion times and
/// engine counters, to the bit (see "Why the cache is exact").
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Shape(Vec<u64>);

/// The solo run every probed resident of one shape gets: the residents'
/// count, and the run of the first of them admitted.
struct ShapeRun {
    residents: usize,
    run: SoloRun,
}

/// One job simulated alone on the fabric: what an admission probe leaves
/// behind for the job's slot.
#[derive(Debug, Clone, Copy)]
struct SoloRun {
    /// Last completion over the job's flows (−∞ without flows, +∞ when
    /// unroutable).
    comm_s: f64,
    /// The run's engine counters.
    stats: EngineStats,
}

/// An admission probe: a job's flows and compute time, and its round
/// simulated alone on the fabric, or taken from a probed resident of the
/// same shape. Admitting the probe ([`SharedFabricEngine::admit_probed`])
/// lets a window take the probe's run instead of simulating the same job
/// again.
pub(crate) struct Probe {
    flows: Vec<FlowSpec>,
    compute_s: f64,
    run: SoloRun,
    shape: Shape,
    /// The run came from a resident of the same shape.
    reused: bool,
}

impl Probe {
    /// Round time the job would see alone on the fabric.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.run.comm_s.max(0.0)
    }
}

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
    /// Must be re-simulated next window (new arrival, or a component mate
    /// departed).
    dirty: bool,
    /// The job's admission probe (`None` when admitted without one).
    probe: Option<SoloRun>,
    /// The probe's shape, counted in the engine's resident-shape table.
    shape: Option<Arc<Shape>>,
}

/// Shared-fabric round simulator for the dynamic cluster's event windows.
/// Each window partitions the residents into job-level components over
/// shared links and re-simulates only the dirty components — those an
/// arrival or departure touched — on fresh [`FluidEngine`]s built like the
/// admission probe ([`Self::probe`]), one per distinct shape. Every other
/// resident keeps its cached round time, and a dirty component that is one
/// probed job alone takes the probe's run. A probe takes the run of a
/// probed resident of the same shape when there is one. A departing job
/// takes its flows and its share of the shape table with it, so the state
/// is bounded by the residents, not by history.
///
/// # Why the cache is exact
///
/// Each window simulates one round with every resident's flows starting
/// together at time zero. Disjoint components share no links, hence no
/// float operations: a component's completion times are a pure function of
/// its own flows (in admission order) and their links' capacities.
/// Re-simulating an untouched component would reproduce its cached values
/// bit for bit, and simulating a dirty one on an engine of its own gives
/// what a whole-fabric engine would. Job-level components
/// (over each job's distinct link set) are coarser than flow-level ones,
/// which keeps the dirty-propagation sound: any job sharing a link —
/// transitively — with a dirty job is re-rated too.
///
/// An admission probe is such a component run: one job alone, on an engine
/// built from the fabric's capacities, which never change (interning a
/// path link the fabric lacks adds it at the capacity 0 a missing link
/// already reads as). So a dirty component that is the probed job alone
/// would be simulated from the same capacities and flows as the probe was,
/// and the window takes the probe's completion time and absorbs its
/// counters instead: round times and engine counters are the same bits
/// either way.
///
/// A fresh engine reads node ids only through the order of its link keys:
/// it assigns arena ids in key order, and the water-filler scans touched
/// links in key order. A strictly increasing relabeling of the nodes
/// preserves the lexicographic order of `(src, dst)` keys, so it changes
/// no float operation. A component's [`Shape`] lists its flows with every
/// node id replaced by its rank among the component's path nodes, which
/// is such a relabeling, together with what the fabric contributes: the
/// capacity of each link the flows cross. Two components of equal shape
/// are therefore the same simulation, so a window builds one engine per
/// distinct shape among its dirty components that no probe serves, and
/// every component of that shape takes the run's completion times and
/// absorbs its counters, as it would for a run of its own.
/// `ClusterShards::allocate` places every job on a strictly increasing
/// server map, so copies of one job on other shards share a shape.
///
/// The same holds for probes. The engine keeps a table of the shapes of
/// its probed residents, counted up on [`Self::admit_probed`] and down on
/// [`Self::retire`], each with the solo run of its first resident. A probe
/// whose shape is in the table takes that run instead of simulating. The
/// table holds exactly the shapes of resident probed jobs, so it is
/// bounded by the residents, not by history, and a shape is held once
/// however many residents share it.
///
/// The seam proptests in this module hold this to `to_bits` equality
/// against a fresh whole-fabric engine, and against an engine admitting
/// the same jobs without probes, after every window; their traces admit
/// relabeled copies of residents, so windows and probes meet equal
/// shapes.
pub(crate) struct SharedFabricEngine {
    /// The fabric's links at their capacities, plus every path link an
    /// admission interns (capacity 0: links absent from the fabric carry
    /// nothing): the id space of the residents' link sets, and the
    /// capacities every window's engines are built from.
    links: LinkArena,
    per_hop_latency_s: f64,
    /// Resident jobs; handles are stable indices (freed slots are reused).
    slots: Vec<Option<SharedSlot>>,
    free: Vec<usize>,
    /// Jobs admitted so far.
    admissions: u64,
    /// The shapes of the probed residents, each with its solo run.
    shapes: BTreeMap<Arc<Shape>, ShapeRun>,
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
            links: LinkArena::from_sorted_capacities(link_capacities(&net.graph)),
            per_hop_latency_s: net.per_hop_latency_s,
            slots: Vec::new(),
            free: Vec::new(),
            admissions: 0,
            shapes: BTreeMap::new(),
            engine: EngineStats::default(),
            windows: DynamicEngineStats::default(),
            link_slot: Vec::new(),
            link_stamp: Vec::new(),
            epoch: 0,
            uf: Vec::new(),
        }
    }

    /// Admit a job: intern its path links and mark it dirty for the next
    /// window. Returns a stable slot handle.
    pub fn admit(&mut self, flows: Vec<FlowSpec>, compute_s: f64) -> usize {
        self.insert(flows, compute_s, None, None)
    }

    /// Admit a probed job, like [`Self::admit`]. The probe stands in for
    /// every window that finds the job alone in a dirty component, as the
    /// first window after admission usually does, and its shape serves
    /// later probes of the same shape while the job is resident.
    pub fn admit_probed(&mut self, probe: Probe) -> usize {
        let Probe { flows, compute_s, run, shape, reused } = probe;
        self.windows.shapes_reused += usize::from(reused);
        let shape = match self.shapes.entry(Arc::new(shape)) {
            Entry::Occupied(mut held) => {
                held.get_mut().residents += 1;
                Arc::clone(held.key())
            }
            Entry::Vacant(new) => {
                let shape = Arc::clone(new.key());
                new.insert(ShapeRun { residents: 1, run });
                shape
            }
        };
        self.insert(flows, compute_s, Some(run), Some(shape))
    }

    fn insert(
        &mut self,
        flows: Vec<FlowSpec>,
        compute_s: f64,
        probe: Option<SoloRun>,
        shape: Option<Arc<Shape>>,
    ) -> usize {
        let mut links: Vec<LinkId> = flows
            .iter()
            .flat_map(|f| f.path.windows(2))
            .map(|w| self.links.intern((w[0], w[1])))
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
            probe,
            shape,
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
    /// re-rate next window), its slot is freed, and its probe's shape
    /// leaves the table with the last resident holding it. Retiring a
    /// handle that is not resident does nothing.
    pub fn retire(&mut self, handle: usize) {
        let Some(slot) = self.slots[handle].take() else { return };
        if let Some(shape) = &slot.shape {
            if let Some(held) = self.shapes.get_mut(shape) {
                held.residents -= 1;
                if held.residents == 0 {
                    self.shapes.remove(shape);
                }
            }
        }
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
    /// component, simulate the dirty components no probe serves on one
    /// fresh engine per distinct shape (fanned out over rayon, merged in
    /// component order), and refresh their cached round times. Untouched
    /// components cost nothing.
    pub fn run_window(&mut self) {
        // Job-level union-find over each slot's distinct link list,
        // epoch-stamped so the link→slot map never refills.
        let n = self.slots.len();
        self.epoch += 1;
        let epoch = self.epoch;
        let links_total = self.links.len();
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
        let components: Vec<Vec<&SharedSlot>> = dirty
            .iter()
            .map(|m| m.iter().filter_map(|&(_, i)| slots[i].as_ref()).collect())
            .collect();
        let dirty_jobs: usize = dirty.iter().map(Vec::len).sum();
        let dirty_flows: usize = components.iter().flatten().map(|s| s.flows.len()).sum();
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
        // A component that is one probed job alone takes the probe's run;
        // every other one takes the run of the first dirty component of
        // its shape, so the window builds one engine per distinct shape
        // (see "Why the cache is exact"). Only the distinct shapes are
        // held.
        enum Served {
            Probe(SoloRun),
            Run(usize),
        }
        let mut first_of_shape: BTreeMap<Shape, usize> = BTreeMap::new();
        let mut distinct: Vec<Vec<&[FlowSpec]>> = Vec::new();
        let served: Vec<Served> = components
            .iter()
            .map(|jobs| {
                if let [slot] = jobs[..] {
                    if let Some(run) = slot.probe {
                        return Served::Probe(run);
                    }
                }
                let flows: Vec<&[FlowSpec]> = jobs.iter().map(|s| &s.flows[..]).collect();
                let next = distinct.len();
                let run = *first_of_shape.entry(self.shape(&flows)).or_insert(next);
                if run == next {
                    distinct.push(flows);
                }
                Served::Run(run)
            })
            .collect();
        let runs: Vec<(Vec<f64>, EngineStats)> =
            distinct.par_iter().map(|flows| self.simulate(flows)).collect();
        let keyed = served.iter().filter(|s| matches!(s, Served::Run(_))).count();
        self.windows.shapes_reused += keyed - runs.len();
        for (m, served) in dirty.iter().zip(&served) {
            let (comms, stats) = match served {
                Served::Probe(run) => (std::slice::from_ref(&run.comm_s), run.stats),
                Served::Run(r) => (&runs[*r].0[..], runs[*r].1),
            };
            for (&(_, i), &comm) in m.iter().zip(comms) {
                if let Some(slot) = self.slots[i].as_mut() {
                    slot.comm_s = comm;
                    slot.dirty = false;
                }
            }
            self.engine.absorb(&stats);
            self.windows.probes_reused += usize::from(matches!(served, Served::Probe(_)));
        }
    }

    /// Capacity of a link: 0.0 when the fabric lacks it.
    fn capacity(&self, key: LinkKey) -> f64 {
        self.links.lookup(key).map_or(0.0, |id| self.links.cap(id))
    }

    /// The shape of a component whose jobs (in admission order) have these
    /// flows.
    fn shape(&self, jobs: &[&[FlowSpec]]) -> Shape {
        let flows = || jobs.iter().copied().flatten();
        let mut nodes: Vec<usize> = flows().flat_map(|f| f.path.iter().copied()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut links: Vec<LinkKey> =
            flows().flat_map(|f| f.path.windows(2)).map(|w| (w[0], w[1])).collect();
        links.sort_unstable();
        links.dedup();
        // Every path node is listed, so the search always hits.
        let rank = |v: usize| match nodes.binary_search(&v) {
            Ok(i) | Err(i) => i as u64,
        };
        // The flows fix how many link words follow them, so no two
        // components share an encoding.
        let mut words = vec![jobs.len() as u64];
        words.extend(jobs.iter().map(|flows| flows.len() as u64));
        for f in flows() {
            words.push(f.path.len() as u64);
            words.extend(f.path.iter().map(|&v| rank(v)));
            words.extend([f.bytes.to_bits(), f.relay_factor.to_bits()]);
        }
        words.extend(links.iter().map(|&key| self.capacity(key).to_bits()));
        Shape(words)
    }

    /// Simulate `jobs` together for one round on a fresh engine restricted
    /// to the jobs' own path links, at the fabric's capacities, with flows
    /// added in the order given. Rates depend only on span links, so this
    /// is bit-identical to the same round on the full fabric without paying
    /// a full-fabric build. Returns each job's last completion (−∞ for a
    /// job without flows) and the run's counters.
    fn simulate(&self, jobs: &[&[FlowSpec]]) -> (Vec<f64>, EngineStats) {
        let flows = || jobs.iter().copied().flatten();
        let caps: BTreeMap<LinkKey, f64> = flows()
            .flat_map(|f| f.path.windows(2))
            .map(|w| ((w[0], w[1]), self.capacity((w[0], w[1]))))
            .collect();
        let mut engine = FluidEngine::from_capacities(caps, self.per_hop_latency_s);
        for f in flows() {
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
    /// completion (from the window origin). A handle that is not resident
    /// never finishes a round: +∞.
    pub fn round_total_s(&self, handle: usize) -> f64 {
        let Some(slot) = &self.slots[handle] else { return f64::INFINITY };
        slot.compute_s + slot.comm_s.max(0.0)
    }

    /// The admission feasibility probe: the job's round alone on the
    /// fabric, taken from a probed resident of the same shape when there is
    /// one, else simulated the way a dirty component is.
    pub fn probe(&self, flows: Vec<FlowSpec>, compute_s: f64) -> Probe {
        let shape = self.shape(&[&flows]);
        let (run, reused) = match self.shapes.get(&shape) {
            Some(held) => (held.run, true),
            None => {
                let (comms, stats) = self.simulate(&[&flows]);
                (SoloRun { comm_s: comms[0], stats }, false)
            }
        };
        Probe { flows, compute_s, run, shape, reused }
    }

    /// Cumulative engine counters (events, waterfills, …) across windows.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine
    }

    /// Combined window + engine counters for the run so far.
    pub fn stats(&self) -> DynamicEngineStats {
        let e = self.engine;
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

    /// The fresh-engine reference: one full-fabric engine over `jobs`
    /// (flows and compute time, in admission order). Returns each job's
    /// round time from the window origin.
    fn fresh_round_times(net: &SimNetwork, jobs: &[(&[FlowSpec], f64)]) -> Vec<f64> {
        let mut engine = FluidEngine::new(&net.graph, net.per_hop_latency_s);
        let ids: Vec<Vec<FlowId>> = jobs
            .iter()
            .map(|(flows, _)| flows.iter().map(|f| engine.add_flow(f.clone())).collect())
            .collect();
        engine.run();
        jobs.iter()
            .zip(&ids)
            .map(|(&(_, compute_s), ids)| {
                compute_s + ids.iter().fold(0.0f64, |c, &id| c.max(engine.completion_s(id)))
            })
            .collect()
    }

    /// One step of a seam trace: `(kind, pick, pick, gigabytes, compute_s)`.
    /// Kind 0 admits a ring job, 1 retires a resident, 2 runs a window, 3
    /// admits a relabeled copy of a resident's job.
    type Op = (usize, usize, usize, f64, f64);

    /// A resident as the test tracks it: its handle, ring members and ring
    /// bytes, and the flows and compute time it was admitted with.
    struct Resident {
        handle: usize,
        servers: Vec<usize>,
        bytes: f64,
        flows: Vec<FlowSpec>,
        compute_s: f64,
    }

    /// Admit a ring job on both engines: through its probe on `sim`, and
    /// without one on `plain`.
    fn admit(
        net: &SimNetwork,
        sim: &mut SharedFabricEngine,
        plain: &mut SharedFabricEngine,
        servers: Vec<usize>,
        bytes: f64,
        compute_s: f64,
    ) -> Resident {
        let flows = allreduce_flows(net, &AllReducePlan::natural_ring(servers.clone(), bytes));
        let probe = sim.probe(flows.clone(), compute_s);
        let handle = sim.admit_probed(probe);
        assert_eq!(plain.admit(flows.clone(), compute_s), handle);
        Resident { handle, servers, bytes, flows, compute_s }
    }

    /// Run one window on both engines, then hold each resident's round
    /// time and its solo probe to the fresh-engine reference, and the
    /// probing engine to the probe-free one, bit for bit.
    fn window(
        net: &SimNetwork,
        sim: &mut SharedFabricEngine,
        plain: &mut SharedFabricEngine,
        residents: &[Resident],
    ) {
        sim.run_window();
        plain.run_window();
        let jobs: Vec<(&[FlowSpec], f64)> =
            residents.iter().map(|r| (&r.flows[..], r.compute_s)).collect();
        let fresh = fresh_round_times(net, &jobs);
        for (r, want) in residents.iter().zip(fresh) {
            let handle = r.handle;
            assert_eq!(sim.round_total_s(handle).to_bits(), want.to_bits(), "resident {handle}");
            assert_eq!(plain.round_total_s(handle).to_bits(), want.to_bits(), "plain {handle}");
            let solo = fresh_round_times(net, &[(&r.flows[..], r.compute_s)])[0];
            let probe = sim.probe(r.flows.clone(), r.compute_s);
            assert_eq!(probe.total_s().to_bits(), solo.to_bits(), "probe");
        }
        // Every probed resident is counted in the shape table, once.
        let counted: usize = sim.shapes.values().map(|held| held.residents).sum();
        assert_eq!(counted, residents.len(), "shape table counts");
        // A probe or an equal-shape run that stands in for a run does that
        // run's work.
        let unshared =
            |s: DynamicEngineStats| DynamicEngineStats { probes_reused: 0, shapes_reused: 0, ..s };
        assert_eq!(unshared(sim.stats()), unshared(plain.stats()), "counters");
    }

    /// Drive a [`SharedFabricEngine`] through `ops` plus a closing window,
    /// admitting each job through its probe, beside a second engine that
    /// admits the same jobs without one; check the seam after every
    /// window. Returns both engines' counters.
    fn check_seam(graph: Graph, total: usize, ops: &[Op]) -> [DynamicEngineStats; 2] {
        let mut net = SimNetwork::without_rules(graph, total);
        net.per_hop_latency_s = 1.0e-6;
        let mut sim = SharedFabricEngine::new(&net);
        let mut plain = SharedFabricEngine::new(&net);
        let mut residents: Vec<Resident> = Vec::new(); // admission order
        for &(kind, a, b, gb, compute_s) in ops {
            match kind {
                0 => {
                    let n = 2 + a % 4;
                    let servers: Vec<usize> = (0..n).map(|k| (b + k) % total).collect();
                    let bytes = gb * 1.0e9;
                    residents.push(admit(&net, &mut sim, &mut plain, servers, bytes, compute_s));
                }
                1 if !residents.is_empty() => {
                    let r = residents.remove(a % residents.len());
                    sim.retire(r.handle);
                    plain.retire(r.handle);
                }
                2 => window(&net, &mut sim, &mut plain, &residents),
                3 if !residents.is_empty() => {
                    // The resident's ring moved `b` servers on: a
                    // relabeling that keeps the servers' order, and so the
                    // shape, unless the shift wraps some of them but not
                    // all.
                    let r = &residents[a % residents.len()];
                    let servers = r.servers.iter().map(|s| (s + b) % total).collect();
                    let (bytes, compute_s) = (r.bytes, r.compute_s);
                    residents.push(admit(&net, &mut sim, &mut plain, servers, bytes, compute_s));
                }
                _ => {}
            }
        }
        window(&net, &mut sim, &mut plain, &residents);
        [sim.stats(), plain.stats()]
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
        // window. Then two windows with nothing dirty: the survivor keeps
        // its cached round time.
        let trace: [Op; 6] = [
            (0, 2, 0, 1.0, 0.05),
            (0, 2, 1, 2.0, 0.0),
            (1, 0, 0, 0.0, 0.0),
            (2, 0, 0, 0.0, 0.0),
            (2, 0, 0, 0.0, 0.0),
            (2, 0, 0, 0.0, 0.0),
        ];
        check_seam(shared_ring(8, 60.0e9), 8, &trace);
    }

    #[test]
    fn seam_holds_for_relabeled_copies_that_faults_tell_apart() {
        // Job A on servers 0..4 of a 16-server ideal switch, then copies B,
        // C and D on 4..8, 8..12 and 12..16: the same shape, so each
        // copy's probe takes A's run, and the probe-free engine runs one
        // engine for A, B and C in the first window. A window with nothing
        // dirty follows each admission window.
        let trace: [Op; 8] = [
            (0, 2, 0, 1.0, 0.05),
            (3, 0, 4, 0.0, 0.0),
            (3, 0, 8, 0.0, 0.0),
            (2, 0, 0, 0.0, 0.0),
            (2, 0, 0, 0.0, 0.0),
            (3, 0, 12, 0.0, 0.0),
            (2, 0, 0, 0.0, 0.0),
            (2, 0, 0, 0.0, 0.0),
        ];
        let [sim, plain] = check_seam(topologies::ideal_switch(16, 100.0e9), 16, &trace);
        // Probed: the three copies' probes.
        assert_eq!(sim.shapes_reused, 3, "{sim:?}");
        // Probe-free: B and C in the first window.
        assert_eq!(plain.shapes_reused, 2, "{plain:?}");
    }

    #[test]
    fn no_flow_outlives_its_job_under_long_churn() {
        // 10^4 admit → window → retire cycles at a residency of at most 4:
        // the four resident jobs sit on disjoint servers of an ideal switch,
        // so each window re-rates only the newcomer (from its admission
        // probe), freed slots are reused, and neither the fabric's link
        // table nor the shape table grows with history. Every newcomer is
        // the same ring on another four servers, in order, so its probe
        // takes a resident's run: only the first probe simulates.
        let total = 16;
        let net = SimNetwork::without_rules(topologies::ideal_switch(total, 100.0e9), total);
        let mut sim = SharedFabricEngine::new(&net);
        let fabric_links = sim.links.len();
        let mut residents = std::collections::VecDeque::new();
        let cycles = 10_000;
        for k in 0..cycles {
            let servers: Vec<usize> = (0..4).map(|j| 4 * (k % 4) + j).collect();
            let flows = allreduce_flows(&net, &AllReducePlan::natural_ring(servers, 1.0e6));
            residents.push_back(sim.admit_probed(sim.probe(flows, 0.0)));
            sim.run_window();
            if residents.len() == 4 {
                sim.retire(residents.pop_front().expect("four residents"));
            }
            assert!(sim.slots.len() <= 4, "slot vector outgrew the peak residency");
            let resident_slots = sim.slots.iter().flatten().count();
            assert!(sim.shapes.len() <= resident_slots, "the shape table outgrew the residents");
        }
        assert_eq!(sim.links.len(), fabric_links, "the link table grew with history");
        assert_eq!(sim.stats().jobs_rerated, cycles, "a window re-rated more than the newcomer");
        assert_eq!(sim.stats().probes_reused, cycles, "a newcomer alone was simulated twice");
        // No window ran an engine, so every shape reuse is a probe's.
        let probe_simulations = cycles - sim.stats().shapes_reused;
        assert_eq!(probe_simulations, 1, "a relabeled copy of a resident was probed afresh");
    }

    #[test]
    fn a_window_builds_one_engine_per_distinct_shape() {
        // k copies of each of j distinct ring jobs, every copy on a shard
        // of its own granted lowest-first, as `ClusterShards::allocate`
        // does: one window over the j·k lone-job components builds j
        // engines. Each job's round time and the window's engine counters
        // equal, to the bit, those of a round with an engine per job.
        let (j, k, shard) = (4usize, 3usize, 6usize);
        let total = j * k * shard;
        let mut net = SimNetwork::without_rules(topologies::ideal_switch(total, 100.0e9), total);
        net.per_hop_latency_s = 1.0e-6;
        let jobs: Vec<Vec<FlowSpec>> = (0..j * k)
            .map(|c| {
                let kind = c % j;
                let servers: Vec<usize> = (c * shard..c * shard + 2 + kind).collect();
                let bytes = 1.0e8 * (1 + kind) as f64;
                allreduce_flows(&net, &AllReducePlan::natural_ring(servers, bytes))
            })
            .collect();
        let mut sim = SharedFabricEngine::new(&net);
        let handles: Vec<usize> = jobs.iter().map(|flows| sim.admit(flows.clone(), 0.01)).collect();
        sim.run_window();
        let engines = j * k - sim.stats().shapes_reused;
        assert_eq!(engines, j, "one engine per distinct shape");
        let mut apart = EngineStats::default();
        for (flows, &handle) in jobs.iter().zip(&handles) {
            let mut alone = SharedFabricEngine::new(&net);
            let own = alone.admit(flows.clone(), 0.01);
            alone.run_window();
            let want = alone.round_total_s(own);
            assert_eq!(sim.round_total_s(handle).to_bits(), want.to_bits(), "job {handle}");
            apart.absorb(&alone.engine_stats());
        }
        assert_eq!(sim.engine_stats(), apart, "counters");
    }

    #[test]
    fn shapes_match_exactly_under_order_preserving_relabeling() {
        // A two-job component on servers 0..5 of a 12-server ideal switch
        // (hub 12). Moved up to 6..11 it keeps its shape; wrapped past the
        // last server it does not, and neither do the same flows split
        // between the jobs otherwise, or the moved copy on a fabric whose
        // link under it alone has another capacity. A flow's recorded
        // source is not read, so changing it keeps the shape.
        let g = topologies::ideal_switch(12, 100.0e9);
        let net = SimNetwork::without_rules(g.clone(), 12);
        let ring = |servers: Vec<usize>| {
            allreduce_flows(&net, &AllReducePlan::natural_ring(servers, 1.0e9))
        };
        let sim = SharedFabricEngine::new(&net);
        let (a, b) = (ring(vec![0, 1, 2]), ring(vec![3, 4]));
        let base = sim.shape(&[&a, &b]);
        let (moved_a, moved_b) = (ring(vec![6, 7, 8]), ring(vec![9, 10]));
        assert_eq!(sim.shape(&[&moved_a, &moved_b]), base, "order kept");
        let (wrapped_a, wrapped_b) = (ring(vec![9, 10, 11]), ring(vec![0, 1]));
        assert_ne!(sim.shape(&[&wrapped_a, &wrapped_b]), base, "order changed");
        let flows: Vec<FlowSpec> = a.iter().chain(&b).cloned().collect();
        assert_ne!(sim.shape(&[&flows[..4], &flows[4..]]), base, "job split");
        let mut resourced = a.clone();
        resourced[0].src = 2;
        assert_eq!(sim.shape(&[&resourced, &b]), base, "source");
        // A parallel hub -> 9 link doubles the capacity the moved copy
        // crosses.
        let mut wide = g;
        wide.add_edge(12, 9, 100.0e9);
        let wide = SharedFabricEngine::new(&SimNetwork::without_rules(wide, 12));
        assert_ne!(wide.shape(&[&moved_a, &moved_b]), base, "link capacity");
        assert_eq!(wide.shape(&[&a, &b]), base, "link capacity elsewhere");
    }
}
