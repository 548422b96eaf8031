//! Shared-fabric round simulator that lives as long as the dynamic
//! cluster (see [`SharedFabricEngine`]), and the fabric health state
//! faults leave behind between its windows ([`FaultEvent`]).
//!
//! Its contract is checked here, at the seam where the cache lives: after
//! every window, each resident's round time and each admission probe must
//! equal, to the bit, what a fresh engine computes over the current
//! residents (in admission order) and the cumulative fault history. The
//! tests below drive random admit/retire/fault/window sequences, which also
//! admit relabeled copies of residents, against that fresh-engine
//! reference, admitting each job through its probe as the dynamic loop
//! does, and against a second engine that admits the same jobs without
//! probes.

use crate::arena::{dense_u32, LinkArena, LinkId};
use crate::engine::{EngineStats, FluidEngine};
use crate::fluid::{link_capacities, FlowSpec, LinkKey};
use crate::multijob::DynamicEngineStats;
use crate::network::SimNetwork;
use rayon::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use topoopt_graph::Graph;

/// A fabric fault (or recovery), applied between simulated rounds. Link
/// keys are directed `(src, dst)` pairs; an OCS port is identified by the
/// server whose interface is matched through it, so a port failure kills
/// every directed link incident to that server. Failures stack: a link
/// taken down twice (say, by a transceiver fault *and* its OCS port) needs
/// both recoveries before it carries traffic again, and a recovery without
/// a matching failure is ignored. Stragglers scale the egress rate of
/// every flow sourced at the server: an `egress_factor` below 1.0 caps the
/// flow at that fraction of its path bottleneck capacity (composed with
/// the flow's relay factor); a factor of 1.0 (or more) marks the server
/// healthy again. Flows crossing a dead link stall at rate 0 until the
/// link recovers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A link (transceiver) fails: capacity drops to zero, flows on it
    /// stall at rate 0 until recovery.
    LinkDown(LinkKey),
    /// The matching link recovery: the link returns at its fabric capacity.
    LinkUp(LinkKey),
    /// An OCS port fails: every directed link incident to the server wired
    /// through that port goes down.
    OcsPortDown(usize),
    /// The matching port recovery.
    OcsPortUp(usize),
    /// A server straggles: flows sourced there are capped at
    /// `egress_factor` × their path bottleneck capacity. 1.0 = healthy.
    Straggler { server: usize, egress_factor: f64 },
}

/// The shared fabric's links and the health state faults leave behind. Its
/// arena is the id space job link sets and fault targets share: the
/// fabric's links at their healthy capacities, plus every path link an
/// admission interns (capacity 0: links absent from the fabric carry
/// nothing).
struct FabricHealth {
    links: LinkArena,
    /// Per-link failure count, indexed by `LinkId`: a link is dead while
    /// its count is positive (overlapping link- and port-level faults
    /// stack, so recoveries pair with their failures).
    down: Vec<u32>,
    /// Per-server egress factors of straggling servers; only factors below
    /// 1.0 are stored, so an empty map is the healthy case.
    stragglers: BTreeMap<usize, f64>,
}

impl FabricHealth {
    /// A healthy fabric over `graph`'s aggregated directed-link capacities.
    fn new(graph: &Graph) -> Self {
        let links = LinkArena::from_sorted_capacities(link_capacities(graph));
        FabricHealth { down: vec![0; links.len()], links, stragglers: BTreeMap::new() }
    }

    /// Id of a link, interning it (at capacity 0) when the fabric lacks it.
    fn intern(&mut self, key: LinkKey) -> LinkId {
        let id = self.links.intern(key);
        self.down.resize(self.links.len(), 0);
        id
    }

    /// Effective capacity of a link: 0.0 while it is down or when the
    /// fabric lacks it.
    fn capacity(&self, key: LinkKey) -> f64 {
        match self.links.lookup(key) {
            Some(id) if self.down[id as usize] == 0 => self.links.cap(id),
            _ => 0.0,
        }
    }

    /// Apply one fault and return the interned links it targets, in
    /// ascending `LinkKey` order (none for a straggler, which targets the
    /// flows sourced at its server instead).
    fn apply(&mut self, fault: FaultEvent) -> Vec<LinkId> {
        let links: Vec<LinkId> = match fault {
            FaultEvent::LinkDown(key) | FaultEvent::LinkUp(key) => {
                self.links.lookup(key).into_iter().collect()
            }
            FaultEvent::OcsPortDown(server) | FaultEvent::OcsPortUp(server) => {
                self.port_links(server)
            }
            FaultEvent::Straggler { server, egress_factor } => {
                if egress_factor >= 1.0 {
                    self.stragglers.remove(&server);
                } else {
                    self.stragglers.insert(server, egress_factor.max(0.0));
                }
                return Vec::new();
            }
        };
        let recover = matches!(fault, FaultEvent::LinkUp(_) | FaultEvent::OcsPortUp(_));
        for &id in &links {
            let count = &mut self.down[id as usize];
            // A recovery without a matching failure is ignored.
            *count = if recover { count.saturating_sub(1) } else { *count + 1 };
        }
        links
    }

    /// Every interned directed link incident to `server`, in ascending
    /// `LinkKey` order.
    fn port_links(&self, server: usize) -> Vec<LinkId> {
        self.links
            .ids_by_key()
            .iter()
            .copied()
            .filter(|&id| {
                let (src, dst) = self.links.key(id);
                src == server || dst == server
            })
            .collect()
    }

    /// A fresh engine over the links `keys` names, at their effective
    /// capacities, with the straggler factors inherited.
    fn engine(
        &self,
        keys: impl IntoIterator<Item = LinkKey>,
        per_hop_latency_s: f64,
    ) -> FluidEngine {
        let mut caps: BTreeMap<LinkKey, f64> = BTreeMap::new();
        for key in keys {
            caps.entry(key).or_insert_with(|| self.capacity(key));
        }
        FluidEngine::from_capacities(caps, per_hop_latency_s)
            .with_straggler_factors(self.stragglers.clone())
    }

    /// The shape of a component whose jobs (in admission order) have these
    /// flows, on the fabric as it stands.
    fn shape(&self, jobs: &[&[FlowSpec]]) -> Shape {
        let flows = || jobs.iter().copied().flatten();
        let mut nodes: Vec<usize> =
            flows().flat_map(|f| f.path.iter().copied().chain([f.src])).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut links: Vec<LinkKey> =
            flows().flat_map(|f| f.path.windows(2)).map(|w| (w[0], w[1])).collect();
        links.sort_unstable();
        links.dedup();
        // Every node is listed, so the search always hits.
        let rank = |v: usize| match nodes.binary_search(&v) {
            Ok(i) | Err(i) => i as u64,
        };
        // The flows fix how many node and link words follow them, so no
        // two components share an encoding.
        let mut words = vec![jobs.len() as u64];
        words.extend(jobs.iter().map(|flows| flows.len() as u64));
        for f in flows() {
            words.push(f.path.len() as u64);
            words.extend(f.path.iter().map(|&v| rank(v)));
            words.extend([rank(f.src), f.bytes.to_bits(), f.start_s.to_bits()]);
            words.push(f.relay_factor.to_bits());
        }
        words.extend(nodes.iter().map(|v| self.stragglers.get(v).unwrap_or(&1.0).to_bits()));
        words.extend(links.iter().map(|&key| self.capacity(key).to_bits()));
        Shape(words)
    }
}

/// Everything a fresh engine over a component reads, with each node id
/// replaced by its rank among the component's nodes: per job its flow
/// count, then per flow (in admission order) its path, source, bytes,
/// start offset and relay factor, then each node's straggler factor (1.0
/// when healthy) and each link's effective capacity, nodes and links in
/// ascending order. Components of equal shape get equal completion times
/// and engine counters, to the bit (see "Why the cache is exact").
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Shape(Vec<u64>);

/// The solo run every probed resident of one shape gets: the residents'
/// count, and the run of the first of them admitted.
struct ShapeRun {
    residents: usize,
    comm_s: f64,
    stats: EngineStats,
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
    /// Faults injected before the run: the fabric state it saw.
    faults: usize,
}

/// An admission probe: a job's flows and compute time, and its round
/// simulated alone on the fabric as it stood at the probe, or taken from a
/// probed resident of the same shape. Admitting the probe
/// ([`SharedFabricEngine::admit_probed`]) lets a window take the probe's
/// run instead of simulating the same job again.
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
    /// Must be re-simulated next window (new arrival, a component mate
    /// departed, or a fault touched it).
    dirty: bool,
    /// The job's admission probe (`None` when admitted without one).
    probe: Option<SoloRun>,
    /// The probe's shape, counted in the engine's resident-shape table.
    shape: Option<Arc<Shape>>,
}

/// Shared-fabric round simulator for the dynamic cluster's event windows.
/// Each window partitions the residents into job-level components over
/// shared links and re-simulates only the dirty components — those an
/// arrival, departure or fault touched — on fresh [`FluidEngine`]s built
/// like the admission probe ([`Self::probe`]), one per distinct shape.
/// Every other resident keeps its cached round time, and a dirty component
/// that is one probed job alone takes the probe's run. A probe takes the
/// run of a probed resident of the same shape when there is one. A
/// departing job takes its flows and its share of the shape table with
/// it, so the state is bounded by the residents, not by history.
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
/// too.
///
/// An admission probe is such a component run: one job alone, on an engine
/// built from the fabric's health state. That state changes only when a
/// fault is injected (interning a path link the fabric lacks adds it at
/// the capacity 0 a missing link already reads as). So while no fault has
/// been injected since the probe, a dirty component that is the probed job
/// alone would be simulated from the same capacities, straggler factors
/// and flows as the probe was, and the window takes the probe's
/// completion time and absorbs its counters instead: round times and
/// engine counters are the same bits either way.
///
/// A fresh engine reads node ids only through the order of its link keys
/// (it assigns arena ids in key order, and the water-filler scans touched
/// links in key order) and through the straggler factor of each flow's
/// source. A strictly increasing relabeling of the nodes preserves the
/// lexicographic order of `(src, dst)` keys, so it changes no float
/// operation. A component's [`Shape`] lists its flows with every node id
/// replaced by its rank among the component's nodes, which is such a
/// relabeling, together with what the fabric contributes: the effective
/// capacity of each link the flows cross and the straggler factor of each
/// node. Two components of equal shape are therefore the same simulation,
/// so a window builds one engine per distinct shape among its dirty
/// components that no probe serves, and every component of that shape
/// takes the run's completion times and absorbs its counters, as it would
/// for a run of its own. `ClusterShards::allocate` places every job on a
/// strictly increasing server map, so copies of one job on other shards
/// share a shape.
///
/// The same holds for probes. The engine keeps a table of the shapes of
/// its probed residents, counted up on [`Self::admit_probed`] and down on
/// [`Self::retire`], each with the solo run of its first resident. A probe
/// whose shape is in the table takes that run instead of simulating. The
/// shape already holds the capacities and straggler factors the run saw,
/// so an entry stays exact across faults without being invalidated. The
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
    /// Link ids, capacities and fault state every window's engines are
    /// built from.
    health: FabricHealth,
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
    /// Faults injected so far; each counts as one engine event.
    faults: usize,
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
            health: FabricHealth::new(&net.graph),
            per_hop_latency_s: net.per_hop_latency_s,
            slots: Vec::new(),
            free: Vec::new(),
            admissions: 0,
            shapes: BTreeMap::new(),
            engine: EngineStats::default(),
            faults: 0,
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
        let lids = self.health.apply(fault);
        for slot in self.slots.iter_mut().flatten() {
            let hit = match fault {
                FaultEvent::Straggler { server, .. } => slot.flows.iter().any(|f| f.src == server),
                _ => lids.iter().any(|lid| slot.links.binary_search(lid).is_ok()),
            };
            if hit {
                slot.dirty = true;
            }
        }
        self.faults += 1;
    }

    /// Admit a job: intern its path links and mark it dirty for the next
    /// window. Returns a stable slot handle.
    pub fn admit(&mut self, flows: Vec<FlowSpec>, compute_s: f64) -> usize {
        self.insert(flows, compute_s, None, None)
    }

    /// Admit a probed job, like [`Self::admit`]. The probe stands in for
    /// every window that finds the job alone in a dirty component with no
    /// fault injected since the probe, as the first window after admission
    /// usually does, and its shape serves later probes of the same shape
    /// while the job is resident.
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
                new.insert(ShapeRun { residents: 1, comm_s: run.comm_s, stats: run.stats });
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
            .map(|w| self.health.intern((w[0], w[1])))
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
        let links_total = self.health.links.len();
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
        // A component that is one job alone, with no fault since its
        // probe, takes the probe's run; every other one takes the run of
        // the first dirty component of its shape, so the window builds one
        // engine per distinct shape (see "Why the cache is exact"). Only
        // the distinct shapes are held.
        enum Served {
            Probe(SoloRun),
            Run(usize),
        }
        let faults = self.faults;
        let mut first_of_shape: BTreeMap<Shape, usize> = BTreeMap::new();
        let mut distinct: Vec<Vec<&[FlowSpec]>> = Vec::new();
        let served: Vec<Served> = components
            .iter()
            .map(|jobs| {
                if let [slot] = jobs[..] {
                    if let Some(run) = slot.probe.filter(|p| p.faults == faults) {
                        return Served::Probe(run);
                    }
                }
                let flows: Vec<&[FlowSpec]> = jobs.iter().map(|s| &s.flows[..]).collect();
                let next = distinct.len();
                let run = *first_of_shape.entry(self.health.shape(&flows)).or_insert(next);
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

    /// Simulate `jobs` together for one round on a fresh engine built from
    /// the fabric's health state (post-fault effective capacities and
    /// straggler factors) but restricted to the jobs' own path links, with
    /// flows added in the order given. Rates depend only on span links, so
    /// this is bit-identical to the same round on the full fabric without
    /// paying a full-fabric build. Returns each job's last completion (−∞
    /// for a job without flows) and the run's counters.
    fn simulate(&self, jobs: &[&[FlowSpec]]) -> (Vec<f64>, EngineStats) {
        let keys =
            jobs.iter().copied().flatten().flat_map(|f| f.path.windows(2)).map(|w| (w[0], w[1]));
        let mut engine = self.health.engine(keys, self.per_hop_latency_s);
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

    /// The admission feasibility probe: the job's round alone on the
    /// fabric, taken from a probed resident of the same shape when there is
    /// one, else simulated the way a dirty component is.
    pub fn probe(&self, flows: Vec<FlowSpec>, compute_s: f64) -> Probe {
        let shape = self.health.shape(&[&flows]);
        let (comm_s, stats, reused) = match self.shapes.get(&shape) {
            Some(held) => (held.comm_s, held.stats, true),
            None => {
                let (comms, stats) = self.simulate(&[&flows]);
                (comms[0], stats, false)
            }
        };
        let run = SoloRun { comm_s, stats, faults: self.faults };
        Probe { flows, compute_s, run, shape, reused }
    }

    /// Cumulative engine counters (events, waterfills, …) across windows,
    /// with one event per injected fault.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats { events: self.engine.events + self.faults, ..self.engine }
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

    /// The fresh-engine reference: the cumulative fault history applied to
    /// a fresh [`FabricHealth`], then one full-fabric engine over `jobs`
    /// (flows and compute time, in admission order) built from its
    /// capacities. Returns each job's round time from the window origin.
    fn fresh_round_times(
        net: &SimNetwork,
        jobs: &[(&[FlowSpec], f64)],
        faults: &[FaultEvent],
    ) -> Vec<f64> {
        let mut health = FabricHealth::new(&net.graph);
        for &fault in faults {
            health.apply(fault);
        }
        let mut engine =
            health.engine(link_capacities(&net.graph).into_keys(), net.per_hop_latency_s);
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
    /// Kind 0 admits a ring job, 1 retires a resident, 2 injects a fault,
    /// 3 runs a window, 4 admits a relabeled copy of a resident's job.
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
        faults: &[FaultEvent],
    ) {
        sim.run_window();
        plain.run_window();
        let jobs: Vec<(&[FlowSpec], f64)> =
            residents.iter().map(|r| (&r.flows[..], r.compute_s)).collect();
        let fresh = fresh_round_times(net, &jobs, faults);
        for (r, want) in residents.iter().zip(fresh) {
            let handle = r.handle;
            assert_eq!(sim.round_total_s(handle).to_bits(), want.to_bits(), "resident {handle}");
            assert_eq!(plain.round_total_s(handle).to_bits(), want.to_bits(), "plain {handle}");
            let solo = fresh_round_times(net, &[(&r.flows[..], r.compute_s)], faults)[0];
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
        let edges: Vec<(usize, usize)> = net.graph.edges().map(|(_, e)| (e.src, e.dst)).collect();
        let mut sim = SharedFabricEngine::new(&net);
        let mut plain = SharedFabricEngine::new(&net);
        let mut residents: Vec<Resident> = Vec::new(); // admission order
        let mut faults: Vec<FaultEvent> = Vec::new();
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
                    plain.inject_fault(fault);
                    faults.push(fault);
                }
                3 => window(&net, &mut sim, &mut plain, &residents, &faults),
                4 if !residents.is_empty() => {
                    // The resident's ring moved `b` servers on: a
                    // relabeling that keeps the servers' order, and so the
                    // shape, unless the shift wraps some of them but not
                    // all (or a fault tells the copies apart).
                    let r = &residents[a % residents.len()];
                    let servers = r.servers.iter().map(|s| (s + b) % total).collect();
                    let (bytes, compute_s) = (r.bytes, r.compute_s);
                    residents.push(admit(&net, &mut sim, &mut plain, servers, bytes, compute_s));
                }
                _ => {}
            }
        }
        window(&net, &mut sim, &mut plain, &residents, &faults);
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
            (0usize..5, 0usize..64, 0usize..64, 0.2f64..3.0, 0.0f64..0.2),
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
    fn seam_holds_for_relabeled_copies_that_faults_tell_apart() {
        // Job A on servers 0..4 of a 16-server ideal switch, then copies B,
        // C and D on 4..8, 8..12 and 12..16: the same shape, so each
        // copy's probe takes A's run, and the probe-free engine runs one
        // engine for A, B and C in the first window. Equal stragglers on
        // B's and C's second servers keep their shapes equal (one run for
        // both); D's probe takes A's run across those faults. A link fault
        // on A tells A apart until it recovers.
        let trace: [Op; 12] = [
            (0, 2, 0, 1.0, 0.05),
            (4, 0, 4, 0.0, 0.0),
            (4, 0, 8, 0.0, 0.0),
            (3, 0, 0, 0.0, 0.0),
            (2, 5, 4, 1.0, 0.0),
            (2, 9, 4, 1.0, 0.0),
            (3, 0, 0, 0.0, 0.0),
            (4, 0, 12, 0.0, 0.0),
            (2, 1, 0, 0.0, 0.0),
            (3, 0, 0, 0.0, 0.0),
            (2, 1, 1, 0.0, 0.0),
            (3, 0, 0, 0.0, 0.0),
        ];
        let [sim, plain] = check_seam(topologies::ideal_switch(16, 100.0e9), 16, &trace);
        // Probed: three copies' probes, then B and C's shared run.
        assert_eq!(sim.shapes_reused, 4, "{sim:?}");
        // Probe-free: B and C in the first window, then C in the second.
        assert_eq!(plain.shapes_reused, 3, "{plain:?}");
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
        let fabric_links = sim.health.links.len();
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
        assert_eq!(sim.health.links.len(), fabric_links, "the link table grew with history");
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
        // between the jobs otherwise, a flow sourced elsewhere, or a
        // straggler or dead link on the moved copy alone.
        let g = topologies::ideal_switch(12, 100.0e9);
        let net = SimNetwork::without_rules(g.clone(), 12);
        let ring = |servers: Vec<usize>| {
            allreduce_flows(&net, &AllReducePlan::natural_ring(servers, 1.0e9))
        };
        let mut health = FabricHealth::new(&g);
        let (a, b) = (ring(vec![0, 1, 2]), ring(vec![3, 4]));
        let base = health.shape(&[&a, &b]);
        let (moved_a, moved_b) = (ring(vec![6, 7, 8]), ring(vec![9, 10]));
        assert_eq!(health.shape(&[&moved_a, &moved_b]), base, "order kept");
        let (wrapped_a, wrapped_b) = (ring(vec![9, 10, 11]), ring(vec![0, 1]));
        assert_ne!(health.shape(&[&wrapped_a, &wrapped_b]), base, "order changed");
        let flows: Vec<FlowSpec> = a.iter().chain(&b).cloned().collect();
        assert_ne!(health.shape(&[&flows[..4], &flows[4..]]), base, "job split");
        let mut resourced = a.clone();
        resourced[0].src = 2;
        assert_ne!(health.shape(&[&resourced, &b]), base, "source");
        health.apply(FaultEvent::Straggler { server: 7, egress_factor: 0.5 });
        assert_ne!(health.shape(&[&moved_a, &moved_b]), base, "straggler");
        assert_eq!(health.shape(&[&a, &b]), base, "straggler elsewhere");
        health.apply(FaultEvent::Straggler { server: 7, egress_factor: 1.0 });
        health.apply(FaultEvent::LinkDown((12, 9)));
        assert_ne!(health.shape(&[&moved_a, &moved_b]), base, "dead link");
        assert_eq!(health.shape(&[&a, &b]), base, "dead link elsewhere");
    }

    /// Two servers joined both ways at 100 bps, plus a 1 -> 2 link.
    fn health_fixture() -> FabricHealth {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 100.0);
        g.add_edge(1, 0, 100.0);
        g.add_edge(1, 2, 100.0);
        FabricHealth::new(&g)
    }

    #[test]
    fn ocs_port_failure_kills_every_incident_link() {
        // Port 1 carries (0, 1), (1, 0) and (1, 2); its recovery restores
        // all three. A port with no incident link targets nothing.
        let mut health = health_fixture();
        assert_eq!(health.apply(FaultEvent::OcsPortDown(1)).len(), 3);
        for key in [(0, 1), (1, 0), (1, 2)] {
            assert_eq!(health.capacity(key), 0.0, "{key:?} survived its port");
        }
        health.apply(FaultEvent::OcsPortUp(1));
        for key in [(0, 1), (1, 0), (1, 2)] {
            assert_eq!(health.capacity(key), 100.0);
        }
        assert!(health.apply(FaultEvent::OcsPortDown(7)).is_empty());
    }

    #[test]
    fn overlapping_link_and_port_faults_stack() {
        // The link dies twice (transceiver + port): one recovery is not
        // enough, the second brings it back.
        let mut health = health_fixture();
        health.apply(FaultEvent::LinkDown((0, 1)));
        health.apply(FaultEvent::OcsPortDown(0));
        health.apply(FaultEvent::LinkUp((0, 1)));
        assert_eq!(health.capacity((0, 1)), 0.0);
        assert_eq!(health.capacity((1, 0)), 0.0);
        health.apply(FaultEvent::OcsPortUp(0));
        assert_eq!(health.capacity((0, 1)), 100.0);
        assert_eq!(health.capacity((1, 0)), 100.0);
    }

    #[test]
    fn spurious_recovery_is_ignored() {
        // A recovery with no failure to pair with must not bank credit
        // against the next failure.
        let mut health = health_fixture();
        health.apply(FaultEvent::LinkUp((1, 2)));
        health.apply(FaultEvent::OcsPortUp(2));
        assert_eq!(health.capacity((1, 2)), 100.0);
        health.apply(FaultEvent::LinkDown((1, 2)));
        assert_eq!(health.capacity((1, 2)), 0.0);
    }

    #[test]
    fn straggler_factor_is_stored_below_one_and_cleared_at_one() {
        let mut health = health_fixture();
        let slow = FaultEvent::Straggler { server: 0, egress_factor: 0.5 };
        assert!(health.apply(slow).is_empty(), "a straggler targets no link");
        assert_eq!(health.stragglers, BTreeMap::from([(0, 0.5)]));
        health.apply(FaultEvent::Straggler { server: 1, egress_factor: 1.5 });
        assert_eq!(health.stragglers, BTreeMap::from([(0, 0.5)]));
        health.apply(FaultEvent::Straggler { server: 0, egress_factor: 1.0 });
        assert!(health.stragglers.is_empty());
    }
}
