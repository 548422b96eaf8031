//! Flow-level (fluid) network simulator — the reproduction's counterpart to
//! the paper's FlexNetPacket (htsim-based) simulator.
//!
//! A per-packet simulator is substituted by an event-driven fluid model with
//! max-min fair bandwidth sharing: every active flow follows its fixed path;
//! link capacity is divided max-min fairly among the flows crossing it; the
//! simulation advances from event to event. This captures the first-order
//! effects the paper's evaluation depends on — contention, path length
//! (bandwidth tax of host-based forwarding), multi-job interference, and
//! reconfiguration downtime — at a cost that lets the benchmark harness
//! sweep hundreds of configurations.
//!
//! # Engine design
//!
//! The core is [`engine::FluidEngine`], an event-driven simulator with an
//! explicit priority queue of one event kind, *flow completion*, over link
//! capacities fixed when the engine is built. Every flow starts at the
//! engine clock, with the rest of its round (§5: an iteration's transfers
//! start together), so the queue holds only completion predictions. The
//! fabric changes only between simulated rounds (OCS reconfiguration
//! windows), and each round runs on a fresh engine; flows on a
//! zero-capacity link stall at rate 0. Between events every rate is
//! constant, so flow progress is settled lazily. The crucial property
//! exploited for scale is locality of max-min fairness: an event can only
//! change the rates of flows in the connected component of the flow/link
//! sharing graph it touches, so the engine re-waterfills exactly that
//! component and leaves all other flows — and their scheduled completion
//! events — untouched. On a sharded shared cluster (Figure 16) each job is its own
//! component, turning every event from O(all flows) into O(one job). The
//! pre-engine from-scratch loop survives as `simulate_flows_reference` in
//! the dev-only `topoopt-oracle` crate: the oracle for the equivalence
//! proptests (`tests/engine.rs`) and the baseline of the `fluid` and
//! `scale` benches. It implements the same water-filling algorithm with
//! map-keyed storage.
//!
//! # Flat storage
//!
//! Internally the engine runs on arena/index-based flat storage: links are
//! interned once into a dense `LinkId(u32)` arena (`Vec`-backed
//! capacities, byte counters, and flows-on-link adjacency), and each
//! flow's path is resolved to link ids at `add_flow` time into a
//! CSR-style flat buffer, so event handling and water-filling do zero
//! tree/hash lookups on the hot path. `BTreeMap`-ordered semantics are
//! kept only at the API boundary and as the arena's key-sorted id list,
//! which pins the order of every order-sensitive float reduction: the flat
//! allocator is bit-identical to the map-keyed one, and the engine matches
//! the from-scratch loop to 1e-9 relative. See the [`engine`] and `arena`
//! module docs for the determinism contracts.
//!
//! # Modules
//!
//! * [`engine`] — the event-driven incremental fluid engine.
//! * [`fluid`] — flow/result types and the [`fluid::simulate_flows`]
//!   compatibility wrapper.
//! * [`flows`] — builders that turn AllReduce plans and MP demand matrices
//!   into flow sets routed over a concrete topology.
//! * [`network`] — the simulated network: topology + routing + server set.
//! * [`iteration`] — one training iteration (compute + AllReduce + MP) on a
//!   dedicated network, with bandwidth-tax accounting (Figures 11–15).
//! * [`reconfig`] — windowed OCS-reconfig simulation with reconfiguration
//!   latency and optional host forwarding (Figure 17), driven through the
//!   engine's `run_until` windows.
//! * [`multijob`] — shared-cluster simulation (Figure 16), plus the dynamic
//!   layer: job arrivals/departures over [`topoopt_cluster::ClusterShards`]
//!   with the Active/Look-ahead provisioner rewiring the fabric between
//!   jobs (`fig16_dynamic`).
//! * `shared_engine` — the shared-fabric round simulator the dynamic layer
//!   keeps across arrival/departure windows: each window re-simulates only
//!   the job-level components it touched, on one fresh engine per distinct
//!   component shape, in parallel.

pub(crate) mod arena;
pub mod engine;
pub mod flows;
pub mod fluid;
pub mod iteration;
pub mod multijob;
pub mod network;
pub mod reconfig;
pub(crate) mod shared_engine;

pub use engine::{EngineStats, FluidEngine};
pub use flows::{allreduce_flows, mp_flows, AllReducePlan};
pub use fluid::{simulate_flows, FlowSpec, FluidResult};
pub use iteration::{simulate_iteration, IterationResult};
pub use multijob::{
    simulate_dynamic_cluster, simulate_shared_cluster, simulate_shared_cluster_stats,
    DynamicClusterParams, DynamicClusterResult, DynamicEngineStats, DynamicFabric,
    DynamicJobOutcome, DynamicJobSpec, JobSpec, MigrationMode, MigrationPlanFn,
    SharedClusterResult, SharedEngineMode,
};
pub use network::{RelayOverhead, SimNetwork};
pub use reconfig::{simulate_reconfigurable_iteration, ReconfigParams, ReconfigResult};
