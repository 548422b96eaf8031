//! TopoOpt's core contribution: joint optimization of network topology,
//! routing, and parallelization strategy for distributed DNN training.
//!
//! Modules map one-to-one onto the paper's algorithms:
//!
//! * [`totient`] — `TotientPerms` (Algorithm 2): enumerate the regular ring
//!   permutations of an AllReduce group from Euler's totient structure.
//! * [`select`] — `SelectPermutations` (Algorithm 3): pick a degree-limited
//!   subset of permutations whose strides approximate a geometric sequence,
//!   bounding the AllReduce sub-topology's diameter to `O(d·n^(1/d))`
//!   (Theorem 1).
//! * [`topology_finder`](mod@topology_finder) — `TopologyFinder`
//!   (Algorithm 1): split the server degree between AllReduce and
//!   model-parallel sub-topologies, build each, and compute routing.
//! * [`coinchange`] — `CoinChangeMod` (Algorithm 4 / Appendix E.3): route
//!   AllReduce transfers over the selected ring strides by solving a modular
//!   coin-change problem.
//! * [`ocs_reconfig`] — the OCS-reconfig heuristic (Algorithm 5 / Appendix
//!   E.4) with the discounted-utility link allocator, and the SiP-ML variant
//!   (Appendix F, discount = 1).
//! * [`alternating`] — the alternating optimization loop of §4.1 that
//!   bounces between the `Comp.×Comm.` plane (MCMC strategy search) and the
//!   `Comm.×Topo.` plane (`TopologyFinder`).

pub mod alternating;
pub mod coinchange;
pub mod ocs_reconfig;
pub mod routing;
pub mod select;
pub mod topology_finder;
pub mod totient;

pub use alternating::{co_optimize, AlternatingConfig, CoOptResult};
pub use coinchange::{coin_change_route, CoinChangeTable};
pub use ocs_reconfig::{ocs_reconfig_topology, sipml_topology, OcsReconfigConfig};
pub use routing::Routing;
pub use select::{critical_links, select_permutations, select_permutations_available};
pub use topology_finder::{topology_finder, TopologyFinderInput, TopologyFinderOutput};
pub use totient::{euler_totient, totient_perms, TotientPermsConfig};
