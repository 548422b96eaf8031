//! FlexNet-style parallelization strategy search.
//!
//! The paper's `Comp.×Comm.` plane (§4.1) is FlexFlow's MCMC search over
//! parallelization strategies and device placements, made network-aware
//! ("FlexNet"). This crate reproduces that plane:
//!
//! * [`placement`] — the strategy representation: per-operator placement
//!   (replicated / single-server / sharded), plus heuristic starting points
//!   such as the Meta DLRM placement of §2.1.
//! * [`traffic`] — extraction of the `T_AllReduce` (per-group AllReduce
//!   volumes) and `T_MP` (point-to-point model-parallel demand) inputs that
//!   the `TopologyFinder` consumes.
//! * [`costmodel`] — an analytical, topology-aware iteration-time estimate
//!   used inside the search loop.
//! * [`evaluator`] — the incremental form of that estimate: per-operator
//!   cached contributions re-evaluated only for the mutated operator.
//! * [`mcmc`] — the Markov-chain Monte-Carlo strategy search itself
//!   (mutate-and-revert over the incremental evaluator, parallel
//!   multi-chain via [`McmcConfig::chains`]).

pub mod costmodel;
pub mod evaluator;
pub mod mcmc;
pub mod placement;
pub mod traffic;

pub use costmodel::{
    estimate_from_demands, estimate_iteration_time, ComputeParams, IterationEstimate, TopologyView,
};
pub use evaluator::CostEvaluator;
pub use mcmc::{search_strategy, McmcConfig, McmcResult};
pub use placement::{OpPlacement, ParallelizationStrategy, PlacementKind};
pub use traffic::{extract_traffic, AllReduceGroup, TrafficDemands};
