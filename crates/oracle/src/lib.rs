//! Test oracles for the shipped fluid engine and strategy search.
//!
//! This crate is a dev-dependency of `topoopt-netsim`, `topoopt-strategy`
//! and `topoopt-bench` and of nothing else, so no binary links it and the
//! shipped crates carry one implementation of each algorithm. It holds the
//! second implementations those crates are tested and benched against,
//! plus a checker that needs no second implementation:
//!
//! * [`waterfill_slices`] — the map-keyed progressive-filling allocator.
//!   netsim's arena unit tests require its flat `waterfill_ids` to match
//!   it bit for bit.
//! * [`simulate_flows_reference`] — the from-scratch fluid event loop that
//!   re-waterfills every active flow at every event. The engine
//!   equivalence proptests (`crates/netsim/tests/engine.rs`) hold
//!   `simulate_flows` to it at 1e-9 relative, and the `fluid` and `scale`
//!   benches gate the engine's speedup on it.
//! * [`search_strategy_reference`] — the clone-per-proposal MCMC loop. The
//!   incremental search must retrace its trajectory
//!   (`crates/strategy/tests/search.rs`) and beat it by at least 5x in the
//!   `search` bench.
//! * [`PairCostEvaluator`] — the per-pair incremental evaluator: one slot
//!   per server pair, updated per transfer. The shipped `CostEvaluator`,
//!   which tallies reach per edge, must match its every estimate to the bit
//!   (`crates/strategy/tests/evaluator.rs`).
//! * [`check_max_min`] — the max-min fairness certificate: feasibility on
//!   every link, and a relay cap or a bottleneck link for every flow.

mod evaluator;
mod fluid;
mod maxmin;
mod search;

pub use evaluator::PairCostEvaluator;
pub use fluid::{simulate_flows_reference, waterfill_slices};
pub use maxmin::check_max_min;
pub use search::search_strategy_reference;
