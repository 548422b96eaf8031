//! Markov-chain Monte-Carlo search over parallelization strategies.
//!
//! This reproduces FlexFlow's MCMC search (§4.1): starting from a candidate
//! strategy, each step proposes a local mutation (move an operator to a
//! different server, toggle an operator between replicated and single-server
//! placement, or re-shard it), evaluates the iteration-time estimate on the
//! current topology view, and accepts the proposal with the Metropolis
//! criterion. The best strategy ever seen is returned.
//!
//! Two engine-level optimisations keep the search fast at scale:
//!
//! * **Incremental cost evaluation** — each proposal mutates exactly one
//!   operator, so the chain drives a [`CostEvaluator`] with a
//!   mutate-and-revert loop instead of cloning the strategy and re-running
//!   the full estimator per step. A proposal costs the float additions of
//!   the edges it changes ([`crate::evaluator`]). The original
//!   clone-per-proposal loop is `search_strategy_reference` in the dev-only
//!   `topoopt-oracle` crate: the equivalence oracle (`tests/search.rs`) and
//!   the `search` bench baseline.
//! * **Parallel multi-chain search** — [`McmcConfig::chains`] independent
//!   chains run on rayon threads from seeds derived deterministically from
//!   [`McmcConfig::seed`]; results are collected in chain order and the
//!   best is returned, so a fixed seed yields the same result regardless of
//!   thread count (`RAYON_NUM_THREADS=1` included). A search builds one
//!   evaluator, with the view's hop tables, and each chain starts from a
//!   clone of it that shares those tables.

use crate::costmodel::{ComputeParams, IterationEstimate, TopologyView};
use crate::evaluator::CostEvaluator;
use crate::placement::{ParallelizationStrategy, PlacementKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use topoopt_models::DnnModel;

/// Metropolis temperature expressed as a fraction of the current cost
/// (higher accepts more uphill moves). `topoopt-oracle` restates it, like
/// [`mp_candidates`]; `tests/search.rs` fails if the copies drift.
const TEMPERATURE: f64 = 0.05;

/// Search hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McmcConfig {
    /// Number of proposal steps per chain.
    pub iterations: usize,
    /// RNG seed (searches are deterministic given the seed, regardless of
    /// thread count).
    pub seed: u64,
    /// Number of independent chains run in parallel; the best result wins.
    /// Chain `k` is seeded from `seed` (chain 0 uses `seed` itself, so
    /// `chains = 1` reproduces the single-chain trajectory).
    pub chains: usize,
}

impl Default for McmcConfig {
    fn default() -> Self {
        McmcConfig { iterations: 400, seed: 1, chains: 4 }
    }
}

/// Result of one search run.
#[derive(Debug, Clone)]
pub struct McmcResult {
    /// The best strategy found (across all chains).
    pub strategy: ParallelizationStrategy,
    /// Its estimated iteration time breakdown.
    pub estimate: IterationEstimate,
    /// Number of accepted proposals (summed over chains).
    pub accepted: usize,
    /// Number of proposals evaluated (summed over chains).
    pub evaluated: usize,
}

/// Operators eligible for model-parallel placement: embedding tables, plus
/// parameterised layers whose parameter footprint exceeds 64 MB. This
/// mirrors how DLRM-style models are actually parallelized and keeps the
/// chain in the useful region. `topoopt-oracle` restates this filter and
/// [`propose_kind`]; `tests/search.rs` fails if the copies drift.
fn mp_candidates(model: &DnnModel) -> Vec<usize> {
    (0..model.num_ops())
        .filter(|&i| {
            let op = &model.ops[i].op;
            op.has_params() && (op.is_embedding() || op.param_bytes() > 64.0e6)
        })
        .collect()
}

/// Deterministic per-chain seed: chain 0 keeps `seed` (so a single chain
/// reproduces the historical trajectory), later chains take fixed
/// golden-ratio strides through the seed space.
fn chain_seed(seed: u64, chain: u64) -> u64 {
    seed.wrapping_add(chain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run the MCMC search starting from `initial` (typically
/// [`ParallelizationStrategy::hybrid_embeddings_round_robin`] or pure data
/// parallelism) against the network `view`. With `cfg.chains > 1`,
/// independent chains run in parallel and the best result is returned
/// (ties broken by lowest chain index, so the outcome is independent of
/// thread scheduling).
pub fn search_strategy(
    model: &DnnModel,
    initial: ParallelizationStrategy,
    view: &TopologyView,
    params: &ComputeParams,
    cfg: &McmcConfig,
) -> McmcResult {
    let start = CostEvaluator::new(model, initial, view, params);
    let candidates = mp_candidates(model);
    let chains = cfg.chains.max(1);
    if chains == 1 {
        return search_one_chain(start, &candidates, cfg, cfg.seed);
    }
    let results: Vec<McmcResult> = (0..chains as u64)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|k| search_one_chain(start.clone(), &candidates, cfg, chain_seed(cfg.seed, k)))
        .collect();
    let accepted = results.iter().map(|r| r.accepted).sum();
    let evaluated = results.iter().map(|r| r.evaluated).sum();
    let best = results
        .into_iter()
        .min_by(|a, b| a.estimate.total_s.total_cmp(&b.estimate.total_s))
        .expect("at least one chain runs");
    McmcResult { accepted, evaluated, ..best }
}

/// One Metropolis chain over an incremental [`CostEvaluator`] loaded with
/// the initial strategy: proposals are applied in place and reverted on
/// rejection; the strategy is cloned only when a new best is recorded.
fn search_one_chain(
    mut eval: CostEvaluator<'_>,
    candidates: &[usize],
    cfg: &McmcConfig,
    seed: u64,
) -> McmcResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = eval.strategy().num_servers;

    let mut current_est = eval.estimate();
    let mut best = eval.strategy().clone();
    let mut best_est = current_est;
    let mut accepted = 0usize;
    let mut evaluated = 0usize;

    for _ in 0..cfg.iterations {
        if candidates.is_empty() {
            break;
        }
        let op = candidates[rng.gen_range(0..candidates.len())];
        let new_kind = propose_kind(&eval.strategy().placements[op].kind, n, &mut rng);
        let old_kind = eval.set_placement(op, new_kind);

        let est = eval.estimate();
        evaluated += 1;
        let accept = if est.total_s <= current_est.total_s {
            true
        } else {
            // Metropolis: accept uphill with probability exp(-Δ / (T·cost)).
            let delta = est.total_s - current_est.total_s;
            let scale = (TEMPERATURE * current_est.total_s).max(1e-12);
            rng.gen::<f64>() < (-delta / scale).exp()
        };
        if accept {
            current_est = est;
            accepted += 1;
            if current_est.total_s < best_est.total_s {
                best = eval.strategy().clone();
                best_est = current_est;
            }
        } else {
            eval.set_placement(op, old_kind);
        }
    }

    McmcResult { strategy: best, estimate: best_est, accepted, evaluated }
}

/// Propose a new placement for one operator.
fn propose_kind(kind: &PlacementKind, n: usize, rng: &mut StdRng) -> PlacementKind {
    match kind {
        PlacementKind::Replicated => {
            // Move to a single random server, or shard across a random
            // power-of-two subset.
            if rng.gen_bool(0.7) || n < 4 {
                PlacementKind::Single(rng.gen_range(0..n))
            } else {
                let size = [2usize, 4, 8][rng.gen_range(0..3usize)].min(n);
                let start = rng.gen_range(0..n);
                PlacementKind::Sharded((0..size).map(|i| (start + i) % n).collect())
            }
        }
        PlacementKind::Single(s) => {
            // Move to another server or go back to replicated.
            if rng.gen_bool(0.5) {
                PlacementKind::Replicated
            } else {
                let mut t = rng.gen_range(0..n);
                if t == *s {
                    t = (t + 1) % n;
                }
                PlacementKind::Single(t)
            }
        }
        PlacementKind::Sharded(v) => {
            if rng.gen_bool(0.5) {
                PlacementKind::Replicated
            } else {
                PlacementKind::Single(v[rng.gen_range(0..v.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::estimate_iteration_time;
    use topoopt_models::zoo::{build_dlrm, build_model};
    use topoopt_models::{DlrmConfig, ModelKind, ModelPreset};

    fn quick_cfg(seed: u64) -> McmcConfig {
        McmcConfig { iterations: 120, seed, chains: 1 }
    }

    #[test]
    fn search_never_returns_worse_than_initial() {
        let m = build_dlrm(&DlrmConfig::shared());
        let view = TopologyView::FullMesh { n: 16, per_server_bps: 100.0e9 };
        let p = ComputeParams::default();
        let init = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let init_est = estimate_iteration_time(&m, &init, &view, &p);
        let result = search_strategy(&m, init, &view, &p, &quick_cfg(3));
        assert!(result.estimate.total_s <= init_est.total_s + 1e-12);
        result.strategy.validate(&m).unwrap();
    }

    #[test]
    fn search_discovers_hybrid_for_embedding_heavy_model() {
        // Starting from pure data parallelism on a DLRM whose embeddings
        // dwarf the dense part, the search should move at least some tables
        // off the replicated path.
        let m = build_dlrm(&DlrmConfig::shared());
        let view = TopologyView::FullMesh { n: 16, per_server_bps: 25.0e9 };
        let p = ComputeParams::default();
        let init = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let result = search_strategy(&m, init, &view, &p, &quick_cfg(7));
        assert!(result.strategy.num_model_parallel_ops() > 0);
        assert!(result.accepted > 0);
    }

    #[test]
    fn search_is_deterministic_for_fixed_seed() {
        let m = build_model(ModelKind::Ncf, ModelPreset::Dedicated);
        let view = TopologyView::FullMesh { n: 8, per_server_bps: 50.0e9 };
        let p = ComputeParams::default();
        let init = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, 8);
        for chains in [1usize, 4] {
            let mut cfg = quick_cfg(11);
            cfg.chains = chains;
            let a = search_strategy(&m, init.clone(), &view, &p, &cfg);
            let b = search_strategy(&m, init.clone(), &view, &p, &cfg);
            assert_eq!(a.strategy, b.strategy, "chains = {chains}");
            assert_eq!(a.estimate.total_s, b.estimate.total_s);
            assert_eq!(a.accepted, b.accepted);
            assert_eq!(a.evaluated, b.evaluated);
        }
    }

    #[test]
    fn multi_chain_is_deterministic_across_thread_counts() {
        // The vendored rayon honors RAYON_NUM_THREADS; a serial run and a
        // parallel run of the same multi-chain search must agree exactly.
        let m = build_model(ModelKind::Ncf, ModelPreset::Dedicated);
        let view = TopologyView::FullMesh { n: 8, per_server_bps: 50.0e9 };
        let p = ComputeParams::default();
        let init = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, 8);
        let mut cfg = quick_cfg(13);
        cfg.chains = 6;
        // Env mutation is safe here: every read goes through std::env (which
        // serializes access internally — no C-level getenv runs in this
        // process), and a sibling test that transiently observes the capped
        // value only loses parallelism, never determinism — which is exactly
        // the property under test.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = search_strategy(&m, init.clone(), &view, &p, &cfg);
        std::env::remove_var("RAYON_NUM_THREADS");
        let parallel = search_strategy(&m, init, &view, &p, &cfg);
        assert_eq!(serial.strategy, parallel.strategy);
        assert_eq!(serial.estimate.total_s, parallel.estimate.total_s);
        assert_eq!(serial.accepted, parallel.accepted);
        assert_eq!(serial.evaluated, parallel.evaluated);
    }

    #[test]
    fn multi_chain_never_loses_to_its_own_first_chain() {
        // Chain 0 of a multi-chain run is the single-chain run, so the
        // multi-chain best can only match or beat it; counters aggregate.
        let m = build_dlrm(&DlrmConfig::shared());
        let view = TopologyView::FullMesh { n: 16, per_server_bps: 25.0e9 };
        let p = ComputeParams::default();
        let init = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let single = search_strategy(&m, init.clone(), &view, &p, &quick_cfg(21));
        let mut cfg = quick_cfg(21);
        cfg.chains = 4;
        let multi = search_strategy(&m, init, &view, &p, &cfg);
        assert!(multi.estimate.total_s <= single.estimate.total_s + 1e-12);
        assert_eq!(multi.evaluated, 4 * single.evaluated);
    }

    #[test]
    fn compute_bound_model_stays_data_parallel() {
        // ResNet50 has small parameters and heavy compute; the search should
        // keep it (essentially) data parallel even on a slow network.
        let m = build_model(ModelKind::ResNet50, ModelPreset::Dedicated);
        let view = TopologyView::FullMesh { n: 16, per_server_bps: 10.0e9 };
        let p = ComputeParams::default();
        let init = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let result = search_strategy(&m, init, &view, &p, &quick_cfg(5));
        assert!(result.strategy.num_model_parallel_ops() <= 2);
    }
}
