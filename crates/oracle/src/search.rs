//! The clone-per-proposal MCMC search loop — the pre-evaluator search
//! `topoopt_strategy::search_strategy` was built from.
//!
//! The candidate filter, the proposal kernel and the Metropolis temperature
//! are private in `topoopt-strategy`, so this module restates them. The
//! trajectory-equality test (`crates/strategy/tests/search.rs`) fails on
//! any drift between the two copies: same seed, same proposals, same accept
//! decisions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topoopt_models::DnnModel;
use topoopt_strategy::{
    estimate_iteration_time, ComputeParams, McmcConfig, McmcResult, ParallelizationStrategy,
    PlacementKind, TopologyView,
};

/// Metropolis temperature as a fraction of the current cost.
const TEMPERATURE: f64 = 0.05;

/// Operators eligible for model-parallel placement: embedding tables, plus
/// parameterised layers whose parameter footprint exceeds 64 MB.
fn mp_candidates(model: &DnnModel) -> Vec<usize> {
    (0..model.num_ops())
        .filter(|&i| {
            let op = &model.ops[i].op;
            op.has_params() && (op.is_embedding() || op.param_bytes() > 64.0e6)
        })
        .collect()
}

/// The original clone-per-proposal, full-re-estimation search loop (always
/// single-chain; `cfg.chains` is ignored). The correctness oracle for the
/// incremental search and the baseline of the `search` bench — everything
/// else calls `topoopt_strategy::search_strategy`.
pub fn search_strategy_reference(
    model: &DnnModel,
    initial: ParallelizationStrategy,
    view: &TopologyView,
    params: &ComputeParams,
    cfg: &McmcConfig,
) -> McmcResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = initial.num_servers;
    let candidates = mp_candidates(model);

    let mut current = initial;
    let mut current_est = estimate_iteration_time(model, &current, view, params);
    let mut best = current.clone();
    let mut best_est = current_est;
    let mut accepted = 0usize;
    let mut evaluated = 0usize;

    for _ in 0..cfg.iterations {
        if candidates.is_empty() {
            break;
        }
        let mut proposal = current.clone();
        let op = candidates[rng.gen_range(0..candidates.len())];
        let new_kind = propose_kind(&proposal.placements[op].kind, n, &mut rng);
        proposal.placements[op].kind = new_kind;

        let est = estimate_iteration_time(model, &proposal, view, params);
        evaluated += 1;
        let accept = if est.total_s <= current_est.total_s {
            true
        } else {
            let delta = est.total_s - current_est.total_s;
            let scale = (TEMPERATURE * current_est.total_s).max(1e-12);
            rng.gen::<f64>() < (-delta / scale).exp()
        };
        if accept {
            current = proposal;
            current_est = est;
            accepted += 1;
            if current_est.total_s < best_est.total_s {
                best = current.clone();
                best_est = current_est;
            }
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
