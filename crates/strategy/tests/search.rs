//! Trajectory equality of the incremental MCMC search and the
//! clone-per-proposal reference loop of `topoopt-oracle`.

use topoopt_models::zoo::build_model;
use topoopt_models::{DnnModel, ModelKind, ModelPreset};
use topoopt_oracle::search_strategy_reference;
use topoopt_strategy::{
    search_strategy, ComputeParams, McmcConfig, ParallelizationStrategy, TopologyView,
};

fn quick_cfg(seed: u64) -> McmcConfig {
    McmcConfig { iterations: 120, seed, chains: 1 }
}

/// Run both search loops from `init` and require the same trajectory:
/// strategy, counters, and the estimate to 1e-9 relative.
fn assert_retraces_reference(
    m: &DnnModel,
    init: ParallelizationStrategy,
    view: &TopologyView,
    seed: u64,
) {
    let p = ComputeParams::default();
    let cfg = quick_cfg(seed);
    let case = format!("{} on {} servers, seed {seed}", m.name, init.num_servers);
    let fast = search_strategy(m, init.clone(), view, &p, &cfg);
    let slow = search_strategy_reference(m, init, view, &p, &cfg);
    assert_eq!(fast.strategy, slow.strategy, "{case}");
    assert_eq!(fast.accepted, slow.accepted, "{case}");
    assert_eq!(fast.evaluated, slow.evaluated, "{case}");
    let (a, b) = (fast.estimate.total_s, slow.estimate.total_s);
    assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{case}: {a} vs {b}");
}

#[test]
fn incremental_search_matches_reference_loop() {
    // Same seed, same proposals, same accept decisions: the incremental
    // evaluator must retrace the clone-per-proposal reference exactly
    // (float round-off between the two paths is far smaller than any
    // accept-threshold gap seen in practice). Data-parallel starts on
    // three models, then hybrid starts on every zoo model at 16 and 64
    // servers.
    let view = TopologyView::FullMesh { n: 16, per_server_bps: 25.0e9 };
    for (kind, seed) in [(ModelKind::Dlrm, 5u64), (ModelKind::Ncf, 9), (ModelKind::Bert, 2)] {
        let m = build_model(kind, ModelPreset::Shared);
        let init = ParallelizationStrategy::pure_data_parallel(&m, 16);
        assert_retraces_reference(&m, init, &view, seed);
    }
    for n in [16, 64] {
        let view = TopologyView::FullMesh { n, per_server_bps: 25.0e9 };
        for kind in ModelKind::all() {
            let m = build_model(kind, ModelPreset::Shared);
            for seed in [2, 5, 9] {
                let init = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, n);
                assert_retraces_reference(&m, init, &view, seed);
            }
        }
    }
}
