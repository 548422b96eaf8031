//! Inner-engine benchmarks for the strategy search stack.
//!
//! Two axes:
//!
//! * `mcmc_incremental` vs `mcmc_reference` — the same single-chain search
//!   driven by the incremental `CostEvaluator` (mutate-and-revert) versus
//!   the clone-per-proposal full re-estimation loop. The incremental path
//!   must be ≥ 5x faster on the Shared-preset DLRM search at 32 servers:
//!   the bench *asserts* it on the median of runs (the vendored criterion
//!   stand-in has no baseline comparison), so the binary fails loudly if
//!   the speedup regresses.
//!   Two 256-server searches are reported, not asserted: they print the
//!   microseconds per proposal of both loops. Both loops describe an edge's
//!   transfers through the same routine, so a ratio cannot catch a slow
//!   enumeration; the per-proposal time can. A pure-data-parallel CANDLE
//!   search runs on the full mesh, the view of `co_optimize`'s first round.
//!   A hybrid-start DLRM search runs on `from_graph` of the fabric
//!   `TopologyFinder` builds for its demands, the view of the other three
//!   rounds, with long ring hops.
//! * `mcmc_chains` — one chain versus four parallel chains of the same
//!   per-chain length: with ≥ 4 cores the 4x search effort should cost
//!   roughly one chain's wall time.
//!
//! Run with `cargo bench -p topoopt-bench --bench search`; record the
//! incremental/reference ratio in CHANGES.md PR-over-PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use topoopt_bench::{compute_params, median_time};
use topoopt_core::topology_finder::{topology_finder, TopologyFinderInput};
use topoopt_models::zoo::{build_dlrm, build_model};
use topoopt_models::{DlrmConfig, ModelKind, ModelPreset};
use topoopt_oracle::search_strategy_reference;
use topoopt_strategy::{
    extract_traffic, search_strategy, McmcConfig, ParallelizationStrategy, TopologyView,
};

fn mcmc_cfg(iterations: usize, chains: usize) -> McmcConfig {
    McmcConfig { iterations, seed: 7, chains }
}

fn bench_mcmc_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_mcmc");
    group.sample_size(10);
    let n = 32;
    let model = build_dlrm(&DlrmConfig::shared());
    let view = TopologyView::FullMesh { n, per_server_bps: 400.0e9 };
    let params = compute_params();
    let initial = ParallelizationStrategy::pure_data_parallel(&model, n);
    let cfg = mcmc_cfg(200, 1);
    group.bench_function("dlrm_shared_32s_incremental", |b| {
        b.iter(|| search_strategy(&model, initial.clone(), &view, &params, &cfg))
    });
    group.bench_function("dlrm_shared_32s_reference", |b| {
        b.iter(|| search_strategy_reference(&model, initial.clone(), &view, &params, &cfg))
    });
    let incremental = median_time(5, || {
        search_strategy(&model, initial.clone(), &view, &params, &cfg);
    });
    let reference = median_time(5, || {
        search_strategy_reference(&model, initial.clone(), &view, &params, &cfg);
    });
    let speedup = reference.as_secs_f64() / incremental.as_secs_f64().max(1e-12);
    println!(
        "  search/dlrm-32 speedup: {speedup:.1}x (incremental {incremental:?} vs reference \
         {reference:?})"
    );
    assert!(
        speedup >= 5.0,
        "the incremental search must beat the clone-per-proposal reference by >= 5x on the \
         32-server Shared DLRM search, measured {speedup:.2}x"
    );

    // 256-server data-parallel CANDLE: every proposal moves one op off an
    // all-replicated model, so most of its edges join two replicated ops.
    let n = 256;
    let model = build_model(ModelKind::Candle, ModelPreset::Shared);
    let view = TopologyView::FullMesh { n, per_server_bps: 400.0e9 };
    let initial = ParallelizationStrategy::pure_data_parallel(&model, n);
    let cfg = mcmc_cfg(200, 1);
    let per_proposal =
        |total: Duration, cfg: &McmcConfig| total.as_secs_f64() * 1e6 / cfg.iterations as f64;
    let incremental = median_time(3, || {
        search_strategy(&model, initial.clone(), &view, &params, &cfg);
    });
    let reference = median_time(1, || {
        search_strategy_reference(&model, initial.clone(), &view, &params, &cfg);
    });
    println!(
        "  search/candle-256 per proposal: incremental {:.1} us, reference {:.1} us",
        per_proposal(incremental, &cfg),
        per_proposal(reference, &cfg)
    );

    // 256-server hybrid DLRM on its TopologyFinder fabric (degree 8, 100 G):
    // most proposals move an embedding table, so most changed edges are
    // stars of one holder with every other server. A proposal costs under
    // 2 us here, so the chain runs 2,000 of them to amortize the evaluator's
    // per-search tables (about 0.8 ms at 256 servers).
    let model = build_dlrm(&DlrmConfig::shared());
    let initial = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, n);
    let demands = extract_traffic(&model, &initial, params.gpus_per_server);
    let fabric = topology_finder(&TopologyFinderInput::new(n, 8, 100.0e9, &demands));
    let view = TopologyView::from_graph(&fabric.graph, n);
    let cfg = mcmc_cfg(2_000, 1);
    let incremental = median_time(3, || {
        search_strategy(&model, initial.clone(), &view, &params, &cfg);
    });
    let reference = median_time(1, || {
        search_strategy_reference(&model, initial.clone(), &view, &params, &cfg);
    });
    println!(
        "  search/dlrm-256-fabric per proposal: incremental {:.1} us, reference {:.1} us",
        per_proposal(incremental, &cfg),
        per_proposal(reference, &cfg)
    );
    group.finish();
}

fn bench_mcmc_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_chains");
    group.sample_size(10);
    let n = 32;
    let model = build_dlrm(&DlrmConfig::shared());
    let view = TopologyView::FullMesh { n, per_server_bps: 400.0e9 };
    let params = compute_params();
    let initial = ParallelizationStrategy::pure_data_parallel(&model, n);
    for &chains in &[1usize, 4] {
        let cfg = mcmc_cfg(200, chains);
        group.bench_with_input(BenchmarkId::new("dlrm_shared_32s", chains), &chains, |b, _| {
            b.iter(|| search_strategy(&model, initial.clone(), &view, &params, &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mcmc_incremental, bench_mcmc_chains);
criterion_main!(benches);
