//! Inner-engine benchmarks for the strategy search stack.
//!
//! Two axes:
//!
//! * `mcmc_incremental` vs `mcmc_reference` — the same single-chain search
//!   driven by the incremental `CostEvaluator` (mutate-and-revert) versus
//!   the clone-per-proposal full re-estimation loop. The incremental path
//!   must be ≥ 5x faster on the Shared-preset DLRM search.
//! * `mcmc_chains` — one chain versus four parallel chains of the same
//!   per-chain length: with ≥ 4 cores the 4x search effort should cost
//!   roughly one chain's wall time.
//!
//! Run with `cargo bench -p topoopt-bench --bench search`; record the
//! incremental/reference ratio in CHANGES.md PR-over-PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use topoopt_bench::compute_params;
use topoopt_models::zoo::build_dlrm;
use topoopt_models::DlrmConfig;
use topoopt_strategy::{
    search_strategy, search_strategy_reference, McmcConfig, ParallelizationStrategy, TopologyView,
};

fn mcmc_cfg(iterations: usize, chains: usize) -> McmcConfig {
    McmcConfig { iterations, temperature: 0.05, seed: 7, restrict_to_heavy_ops: true, chains }
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
