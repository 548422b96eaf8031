//! Criterion micro-benchmarks of TopoOpt's core algorithms: TotientPerms +
//! SelectPermutations, CoinChangeMod routing, TopologyFinder, repeated
//! matching rounds (buffer-reusing vs per-round allocation), and one round
//! of the MCMC strategy search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use topoopt_bench::{baseline_strategy, build_topoopt_fabric, compute_params};
use topoopt_core::coinchange::CoinChangeTable;
use topoopt_core::select::select_permutations;
use topoopt_core::totient::totient_perms;
use topoopt_graph::matching::{MatchingAlgo, MatchingRounds};
use topoopt_models::{ModelKind, ModelPreset};
use topoopt_strategy::{extract_traffic, search_strategy, McmcConfig, TopologyView};

fn bench_totient_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("totient_select");
    for &n in &[64usize, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let members: Vec<usize> = (0..n).collect();
            b.iter(|| select_permutations(&totient_perms(&members), 4))
        });
    }
    group.finish();
}

fn bench_coin_change(c: &mut Criterion) {
    let mut group = c.benchmark_group("coin_change_table");
    for &n in &[128usize, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| CoinChangeTable::new(n, &[1, 7, 23, 61]))
        });
    }
    group.finish();
}

fn bench_topology_finder(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_finder");
    group.sample_size(10);
    for &n in &[16usize, 32] {
        let (model, strategy) = baseline_strategy(ModelKind::Dlrm, ModelPreset::Shared, n);
        let demands = extract_traffic(&model, &strategy, 4);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| build_topoopt_fabric(&demands, n, 4, 100.0e9))
        });
    }
    group.finish();
}

/// A d_MP-style loop: 4 matching rounds with served-pair halving between
/// rounds, once through one buffer-reusing [`MatchingRounds`] and once
/// through a fresh `MatchingRounds` per round (which re-symmetrizes the
/// matrix and re-allocates the exact solver's 2^n DP tables each round).
fn bench_matching_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching_rounds");
    group.sample_size(10);
    for &n in &[20usize, 48] {
        let mut weights = vec![vec![0.0; n]; n];
        for (i, row) in weights.iter_mut().enumerate() {
            for (j, w) in row.iter_mut().enumerate() {
                if i != j {
                    *w = ((i * 31 + j * 17) % 29) as f64 * 1.0e8;
                }
            }
        }
        group.bench_with_input(BenchmarkId::new("reused_buffers", n), &n, |b, _| {
            b.iter(|| {
                let mut rounds = MatchingRounds::new(&weights, MatchingAlgo::Auto);
                for _ in 0..4 {
                    let m = rounds.round();
                    for &(a, bb) in &m {
                        rounds.halve_pair(a, bb);
                    }
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("per_round_alloc", n), &n, |b, _| {
            b.iter(|| {
                let mut w = weights.clone();
                for _ in 0..4 {
                    let m = MatchingRounds::new(&w, MatchingAlgo::Auto).round();
                    for &(a, bb) in &m {
                        w[a][bb] /= 2.0;
                        w[bb][a] /= 2.0;
                    }
                }
            })
        });
    }
    group.finish();
}

fn bench_mcmc_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcmc_strategy_search");
    group.sample_size(10);
    let n = 16;
    let (model, strategy) = baseline_strategy(ModelKind::Dlrm, ModelPreset::Shared, n);
    let view = TopologyView::FullMesh { n, per_server_bps: 400.0e9 };
    let params = compute_params();
    group.bench_function("dlrm_16servers_50iters", |b| {
        b.iter(|| {
            search_strategy(
                &model,
                strategy.clone(),
                &view,
                &params,
                &McmcConfig { iterations: 50, ..Default::default() },
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_totient_select,
    bench_coin_change,
    bench_topology_finder,
    bench_matching_rounds,
    bench_mcmc_search
);
criterion_main!(benches);
