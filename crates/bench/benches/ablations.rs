//! Ablation benches for the workspace's main algorithmic design choices:
//! geometric vs naive permutation selection, exact vs greedy matching, and
//! multi-ring vs single-ring AllReduce. Each bench reports the runtime of
//! the two variants; the quality difference is asserted in unit tests and
//! reported by the `reproduce` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use topoopt_collectives::ring::{multi_ring_traffic, ring_allreduce_traffic, RingPermutation};
use topoopt_core::select::select_permutations;
use topoopt_core::totient::totient_perms;
use topoopt_graph::matching::{MatchingAlgo, MatchingRounds};

fn bench_selection_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_select_permutations");
    let members: Vec<usize> = (0..128).collect();
    group.bench_function("geometric_selection", |b| {
        b.iter(|| select_permutations(&totient_perms(&members), 4))
    });
    group.bench_function("naive_lowest_strides", |b| {
        b.iter(|| {
            let perms = totient_perms(&members);
            perms.into_iter().take(4).collect::<Vec<_>>()
        })
    });
    group.finish();
}

fn bench_matching_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_matching");
    group.sample_size(20);
    let n = 20;
    let weights: Vec<Vec<f64>> =
        (0..n).map(|i| (0..n).map(|j| ((i * 31 + j * 17) % 97) as f64).collect()).collect();
    group.bench_function("exact_blossom_substitute", |b| {
        b.iter(|| MatchingRounds::new(&weights, MatchingAlgo::Exact).round())
    });
    group.bench_function("greedy_improve", |b| {
        b.iter(|| MatchingRounds::new(&weights, MatchingAlgo::GreedyImprove).round())
    });
    group.finish();
}

fn bench_multiring_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_multiring");
    let n = 128;
    let members: Vec<usize> = (0..n).collect();
    group.bench_function("single_ring_traffic", |b| {
        b.iter(|| ring_allreduce_traffic(n, 4.0e9, &RingPermutation::new(members.clone(), 1)))
    });
    group.bench_function("three_ring_traffic", |b| {
        let perms: Vec<RingPermutation> =
            [1usize, 7, 23].iter().map(|&s| RingPermutation::new(members.clone(), s)).collect();
        b.iter(|| multi_ring_traffic(n, 4.0e9, &perms))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_selection_variants,
    bench_matching_variants,
    bench_multiring_variants
);
criterion_main!(benches);
