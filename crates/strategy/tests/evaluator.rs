//! Equivalence property tests for the incremental [`CostEvaluator`] over
//! arbitrary mutation sequences, including reverts, on full-mesh and
//! concrete-topology views (reachable, partially-disconnected, with random
//! pair factors, and a `TopologyFinder` fabric):
//!
//! * it tracks the full [`estimate_iteration_time`] estimator to round-off;
//! * it gives every estimate of the per-pair [`PairCostEvaluator`] of
//!   `topoopt-oracle` to the bit.

use proptest::prelude::*;
use std::sync::OnceLock;
use topoopt_core::topology_finder::{topology_finder, TopologyFinderInput};
use topoopt_models::zoo::{build_dlrm, build_model};
use topoopt_models::{DlrmConfig, DnnModel, ModelKind, ModelPreset};
use topoopt_oracle::PairCostEvaluator;
use topoopt_strategy::{
    estimate_iteration_time, extract_traffic, ComputeParams, CostEvaluator, IterationEstimate,
    ParallelizationStrategy, PlacementKind, TopologyView,
};

const N: usize = 12;

fn close(a: f64, b: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn assert_estimates_close(fast: &IterationEstimate, full: &IterationEstimate, step: usize) {
    assert!(close(fast.compute_s, full.compute_s), "step {step}: compute {fast:?} vs {full:?}");
    assert!(
        close(fast.allreduce_s, full.allreduce_s),
        "step {step}: allreduce {fast:?} vs {full:?}"
    );
    assert!(close(fast.mp_s, full.mp_s), "step {step}: mp {fast:?} vs {full:?}");
    assert!(close(fast.total_s, full.total_s), "step {step}: total {fast:?} vs {full:?}");
}

/// Decode one `(op_pick, kind_pick, server_pick)` sample into a placement
/// mutation; covers every [`PlacementKind`] variant.
fn decode_mutation(model_ops: usize, sample: (usize, usize, usize)) -> (usize, PlacementKind) {
    let (op_pick, kind_pick, server_pick) = sample;
    let op = op_pick % model_ops;
    let kind = match kind_pick % 4 {
        0 => PlacementKind::Replicated,
        1 => PlacementKind::Single(server_pick % N),
        2 => {
            let size = 2 + server_pick % 3;
            PlacementKind::Sharded((0..size).map(|i| (server_pick + i) % N).collect())
        }
        _ => PlacementKind::Single((server_pick + 7) % N),
    };
    (op, kind)
}

/// A 12-server view whose first `chained` servers form a bidirectional
/// chain. With 10, servers 10 and 11 are isolated, so mutations routinely
/// cross the reachable/unreachable boundary; with 12 every pair is
/// reachable, and a server's farthest pair lies 6 to 11 hops away.
fn chain_view(chained: usize) -> TopologyView {
    let mut g = topoopt_graph::Graph::new(N);
    for i in 1..chained {
        g.add_bidi_edge(i - 1, i, 50.0e9);
    }
    TopologyView::from_graph(&g, N)
}

/// A strongly connected 12-server circulant whose pair factors come from
/// `picks`, one per pair: a pick below `dead` gives factor 0 (no logical
/// connection), one below 32 gives factor 1, and any other the pair's
/// sampled relay factor in `(0, 1)`.
fn factor_view(dead: usize, picks: &[(usize, f64)]) -> TopologyView {
    let g = topoopt_graph::topologies::from_permutations(N, &[1, 5], 40.0e9);
    let factor = |(pick, relay): (usize, f64)| match pick {
        p if p < dead => 0.0,
        p if p < 32 => 1.0,
        _ => relay,
    };
    let factors = picks.chunks(N).map(|row| row.iter().map(|&p| factor(p)).collect()).collect();
    TopologyView::from_graph(&g, N).with_pair_factors(factors)
}

/// Apply `muts` to DLRM from the hybrid (or data-parallel) start, then
/// unwind them, checking the evaluator against the full estimator after
/// every step.
fn run_sequence(view: &TopologyView, from_data_parallel: bool, muts: &[(usize, usize, usize)]) {
    let model = build_dlrm(&DlrmConfig::shared());
    let params = ComputeParams::default();
    let initial = if from_data_parallel {
        ParallelizationStrategy::pure_data_parallel(&model, N)
    } else {
        ParallelizationStrategy::hybrid_embeddings_round_robin(&model, N)
    };
    let mut ev = CostEvaluator::new(&model, initial, view, &params);
    let mut undo: Vec<(usize, PlacementKind)> = Vec::new();
    for (step, &sample) in muts.iter().enumerate() {
        let (op, kind) = decode_mutation(model.num_ops(), sample);
        let old = ev.set_placement(op, kind);
        undo.push((op, old));
        let fast = ev.estimate();
        let full = estimate_iteration_time(&model, ev.strategy(), view, &params);
        assert_estimates_close(&fast, &full, step);
    }
    // Unwind every mutation; the evaluator must stay equivalent on the way
    // back down too (exercises the remove/deactivate paths).
    for (step, (op, old)) in undo.into_iter().enumerate().rev() {
        ev.set_placement(op, old);
        let fast = ev.estimate();
        let full = estimate_iteration_time(&model, ev.strategy(), view, &params);
        assert_estimates_close(&fast, &full, step);
    }
}

proptest! {
    #[test]
    fn incremental_matches_full_on_full_mesh(
        muts in proptest::collection::vec((0..10_000usize, 0..4usize, 0..1_000usize), 0..24)
    ) {
        let view = TopologyView::FullMesh { n: N, per_server_bps: 40.0e9 };
        run_sequence(&view, false, &muts);
    }

    #[test]
    fn incremental_matches_full_on_partially_connected_topology(
        muts in proptest::collection::vec((0..10_000usize, 0..4usize, 0..1_000usize), 0..24)
    ) {
        run_sequence(&chain_view(10), false, &muts);
    }

    #[test]
    fn incremental_matches_full_with_pair_factors(
        dead in 0..3usize,
        picks in proptest::collection::vec((0..64usize, 0.01f64..1.0), N * N),
        from_data_parallel in proptest::bool::ANY,
        muts in proptest::collection::vec((0..10_000usize, 0..4usize, 0..1_000usize), 0..24)
    ) {
        // No dead pairs, about one in 64, or one in 16; a data-parallel
        // start has few active pairs, so moves cross between finite and
        // infinite estimates both ways.
        run_sequence(&factor_view([0, 1, 4][dead], &picks), from_data_parallel, &muts);
    }
}

/// Servers of the `TopologyFinder` fabric.
const FABRIC: usize = 64;

/// `from_graph` of the fabric `TopologyFinder` builds at 64 servers, degree
/// 4, for hybrid DLRM's demands: directed rings, so many pairs are many
/// hops apart and a pair's hops differ by direction.
fn fabric_view() -> &'static TopologyView {
    static VIEW: OnceLock<TopologyView> = OnceLock::new();
    VIEW.get_or_init(|| {
        let model = build_dlrm(&DlrmConfig::shared());
        let strategy = ParallelizationStrategy::hybrid_embeddings_round_robin(&model, FABRIC);
        let demands = extract_traffic(&model, &strategy, 4);
        let out = topology_finder(&TopologyFinderInput::new(FABRIC, 4, 25.0e9, &demands));
        TopologyView::from_graph(&out.graph, FABRIC)
    })
}

/// Every field of an estimate, as bits.
fn bits(e: &IterationEstimate) -> [u64; 4] {
    [e.compute_s.to_bits(), e.allreduce_s.to_bits(), e.mp_s.to_bits(), e.total_s.to_bits()]
}

/// Decode one `(op_pick, kind_pick, server_pick)` sample on `n` servers.
/// Shards take 3, 5, 6 or 8 consecutive servers: a share of 1/3, 1/5 or
/// 1/6 makes bytes inexact, so the sums round and their order shows in the
/// bits.
fn decode_on(
    n: usize,
    ops: usize,
    (op_pick, kind_pick, server_pick): (usize, usize, usize),
) -> (usize, PlacementKind) {
    let kind = match kind_pick % 4 {
        0 => PlacementKind::Replicated,
        1 => PlacementKind::Single(server_pick % n),
        2 => {
            let size = [3, 5, 6, 8][server_pick % 4];
            PlacementKind::Sharded((0..size).map(|i| (server_pick / 4 + i) % n).collect())
        }
        _ => PlacementKind::Single((server_pick + 7) % n),
    };
    (op_pick % ops, kind)
}

/// Drive the evaluator and the per-pair oracle through one sequence of
/// set, estimate and revert steps on `n` servers of `view`, requiring every
/// estimate to match to the bit. The start is data parallelism, the hybrid
/// heuristic, or every operator on its own server (so every edge joins two
/// listed ends). One step in four reverts the latest move not yet
/// reverted, if any.
fn assert_matches_oracle(
    model: &DnnModel,
    view: &TopologyView,
    n: usize,
    start: usize,
    steps: &[(usize, usize, usize, usize)],
) {
    let params = ComputeParams::default();
    let mut initial = ParallelizationStrategy::pure_data_parallel(model, n);
    match start {
        0 => {}
        1 => initial = ParallelizationStrategy::hybrid_embeddings_round_robin(model, n),
        _ => {
            for (op, p) in initial.placements.iter_mut().enumerate() {
                p.kind = PlacementKind::Single(op * 5 % n);
            }
        }
    }
    let mut fast = CostEvaluator::new(model, initial.clone(), view, &params);
    let mut slow = PairCostEvaluator::new(model, initial, view, &params);
    let case = format!("{} on {n} servers", model.name);
    assert_eq!(bits(&fast.estimate()), bits(&slow.estimate()), "{case}: start");
    let mut undo: Vec<(usize, PlacementKind)> = Vec::new();
    for (step, &(op_pick, kind_pick, server_pick, revert)) in steps.iter().enumerate() {
        let (op, placement) = match undo.pop() {
            Some(last) if revert == 0 => last,
            last => {
                undo.extend(last);
                decode_on(n, model.num_ops(), (op_pick, kind_pick, server_pick))
            }
        };
        let old = fast.set_placement(op, placement.clone());
        assert_eq!(slow.set_placement(op, placement), old, "{case}: step {step}");
        if revert != 0 {
            undo.push((op, old));
        }
        let (a, b) = (fast.estimate(), slow.estimate());
        assert_eq!(bits(&a), bits(&b), "{case}: step {step}: {a:?} vs {b:?}");
    }
    assert_eq!(fast.strategy(), slow.strategy(), "{case}");
}

proptest! {
    #[test]
    fn estimates_match_the_per_pair_oracle_to_the_bit(
        model_pick in 0..3usize,
        start in 0..3usize,
        dead in 0..3usize,
        picks in proptest::collection::vec((0..64usize, 0.01f64..1.0), N * N),
        steps in proptest::collection::vec(
            (0..10_000usize, 0..4usize, 0..1_000usize, 0..4usize),
            0..32,
        )
    ) {
        // DLRM, NCF, and VGG16, whose edges between two listed operators
        // are the only listed-by-listed blocks of a search. Every case runs
        // on the full mesh; the chain with isolated servers; a circulant
        // with dead and relayed pairs; the connected chain, whose stars
        // reach different distances; and the TopologyFinder fabric.
        let kind = [ModelKind::Dlrm, ModelKind::Ncf, ModelKind::Vgg16][model_pick];
        let model = build_model(kind, ModelPreset::Shared);
        let views = [
            TopologyView::FullMesh { n: N, per_server_bps: 40.0e9 },
            chain_view(10),
            factor_view([0, 1, 4][dead], &picks),
            chain_view(N),
        ];
        for view in &views {
            assert_matches_oracle(&model, view, N, start, &steps);
        }
        assert_matches_oracle(&model, fabric_view(), FABRIC, start, &steps);
    }
}
