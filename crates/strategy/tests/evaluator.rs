//! Equivalence property test: the incremental [`CostEvaluator`] must track
//! the full [`estimate_iteration_time`] estimator over arbitrary mutation
//! sequences, including reverts, on full-mesh and concrete-topology views
//! (reachable, partially-disconnected, and with random pair factors).

use proptest::prelude::*;
use topoopt_models::zoo::build_dlrm;
use topoopt_models::DlrmConfig;
use topoopt_strategy::{
    estimate_iteration_time, ComputeParams, CostEvaluator, IterationEstimate,
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

/// A partially-connected 12-server view: a chain covering servers 0..10,
/// servers 10 and 11 isolated, so mutations routinely cross the
/// reachable/unreachable boundary.
fn chain_view() -> TopologyView {
    let mut g = topoopt_graph::Graph::new(N);
    for i in 0..9 {
        g.add_bidi_edge(i, i + 1, 50.0e9);
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
        run_sequence(&chain_view(), false, &muts);
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
