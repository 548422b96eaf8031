//! Incremental iteration-time evaluation for the MCMC strategy search.
//!
//! [`crate::costmodel::estimate_iteration_time`] walks the whole model —
//! every operator for the compute load, every DAG edge for the
//! model-parallel demand matrix — even though each MCMC proposal mutates
//! exactly one operator's placement. [`CostEvaluator`] caches the
//! per-operator contributions to every term of the estimate against a fixed
//! [`TopologyView`] and re-evaluates only the delta of the mutated operator,
//! so a proposal costs the transfers it changes:
//!
//! * **compute** — the per-server FLOP loads; a mutation touches only the
//!   servers the operator moves off/onto;
//! * **AllReduce** — with per-operator placements, replicated operators
//!   always synchronise over the full server set, so the (single) group's
//!   volume is a running sum of replicated parameter bytes;
//! * **model-parallel** — the transfers of the operator's incident DAG
//!   edges, removed under the old placement and added under the new one.
//!   An edge between two replicated operators has no transfers and costs
//!   nothing. Per pair the evaluator keeps an integer count of contributing
//!   transfers (so "pair has demand" stays exact under removal, with no
//!   float subtraction involved) next to the pair's hop count, read from a
//!   flat row-major table built once in [`CostEvaluator::new`]. Per-server
//!   egress/ingress, the hop-taxed bit total, and a dense `Vec` tally of
//!   active pairs per hop count plus a count of active pairs with no path
//!   keep `max_hops` and reachability exact across removals.
//!
//! Pair factors ([`TopologyView::with_pair_factors`]) follow
//! [`crate::costmodel::estimate_from_demands`]: an active reachable pair
//! whose factor is ≤ 0 has no logical connection and makes the estimate
//! infinite, like a pair with no path; a factor in `(0, 1)` bounds the MP
//! time by the pair's bytes over factor × path bottleneck. Only a view that
//! carries factors keeps per-pair byte totals for that bound; any other
//! view applies its transfers through a closure with no relay step.
//!
//! A mutation is applied with [`CostEvaluator::set_placement`] and undone by
//! calling it again with the returned previous kind — the mutate-and-revert
//! loop in [`crate::mcmc::search_strategy`] never clones the strategy except
//! when a new best is recorded. Contribution arithmetic is shared with
//! [`crate::traffic::extract_traffic`] (one enumeration routine), so the
//! incremental estimate tracks the full estimator to float round-off; the
//! equivalence proptest in `tests/evaluator.rs` pins that down.

use crate::costmodel::{ComputeParams, IterationEstimate, TopologyView};
use crate::placement::{ParallelizationStrategy, PlacementKind};
use crate::traffic::for_each_edge_transfer;
use topoopt_models::{DnnModel, OpId};

/// Hop count of a pair the estimate treats as unreachable: no path, or a
/// pair factor ≤ 0 (no logical connection).
const BLOCKED: u32 = u32::MAX;

/// Incrementally-maintained iteration-time estimate of one strategy.
#[derive(Debug, Clone)]
pub struct CostEvaluator<'a> {
    model: &'a DnnModel,
    view: &'a TopologyView,
    params: &'a ComputeParams,
    strategy: ParallelizationStrategy,
    /// Consumer adjacency (op -> ops listing it as an input), with the same
    /// multiplicity as the model's `inputs` lists.
    consumers: Vec<Vec<OpId>>,
    local_batch: f64,
    global_batch: f64,
    /// Per-server FLOP load (the compute term before the max/roofline).
    load: Vec<f64>,
    /// Parameter bytes of replicated operators (the one AllReduce group).
    replicated_param_bytes: f64,
    /// Replicated operators with positive parameter bytes — the exact
    /// "group exists" predicate, immune to float residue.
    replicated_param_ops: usize,
    /// Slowest member NIC bandwidth over all servers (the group minimum).
    min_server_bw: f64,
    /// Model-parallel demand aggregates.
    mp: MpTally,
    /// Relay-bound state, present only when the view carries pair factors.
    relays: Option<RelayTally>,
}

/// One server pair's state, stored together so a transfer touches one slot.
#[derive(Debug, Clone, Copy)]
struct PairSlot {
    /// Contributing DAG-edge transfers; the pair carries demand iff
    /// non-zero.
    transfers: u32,
    /// Hop count of the pair's path, or [`BLOCKED`].
    hops: u32,
}

/// The model-parallel terms of the estimate. Pair demand is read only
/// through the egress/ingress/taxed-bits aggregates, never per pair.
#[derive(Debug, Clone)]
struct MpTally {
    n: usize,
    /// Per pair, row-major (`src * n + dst`).
    pairs: Vec<PairSlot>,
    egress: Vec<f64>,
    ingress: Vec<f64>,
    /// Σ bytes·8·hops over pairs that are not [`BLOCKED`] (the
    /// bandwidth-tax numerator).
    taxed_bits: f64,
    /// Active pairs per hop count (indexed by hops).
    hop_pairs: Vec<usize>,
    /// Active pairs whose hop count is [`BLOCKED`].
    blocked_pairs: usize,
}

/// Per-pair byte totals for the relay bound of a view with pair factors.
#[derive(Debug, Clone)]
struct RelayTally {
    /// Bytes per pair, row-major (`src * n + dst`).
    bytes: Vec<f64>,
    /// Reachable pairs with a factor in `(0, 1)`: the pair's index and its
    /// rate cap, factor × path bottleneck (floored at 1 bps).
    capped: Vec<(usize, f64)>,
}

impl MpTally {
    /// Empty aggregates over `view`'s first `n` servers; a pair whose factor
    /// is ≤ 0 is [`BLOCKED`], like a pair with no path.
    fn new(view: &TopologyView, n: usize) -> Self {
        let pairs: Vec<PairSlot> = (0..n * n)
            .map(|idx| {
                let (src, dst) = (idx / n, idx % n);
                let (hops, _) = view.path_info(src, dst);
                let hops = if view.pair_throughput_factor(src, dst) <= 0.0 {
                    BLOCKED
                } else {
                    u32::try_from(hops).unwrap_or(BLOCKED)
                };
                PairSlot { transfers: 0, hops }
            })
            .collect();
        let max_hops = pairs.iter().map(|p| p.hops).filter(|&h| h != BLOCKED).max().unwrap_or(0);
        MpTally {
            n,
            pairs,
            egress: vec![0.0; n],
            ingress: vec![0.0; n],
            taxed_bits: 0.0,
            hop_pairs: vec![0; max_hops as usize + 1],
            blocked_pairs: 0,
        }
    }

    /// Add/remove one pair transfer.
    fn apply(&mut self, src: usize, dst: usize, bytes: f64, sign: f64) {
        let slot = &mut self.pairs[src * self.n + dst];
        self.egress[src] += sign * bytes;
        self.ingress[dst] += sign * bytes;
        if slot.hops != BLOCKED {
            self.taxed_bits += sign * bytes * 8.0 * slot.hops as f64;
        }
        let tally = match slot.hops {
            BLOCKED => &mut self.blocked_pairs,
            h => &mut self.hop_pairs[h as usize],
        };
        if sign > 0.0 {
            if slot.transfers == 0 {
                *tally += 1;
            }
            slot.transfers += 1;
        } else {
            slot.transfers -= 1;
            if slot.transfers == 0 {
                *tally -= 1;
            }
        }
    }

    /// Largest hop count over active reachable pairs, if any is active.
    fn max_hops(&self) -> Option<usize> {
        self.hop_pairs.iter().rposition(|&c| c > 0)
    }
}

impl RelayTally {
    /// Relay state for a view with pair factors, `None` for any other view.
    fn new(view: &TopologyView, n: usize) -> Option<Self> {
        let TopologyView::Topology { pair_factor: Some(factors), .. } = view else {
            return None;
        };
        let capped = (0..n * n)
            .filter_map(|idx| {
                let (src, dst) = (idx / n, idx % n);
                let (hops, bneck) = view.path_info(src, dst);
                let factor = factors[src][dst];
                let relayed = hops != usize::MAX && factor < 1.0 && factor > 0.0;
                relayed.then(|| (idx, factor * bneck.max(1.0)))
            })
            .collect();
        Some(RelayTally { bytes: vec![0.0; n * n], capped })
    }

    /// The slowest active relayed pair's time at its rate cap (0 if none).
    fn bound_s(&self, pairs: &[PairSlot]) -> f64 {
        self.capped
            .iter()
            .filter(|&&(idx, _)| pairs[idx].transfers > 0)
            .map(|&(idx, cap)| self.bytes[idx] * 8.0 / cap)
            .fold(0.0, f64::max)
    }
}

impl<'a> CostEvaluator<'a> {
    /// Build the cached contributions of `strategy` with one full pass over
    /// the model (the same work as one call to the full estimator), plus the
    /// view's per-pair hop table.
    pub fn new(
        model: &'a DnnModel,
        strategy: ParallelizationStrategy,
        view: &'a TopologyView,
        params: &'a ComputeParams,
    ) -> Self {
        let n = strategy.num_servers;
        let local_batch = (model.batch_per_gpu * params.gpus_per_server) as f64;
        let global_batch = local_batch * n as f64;
        let mut consumers: Vec<Vec<OpId>> = vec![Vec::new(); model.num_ops()];
        for (consumer_id, node) in model.ops.iter().enumerate() {
            for &producer_id in &node.inputs {
                consumers[producer_id].push(consumer_id);
            }
        }
        let mut ev = CostEvaluator {
            model,
            view,
            params,
            strategy,
            consumers,
            local_batch,
            global_batch,
            load: vec![0.0; n],
            replicated_param_bytes: 0.0,
            replicated_param_ops: 0,
            min_server_bw: (0..n).map(|s| view.server_bandwidth(s)).fold(f64::INFINITY, f64::min),
            mp: MpTally::new(view, n),
            relays: RelayTally::new(view, n),
        };
        for op in 0..model.num_ops() {
            let kind = ev.strategy.placements[op].kind.clone();
            ev.apply_load(op, &kind, 1.0);
            ev.apply_params(op, &kind, 1);
        }
        // Enumerate every DAG edge exactly once (consumer-side iteration,
        // mirroring `extract_traffic`).
        for consumer_id in 0..model.num_ops() {
            for i in 0..model.ops[consumer_id].inputs.len() {
                let producer_id = model.ops[consumer_id].inputs[i];
                ev.apply_edge(producer_id, consumer_id, None, 1.0);
            }
        }
        ev
    }

    /// The strategy currently loaded in the evaluator.
    pub fn strategy(&self) -> &ParallelizationStrategy {
        &self.strategy
    }

    /// Change one operator's placement, re-evaluating only the contributions
    /// that operator touches, and return the previous placement (pass it
    /// back in to revert a rejected proposal).
    pub fn set_placement(&mut self, op: OpId, kind: PlacementKind) -> PlacementKind {
        let old = self.strategy.placements[op].kind.clone();
        if old == kind {
            return old;
        }
        // Remove the operator's old contributions (other endpoints of its
        // DAG edges are unchanged, so the current strategy describes them).
        self.apply_load(op, &old, -1.0);
        self.apply_params(op, &old, -1);
        self.apply_incident_edges(op, &old, -1.0);
        // Install the new placement and add the new contributions.
        self.apply_load(op, &kind, 1.0);
        self.apply_params(op, &kind, 1);
        self.apply_incident_edges(op, &kind, 1.0);
        self.strategy.placements[op].kind = kind;
        old
    }

    /// The iteration-time estimate of the current strategy, assembled from
    /// the cached contributions in O(servers) time (plus one pass over the
    /// relayed pairs when the view carries pair factors).
    pub fn estimate(&self) -> IterationEstimate {
        let n = self.strategy.num_servers;
        let compute_s = self.load.iter().cloned().fold(0.0, f64::max) / self.params.server_flops();

        let mut allreduce_s = 0.0;
        if n > 1 && self.replicated_param_ops > 0 {
            let k = n as f64;
            let bits = self.replicated_param_bytes * 8.0;
            allreduce_s =
                2.0 * (k - 1.0) * (self.params.alpha_s + bits / k / self.min_server_bw.max(1.0));
        }

        let mp = &self.mp;
        let mut mp_s = 0.0f64;
        for s in 0..n {
            let bw = self.view.server_bandwidth(s).max(1.0);
            mp_s = mp_s.max(mp.egress[s] * 8.0 / bw).max(mp.ingress[s] * 8.0 / bw);
        }
        mp_s = mp_s.max(mp.taxed_bits / self.view.total_bandwidth().max(1.0));
        if let Some(relays) = &self.relays {
            mp_s = mp_s.max(relays.bound_s(&mp.pairs));
        }
        if let Some(max_hops) = mp.max_hops() {
            mp_s += self.params.alpha_s * max_hops as f64;
        }
        if mp.blocked_pairs > 0 {
            mp_s = f64::INFINITY;
        }

        let total_s = compute_s + allreduce_s + mp_s;
        IterationEstimate { compute_s, allreduce_s, mp_s, total_s }
    }

    /// Compute-load contribution of one operator under `kind`, signed.
    fn apply_load(&mut self, op: OpId, kind: &PlacementKind, sign: f64) {
        let flops = self.model.ops[op].op.total_flops();
        match kind {
            PlacementKind::Replicated => {
                let delta = sign * flops * self.local_batch;
                for l in self.load.iter_mut() {
                    *l += delta;
                }
            }
            PlacementKind::Single(s) => {
                self.load[*s] += sign * flops * self.global_batch;
            }
            PlacementKind::Sharded(v) => {
                let delta = sign * flops * self.global_batch / v.len() as f64;
                for &s in v {
                    self.load[s] += delta;
                }
            }
        }
    }

    /// AllReduce-volume contribution of one operator under `kind`, signed.
    fn apply_params(&mut self, op: OpId, kind: &PlacementKind, sign: i64) {
        let node = &self.model.ops[op].op;
        if !node.has_params() || !matches!(kind, PlacementKind::Replicated) {
            return;
        }
        let bytes = node.param_bytes();
        self.replicated_param_bytes += sign as f64 * bytes;
        if bytes > 0.0 {
            if sign > 0 {
                self.replicated_param_ops += 1;
            } else {
                self.replicated_param_ops -= 1;
            }
        }
        if self.replicated_param_ops == 0 {
            // Snap float residue so an all-model-parallel strategy reports
            // exactly zero AllReduce volume, like the full extractor.
            self.replicated_param_bytes = 0.0;
        }
    }

    /// Apply every DAG edge incident to `op` (as producer or consumer),
    /// using `kind` for `op`'s side of each edge, signed.
    fn apply_incident_edges(&mut self, op: OpId, kind: &PlacementKind, sign: f64) {
        for i in 0..self.model.ops[op].inputs.len() {
            let producer = self.model.ops[op].inputs[i];
            self.apply_edge(producer, op, Some((op, kind)), sign);
        }
        for i in 0..self.consumers[op].len() {
            let consumer = self.consumers[op][i];
            self.apply_edge(op, consumer, Some((op, kind)), sign);
        }
    }

    /// Apply one producer→consumer edge's transfers, signed, in emission
    /// order. `override_kind` substitutes the placement of the named
    /// operator (the one being mutated); the other endpoint reads the
    /// current strategy.
    fn apply_edge(
        &mut self,
        producer: OpId,
        consumer: OpId,
        override_kind: Option<(OpId, &PlacementKind)>,
        sign: f64,
    ) {
        let act_bytes = self.model.ops[producer].op.activation_bytes();
        if act_bytes <= 0.0 {
            return;
        }
        let n = self.strategy.num_servers;
        let placements = &self.strategy.placements;
        let kind_of = |id: OpId| -> &PlacementKind {
            match override_kind {
                Some((op, kind)) if op == id => kind,
                _ => &placements[id].kind,
            }
        };
        let (p_kind, c_kind) = (kind_of(producer), kind_of(consumer));
        let (local, global) = (self.local_batch, self.global_batch);
        let mp = &mut self.mp;
        // One closure per case: testing `relays` inside one shared closure
        // on every transfer made the `plan_jobs` benchmark, whose views
        // carry no factors, about a quarter slower (2-vCPU host).
        match &mut self.relays {
            None => {
                for_each_edge_transfer(p_kind, c_kind, act_bytes, local, global, n, |s, d, b| {
                    mp.apply(s, d, b, sign)
                })
            }
            Some(relays) => {
                for_each_edge_transfer(p_kind, c_kind, act_bytes, local, global, n, |s, d, b| {
                    mp.apply(s, d, b, sign);
                    relays.bytes[s * n + d] += sign * b;
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::estimate_iteration_time;
    use topoopt_graph::topologies;
    use topoopt_models::zoo::{build_dlrm, build_model};
    use topoopt_models::{DlrmConfig, ModelKind, ModelPreset};

    fn close(a: f64, b: f64) -> bool {
        if a.is_infinite() || b.is_infinite() {
            return a == b;
        }
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    fn assert_matches_full(
        ev: &CostEvaluator<'_>,
        model: &DnnModel,
        view: &TopologyView,
        params: &ComputeParams,
    ) {
        let fast = ev.estimate();
        let full = estimate_iteration_time(model, ev.strategy(), view, params);
        assert!(close(fast.compute_s, full.compute_s), "compute {fast:?} vs {full:?}");
        assert!(close(fast.allreduce_s, full.allreduce_s), "allreduce {fast:?} vs {full:?}");
        assert!(close(fast.mp_s, full.mp_s), "mp {fast:?} vs {full:?}");
        assert!(close(fast.total_s, full.total_s), "total {fast:?} vs {full:?}");
    }

    #[test]
    fn fresh_evaluator_matches_full_estimator() {
        let p = ComputeParams::default();
        let view = TopologyView::FullMesh { n: 16, per_server_bps: 100.0e9 };
        for kind in [ModelKind::Dlrm, ModelKind::Ncf, ModelKind::Bert, ModelKind::Vgg16] {
            let m = build_model(kind, ModelPreset::Shared);
            for s in [
                ParallelizationStrategy::pure_data_parallel(&m, 16),
                ParallelizationStrategy::hybrid_embeddings_round_robin(&m, 16),
            ] {
                let ev = CostEvaluator::new(&m, s, &view, &p);
                assert_matches_full(&ev, &m, &view, &p);
            }
        }
    }

    #[test]
    fn mutate_and_revert_restores_the_estimate() {
        let m = build_dlrm(&DlrmConfig::shared());
        let p = ComputeParams::default();
        let view = TopologyView::FullMesh { n: 16, per_server_bps: 25.0e9 };
        let s = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, 16);
        let mut ev = CostEvaluator::new(&m, s.clone(), &view, &p);
        let before = ev.estimate();
        let op = m.embedding_ops()[0];
        let old = ev.set_placement(op, PlacementKind::Replicated);
        assert_ne!(ev.estimate().total_s, before.total_s);
        assert_matches_full(&ev, &m, &view, &p);
        ev.set_placement(op, old);
        let after = ev.estimate();
        assert!(close(before.total_s, after.total_s), "{before:?} vs {after:?}");
        assert_eq!(ev.strategy(), &s);
    }

    #[test]
    fn tracks_disconnected_views_exactly() {
        // Moving an op onto an isolated server must flip mp_s to infinity,
        // and moving it back must restore a finite estimate (pair counts
        // make reachability exact under removal).
        let m = build_dlrm(&DlrmConfig::shared());
        let p = ComputeParams::default();
        let mut g = topoopt_graph::Graph::new(4);
        g.add_bidi_edge(0, 1, 100.0e9);
        g.add_bidi_edge(1, 2, 100.0e9); // server 3 is isolated
        let view = TopologyView::from_graph(&g, 4);
        let s = ParallelizationStrategy::pure_data_parallel(&m, 4);
        let mut ev = CostEvaluator::new(&m, s, &view, &p);
        let op = m.embedding_ops()[0];
        ev.set_placement(op, PlacementKind::Single(3));
        assert!(ev.estimate().mp_s.is_infinite());
        assert_matches_full(&ev, &m, &view, &p);
        // Back to replicated: no MP traffic at all, so the estimate must
        // return to a finite value (the unreachable-pair tally drains).
        ev.set_placement(op, PlacementKind::Replicated);
        assert!(ev.estimate().mp_s.is_finite());
        assert_matches_full(&ev, &m, &view, &p);
    }

    #[test]
    fn all_model_parallel_strategy_reports_zero_allreduce() {
        let m = build_model(ModelKind::Ncf, ModelPreset::Shared);
        let p = ComputeParams::default();
        let view = TopologyView::FullMesh { n: 8, per_server_bps: 50.0e9 };
        let s = ParallelizationStrategy::pure_data_parallel(&m, 8);
        let mut ev = CostEvaluator::new(&m, s, &view, &p);
        for op in 0..m.num_ops() {
            ev.set_placement(op, PlacementKind::Single(op % 8));
        }
        let est = ev.estimate();
        assert_eq!(est.allreduce_s, 0.0);
        assert_matches_full(&ev, &m, &view, &p);
    }

    /// 8-server hybrid DLRM over a degree-2 circulant, every pair's factor
    /// set to `factor`.
    fn factor_case(factor: f64) -> (DnnModel, ParallelizationStrategy, TopologyView) {
        let m = build_dlrm(&DlrmConfig::shared());
        let s = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, 8);
        let g = topologies::from_permutations(8, &[1, 3], 25.0e9);
        let view = TopologyView::from_graph(&g, 8).with_pair_factors(vec![vec![factor; 8]; 8]);
        (m, s, view)
    }

    #[test]
    fn a_zero_pair_factor_makes_mp_time_infinite() {
        let p = ComputeParams::default();
        let (m, s, view) = factor_case(0.0);
        let ev = CostEvaluator::new(&m, s, &view, &p);
        assert!(ev.estimate().mp_s.is_infinite(), "{:?}", ev.estimate());
        assert_matches_full(&ev, &m, &view, &p);
    }

    #[test]
    fn a_pair_factor_below_one_bounds_mp_time_by_the_relay() {
        let p = ComputeParams::default();
        let (m, s, view) = factor_case(0.05);
        let ev = CostEvaluator::new(&m, s.clone(), &view, &p);
        assert_matches_full(&ev, &m, &view, &p);
        let plain = TopologyView::from_graph(&topologies::from_permutations(8, &[1, 3], 25.0e9), 8);
        let free = CostEvaluator::new(&m, s, &plain, &p).estimate();
        assert!(ev.estimate().mp_s > free.mp_s, "{:?} vs {free:?}", ev.estimate());
    }

    #[test]
    fn unit_pair_factors_change_no_bit() {
        let p = ComputeParams::default();
        let (m, s, unit) = factor_case(1.0);
        let plain = TopologyView::from_graph(&topologies::from_permutations(8, &[1, 3], 25.0e9), 8);
        let mut a = CostEvaluator::new(&m, s.clone(), &unit, &p);
        let mut b = CostEvaluator::new(&m, s, &plain, &p);
        for (op, kind) in [(3, PlacementKind::Single(5)), (0, PlacementKind::Sharded(vec![1, 2]))] {
            a.set_placement(op, kind.clone());
            b.set_placement(op, kind);
            assert_eq!(a.estimate(), b.estimate());
        }
    }

    #[test]
    fn pair_factors_survive_mutate_and_revert() {
        // From data parallelism, placing a table opens pairs to and from its
        // server: onto server 2 they include a slow relayed pair, onto
        // server 7 a pair with no logical connection. The relay bound and
        // the dead-pair count must follow each move and each revert.
        let p = ComputeParams::default();
        let m = build_dlrm(&DlrmConfig::shared());
        let s = ParallelizationStrategy::pure_data_parallel(&m, 8);
        let g = topologies::from_permutations(8, &[1, 3], 25.0e9);
        let factor = |src: usize, dst: usize| match (src, dst) {
            (7, 0) => 0.0,
            (_, 6) => 0.2,
            _ => 1.0,
        };
        let factors = (0..8).map(|src| (0..8).map(|dst| factor(src, dst)).collect()).collect();
        let view = TopologyView::from_graph(&g, 8).with_pair_factors(factors);
        let mut ev = CostEvaluator::new(&m, s.clone(), &view, &p);
        let start = ev.estimate();
        let (a, b) = (m.embedding_ops()[0], m.embedding_ops()[1]);
        let old_a = ev.set_placement(a, PlacementKind::Single(7));
        assert!(ev.estimate().mp_s.is_infinite());
        assert_matches_full(&ev, &m, &view, &p);
        let old_b = ev.set_placement(b, PlacementKind::Single(2));
        assert_matches_full(&ev, &m, &view, &p);
        ev.set_placement(a, old_a);
        let relayed = ev.estimate();
        assert!(relayed.mp_s.is_finite());
        assert_matches_full(&ev, &m, &view, &p);
        let free = estimate_iteration_time(&m, ev.strategy(), &TopologyView::from_graph(&g, 8), &p);
        assert!(relayed.mp_s > free.mp_s, "{relayed:?} vs {free:?}");
        ev.set_placement(b, old_b);
        assert_matches_full(&ev, &m, &view, &p);
        assert!(close(start.total_s, ev.estimate().total_s));
        assert_eq!(ev.strategy(), &s);
    }
}
