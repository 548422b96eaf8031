//! Incremental iteration-time evaluation for the MCMC strategy search.
//!
//! [`crate::costmodel::estimate_iteration_time`] walks the whole model —
//! every operator for the compute load, every DAG edge for the
//! model-parallel demand matrix — even though each MCMC proposal mutates
//! exactly one operator's placement. [`CostEvaluator`] caches the
//! per-operator contributions to every term of the estimate against a fixed
//! [`TopologyView`] and re-evaluates only the delta of the mutated operator:
//!
//! * **compute** — the per-server FLOP loads; a mutation touches only the
//!   servers the operator moves off/onto;
//! * **AllReduce** — with per-operator placements, replicated operators
//!   always synchronise over the full server set, so the (single) group's
//!   volume is a running sum of replicated parameter bytes;
//! * **model-parallel** — an integer count of contributing DAG-edge
//!   transfers per pair (so "pair has demand" stays exact under removal,
//!   with no float subtraction involved), per-server egress/ingress, the
//!   hop-taxed bit total, and a histogram of active pairs per hop distance
//!   (so `max_hops` and reachability survive removals).
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
use std::collections::BTreeMap;
use topoopt_models::{DnnModel, OpId};

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
    /// Contributing DAG-edge transfers per pair (`src * n + dst`); a pair
    /// carries demand iff its count is non-zero. Only the count is needed:
    /// the estimate reads pair demand through the egress/ingress/taxed-bits
    /// aggregates, never per pair.
    mp_count: Vec<u32>,
    egress: Vec<f64>,
    ingress: Vec<f64>,
    /// Σ bytes·8·hops over reachable pairs (the bandwidth-tax numerator).
    taxed_bits: f64,
    /// Active (count > 0) pair tally per hop distance; `usize::MAX` tracks
    /// unreachable pairs.
    hops_pairs: BTreeMap<usize, usize>,
    /// Scratch buffer for edge-transfer enumeration (reused across calls).
    scratch: Vec<(usize, usize, f64)>,
}

impl<'a> CostEvaluator<'a> {
    /// Build the cached contributions of `strategy` with one full pass over
    /// the model (the same work as one call to the full estimator).
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
            mp_count: vec![0; n * n],
            egress: vec![0.0; n],
            ingress: vec![0.0; n],
            taxed_bits: 0.0,
            hops_pairs: BTreeMap::new(),
            scratch: Vec::new(),
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
    /// the cached contributions in O(servers) time.
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

        let mut mp_s = 0.0f64;
        for s in 0..n {
            let bw = self.view.server_bandwidth(s).max(1.0);
            mp_s = mp_s.max(self.egress[s] * 8.0 / bw).max(self.ingress[s] * 8.0 / bw);
        }
        mp_s = mp_s.max(self.taxed_bits / self.view.total_bandwidth().max(1.0));
        if self.hops_pairs.values().any(|&c| c > 0) {
            let max_hops =
                self.hops_pairs.keys().rev().find(|&&h| h != usize::MAX).copied().unwrap_or(0);
            mp_s += self.params.alpha_s * max_hops as f64;
        }
        if self.hops_pairs.contains_key(&usize::MAX) {
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

    /// Apply one producer→consumer edge's transfers, signed. `override_kind`
    /// substitutes the placement of the named operator (the one being
    /// mutated); the other endpoint reads the current strategy.
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
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        {
            let kind_of = |id: OpId| -> &PlacementKind {
                match override_kind {
                    Some((op, kind)) if op == id => kind,
                    _ => &self.strategy.placements[id].kind,
                }
            };
            for_each_edge_transfer(
                kind_of(producer),
                kind_of(consumer),
                act_bytes,
                self.local_batch,
                self.global_batch,
                n,
                |src, dst, bytes| scratch.push((src, dst, bytes)),
            );
        }
        for &(src, dst, bytes) in &scratch {
            self.apply_pair(src, dst, bytes, sign);
        }
        self.scratch = scratch;
    }

    /// Add/remove one pair transfer from the demand-matrix aggregates.
    fn apply_pair(&mut self, src: usize, dst: usize, bytes: f64, sign: f64) {
        let n = self.strategy.num_servers;
        let idx = src * n + dst;
        let (hops, _) = self.view.path_info(src, dst);
        self.egress[src] += sign * bytes;
        self.ingress[dst] += sign * bytes;
        if hops != usize::MAX {
            self.taxed_bits += sign * bytes * 8.0 * hops as f64;
        }
        if sign > 0.0 {
            if self.mp_count[idx] == 0 {
                *self.hops_pairs.entry(hops).or_insert(0) += 1;
            }
            self.mp_count[idx] += 1;
        } else {
            self.mp_count[idx] -= 1;
            if self.mp_count[idx] == 0 {
                let stale = {
                    let c = self.hops_pairs.get_mut(&hops).expect("pair tally underflow");
                    *c -= 1;
                    *c == 0
                };
                if stale {
                    self.hops_pairs.remove(&hops);
                }
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
}
