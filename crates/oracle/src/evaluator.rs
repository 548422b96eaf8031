//! The per-pair incremental evaluator — the `CostEvaluator` of
//! `topoopt-strategy` before it tallied reach per edge.
//!
//! Every transfer of a changed DAG edge does a read-modify-write of its
//! pair's slot: an integer count of contributing transfers, so "pair has
//! demand" stays exact under removal, next to the pair's hop count. A dense
//! tally of active pairs per hop count, plus a count of active pairs with no
//! path, keeps `max_hops` and reachability exact. `egress`, `ingress` and
//! the hop-taxed bit total take one addition per transfer, in emission
//! order.
//!
//! The shipped evaluator must give the same estimate to the bit after every
//! step (`crates/strategy/tests/evaluator.rs`). The edge transfer
//! enumeration is crate-private in `topoopt-strategy`, so this module
//! restates it; its emission order is part of what the bit-for-bit test
//! checks.

use topoopt_models::{DnnModel, OpId};
use topoopt_strategy::{
    ComputeParams, IterationEstimate, ParallelizationStrategy, PlacementKind, TopologyView,
};

/// Hop count of a pair the estimate treats as unreachable: no path, or a
/// pair factor ≤ 0 (no logical connection).
const BLOCKED: u32 = u32::MAX;

/// Incrementally-maintained iteration-time estimate of one strategy, with
/// one slot per server pair.
#[derive(Debug, Clone)]
pub struct PairCostEvaluator<'a> {
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
    /// Replicated operators with positive parameter bytes.
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

/// The model-parallel terms of the estimate.
#[derive(Debug, Clone)]
struct MpTally {
    n: usize,
    /// Per pair, row-major (`src * n + dst`).
    pairs: Vec<PairSlot>,
    egress: Vec<f64>,
    ingress: Vec<f64>,
    /// Σ bytes·8·hops over pairs that are not [`BLOCKED`].
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

impl<'a> PairCostEvaluator<'a> {
    /// Build the cached contributions of `strategy` with one full pass over
    /// the model, plus the view's per-pair hop table.
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
        let mut ev = PairCostEvaluator {
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

    /// Change one operator's placement and return the previous one.
    pub fn set_placement(&mut self, op: OpId, kind: PlacementKind) -> PlacementKind {
        let old = self.strategy.placements[op].kind.clone();
        if old == kind {
            return old;
        }
        self.apply_load(op, &old, -1.0);
        self.apply_params(op, &old, -1);
        self.apply_incident_edges(op, &old, -1.0);
        self.apply_load(op, &kind, 1.0);
        self.apply_params(op, &kind, 1);
        self.apply_incident_edges(op, &kind, 1.0);
        self.strategy.placements[op].kind = kind;
        old
    }

    /// The iteration-time estimate of the current strategy.
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
            self.replicated_param_bytes = 0.0;
        }
    }

    /// Apply every DAG edge incident to `op`, using `kind` for `op`'s side.
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
    /// order; `override_kind` substitutes the mutated operator's placement.
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
        let (mp, relays) = (&mut self.mp, &mut self.relays);
        for_each_edge_transfer(p_kind, c_kind, act_bytes, local, global, n, |s, d, b| {
            mp.apply(s, d, b, sign);
            if let Some(relays) = relays.as_mut() {
                relays.bytes[s * n + d] += sign * b;
            }
        });
    }
}

/// The `(src, dst, bytes)` transfers of one producer→consumer edge, forward
/// activations then backward gradients: per consumer-side server in holder
/// order, then per producer-side server. A restatement of the crate-private
/// enumeration of `topoopt_strategy::traffic`.
fn for_each_edge_transfer(
    producer: &PlacementKind,
    consumer: &PlacementKind,
    act_bytes_per_sample: f64,
    local_batch: f64,
    global_batch: f64,
    n: usize,
    mut emit: impl FnMut(usize, usize, f64),
) {
    let holders = |kind: &PlacementKind| -> Vec<usize> {
        match kind {
            PlacementKind::Replicated => (0..n).collect(),
            PlacementKind::Single(s) => vec![*s],
            PlacementKind::Sharded(v) => v.clone(),
        }
    };
    let consumed = match consumer {
        PlacementKind::Replicated => local_batch,
        PlacementKind::Single(_) => global_batch,
        PlacementKind::Sharded(v) => global_batch / v.len() as f64,
    };
    if consumed <= 0.0 {
        return;
    }
    let bytes = match (producer, consumer) {
        (PlacementKind::Replicated, PlacementKind::Replicated) => return,
        (PlacementKind::Replicated, _) => act_bytes_per_sample * (consumed / n as f64),
        (_, _) => act_bytes_per_sample * consumed * (1.0 / holders(producer).len() as f64),
    };
    let srcs = holders(producer);
    for dst in holders(consumer) {
        for &src in &srcs {
            if src != dst {
                emit(src, dst, bytes);
                emit(dst, src, bytes);
            }
        }
    }
}
