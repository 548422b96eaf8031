//! Extraction of AllReduce and model-parallel traffic demands from a
//! parallelization strategy.
//!
//! This is the hand-off point between the `Comp.×Comm.` plane and the
//! `Comm.×Topo.` plane (Figure 6): the strategy search produces a placement,
//! this module turns it into the `T_AllReduce` (per-group volumes) and
//! `T_MP` (point-to-point demand matrix) inputs of `TopologyFinder`.
//!
//! One routine, `edge_block`, describes the model-parallel transfers of a
//! DAG edge as a block: its consumer-side and producer-side servers (each
//! every server or a placement's holder list) and the bytes per transfer.
//! [`extract_traffic`] expands each block pair by pair; the incremental
//! [`crate::evaluator::CostEvaluator`] reads the block directly, so a star
//! of one holder with every other server costs it no per-pair state.

use crate::placement::{ParallelizationStrategy, PlacementKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use topoopt_graph::TrafficMatrix;
use topoopt_models::DnnModel;

/// One AllReduce group: a set of servers that must synchronise `bytes` of
/// parameters each iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllReduceGroup {
    /// Participating servers.
    pub members: Vec<usize>,
    /// Parameter bytes reduced across this group per iteration.
    pub bytes: f64,
}

/// The traffic demands of one training iteration under a given strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficDemands {
    /// Number of servers in the job.
    pub num_servers: usize,
    /// AllReduce groups (usually one spanning all servers, plus smaller
    /// groups when layers are replicated over subsets).
    pub allreduce_groups: Vec<AllReduceGroup>,
    /// Model-parallel point-to-point demand in bytes per iteration
    /// (activations forward + gradients backward).
    pub mp: TrafficMatrix,
    /// Samples processed per server per iteration (local batch).
    pub samples_per_server: f64,
}

impl TrafficDemands {
    /// Total AllReduce bytes (sum of per-group volumes).
    pub fn total_allreduce_bytes(&self) -> f64 {
        self.allreduce_groups.iter().map(|g| g.bytes).sum()
    }

    /// Total model-parallel bytes.
    pub fn total_mp_bytes(&self) -> f64 {
        self.mp.total()
    }

    /// Ratio of MP to AllReduce traffic (the x-axis annotation of Figure 12).
    pub fn mp_to_allreduce_ratio(&self) -> f64 {
        let ar = self.total_allreduce_bytes();
        if ar <= 0.0 {
            return if self.total_mp_bytes() > 0.0 { f64::INFINITY } else { 0.0 };
        }
        self.total_mp_bytes() / ar
    }
}

/// Extract the per-iteration traffic demands of `strategy` applied to
/// `model` on a cluster whose servers each host `gpus_per_server` GPUs.
pub fn extract_traffic(
    model: &DnnModel,
    strategy: &ParallelizationStrategy,
    gpus_per_server: usize,
) -> TrafficDemands {
    let n = strategy.num_servers;
    let local_batch = (model.batch_per_gpu * gpus_per_server) as f64;
    let global_batch = local_batch * n as f64;

    // --- AllReduce groups: replicated parameterised operators, grouped by
    // the (identical) set of servers holding the replicas.
    let mut groups: BTreeMap<Vec<usize>, f64> = BTreeMap::new();
    for (op_id, node) in model.ops.iter().enumerate() {
        if !node.op.has_params() {
            continue;
        }
        match strategy.placement(op_id) {
            PlacementKind::Replicated => {
                let members: Vec<usize> = (0..n).collect();
                *groups.entry(members).or_insert(0.0) += node.op.param_bytes();
            }
            PlacementKind::Sharded(servers) if servers.len() > 1 => {
                // Sharded parameters are disjoint: no AllReduce for the
                // shards themselves.
                let _ = servers;
            }
            _ => {}
        }
    }
    let allreduce_groups: Vec<AllReduceGroup> = groups
        .into_iter()
        .filter(|(m, b)| m.len() > 1 && *b > 0.0)
        .map(|(members, bytes)| AllReduceGroup { members, bytes })
        .collect();

    // --- Model-parallel traffic: activations (forward) and their gradients
    // (backward) crossing placement boundaries along every producer→consumer
    // edge of the model DAG, expanded pair by pair.
    let mut mp = TrafficMatrix::new(n);
    for (consumer_id, node) in model.ops.iter().enumerate() {
        for &producer_id in &node.inputs {
            let block = edge_block(
                strategy.placement(producer_id),
                strategy.placement(consumer_id),
                model.ops[producer_id].op.activation_bytes(),
                local_batch,
                global_batch,
                n,
            );
            if let Some(block) = block {
                block.for_each_transfer(|s, d, b| mp.add(s, d, b));
            }
        }
    }

    TrafficDemands { num_servers: n, allreduce_groups, mp, samples_per_server: local_batch }
}

/// Samples of the global batch that each holder of an operator placed as
/// `kind` processes: replicated operators process their local slice;
/// single-server operators process the whole batch; shards split the batch
/// evenly.
fn samples_per_holder(kind: &PlacementKind, local_batch: f64, global_batch: f64) -> f64 {
    match kind {
        PlacementKind::Replicated => local_batch,
        PlacementKind::Single(_) => global_batch,
        PlacementKind::Sharded(v) => global_batch / v.len() as f64,
    }
}

/// The holders of a single-server or sharded operator, in placement order
/// ([`Side::Listed`]). A replicated operator is held by every server, which
/// a block names as [`Side::All`] instead.
fn listed_holders(kind: &PlacementKind) -> &[usize] {
    match kind {
        PlacementKind::Replicated => &[],
        PlacementKind::Single(s) => std::slice::from_ref(s),
        PlacementKind::Sharded(v) => v,
    }
}

/// The servers on one side of an [`EdgeBlock`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Side<'a> {
    /// Every server, `0..n`: the side of a replicated operator.
    All,
    /// A single-server or sharded operator's holders, in placement order.
    Listed(&'a [usize]),
}

/// The transfers of one producer→consumer edge, described as a block:
/// `bytes` from every server of `srcs` to every server of `dsts` other than
/// itself, each followed by the same bytes back (the gradients). Each
/// sample's activation is produced where the producer processes that sample
/// and consumed where the consumer processes it; when these servers differ
/// the activation (and its gradient) crosses the network.
///
/// [`edge_block`] is the one routine that describes an edge. Both
/// [`extract_traffic`] and the incremental
/// [`crate::evaluator::CostEvaluator`] read its blocks, so both see
/// byte-identical per-edge contributions. The extractor expands a block
/// pair by pair through [`EdgeBlock::for_each_transfer`]; the evaluator
/// reads the two sides directly. At most one side is [`Side::All`]: the
/// edge between two replicated operators has no transfers and no block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeBlock<'a> {
    /// Consumer-side servers.
    pub(crate) dsts: Side<'a>,
    /// Producer-side servers.
    pub(crate) srcs: Side<'a>,
    /// Bytes per transfer, strictly positive.
    pub(crate) bytes: f64,
    /// Number of servers (the extent of [`Side::All`]).
    pub(crate) n: usize,
}

/// The block of one producer→consumer edge whose producer emits
/// `act_bytes_per_sample` per sample, or `None` when the edge moves nothing:
/// no activation bytes, no samples on the consumer side, or two replicated
/// ends (each sample's activation stays on its home server).
pub(crate) fn edge_block<'a>(
    producer: &'a PlacementKind,
    consumer: &'a PlacementKind,
    act_bytes_per_sample: f64,
    local_batch: f64,
    global_batch: f64,
    n: usize,
) -> Option<EdgeBlock<'a>> {
    // Each consumer-side server must receive the activations of the samples
    // it processes from wherever those samples' activations were produced.
    let consumed = samples_per_holder(consumer, local_batch, global_batch);
    if act_bytes_per_sample <= 0.0 || consumed <= 0.0 {
        return None;
    }
    let side = |kind: &'a PlacementKind| match kind {
        PlacementKind::Replicated => Side::All,
        _ => Side::Listed(listed_holders(kind)),
    };
    let bytes = match (producer, consumer) {
        // The producing home is the consuming home: no traffic.
        (PlacementKind::Replicated, PlacementKind::Replicated) => return None,
        // Under data parallelism each sample's "home" is its replica server,
        // so a replicated producer contributes from every server
        // proportionally.
        (PlacementKind::Replicated, _) => act_bytes_per_sample * (consumed / n as f64),
        // A single/sharded producer contributes from its holders.
        (_, _) => {
            let share = 1.0 / listed_holders(producer).len() as f64;
            act_bytes_per_sample * consumed * share
        }
    };
    Some(EdgeBlock { dsts: side(consumer), srcs: side(producer), bytes, n })
}

impl EdgeBlock<'_> {
    /// Emit every `(src, dst, bytes)` transfer of the block: per
    /// consumer-side server in holder order, then per producer-side server,
    /// forward before backward.
    pub(crate) fn for_each_transfer(&self, mut emit: impl FnMut(usize, usize, f64)) {
        let (b, emit) = (self.bytes, &mut emit);
        let all = 0..self.n;
        match (self.dsts, self.srcs) {
            (Side::Listed(d), Side::All) => cross_transfers(d.iter().copied(), all, b, emit),
            (Side::All, Side::Listed(s)) => cross_transfers(all, s.iter().copied(), b, emit),
            (Side::Listed(d), Side::Listed(s)) => {
                cross_transfers(d.iter().copied(), s.iter().copied(), b, emit)
            }
            (Side::All, Side::All) => {}
        }
    }
}

/// Emit `bytes` from every `src` to every `dst` other than itself, each
/// followed by the same bytes back (the gradients), destination-major.
fn cross_transfers(
    dsts: impl Iterator<Item = usize>,
    srcs: impl Iterator<Item = usize> + Clone,
    bytes: f64,
    emit: &mut impl FnMut(usize, usize, f64),
) {
    for dst in dsts {
        for src in srcs.clone() {
            if src != dst {
                emit(src, dst, bytes); // forward activations
                emit(dst, src, bytes); // backward gradients
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ParallelizationStrategy;
    use proptest::prelude::*;
    use topoopt_models::zoo::{build_dlrm, build_model};
    use topoopt_models::{DlrmConfig, ModelKind, ModelPreset};

    const GB: f64 = 1.0e9;

    fn samples_at(kind: &PlacementKind, s: usize, local_batch: f64, global_batch: f64) -> f64 {
        match kind {
            PlacementKind::Replicated => local_batch,
            PlacementKind::Single(h) => {
                if *h == s {
                    global_batch
                } else {
                    0.0
                }
            }
            PlacementKind::Sharded(v) => {
                if v.contains(&s) {
                    global_batch / v.len() as f64
                } else {
                    0.0
                }
            }
        }
    }

    fn holders(kind: &PlacementKind, n: usize) -> Vec<usize> {
        match kind {
            PlacementKind::Replicated => (0..n).collect(),
            PlacementKind::Single(s) => vec![*s],
            PlacementKind::Sharded(v) => v.clone(),
        }
    }

    /// The per-destination enumeration the edge blocks replaced:
    /// every consumer-side server rebuilds the producer's holder list and
    /// scans it, even when both ends are replicated and nothing is emitted.
    fn per_destination_transfers(
        producer: &PlacementKind,
        consumer: &PlacementKind,
        act_bytes_per_sample: f64,
        local_batch: f64,
        global_batch: f64,
        n: usize,
    ) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        let mut emit = |src, dst, bytes: f64| out.push((src, dst, bytes.to_bits()));
        for dst in holders(consumer, n) {
            let consumed = samples_at(consumer, dst, local_batch, global_batch);
            if consumed <= 0.0 {
                continue;
            }
            let producer_holders = holders(producer, n);
            match producer {
                PlacementKind::Replicated => match consumer {
                    PlacementKind::Replicated => {}
                    _ => {
                        let per_home = consumed / n as f64;
                        for src in 0..n {
                            if src != dst {
                                let bytes = act_bytes_per_sample * per_home;
                                emit(src, dst, bytes);
                                emit(dst, src, bytes);
                            }
                        }
                    }
                },
                PlacementKind::Single(_) | PlacementKind::Sharded(_) => {
                    let share = 1.0 / producer_holders.len() as f64;
                    for &src in &producer_holders {
                        if src != dst {
                            let bytes = act_bytes_per_sample * consumed * share;
                            emit(src, dst, bytes);
                            emit(dst, src, bytes);
                        }
                    }
                }
            }
        }
        out
    }

    /// Assert that both enumerations emit the same `(src, dst, bytes)`
    /// sequence, bit for bit, for all nine producer/consumer kind pairs.
    fn assert_same_transfers(
        producers: &[PlacementKind; 3],
        consumers: &[PlacementKind; 3],
        act: f64,
        local: f64,
        n: usize,
    ) {
        let global = local * n as f64;
        for producer in producers {
            for consumer in consumers {
                let mut fast = Vec::new();
                if let Some(block) = edge_block(producer, consumer, act, local, global, n) {
                    block.for_each_transfer(|s, d, b| fast.push((s, d, b.to_bits())));
                }
                let slow = per_destination_transfers(producer, consumer, act, local, global, n);
                assert_eq!(fast, slow, "{producer:?} -> {consumer:?} on {n} servers");
            }
        }
    }

    /// The three kinds an edge end can take: replicated, on `single`, and
    /// sharded over `shard`.
    fn kinds(single: usize, shard: Vec<usize>) -> [PlacementKind; 3] {
        [PlacementKind::Replicated, PlacementKind::Single(single), PlacementKind::Sharded(shard)]
    }

    /// `size` distinct servers of `0..n` (clamped to `1..=n`), drawn by a
    /// partial Fisher–Yates shuffle driven by `picks`.
    fn distinct_servers(n: usize, size: usize, picks: &[usize]) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        let size = size.clamp(1, n);
        for (i, pick) in picks.iter().take(size).enumerate() {
            pool.swap(i, i + pick % (n - i));
        }
        pool.truncate(size);
        pool
    }

    #[test]
    fn edge_enumeration_keeps_its_order_at_every_size() {
        for n in 1..=40 {
            let k = n.min(8);
            let producers = kinds(0, (0..k).collect());
            let consumers = kinds(n - 1, (n - k..n).collect());
            assert_same_transfers(&producers, &consumers, 4096.0, 256.0, n);
        }
    }

    proptest! {
        #[test]
        fn edge_enumeration_matches_the_per_destination_loop(
            n in 1..41usize,
            singles in (0..1_000usize, 0..1_000usize),
            sizes in (1..9usize, 1..9usize),
            picks in proptest::collection::vec(0..1_000usize, 16),
            act in 1.0f64..1.0e6,
            local in (0..8usize, 1.0f64..4096.0)
        ) {
            // One case in eight runs with an empty local batch (no samples,
            // so no transfers on either side).
            let local = if local.0 == 0 { 0.0 } else { local.1 };
            let producers = kinds(singles.0 % n, distinct_servers(n, sizes.0, &picks[..8]));
            let consumers = kinds(singles.1 % n, distinct_servers(n, sizes.1, &picks[8..]));
            assert_same_transfers(&producers, &consumers, act, local, n);
        }
    }

    #[test]
    fn pure_data_parallel_has_one_allreduce_group_and_no_mp() {
        let m = build_model(ModelKind::Vgg16, ModelPreset::Dedicated);
        let s = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let t = extract_traffic(&m, &s, 4);
        assert_eq!(t.allreduce_groups.len(), 1);
        assert_eq!(t.allreduce_groups[0].members.len(), 16);
        assert!((t.allreduce_groups[0].bytes - m.total_param_bytes()).abs() < 1.0);
        assert_eq!(t.total_mp_bytes(), 0.0);
    }

    #[test]
    fn motivating_dlrm_data_parallel_is_about_22_gb_allreduce() {
        // Figure 1a: pure data parallelism over the 22 GB DLRM produces
        // ~44 GB of per-server AllReduce transfers (2x the model).
        let m = build_dlrm(&DlrmConfig::motivating_example());
        let s = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let t = extract_traffic(&m, &s, 1);
        let total = t.total_allreduce_bytes();
        assert!(total > 20.0 * GB && total < 24.0 * GB, "total = {}", total / GB);
    }

    #[test]
    fn hybrid_dlrm_shrinks_allreduce_and_creates_mp() {
        // Figure 1b: placing the embedding tables reduces the AllReduce
        // volume from ~22 GB to well under 1 GB and creates broadcast/incast
        // MP traffic from the table-holding servers to everyone else.
        let m = build_dlrm(&DlrmConfig::motivating_example());
        let s = ParallelizationStrategy::meta_dlrm_example(&m, 16);
        let t = extract_traffic(&m, &s, 1);
        assert!(t.total_allreduce_bytes() < 1.0 * GB);
        assert!(t.total_mp_bytes() > 0.0);
        // Table host (server 0) exchanges traffic with every other server.
        assert_eq!(t.mp.communication_degree(0), 15);
        // A server with no table only talks to the four table hosts.
        assert_eq!(t.mp.communication_degree(1), 4);
    }

    #[test]
    fn mp_transfer_size_matches_paper_arithmetic() {
        // §2.1: 16 servers, batch 8192/server, 512-wide embedding output ->
        // roughly 16–32 MB per (table-host, server) pair and direction.
        let m = build_dlrm(&DlrmConfig::motivating_example());
        let s = ParallelizationStrategy::meta_dlrm_example(&m, 16);
        let t = extract_traffic(&m, &s, 1);
        let emb = m.embedding_ops()[0];
        let PlacementKind::Single(host) = *s.placement(emb) else {
            panic!("the motivating placement puts each table on one server");
        };
        let one_way = t.mp.get(host, 1);
        let mb = one_way / 1.0e6;
        assert!(mb > 10.0 && mb < 70.0, "per-pair MP = {mb} MB");
    }

    #[test]
    fn single_to_single_edge_sends_global_batch_activations() {
        let m = build_model(ModelKind::Bert, ModelPreset::Shared);
        let mut s = ParallelizationStrategy::pure_data_parallel(&m, 8);
        // Chain two adjacent encoder blocks on different servers.
        s.placements[1].kind = PlacementKind::Single(0);
        s.placements[2].kind = PlacementKind::Single(5);
        let t = extract_traffic(&m, &s, 4);
        assert!(t.mp.get(0, 5) > 0.0);
        assert!(t.mp.get(5, 0) > 0.0);
    }

    #[test]
    fn ratio_reflects_batch_size_scaling() {
        // Larger batch -> more MP (activation) traffic relative to AllReduce
        // (parameter) traffic: the mechanism behind Figure 12.
        let small = {
            let m = build_dlrm(&DlrmConfig::all_to_all(64));
            let s = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, 16);
            extract_traffic(&m, &s, 4).mp_to_allreduce_ratio()
        };
        let large = {
            let m = build_dlrm(&DlrmConfig::all_to_all(1024));
            let s = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, 16);
            extract_traffic(&m, &s, 4).mp_to_allreduce_ratio()
        };
        assert!(large > 4.0 * small);
    }

    #[test]
    fn sharded_parameters_do_not_allreduce() {
        let m = build_model(ModelKind::Candle, ModelPreset::Shared);
        let mut s = ParallelizationStrategy::pure_data_parallel(&m, 8);
        let before = extract_traffic(&m, &s, 4).total_allreduce_bytes();
        s.placements[0].kind = PlacementKind::Sharded(vec![0, 1, 2, 3]);
        let after = extract_traffic(&m, &s, 4).total_allreduce_bytes();
        assert!(after < before);
    }
}
