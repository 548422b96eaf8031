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
//! * **model-parallel** — the transfers of the operator's incident DAG
//!   edges, removed under the old placement and added under the new one.
//!   An edge between two replicated operators has no transfers and costs
//!   nothing.
//!
//! A proposal costs the float additions the estimate needs, and no per-pair
//! state. Each edge arrives as one block from [`crate::traffic`]: a *star*
//! (every server exchanging with each holder of the edge's listed end, the
//! other end being replicated) or the pairs of two listed ends (at most
//! 8 × 8 for the search's proposals).
//!
//! * **Emission order.** `egress`, `ingress` and the hop-taxed bit total
//!   receive the same additions, in the same order, as expanding the block
//!   transfer by transfer. Within one edge every addition to a per-server
//!   accumulator adds the same value, so only their count matters there; a
//!   star holder's n − 1 additions stay n − 1 additions (x + (n − 1)·b is
//!   not the same float as n − 1 additions of b). The taxed total is one
//!   accumulator, so its terms keep emission order. A star reads its
//!   holder's row of the row-major hop table and the same row of the
//!   transpose, so its incoming hops stream like its outgoing ones.
//! * **Per-edge reach.** Max hops and reachability stay exact under removal
//!   through integer tallies of edges, not pairs. Each server's star
//!   summary, built once per view, holds the largest reachable hop count
//!   over its pairs in either direction and whether any of them is blocked.
//!   An edge's pairs are the union of its holders' stars, or its listed
//!   pairs. So the largest hop count over active pairs is the largest reach
//!   over active edges, and some active pair is blocked iff some active
//!   edge has a blocked pair. That costs O(holders) per edge.
//!
//! **Why bits matter.** The search accepts or rejects a proposal on
//! `total_s`, so one flipped last bit can fork an MCMC trajectory, and the
//! perfbench digests and the committed artifacts pin every trajectory.
//! `tests/evaluator.rs` holds this evaluator to the per-pair evaluator of
//! `topoopt-oracle` bit for bit, and to the full estimator to round-off.
//!
//! Pair factors ([`TopologyView::with_pair_factors`]) follow
//! [`crate::costmodel::estimate_from_demands`]: an active reachable pair
//! whose factor is ≤ 0 has no logical connection and makes the estimate
//! infinite, like a pair with no path; a factor in `(0, 1)` bounds the MP
//! time by the pair's bytes over factor × path bottleneck. Only a view that
//! carries factors keeps per-pair byte totals and transfer counts for that
//! bound; no shipped search passes one.
//!
//! A mutation is applied with [`CostEvaluator::set_placement`] and undone by
//! calling it again with the returned previous kind — the mutate-and-revert
//! loop in [`crate::mcmc::search_strategy`] never clones the strategy except
//! when a new best is recorded. The model's and the view's tables are built
//! once in [`CostEvaluator::new`] and shared by clones, so a search builds
//! one evaluator and each chain clones O(servers + operators) state.

use crate::costmodel::{ComputeParams, IterationEstimate, TopologyView};
use crate::placement::{ParallelizationStrategy, PlacementKind};
use crate::traffic::{edge_block, EdgeBlock, Side};
use std::sync::Arc;
use topoopt_models::{DnnModel, OpId};

/// Hop count of a pair the estimate treats as unreachable: no path, or a
/// pair factor ≤ 0 (no logical connection).
const BLOCKED: u32 = u32::MAX;

/// Incrementally-maintained iteration-time estimate of one strategy.
#[derive(Debug, Clone)]
pub struct CostEvaluator<'a> {
    model: &'a DnnModel,
    params: &'a ComputeParams,
    /// The model's and the view's read-only tables, shared by clones.
    tables: Arc<Tables>,
    strategy: ParallelizationStrategy,
    local_batch: f64,
    global_batch: f64,
    /// Per-server FLOP load (the compute term before the max/roofline).
    load: Vec<f64>,
    /// Parameter bytes of replicated operators (the one AllReduce group).
    replicated_param_bytes: f64,
    /// Replicated operators with positive parameter bytes — the exact
    /// "group exists" predicate, immune to float residue.
    replicated_param_ops: usize,
    /// Model-parallel demand aggregates.
    mp: MpTally,
    /// Relay-bound state, present only when the view carries pair factors.
    relays: Option<RelayTally>,
}

/// What a set of server pairs reaches.
#[derive(Debug, Clone, Copy, Default)]
struct Reach {
    /// Largest hop count of a reachable pair; `None` if no pair is.
    hops: Option<u32>,
    /// Whether some pair is [`BLOCKED`].
    blocked: bool,
}

impl Reach {
    /// This reach with one more pair, of hop count `hops`.
    fn with_pair(self, hops: u32) -> Self {
        if hops == BLOCKED {
            Reach { blocked: true, ..self }
        } else {
            Reach { hops: self.hops.max(Some(hops)), ..self }
        }
    }

    /// The reach of both sets of pairs.
    fn union(self, other: Reach) -> Self {
        Reach { hops: self.hops.max(other.hops), blocked: self.blocked || other.blocked }
    }
}

/// Read-only tables of one model on one view's first `n` servers.
#[derive(Debug)]
struct Tables {
    n: usize,
    /// Consumer adjacency (op -> ops listing it as an input), with the same
    /// multiplicity as the model's `inputs` lists.
    consumers: Vec<Vec<OpId>>,
    /// Hop count per pair, row-major (`src * n + dst`), or [`BLOCKED`].
    hops: Vec<u32>,
    /// The transpose (`dst * n + src`): a server's incoming hops as a row.
    hops_in: Vec<u32>,
    /// Per server, the reach of its pairs with every other server, in
    /// either direction (its star summary).
    stars: Vec<Reach>,
    /// Servers grouped by NIC bandwidth (floored at 1 bps), in order of
    /// each class's first server.
    bandwidth_classes: Vec<(f64, Vec<usize>)>,
    /// Slowest member NIC bandwidth over all servers (the group minimum).
    min_server_bw: f64,
    /// Total network capacity, floored at 1 bps.
    total_bw: f64,
    /// With pair factors: the reachable pairs with a factor in `(0, 1)`, as
    /// the pair's index and its rate cap, factor × path bottleneck (floored
    /// at 1 bps). `None` for a view without factors.
    capped: Option<Vec<(usize, f64)>>,
}

impl Tables {
    fn new(model: &DnnModel, view: &TopologyView, n: usize) -> Self {
        let mut consumers: Vec<Vec<OpId>> = vec![Vec::new(); model.num_ops()];
        for (consumer_id, node) in model.ops.iter().enumerate() {
            for &producer_id in &node.inputs {
                consumers[producer_id].push(consumer_id);
            }
        }
        // A pair whose factor is ≤ 0 is BLOCKED, like a pair with no path.
        let (mut hops, mut hops_in) = (vec![BLOCKED; n * n], vec![BLOCKED; n * n]);
        for src in 0..n {
            for dst in 0..n {
                let h = if view.pair_throughput_factor(src, dst) <= 0.0 {
                    BLOCKED
                } else {
                    u32::try_from(view.path_info(src, dst).0).unwrap_or(BLOCKED)
                };
                hops[src * n + dst] = h;
                hops_in[dst * n + src] = h;
            }
        }
        let stars = (0..n)
            .map(|s| {
                let (out, inc) = (&hops[s * n..][..n], &hops_in[s * n..][..n]);
                (0..n)
                    .filter(|&t| t != s)
                    .fold(Reach::default(), |r, t| r.with_pair(out[t]).with_pair(inc[t]))
            })
            .collect();
        let mut bandwidth_classes: Vec<(f64, Vec<usize>)> = Vec::new();
        for s in 0..n {
            let bw = view.server_bandwidth(s).max(1.0);
            match bandwidth_classes.iter_mut().find(|(b, _)| b.to_bits() == bw.to_bits()) {
                Some((_, servers)) => servers.push(s),
                None => bandwidth_classes.push((bw, vec![s])),
            }
        }
        let capped = match view {
            TopologyView::Topology { pair_factor: Some(factors), .. } => Some(
                (0..n * n)
                    .filter_map(|idx| {
                        let (src, dst) = (idx / n, idx % n);
                        let (hops, bneck) = view.path_info(src, dst);
                        let factor = factors[src][dst];
                        let relayed = hops != usize::MAX && factor < 1.0 && factor > 0.0;
                        relayed.then(|| (idx, factor * bneck.max(1.0)))
                    })
                    .collect(),
            ),
            _ => None,
        };
        Tables {
            n,
            consumers,
            hops,
            hops_in,
            stars,
            bandwidth_classes,
            min_server_bw: (0..n).map(|s| view.server_bandwidth(s)).fold(f64::INFINITY, f64::min),
            total_bw: view.total_bandwidth().max(1.0),
            capped,
        }
    }
}

/// The model-parallel terms of the estimate. Pair demand is read only
/// through the egress/ingress/taxed-bits aggregates, never per pair.
#[derive(Debug, Clone)]
struct MpTally {
    egress: Vec<f64>,
    ingress: Vec<f64>,
    /// Σ bytes·8·hops over transfers whose pair is not [`BLOCKED`] (the
    /// bandwidth-tax numerator), added in emission order.
    taxed_bits: f64,
    /// Active edges by the largest hop count over their reachable pairs.
    hop_edges: Vec<usize>,
    /// Active edges with a [`BLOCKED`] pair.
    blocked_edges: usize,
}

impl MpTally {
    fn new(t: &Tables) -> Self {
        let max_hops = t.stars.iter().filter_map(|r| r.hops).max().unwrap_or(0);
        MpTally {
            egress: vec![0.0; t.n],
            ingress: vec![0.0; t.n],
            taxed_bits: 0.0,
            hop_edges: vec![0; max_hops as usize + 1],
            blocked_edges: 0,
        }
    }

    /// Add (`sign` = 1) or remove (`sign` = −1) one edge's block.
    fn apply(&mut self, t: &Tables, block: &EdgeBlock<'_>, sign: f64) {
        let sb = sign * block.bytes;
        let reach = match (block.dsts, block.srcs) {
            // Holders sending to every server: per server, then per holder.
            (Side::All, Side::Listed(holders)) => {
                match *holders {
                    [h] => self.star(t, h, true, sb),
                    _ => self.sending_stars(t, holders, sb),
                }
                holders.iter().fold(Reach::default(), |r, &h| r.union(t.stars[h]))
            }
            // Holders receiving from every server: one whole star per holder.
            (Side::Listed(holders), Side::All) => {
                for &h in holders {
                    self.star(t, h, false, sb);
                }
                holders.iter().fold(Reach::default(), |r, &h| r.union(t.stars[h]))
            }
            (Side::Listed(dsts), Side::Listed(srcs)) => self.listed(t, dsts, srcs, sb),
            (Side::All, Side::All) => return,
        };
        let step = |count: &mut usize| {
            if sign > 0.0 {
                *count += 1;
            } else {
                *count -= 1;
            }
        };
        if let Some(h) = reach.hops {
            step(&mut self.hop_edges[h as usize]);
        }
        if reach.blocked {
            step(&mut self.blocked_edges);
        }
    }

    /// One holder `h` exchanging `sb` bytes with every other server `x`:
    /// forward `h → x` then backward `x → h` when `h` sends, `x → h` then
    /// `h → x` when it receives. The holder's own egress and ingress sit in
    /// registers for their n − 1 additions.
    fn star(&mut self, t: &Tables, h: usize, sends: bool, sb: f64) {
        let n = t.n;
        let (out, inc) = (&t.hops[h * n..][..n], &t.hops_in[h * n..][..n]);
        let (first, second) = if sends { (out, inc) } else { (inc, out) };
        let sb8 = sb * 8.0;
        let (mut taxed, mut holder_out, mut holder_in) =
            (self.taxed_bits, self.egress[h], self.ingress[h]);
        for (lo, hi) in [(0, h), (h + 1, n)] {
            let others = self.egress[lo..hi].iter_mut().zip(&mut self.ingress[lo..hi]);
            for ((x_out, x_in), (&fwd, &bwd)) in
                others.zip(first[lo..hi].iter().zip(&second[lo..hi]))
            {
                *x_out += sb;
                *x_in += sb;
                holder_out += sb;
                holder_in += sb;
                tax(&mut taxed, sb8, fwd);
                tax(&mut taxed, sb8, bwd);
            }
        }
        self.taxed_bits = taxed;
        self.egress[h] = holder_out;
        self.ingress[h] = holder_in;
    }

    /// Several holders each sending `sb` bytes to every other server,
    /// emitted per server, then per holder.
    fn sending_stars(&mut self, t: &Tables, holders: &[usize], sb: f64) {
        let (n, sb8) = (t.n, sb * 8.0);
        for x in 0..n {
            for &h in holders {
                if h != x {
                    self.exchange(h, x, sb);
                    tax(&mut self.taxed_bits, sb8, t.hops[h * n + x]);
                    tax(&mut self.taxed_bits, sb8, t.hops_in[h * n + x]);
                }
            }
        }
    }

    /// Listed consumer-side `dsts` and producer-side `srcs` exchanging `sb`
    /// bytes, per destination, then per source; returns their reach.
    fn listed(&mut self, t: &Tables, dsts: &[usize], srcs: &[usize], sb: f64) -> Reach {
        let (n, sb8) = (t.n, sb * 8.0);
        let mut reach = Reach::default();
        for &dst in dsts {
            for &src in srcs {
                if src != dst {
                    let (fwd, bwd) = (t.hops[src * n + dst], t.hops[dst * n + src]);
                    self.exchange(src, dst, sb);
                    tax(&mut self.taxed_bits, sb8, fwd);
                    tax(&mut self.taxed_bits, sb8, bwd);
                    reach = reach.with_pair(fwd).with_pair(bwd);
                }
            }
        }
        reach
    }

    /// The egress and ingress of a transfer `src → dst` of `sb` bytes and of
    /// its gradient back.
    fn exchange(&mut self, src: usize, dst: usize, sb: f64) {
        self.egress[src] += sb;
        self.ingress[dst] += sb;
        self.egress[dst] += sb;
        self.ingress[src] += sb;
    }

    /// Largest hop count over active reachable pairs, if any is active.
    fn max_hops(&self) -> Option<usize> {
        self.hop_edges.iter().rposition(|&c| c > 0)
    }
}

/// Add one transfer's hop tax, `sb8` signed bits times its hop count, unless
/// its pair is [`BLOCKED`].
fn tax(taxed: &mut f64, sb8: f64, hops: u32) {
    if hops != BLOCKED {
        *taxed += sb8 * hops as f64;
    }
}

/// The largest of 0 and `value(item)` over `items`, folded in four
/// independent lanes: `f64::max` gives the same result in any order.
fn peak<T: Copy>(items: &[T], value: impl Fn(T) -> f64) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = items.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &item) in lanes.iter_mut().zip(chunk) {
            *lane = lane.max(value(item));
        }
    }
    chunks.remainder().iter().map(|&item| value(item)).chain(lanes).fold(0.0, f64::max)
}

/// Per-pair byte totals and transfer counts for the relay bound of a view
/// with pair factors.
#[derive(Debug, Clone)]
struct RelayTally {
    /// Bytes per pair, row-major (`src * n + dst`).
    bytes: Vec<f64>,
    /// Contributing transfers per pair; the pair carries demand iff
    /// non-zero.
    transfers: Vec<u32>,
}

impl RelayTally {
    fn new(n: usize) -> Self {
        RelayTally { bytes: vec![0.0; n * n], transfers: vec![0; n * n] }
    }

    /// Add or remove one edge's block, transfer by transfer.
    fn apply(&mut self, block: &EdgeBlock<'_>, sign: f64) {
        block.for_each_transfer(|s, d, b| {
            let idx = s * block.n + d;
            self.bytes[idx] += sign * b;
            if sign > 0.0 {
                self.transfers[idx] += 1;
            } else {
                self.transfers[idx] -= 1;
            }
        });
    }

    /// The slowest active relayed pair's time at its rate cap (0 if none).
    fn bound_s(&self, capped: &[(usize, f64)]) -> f64 {
        capped
            .iter()
            .filter(|&&(idx, _)| self.transfers[idx] > 0)
            .map(|&(idx, cap)| self.bytes[idx] * 8.0 / cap)
            .fold(0.0, f64::max)
    }
}

impl<'a> CostEvaluator<'a> {
    /// Build the cached contributions of `strategy` with one full pass over
    /// the model (the same work as one call to the full estimator), plus the
    /// view's hop tables and star summaries. Clones share those tables.
    pub fn new(
        model: &'a DnnModel,
        strategy: ParallelizationStrategy,
        view: &TopologyView,
        params: &'a ComputeParams,
    ) -> Self {
        let n = strategy.num_servers;
        let local_batch = (model.batch_per_gpu * params.gpus_per_server) as f64;
        let global_batch = local_batch * n as f64;
        let tables = Tables::new(model, view, n);
        let mut ev = CostEvaluator {
            model,
            params,
            strategy,
            local_batch,
            global_batch,
            load: vec![0.0; n],
            replicated_param_bytes: 0.0,
            replicated_param_ops: 0,
            mp: MpTally::new(&tables),
            relays: tables.capped.is_some().then(|| RelayTally::new(n)),
            tables: Arc::new(tables),
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
        let (t, mp) = (&*self.tables, &self.mp);
        let n = t.n;
        let compute_s = peak(&self.load, |load| load) / self.params.server_flops();

        let mut allreduce_s = 0.0;
        if n > 1 && self.replicated_param_ops > 0 {
            let k = n as f64;
            let bits = self.replicated_param_bytes * 8.0;
            allreduce_s =
                2.0 * (k - 1.0) * (self.params.alpha_s + bits / k / t.min_server_bw.max(1.0));
        }

        // The busiest NIC. x·8/bw is monotone in x, so the max commutes with
        // it: one division per bandwidth class, of its largest egress or
        // ingress, gives the bits of one division per server and direction.
        let mut mp_s = 0.0f64;
        for (bw, servers) in &t.bandwidth_classes {
            let busiest = peak(servers, |s| mp.egress[s].max(mp.ingress[s]));
            mp_s = mp_s.max(busiest * 8.0 / bw);
        }
        mp_s = mp_s.max(mp.taxed_bits / t.total_bw);
        if let (Some(relays), Some(capped)) = (&self.relays, &t.capped) {
            mp_s = mp_s.max(relays.bound_s(capped));
        }
        if let Some(max_hops) = mp.max_hops() {
            mp_s += self.params.alpha_s * max_hops as f64;
        }
        if mp.blocked_edges > 0 {
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
        for i in 0..self.tables.consumers[op].len() {
            let consumer = self.tables.consumers[op][i];
            self.apply_edge(op, consumer, Some((op, kind)), sign);
        }
    }

    /// Apply one producer→consumer edge's block, signed. `override_kind`
    /// substitutes the placement of the named operator (the one being
    /// mutated); the other endpoint reads the current strategy.
    fn apply_edge(
        &mut self,
        producer: OpId,
        consumer: OpId,
        override_kind: Option<(OpId, &PlacementKind)>,
        sign: f64,
    ) {
        let placements = &self.strategy.placements;
        let kind_of = |id: OpId| -> &PlacementKind {
            match override_kind {
                Some((op, kind)) if op == id => kind,
                _ => &placements[id].kind,
            }
        };
        let act_bytes = self.model.ops[producer].op.activation_bytes();
        let (local, global) = (self.local_batch, self.global_batch);
        let block = edge_block(
            kind_of(producer),
            kind_of(consumer),
            act_bytes,
            local,
            global,
            self.tables.n,
        );
        if let Some(block) = block {
            self.mp.apply(&self.tables, &block, sign);
            if let Some(relays) = &mut self.relays {
                relays.apply(&block, sign);
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
