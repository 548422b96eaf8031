//! Topology-aware analytical iteration-time estimation (the FlexNet cost
//! model).
//!
//! The MCMC strategy search evaluates thousands of candidate strategies, so
//! this estimator is deliberately coarse: per-server compute from a roofline
//! model, AllReduce from the α-β ring model over the bandwidth the topology
//! actually provides, and model-parallel time from per-server egress/ingress
//! bottlenecks with a hop-count (bandwidth-tax) multiplier. The flow-level
//! simulator (`topoopt-netsim`) refines the winning strategy afterwards.

use crate::placement::{ParallelizationStrategy, PlacementKind};
use crate::traffic::{extract_traffic, TrafficDemands};
use serde::{Deserialize, Serialize};
use topoopt_graph::Graph;
use topoopt_models::DnnModel;

/// Compute-side parameters of the roofline model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeParams {
    /// Peak FLOP/s of one GPU (fp32 A100 ≈ 19.5 TFLOP/s).
    pub gpu_flops: f64,
    /// GPUs per server (4 in the paper's simulations).
    pub gpus_per_server: usize,
    /// Achieved fraction of peak (covers kernel-launch and memory-bound
    /// layers).
    pub efficiency: f64,
    /// Per-transfer latency in seconds (link propagation + stack).
    pub alpha_s: f64,
}

impl Default for ComputeParams {
    fn default() -> Self {
        ComputeParams { gpu_flops: 19.5e12, gpus_per_server: 4, efficiency: 0.35, alpha_s: 10.0e-6 }
    }
}

impl ComputeParams {
    /// Effective FLOP/s of one server.
    pub fn server_flops(&self) -> f64 {
        self.gpu_flops * self.gpus_per_server as f64 * self.efficiency
    }
}

/// The network the cost model evaluates a strategy against.
#[derive(Debug, Clone)]
pub enum TopologyView {
    /// FlexFlow's default assumption: every server pair has a dedicated
    /// `per_pair_bps` link (distance 1). Also used for the Ideal Switch.
    FullMesh {
        /// Number of servers.
        n: usize,
        /// Per-server NIC bandwidth (bits per second).
        per_server_bps: f64,
    },
    /// A concrete direct-connect or switched topology. Servers are nodes
    /// `0..num_servers`; additional nodes (switches) may exist.
    Topology {
        /// Hop distance between every server pair.
        hops: Vec<Vec<usize>>,
        /// Bottleneck capacity (bps) along one shortest path per pair.
        bottleneck: Vec<Vec<f64>>,
        /// Total NIC capacity per server.
        server_bps: Vec<f64>,
        /// Total network capacity (sum of server NIC capacity).
        total_bps: f64,
        /// Number of servers.
        num_servers: usize,
        /// Optional per-pair throughput multipliers (`pair_factor[src][dst]`
        /// in `[0, 1]`), the RDMA forwarding plane's
        /// `effective_throughput_factor`: a relayed pair cannot exceed its
        /// factor times the path bottleneck, and a factor of 0 marks the
        /// pair as having no logical connection. `None` = relaying is free.
        pair_factor: Option<Vec<Vec<f64>>>,
    },
}

impl TopologyView {
    /// Build a view of a concrete topology graph whose first `num_servers`
    /// nodes are the servers.
    ///
    /// One BFS per source settles hops and bottlenecks in queue order:
    /// `bottleneck[v]` is the max over BFS parents `u` (one hop closer to the
    /// source) of `min(bottleneck[u], capacity(u, v))`, where the capacity
    /// sums the parallel live edges `u → v` as
    /// [`Graph::capacity_between`] does. Every node at distance `d` is
    /// popped, with its bottleneck final, before any node at `d + 1`, and
    /// `min`/`max` are exact, so the visiting order does not change the
    /// result. The scratch buffers are reused across sources.
    pub fn from_graph(g: &Graph, num_servers: usize) -> Self {
        let mut hops = Vec::with_capacity(num_servers);
        let mut bottleneck = Vec::with_capacity(num_servers);
        let mut dist = vec![usize::MAX; g.num_nodes()];
        let mut bn = vec![0.0f64; g.num_nodes()];
        let mut queue: Vec<usize> = Vec::with_capacity(g.num_nodes());
        for s in 0..num_servers {
            for &v in &queue {
                dist[v] = usize::MAX;
                bn[v] = 0.0;
            }
            queue.clear();
            dist[s] = 0;
            bn[s] = f64::INFINITY;
            queue.push(s);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                let next = dist[u] + 1;
                // Out-edges come sorted by destination, then id: each run of
                // parallel edges is one neighbour, summed in id order.
                let mut out = g.out_edges(u).map(|(_, e)| (e.dst, e.capacity_bps)).peekable();
                while let Some(&(v, _)) = out.peek() {
                    let cap: f64 =
                        std::iter::from_fn(|| out.next_if(|&(d, _)| d == v)).map(|(_, c)| c).sum();
                    if dist[v] == usize::MAX {
                        dist[v] = next;
                        queue.push(v);
                    } else if dist[v] != next {
                        continue;
                    }
                    let cand = bn[u].min(cap);
                    if cand > bn[v] {
                        bn[v] = cand;
                    }
                }
            }
            hops.push(dist[..num_servers].to_vec());
            bottleneck.push(bn[..num_servers].to_vec());
        }
        let server_bps: Vec<f64> = (0..num_servers).map(|s| g.total_out_capacity(s)).collect();
        let total_bps = server_bps.iter().sum();
        TopologyView::Topology {
            hops,
            bottleneck,
            server_bps,
            total_bps,
            num_servers,
            pair_factor: None,
        }
    }

    /// Attach per-pair throughput factors (the RDMA forwarding plane's
    /// kernel-relay penalties) to a concrete-topology view; see
    /// [`TopologyView::Topology::pair_factor`].
    ///
    /// # Panics
    /// On a [`TopologyView::FullMesh`] view (which has no relays by
    /// definition) or when the matrix is not `num_servers × num_servers`.
    pub fn with_pair_factors(mut self, factors: Vec<Vec<f64>>) -> Self {
        match &mut self {
            TopologyView::FullMesh { .. } => {
                panic!("pair factors only apply to concrete topologies")
            }
            TopologyView::Topology { num_servers, pair_factor, .. } => {
                assert_eq!(factors.len(), *num_servers, "pair-factor matrix height");
                assert!(
                    factors.iter().all(|row| row.len() == *num_servers),
                    "pair-factor matrix width"
                );
                *pair_factor = Some(factors);
            }
        }
        self
    }

    /// Throughput multiplier of a server pair's logical connection (1.0
    /// when no factors are attached).
    pub fn pair_throughput_factor(&self, src: usize, dst: usize) -> f64 {
        match self {
            TopologyView::FullMesh { .. } => 1.0,
            TopologyView::Topology { pair_factor, .. } => {
                pair_factor.as_ref().map(|f| f[src][dst]).unwrap_or(1.0)
            }
        }
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        match self {
            TopologyView::FullMesh { n, .. } => *n,
            TopologyView::Topology { num_servers, .. } => *num_servers,
        }
    }

    /// Hop count and path bottleneck (bps) between two servers.
    pub fn path_info(&self, src: usize, dst: usize) -> (usize, f64) {
        match self {
            TopologyView::FullMesh { per_server_bps, .. } => (1, *per_server_bps),
            TopologyView::Topology { hops, bottleneck, .. } => {
                let h = hops[src][dst];
                if h == usize::MAX {
                    (usize::MAX, 0.0)
                } else {
                    (h, bottleneck[src][dst])
                }
            }
        }
    }

    /// Total NIC capacity of one server.
    pub fn server_bandwidth(&self, s: usize) -> f64 {
        match self {
            TopologyView::FullMesh { per_server_bps, .. } => *per_server_bps,
            TopologyView::Topology { server_bps, .. } => server_bps[s],
        }
    }

    /// Total network capacity.
    pub fn total_bandwidth(&self) -> f64 {
        match self {
            TopologyView::FullMesh { n, per_server_bps } => *per_server_bps * *n as f64,
            TopologyView::Topology { total_bps, .. } => *total_bps,
        }
    }

    /// True if every server pair can communicate.
    pub fn fully_reachable(&self) -> bool {
        match self {
            TopologyView::FullMesh { .. } => true,
            TopologyView::Topology { hops, num_servers, .. } => (0..*num_servers)
                .all(|s| (0..*num_servers).all(|d| s == d || hops[s][d] != usize::MAX)),
        }
    }
}

/// Breakdown of one training iteration's estimated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationEstimate {
    /// Compute time of the busiest server (seconds).
    pub compute_s: f64,
    /// AllReduce communication time (seconds).
    pub allreduce_s: f64,
    /// Model-parallel communication time (seconds).
    pub mp_s: f64,
    /// Total iteration time (no compute/communication overlap, matching the
    /// formulation of §5.4 Eq. 1).
    pub total_s: f64,
}

/// Estimate the iteration time of `strategy` for `model` on the network
/// described by `view`.
pub fn estimate_iteration_time(
    model: &DnnModel,
    strategy: &ParallelizationStrategy,
    view: &TopologyView,
    params: &ComputeParams,
) -> IterationEstimate {
    let demands = extract_traffic(model, strategy, params.gpus_per_server);
    estimate_from_demands(model, strategy, &demands, view, params)
}

/// Estimate using pre-extracted demands (lets the alternating-optimization
/// loop reuse one extraction for several candidate topologies).
pub fn estimate_from_demands(
    model: &DnnModel,
    strategy: &ParallelizationStrategy,
    demands: &TrafficDemands,
    view: &TopologyView,
    params: &ComputeParams,
) -> IterationEstimate {
    let n = strategy.num_servers;
    let local_batch = demands.samples_per_server;
    let global_batch = local_batch * n as f64;

    // --- Compute: per-server FLOP load; the slowest server gates the
    // iteration.
    let mut load = vec![0.0f64; n];
    for (op_id, node) in model.ops.iter().enumerate() {
        let flops = node.op.total_flops();
        match strategy.placement(op_id) {
            PlacementKind::Replicated => {
                for l in load.iter_mut() {
                    *l += flops * local_batch;
                }
            }
            PlacementKind::Single(s) => {
                load[*s] += flops * global_batch;
            }
            PlacementKind::Sharded(v) => {
                for &s in v {
                    load[s] += flops * global_batch / v.len() as f64;
                }
            }
        }
    }
    let compute_s = load.iter().cloned().fold(0.0, f64::max) / params.server_flops();

    // --- AllReduce: ring model per group over the bandwidth the topology
    // gives the slowest member.
    let mut allreduce_s: f64 = 0.0;
    for g in &demands.allreduce_groups {
        let k = g.members.len() as f64;
        if k <= 1.0 {
            continue;
        }
        let min_bw =
            g.members.iter().map(|&m| view.server_bandwidth(m)).fold(f64::INFINITY, f64::min);
        let bits = g.bytes * 8.0;
        allreduce_s += 2.0 * (k - 1.0) * (params.alpha_s + bits / k / min_bw.max(1.0));
    }

    // --- Model parallel: per-server egress/ingress bottlenecks plus a
    // network-wide bound that charges the hop-count bandwidth tax.
    let mut egress = vec![0.0f64; n];
    let mut ingress = vec![0.0f64; n];
    let mut taxed_bits = 0.0f64;
    let mut max_hops = 0usize;
    let mut unreachable = false;
    let mut relay_bound_s = 0.0f64;
    for (src, dst, bytes) in demands.mp.entries_desc() {
        egress[src] += bytes;
        ingress[dst] += bytes;
        let (hops, bneck) = view.path_info(src, dst);
        if hops == usize::MAX {
            unreachable = true;
            continue;
        }
        max_hops = max_hops.max(hops);
        taxed_bits += bytes * 8.0 * hops as f64;
        // Kernel-relay penalty (§6 / Appendix I): a relayed logical
        // connection cannot run faster than its per-pair factor times the
        // path bottleneck, no matter how idle the fabric is. Factors of
        // 1.0 (the default) add no bound beyond the terms above.
        let factor = view.pair_throughput_factor(src, dst);
        if factor < 1.0 && bytes > 0.0 {
            if factor <= 0.0 {
                unreachable = true; // no logical RDMA connection
            } else {
                relay_bound_s = relay_bound_s.max(bytes * 8.0 / (factor * bneck.max(1.0)));
            }
        }
    }
    let mut mp_s = 0.0f64;
    for s in 0..n {
        let bw = view.server_bandwidth(s).max(1.0);
        mp_s = mp_s.max(egress[s] * 8.0 / bw).max(ingress[s] * 8.0 / bw);
    }
    mp_s = mp_s.max(taxed_bits / view.total_bandwidth().max(1.0)).max(relay_bound_s);
    if demands.total_mp_bytes() > 0.0 {
        mp_s += params.alpha_s * max_hops as f64;
    }
    if unreachable {
        mp_s = f64::INFINITY;
    }

    let total_s = compute_s + allreduce_s + mp_s;
    IterationEstimate { compute_s, allreduce_s, mp_s, total_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ParallelizationStrategy;
    use proptest::prelude::*;
    use topoopt_graph::paths::bfs_distances;
    use topoopt_graph::topologies;
    use topoopt_models::zoo::{build_dlrm, build_model};
    use topoopt_models::{DlrmConfig, ModelKind, ModelPreset};

    /// The two-pass build `from_graph` replaced: per source a BFS, a sort of
    /// the reached nodes by distance, then a pass over each node's in-edges
    /// with a `capacity_between` lookup per parent.
    fn two_pass_tables(g: &Graph, num_servers: usize) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
        let mut hops = Vec::with_capacity(num_servers);
        let mut bottleneck = Vec::with_capacity(num_servers);
        for s in 0..num_servers {
            let dist = bfs_distances(g, s);
            let mut bn = vec![0.0f64; g.num_nodes()];
            bn[s] = f64::INFINITY;
            let mut order: Vec<usize> =
                (0..g.num_nodes()).filter(|&v| dist[v] != usize::MAX).collect();
            order.sort_by_key(|&v| dist[v]);
            for &v in &order {
                if v == s {
                    continue;
                }
                for u in g.in_neighbors(v) {
                    if dist[u] != usize::MAX && dist[u] + 1 == dist[v] {
                        let cand = bn[u].min(g.capacity_between(u, v));
                        if cand > bn[v] {
                            bn[v] = cand;
                        }
                    }
                }
            }
            hops.push(dist.iter().take(num_servers).cloned().collect());
            bottleneck.push(bn.iter().take(num_servers).cloned().collect());
        }
        (hops, bottleneck)
    }

    proptest! {
        #[test]
        fn one_pass_view_matches_the_two_pass_build(
            servers in 1..10usize,
            switches in 0..4usize,
            edges in proptest::collection::vec(
                (0..1_000usize, 0..1_000usize, 0..6usize, 0.5f64..100.0, 1..4usize, 0..5usize),
                0..40,
            )
        ) {
            // A random multigraph over servers plus switch nodes: parallel
            // copies, a few removed edges (the first copy, so parallel runs
            // mix live and removed edges), capacities drawn from a small set
            // (ties between parents) or at random, and sparse enough that
            // some servers are unreachable.
            let nodes = servers + switches;
            let mut g = Graph::new(nodes);
            for &(a, b, cap_pick, cap, copies, removed) in &edges {
                let cap = [1.0e9, 10.0e9, 25.0e9, 100.0e9, 25.0e9, cap * 1.0e9][cap_pick];
                for copy in 0..copies {
                    let id = g.add_edge(a % nodes, b % nodes, cap);
                    if removed == 0 && copy == 0 {
                        g.remove_edge(id);
                    }
                }
            }
            let TopologyView::Topology { hops, bottleneck, .. } =
                TopologyView::from_graph(&g, servers)
            else {
                unreachable!("from_graph builds a concrete view");
            };
            let (want_hops, want_bottleneck) = two_pass_tables(&g, servers);
            prop_assert_eq!(hops, want_hops);
            let bits = |t: &[Vec<f64>]| -> Vec<Vec<u64>> {
                t.iter().map(|row| row.iter().map(|x| x.to_bits()).collect()).collect()
            };
            prop_assert_eq!(bits(&bottleneck), bits(&want_bottleneck));
        }
    }

    #[test]
    fn full_mesh_view_reports_one_hop() {
        let v = TopologyView::FullMesh { n: 16, per_server_bps: 100.0e9 };
        assert_eq!(v.path_info(0, 5), (1, 100.0e9));
        assert_eq!(v.num_servers(), 16);
        assert!(v.fully_reachable());
    }

    #[test]
    fn graph_view_computes_hops_and_bottleneck() {
        // 0 -> 1 -> 2 chain with shrinking capacity.
        let mut g = topoopt_graph::Graph::new(3);
        g.add_edge(0, 1, 100.0);
        g.add_edge(1, 2, 10.0);
        g.add_edge(2, 1, 10.0);
        g.add_edge(1, 0, 100.0);
        let v = TopologyView::from_graph(&g, 3);
        assert_eq!(v.path_info(0, 2), (2, 10.0));
        assert_eq!(v.path_info(0, 1), (1, 100.0));
        assert!(v.fully_reachable());
    }

    #[test]
    fn disconnected_topology_gives_infinite_mp_time() {
        let m = build_dlrm(&DlrmConfig::shared());
        let s = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, 4);
        let mut g = topoopt_graph::Graph::new(4);
        g.add_bidi_edge(0, 1, 100.0e9); // servers 2, 3 are isolated
        let v = TopologyView::from_graph(&g, 4);
        let est = estimate_iteration_time(&m, &s, &v, &ComputeParams::default());
        assert!(est.mp_s.is_infinite());
    }

    #[test]
    fn pair_factors_slow_relayed_mp_and_unit_factors_change_nothing() {
        let m = build_dlrm(&DlrmConfig::shared());
        let s = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, 8);
        let g = topologies::from_permutations(8, &[1, 3], 25.0e9);
        let p = ComputeParams::default();
        let base = estimate_iteration_time(&m, &s, &TopologyView::from_graph(&g, 8), &p);

        let unit = vec![vec![1.0; 8]; 8];
        let unit_view = TopologyView::from_graph(&g, 8).with_pair_factors(unit);
        let same = estimate_iteration_time(&m, &s, &unit_view, &p);
        assert_eq!(base, same, "unit factors must not change the estimate");

        // Heavy kernel penalty on every pair: MP time grows, the rest stays.
        let taxed = vec![vec![0.05; 8]; 8];
        let taxed_view = TopologyView::from_graph(&g, 8).with_pair_factors(taxed);
        let slow = estimate_iteration_time(&m, &s, &taxed_view, &p);
        assert!(slow.mp_s > base.mp_s, "{} vs {}", slow.mp_s, base.mp_s);
        assert_eq!(slow.compute_s, base.compute_s);
        assert_eq!(slow.allreduce_s, base.allreduce_s);

        // Factor 0 = no logical connection: the strategy is infeasible.
        let cut = vec![vec![0.0; 8]; 8];
        let cut_view = TopologyView::from_graph(&g, 8).with_pair_factors(cut);
        let dead = estimate_iteration_time(&m, &s, &cut_view, &p);
        assert!(dead.mp_s.is_infinite());
    }

    #[test]
    fn more_bandwidth_means_faster_allreduce() {
        let m = build_model(ModelKind::Vgg16, ModelPreset::Dedicated);
        let s = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let p = ComputeParams::default();
        let slow = estimate_iteration_time(
            &m,
            &s,
            &TopologyView::FullMesh { n: 16, per_server_bps: 10.0e9 },
            &p,
        );
        let fast = estimate_iteration_time(
            &m,
            &s,
            &TopologyView::FullMesh { n: 16, per_server_bps: 400.0e9 },
            &p,
        );
        assert!(slow.allreduce_s > 5.0 * fast.allreduce_s);
        assert_eq!(slow.compute_s, fast.compute_s);
        assert!(slow.total_s > fast.total_s);
    }

    #[test]
    fn hybrid_dlrm_beats_pure_data_parallel_on_low_bandwidth() {
        // The §2.1 motivation: on a modest network, pure data parallelism of
        // a huge-embedding DLRM is far slower than the hybrid strategy.
        let m = build_dlrm(&DlrmConfig::motivating_example());
        let view = TopologyView::FullMesh { n: 16, per_server_bps: 100.0e9 };
        let p = ComputeParams::default();
        let dp = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let hybrid = ParallelizationStrategy::meta_dlrm_example(&m, 16);
        let t_dp = estimate_iteration_time(&m, &dp, &view, &p);
        let t_hy = estimate_iteration_time(&m, &hybrid, &view, &p);
        assert!(
            t_hy.total_s < t_dp.total_s / 2.0,
            "hybrid {} vs dp {}",
            t_hy.total_s,
            t_dp.total_s
        );
    }

    #[test]
    fn direct_topology_with_more_nics_beats_single_nic() {
        let m = build_model(ModelKind::Candle, ModelPreset::Shared);
        let s = ParallelizationStrategy::pure_data_parallel(&m, 16);
        let p = ComputeParams::default();
        let d1 = topologies::from_permutations(16, &[1], 25.0e9);
        let d4 = topologies::from_permutations(16, &[1, 3, 5, 7], 25.0e9);
        let t1 = estimate_iteration_time(&m, &s, &TopologyView::from_graph(&d1, 16), &p);
        let t4 = estimate_iteration_time(&m, &s, &TopologyView::from_graph(&d4, 16), &p);
        assert!(t4.allreduce_s < t1.allreduce_s);
    }

    #[test]
    fn compute_dominates_for_resnet() {
        // ResNet50 is compute-bound (Figure 11f: all fabrics similar).
        let m = build_model(ModelKind::ResNet50, ModelPreset::Dedicated);
        let s = ParallelizationStrategy::pure_data_parallel(&m, 128);
        let p = ComputeParams::default();
        let est = estimate_iteration_time(
            &m,
            &s,
            &TopologyView::FullMesh { n: 128, per_server_bps: 100.0e9 },
            &p,
        );
        assert!(est.compute_s > est.allreduce_s);
    }
}
