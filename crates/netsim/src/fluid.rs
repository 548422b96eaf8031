//! Max-min fair fluid flow simulation.
//!
//! Rates are assigned by progressive water-filling: repeatedly find the most
//! constrained link (smallest equal share for its not-yet-frozen flows),
//! freeze those flows at that rate, subtract their consumption, and repeat.
//!
//! [`simulate_flows`] is a thin wrapper over [`crate::engine::FluidEngine`],
//! which starts every flow at time zero, advances from completion to
//! completion, and re-waterfills only the connected component of
//! links/flows an event touches, with the flat allocator
//! `arena::waterfill_ids_with`. The original from-scratch event loop and
//! its map-keyed allocator live in the dev-only `topoopt-oracle` crate
//! (`simulate_flows_reference`, `waterfill_slices`): they are the oracles
//! of the engine's equivalence proptests and the allocator's bit-identity
//! tests, and the baseline of the `fluid` and `scale` benches.

use crate::engine::FluidEngine;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use topoopt_graph::Graph;

/// A directed server pair, the key under which parallel physical links are
/// aggregated by the fluid model.
pub type LinkKey = (usize, usize);

/// Bytes below which a flow counts as complete (forgives float residue, and
/// matches the legacy loop's completion threshold).
pub(crate) const COMPLETION_EPS_BYTES: f64 = 1e-9;

/// One flow to simulate: `bytes` moving along the fixed node `path`,
/// starting with the rest of its round (§5: an iteration's transfers all
/// start together).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Source node (first element of `path`).
    pub src: usize,
    /// Destination node (last element of `path`).
    pub dst: usize,
    /// Flow size in bytes.
    pub bytes: f64,
    /// Node path, including both endpoints. Must contain at least two nodes
    /// for a non-empty flow.
    pub path: Vec<usize>,
    /// Kernel-relay throughput multiplier of the flow's logical connection
    /// (§6 / Appendix I): when `< 1.0`, the flow's rate is capped at
    /// `relay_factor ×` the minimum link capacity along its path, modelling
    /// relayed hops that cross the host kernel instead of the NIC's RDMA
    /// engine. `1.0` (the default) means a NIC-offloaded direct circuit —
    /// no cap beyond ordinary max-min sharing.
    pub relay_factor: f64,
}

impl FlowSpec {
    /// A flow along `path` with no relay penalty. It starts when it is
    /// added to an engine, at the engine's clock.
    pub fn new(path: Vec<usize>, bytes: f64) -> Self {
        // lint:allow(panic-in-engine): API-boundary validation of the
        // caller's path — not reachable from the event loop.
        let src = *path.first().expect("path must not be empty");
        // lint:allow(panic-in-engine): API-boundary validation of the
        // caller's path — not reachable from the event loop.
        let dst = *path.last().expect("path must not be empty");
        FlowSpec { src, dst, bytes, path, relay_factor: 1.0 }
    }

    /// Builder: attach a relay throughput factor (see
    /// [`FlowSpec::relay_factor`]).
    pub fn with_relay_factor(mut self, factor: f64) -> Self {
        self.relay_factor = factor;
        self
    }

    /// Number of physical hops the flow traverses.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Result of a fluid simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidResult {
    /// Per-flow completion time in seconds (same order as the input flows).
    pub completion_s: Vec<f64>,
    /// Time at which the last flow finished.
    pub makespan_s: f64,
    /// Bytes carried by each directed link, keyed by `(src, dst)` node pair
    /// (aggregated over parallel links).
    pub link_bytes: BTreeMap<(usize, usize), f64>,
    /// Total bytes traversing the network (sum over links) — the numerator
    /// of the bandwidth tax.
    pub carried_bytes: f64,
    /// Sum of flow sizes — the denominator of the bandwidth tax.
    pub demand_bytes: f64,
}

impl FluidResult {
    /// Bandwidth tax (§5.4): carried bytes (including forwarded traffic)
    /// divided by the logical demand. 1.0 means no forwarding overhead.
    pub fn bandwidth_tax(&self) -> f64 {
        if self.demand_bytes <= 0.0 {
            1.0
        } else {
            self.carried_bytes / self.demand_bytes
        }
    }

    /// Sorted per-link carried bytes (the CDF of Figure 15).
    pub fn link_traffic_cdf(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.link_bytes.values().cloned().collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Simulate `flows` on `graph` with max-min fair sharing and a fixed
/// per-hop propagation delay of `per_hop_latency_s` (added to each flow's
/// completion time).
///
/// This is a compatibility wrapper over the incremental
/// [`FluidEngine`]; construct the engine directly to stop at `run_until`
/// checkpoints or to inspect per-event statistics.
pub fn simulate_flows(graph: &Graph, flows: &[FlowSpec], per_hop_latency_s: f64) -> FluidResult {
    let mut engine = FluidEngine::new(graph, per_hop_latency_s);
    for flow in flows {
        engine.add_flow(flow.clone());
    }
    engine.run();
    engine.result()
}

/// Aggregate directed-link capacities of the graph, keyed by node pair.
pub(crate) fn link_capacities(graph: &Graph) -> BTreeMap<LinkKey, f64> {
    let mut caps: BTreeMap<LinkKey, f64> = BTreeMap::new();
    for (_, e) in graph.edges() {
        *caps.entry((e.src, e.dst)).or_insert(0.0) += e.capacity_bps;
    }
    caps
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_graph::Graph;

    fn line(capacities: &[f64]) -> Graph {
        let mut g = Graph::new(capacities.len() + 1);
        for (i, &c) in capacities.iter().enumerate() {
            g.add_edge(i, i + 1, c);
        }
        g
    }

    #[test]
    fn single_flow_uses_full_bottleneck() {
        // 0 -> 1 -> 2 with a 10 bps bottleneck on the second hop.
        let g = line(&[100.0, 10.0]);
        let f = vec![FlowSpec::new(vec![0, 1, 2], 10.0)]; // 80 bits
        let r = simulate_flows(&g, &f, 0.0);
        assert!((r.completion_s[0] - 8.0).abs() < 1e-6);
        assert!((r.makespan_s - 8.0).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let mut g = Graph::new(3);
        g.add_edge(0, 2, 100.0);
        g.add_edge(1, 2, 100.0);
        g.add_edge(2, 0, 100.0);
        // Both flows end at node 0 through the shared 2->0 link.
        let f = vec![FlowSpec::new(vec![1, 2, 0], 100.0), FlowSpec::new(vec![1, 2, 0], 100.0)];
        let r = simulate_flows(&g, &f, 0.0);
        // 800 bits each at 50 bps fair share = 16 s.
        assert!((r.completion_s[0] - 16.0).abs() < 1e-6);
        assert!((r.completion_s[1] - 16.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_gives_leftover_to_unconstrained_flow() {
        // Flow A crosses the 10 bps bottleneck; flow B only the 100 bps link,
        // so B gets 90 bps after A is frozen at 10.
        let g = line(&[100.0, 10.0]);
        let f = vec![
            FlowSpec::new(vec![0, 1, 2], 10.0), // 80 bits over both links
            FlowSpec::new(vec![0, 1], 90.0),    // 720 bits over first link only
        ];
        let r = simulate_flows(&g, &f, 0.0);
        assert!((r.completion_s[0] - 8.0).abs() < 1e-6);
        assert!((r.completion_s[1] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn forwarded_flow_pays_bandwidth_tax() {
        // A relay path of 3 hops carries the flow's bytes three times.
        let g = line(&[100.0, 100.0, 100.0]);
        let f = vec![FlowSpec::new(vec![0, 1, 2, 3], 50.0)];
        let r = simulate_flows(&g, &f, 0.0);
        assert!((r.bandwidth_tax() - 3.0).abs() < 1e-9);
        assert!((r.carried_bytes - 150.0).abs() < 1e-9);
    }

    #[test]
    fn per_hop_latency_is_added() {
        let g = line(&[100.0, 100.0]);
        let f = vec![FlowSpec::new(vec![0, 1, 2], 100.0)];
        let no_lat = simulate_flows(&g, &f, 0.0);
        let with_lat = simulate_flows(&g, &f, 0.5);
        assert!((with_lat.completion_s[0] - no_lat.completion_s[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_and_local_flows_complete_instantly() {
        let g = line(&[10.0]);
        let flows = vec![FlowSpec::new(vec![0, 1], 0.0), FlowSpec::new(vec![1], 100.0)];
        let r = simulate_flows(&g, &flows, 0.0);
        assert_eq!(r.completion_s[0], 0.0);
        assert_eq!(r.completion_s[1], 0.0);
    }

    #[test]
    fn unroutable_flow_reports_infinite_completion() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 10.0);
        // Path uses a non-existent reverse edge.
        let f = vec![FlowSpec::new(vec![1, 0], 10.0)];
        let r = simulate_flows(&g, &f, 0.0);
        assert!(r.completion_s[0].is_infinite());
    }

    #[test]
    fn link_bytes_account_every_hop() {
        let g = line(&[10.0, 10.0]);
        let f = vec![FlowSpec::new(vec![0, 1, 2], 20.0)];
        let r = simulate_flows(&g, &f, 0.0);
        assert!((r.link_bytes[&(0, 1)] - 20.0).abs() < 1e-6);
        assert!((r.link_bytes[&(1, 2)] - 20.0).abs() < 1e-6);
    }

    #[test]
    fn many_symmetric_flows_converge() {
        // 16-node ring, 16 neighbour flows: all complete at the same time.
        let mut g = Graph::new(16);
        for i in 0..16 {
            g.add_edge(i, (i + 1) % 16, 100.0);
        }
        let flows: Vec<FlowSpec> =
            (0..16).map(|i| FlowSpec::new(vec![i, (i + 1) % 16], 1000.0)).collect();
        let r = simulate_flows(&g, &flows, 0.0);
        let first = r.completion_s[0];
        assert!(first.is_finite());
        for c in &r.completion_s {
            assert!((c - first).abs() < 1e-6);
        }
    }

    #[test]
    fn link_traffic_cdf_handles_nan_without_panicking() {
        // total_cmp sorts NaN deterministically instead of panicking as the
        // old partial_cmp().unwrap() did.
        let mut r = FluidResult {
            completion_s: vec![],
            makespan_s: 0.0,
            link_bytes: BTreeMap::new(),
            carried_bytes: 0.0,
            demand_bytes: 0.0,
        };
        r.link_bytes.insert((0, 1), 5.0);
        r.link_bytes.insert((1, 2), f64::NAN);
        r.link_bytes.insert((2, 3), 1.0);
        let cdf = r.link_traffic_cdf();
        assert_eq!(cdf.len(), 3);
        assert!(cdf[0] <= cdf[1] || cdf[1].is_nan() || cdf[0].is_nan());
    }

    #[test]
    fn relay_factor_caps_a_lone_flow_below_the_bottleneck() {
        // 100 bytes over a 100 bps path, but one relayed hop at 50%
        // efficiency: the kernel caps the connection at 50 bps -> 16 s.
        let g = line(&[100.0, 100.0]);
        let f = vec![FlowSpec::new(vec![0, 1, 2], 100.0).with_relay_factor(0.5)];
        let r = simulate_flows(&g, &f, 0.0);
        assert!((r.completion_s[0] - 16.0).abs() < 1e-9);
    }

    #[test]
    fn capped_flow_leaves_headroom_to_uncapped_sharers() {
        // Two flows share a 100 bps link; A is relay-capped at 25 bps, so
        // max-min gives B the leftover 75 bps instead of a 50/50 split.
        let g = line(&[100.0]);
        let f = vec![
            FlowSpec::new(vec![0, 1], 100.0).with_relay_factor(0.25), // 800 bits @ 25 bps
            FlowSpec::new(vec![0, 1], 150.0),                         // 1200 bits @ 75 bps
        ];
        let r = simulate_flows(&g, &f, 0.0);
        assert!((r.completion_s[0] - 32.0).abs() < 1e-9);
        assert!((r.completion_s[1] - 16.0).abs() < 1e-9, "{}", r.completion_s[1]);
    }

    #[test]
    fn relay_factor_one_changes_nothing() {
        let g = line(&[100.0, 10.0]);
        let base = vec![FlowSpec::new(vec![0, 1, 2], 10.0), FlowSpec::new(vec![0, 1], 90.0)];
        let capped: Vec<FlowSpec> =
            base.iter().cloned().map(|f| f.with_relay_factor(1.0)).collect();
        assert_eq!(simulate_flows(&g, &base, 0.0), simulate_flows(&g, &capped, 0.0));
    }

    #[test]
    fn zero_relay_factor_means_no_logical_connection() {
        // Factor 0 models a pair the forwarding plan has no route for: the
        // flow is stuck at rate zero and reports infinite completion.
        let g = line(&[100.0]);
        let f = vec![FlowSpec::new(vec![0, 1], 10.0).with_relay_factor(0.0)];
        let r = simulate_flows(&g, &f, 0.0);
        assert!(r.completion_s[0].is_infinite());
    }
}
