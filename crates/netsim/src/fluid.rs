//! Max-min fair fluid flow simulation.
//!
//! Rates are assigned by progressive water-filling: repeatedly find the most
//! constrained link (smallest equal share for its not-yet-frozen flows),
//! freeze those flows at that rate, subtract their consumption, and repeat.
//!
//! Since the event-driven refactor, [`simulate_flows`] is a thin wrapper
//! over [`crate::engine::FluidEngine`], which advances from event to event
//! (flow arrival, flow completion) and re-waterfills only the connected
//! component of links/flows an event touches. The original from-scratch
//! event loop is kept as [`simulate_flows_reference`]: it is the oracle
//! for the engine's equivalence proptests and the baseline of the `fluid`
//! Criterion bench. Both allocators share `waterfill_slices`, so any fix
//! to the rate allocation applies to both.

use crate::engine::FluidEngine;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use topoopt_graph::Graph;

/// A directed server pair, the key under which parallel physical links are
/// aggregated by the fluid model.
pub type LinkKey = (usize, usize);

/// Bytes below which a flow counts as complete (forgives float residue, and
/// matches the legacy loop's completion threshold).
pub(crate) const COMPLETION_EPS_BYTES: f64 = 1e-9;

/// One flow to simulate: `bytes` moving along the fixed node `path`.
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
    /// Earliest start time in seconds (0 for flows active from the start).
    pub start_s: f64,
    /// Kernel-relay throughput multiplier of the flow's logical connection
    /// (§6 / Appendix I): when `< 1.0`, the flow's rate is capped at
    /// `relay_factor ×` the minimum link capacity along its path, modelling
    /// relayed hops that cross the host kernel instead of the NIC's RDMA
    /// engine. `1.0` (the default) means a NIC-offloaded direct circuit —
    /// no cap beyond ordinary max-min sharing.
    pub relay_factor: f64,
}

impl FlowSpec {
    /// Convenience constructor for a flow starting at time zero.
    pub fn new(path: Vec<usize>, bytes: f64) -> Self {
        // lint:allow(panic-in-engine): API-boundary validation of the
        // caller's path — not reachable from the event loop.
        let src = *path.first().expect("path must not be empty");
        // lint:allow(panic-in-engine): API-boundary validation of the
        // caller's path — not reachable from the event loop.
        let dst = *path.last().expect("path must not be empty");
        FlowSpec { src, dst, bytes, path, start_s: 0.0, relay_factor: 1.0 }
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

/// Progressive-filling max-min fair allocation (bits per second) with
/// per-flow rate caps.
///
/// `active` holds arbitrary flow ids, `paths[k]` is the node path of
/// `active[k]`, and `relay_factors[k]` its kernel-relay throughput
/// multiplier: a factor `< 1.0` caps the flow's rate at `factor ×` its
/// path's minimum link capacity (see [`FlowSpec::relay_factor`]); factors
/// `>= 1.0` impose no cap, reproducing the classic algorithm exactly. Links
/// missing from `capacity` count as zero-capacity, so flows routed over
/// them receive rate 0. Link iteration uses ordered maps and capped flows
/// freeze lowest-cap-first (ties by position), making the allocation fully
/// deterministic. Shared by the incremental engine and the from-scratch
/// reference loop.
pub(crate) fn waterfill_slices(
    capacity: &BTreeMap<LinkKey, f64>,
    active: &[usize],
    paths: &[&[usize]],
    relay_factors: &[f64],
) -> HashMap<usize, f64> {
    debug_assert_eq!(active.len(), paths.len());
    debug_assert_eq!(active.len(), relay_factors.len());
    // Absolute rate caps: relayed logical connections cannot exceed their
    // penalty share of the path bottleneck even when alone on the fabric.
    // Fabrics without relay overhead (every factor >= 1.0 — all switched
    // baselines) skip the cap bookkeeping entirely, so the classic
    // algorithm's hot path pays nothing for the feature.
    let any_capped = relay_factors.iter().any(|&f| f < 1.0);
    let caps: Vec<f64> = if !any_capped {
        Vec::new()
    } else {
        paths
            .iter()
            .zip(relay_factors)
            .map(|(path, &f)| {
                if f >= 1.0 {
                    f64::INFINITY
                } else {
                    let bottleneck = path
                        .windows(2)
                        .map(|w| capacity.get(&(w[0], w[1])).cloned().unwrap_or(0.0))
                        .fold(f64::INFINITY, f64::min);
                    if bottleneck.is_finite() {
                        f.max(0.0) * bottleneck
                    } else {
                        f64::INFINITY // zero-hop path: never rated anyway
                    }
                }
            })
            .collect()
    };
    let mut rates: HashMap<usize, f64> = HashMap::new();
    // Which links each active flow uses, by position in `active`. A path
    // revisiting a link registers once per traversal, so the flow counts
    // once per crossing in the link's fair share.
    let mut flows_on_link: BTreeMap<LinkKey, Vec<usize>> = BTreeMap::new();
    for (pos, path) in paths.iter().enumerate() {
        for w in path.windows(2) {
            flows_on_link.entry((w[0], w[1])).or_default().push(pos);
        }
    }
    let mut residual: BTreeMap<LinkKey, f64> = BTreeMap::new();
    let mut unfixed_count: BTreeMap<LinkKey, usize> = BTreeMap::new();
    for (link, fs) in &flows_on_link {
        let cap = capacity.get(link).cloned().unwrap_or(0.0);
        residual.insert(*link, cap);
        unfixed_count.insert(*link, fs.len());
    }

    let mut fixed = vec![false; active.len()];
    let mut remaining_flows = active.len();
    while remaining_flows > 0 {
        // Find the most constrained link: min residual / #unfixed flows.
        let mut best: Option<(LinkKey, f64)> = None;
        for (link, &count) in &unfixed_count {
            if count == 0 {
                continue;
            }
            // lint:allow(panic-in-engine): `residual` and `unfixed_count` were
            // built over the same link set a screenful above.
            let share = residual[link] / count as f64;
            if best.map(|(_, b)| share < b).unwrap_or(true) {
                best = Some((*link, share));
            }
        }
        // Find the most constrained per-flow rate cap.
        let mut best_cap: Option<(usize, f64)> = None;
        for (pos, &cap) in caps.iter().enumerate() {
            if fixed[pos] || cap.is_infinite() {
                continue;
            }
            if best_cap.map(|(_, b)| cap < b).unwrap_or(true) {
                best_cap = Some((pos, cap));
            }
        }
        // A capped flow freezes at its cap when that is *strictly* below
        // the bottleneck fair share (ties defer to link freezing, so
        // uncapped runs retrace the classic algorithm exactly); its
        // consumption is then subtracted like any frozen flow's.
        if let Some((pos, cap)) = best_cap {
            let link_share = best.map(|(_, s)| s.max(0.0)).unwrap_or(f64::INFINITY);
            if cap < link_share {
                let cap = cap.max(0.0);
                rates.insert(active[pos], cap);
                fixed[pos] = true;
                remaining_flows -= 1;
                for w in paths[pos].windows(2) {
                    let key = (w[0], w[1]);
                    if let Some(r) = residual.get_mut(&key) {
                        *r = (*r - cap).max(0.0);
                    }
                    if let Some(c) = unfixed_count.get_mut(&key) {
                        *c = c.saturating_sub(1);
                    }
                }
                continue;
            }
        }
        let Some((bottleneck, share)) = best else {
            // Remaining flows traverse no known links (shouldn't happen);
            // give them zero.
            for (pos, &id) in active.iter().enumerate() {
                if !fixed[pos] {
                    rates.insert(id, 0.0);
                }
            }
            break;
        };
        let share = share.max(0.0);
        // Freeze every unfixed flow crossing the bottleneck at `share`.
        let frozen: Vec<usize> =
            // lint:allow(panic-in-engine): the bottleneck was selected from
            // `unfixed_count`, which mirrors `flows_on_link`'s key set.
            flows_on_link[&bottleneck].iter().cloned().filter(|&pos| !fixed[pos]).collect();
        for pos in frozen {
            if fixed[pos] {
                continue; // listed twice on the bottleneck (path revisit)
            }
            rates.insert(active[pos], share);
            fixed[pos] = true;
            remaining_flows -= 1;
            // Subtract its consumption from every link it crosses.
            for w in paths[pos].windows(2) {
                let key = (w[0], w[1]);
                if let Some(r) = residual.get_mut(&key) {
                    *r = (*r - share).max(0.0);
                }
                if let Some(c) = unfixed_count.get_mut(&key) {
                    *c = c.saturating_sub(1);
                }
            }
        }
    }
    rates
}

/// From-scratch reference simulator: the pre-engine event loop that re-runs
/// full water-filling over *all* active flows at every completion event.
///
/// Kept as the correctness oracle for the incremental engine (see the
/// equivalence proptests in `tests/engine.rs`) and as the baseline of the
/// `fluid` Criterion bench. Prefer [`simulate_flows`] everywhere else.
pub fn simulate_flows_reference(
    graph: &Graph,
    flows: &[FlowSpec],
    per_hop_latency_s: f64,
) -> FluidResult {
    let capacity = link_capacities(graph);
    let n_flows = flows.len();
    let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes.max(0.0)).collect();
    let mut completion = vec![0.0f64; n_flows];
    let mut done: Vec<bool> = remaining.iter().map(|&b| b <= 0.0).collect();
    let mut link_bytes: BTreeMap<(usize, usize), f64> = BTreeMap::new();

    // Flows with zero hops complete immediately (local transfers).
    for (i, f) in flows.iter().enumerate() {
        if f.hops() == 0 {
            done[i] = true;
            completion[i] = f.start_s;
        }
    }

    let mut now = 0.0f64;
    let mut guard = 0usize;
    let max_events = 4 * n_flows + 16;
    while done.iter().any(|&d| !d) && guard < max_events {
        guard += 1;
        // Active = started and not done. Advance `now` to the next start if
        // nothing is active yet.
        let mut active: Vec<usize> =
            (0..n_flows).filter(|&i| !done[i] && flows[i].start_s <= now + 1e-15).collect();
        if active.is_empty() {
            let next_start = (0..n_flows)
                .filter(|&i| !done[i])
                .map(|i| flows[i].start_s)
                .fold(f64::INFINITY, f64::min);
            if !next_start.is_finite() {
                break;
            }
            now = next_start;
            active =
                (0..n_flows).filter(|&i| !done[i] && flows[i].start_s <= now + 1e-15).collect();
        }

        let paths: Vec<&[usize]> = active.iter().map(|&i| flows[i].path.as_slice()).collect();
        let factors: Vec<f64> = active.iter().map(|&i| flows[i].relay_factor).collect();
        let rates = waterfill_slices(&capacity, &active, &paths, &factors);

        // Time to the earliest of: an active flow finishing, or a pending
        // flow starting.
        let mut dt = f64::INFINITY;
        for &i in &active {
            // lint:allow(panic-in-engine): waterfill_slices returns a rate for
            // every active flow by construction.
            let r = rates[&i];
            if r > 0.0 {
                dt = dt.min(remaining[i] * 8.0 / r);
            }
        }
        let next_start = (0..n_flows)
            .filter(|&i| !done[i] && flows[i].start_s > now + 1e-15)
            .map(|i| flows[i].start_s - now)
            .fold(f64::INFINITY, f64::min);
        dt = dt.min(next_start);
        if !dt.is_finite() || dt <= 0.0 {
            // No progress possible (e.g. a flow with zero-rate on a
            // zero-capacity path). Mark stuck flows done with infinite time.
            for &i in &active {
                // lint:allow(panic-in-engine): waterfill_slices returns a rate for
                // every active flow by construction.
                if rates[&i] <= 0.0 {
                    done[i] = true;
                    completion[i] = f64::INFINITY;
                }
            }
            continue;
        }

        // Advance.
        for &i in &active {
            // lint:allow(panic-in-engine): waterfill_slices returns a rate for
            // every active flow by construction.
            let r = rates[&i];
            let sent = r * dt / 8.0;
            let sent = sent.min(remaining[i]);
            remaining[i] -= sent;
            for w in flows[i].path.windows(2) {
                *link_bytes.entry((w[0], w[1])).or_insert(0.0) += sent;
            }
            if remaining[i] <= COMPLETION_EPS_BYTES {
                done[i] = true;
                completion[i] = now + dt + per_hop_latency_s * flows[i].hops() as f64;
            }
        }
        now += dt;
    }

    // Anything still unfinished after the guard (shouldn't happen) is marked
    // at the current time.
    for i in 0..n_flows {
        if !done[i] {
            completion[i] = f64::INFINITY;
        }
    }

    // Summed in ascending link order, like the engine (see `crate::arena`).
    let carried = link_bytes.values().sum();
    let demand: f64 = flows.iter().map(|f| if f.hops() > 0 { f.bytes } else { 0.0 }).sum();
    let makespan = completion.iter().cloned().filter(|c| c.is_finite()).fold(0.0, f64::max);
    FluidResult {
        completion_s: completion,
        makespan_s: makespan,
        link_bytes,
        carried_bytes: carried,
        demand_bytes: demand,
    }
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
    fn dead_links_waterfill_to_zero_never_nan() {
        // Fault injection stalls flows on zero-capacity links instead of
        // dropping them, so the fair-share division `0 / count` must come
        // out as rate 0 — never NaN or a negative share — and flows whose
        // relay cap is `factor × 0` must freeze at exactly 0.
        let mut capacity: BTreeMap<LinkKey, f64> = BTreeMap::new();
        capacity.insert((0, 1), 100.0);
        capacity.insert((1, 2), 0.0); // failed link (capacity zeroed)
                                      // (2, 3) is intentionally absent: missing links count as dead.
        let (p0, p1, p2, p3): (&[usize], &[usize], &[usize], &[usize]) =
            (&[0, 1], &[0, 1, 2], &[2, 3], &[0, 1, 2]);
        let rates = waterfill_slices(
            &capacity,
            &[7, 8, 9, 10],
            &[p0, p1, p2, p3],
            // Flow 10's cap is 0.5 × its zero bottleneck = 0.
            &[1.0, 1.0, 1.0, 0.5],
        );
        for (&id, &r) in &rates {
            assert!(r.is_finite() && r >= 0.0, "flow {id}: rate {r} must be finite and >= 0");
        }
        assert_eq!(rates[&8], 0.0, "flow over the zeroed link stalls");
        assert_eq!(rates[&9], 0.0, "flow over the missing link stalls");
        assert_eq!(rates[&10], 0.0, "relay-capped flow over the zeroed link stalls");
        // Stalled flows consume nothing, so the healthy flow still gets the
        // full 100 bps of its link.
        assert!((rates[&7] - 100.0).abs() < 1e-9);
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
    fn delayed_start_is_respected() {
        let g = line(&[100.0]);
        let mut f1 = FlowSpec::new(vec![0, 1], 100.0);
        f1.start_s = 5.0;
        let r = simulate_flows(&g, &[f1], 0.0);
        assert!((r.completion_s[0] - 13.0).abs() < 1e-6);
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
        let reference = simulate_flows_reference(&g, &f, 0.0);
        assert!((reference.completion_s[0] - 16.0).abs() < 1e-9);
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
        let reference = simulate_flows_reference(&g, &f, 0.0);
        for (a, b) in r.completion_s.iter().zip(&reference.completion_s) {
            assert!((a - b).abs() < 1e-9);
        }
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

    #[test]
    fn reference_loop_matches_engine_on_contended_case() {
        let g = line(&[100.0, 10.0]);
        let mut f2 = FlowSpec::new(vec![0, 1], 90.0);
        f2.start_s = 2.0;
        let flows = vec![FlowSpec::new(vec![0, 1, 2], 10.0), f2];
        let a = simulate_flows(&g, &flows, 0.0);
        let b = simulate_flows_reference(&g, &flows, 0.0);
        for (x, y) in a.completion_s.iter().zip(&b.completion_s) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
        assert!((a.carried_bytes - b.carried_bytes).abs() < 1e-6);
    }
}
