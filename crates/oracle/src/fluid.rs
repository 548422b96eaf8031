//! The map-keyed water-filler and the from-scratch fluid event loop — the
//! pre-engine simulator `topoopt-netsim` was built from.

use std::collections::{BTreeMap, HashMap};
use topoopt_graph::Graph;
use topoopt_netsim::fluid::{FlowSpec, FluidResult, LinkKey};

/// Bytes below which a flow counts as complete (the engine's threshold).
const COMPLETION_EPS_BYTES: f64 = 1e-9;

/// Aggregate directed-link capacities of the graph, keyed by node pair.
fn link_capacities(graph: &Graph) -> BTreeMap<LinkKey, f64> {
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
/// deterministic. The allocator of [`simulate_flows_reference`], and the
/// map-keyed oracle netsim's flat `arena::waterfill_ids` is compared
/// against bit for bit.
pub fn waterfill_slices(
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
/// The correctness oracle for netsim's incremental engine (see the
/// equivalence proptests in `crates/netsim/tests/engine.rs`) and the
/// baseline of the `fluid` and `scale` benches. Everything else calls
/// `topoopt_netsim::simulate_flows`.
pub fn simulate_flows_reference(
    graph: &Graph,
    flows: &[FlowSpec],
    per_hop_latency_s: f64,
) -> FluidResult {
    let capacity = link_capacities(graph);
    let n_flows = flows.len();
    let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes.max(0.0)).collect();
    let mut completion = vec![0.0f64; n_flows];
    // Flows with zero bytes or zero hops (local transfers) complete
    // immediately; every other flow is active from time zero.
    let mut done: Vec<bool> =
        flows.iter().zip(&remaining).map(|(f, &b)| b <= 0.0 || f.hops() == 0).collect();
    let mut link_bytes: BTreeMap<(usize, usize), f64> = BTreeMap::new();

    let mut now = 0.0f64;
    let mut guard = 0usize;
    let max_events = 4 * n_flows + 16;
    while done.iter().any(|&d| !d) && guard < max_events {
        guard += 1;
        let active: Vec<usize> = (0..n_flows).filter(|&i| !done[i]).collect();
        let paths: Vec<&[usize]> = active.iter().map(|&i| flows[i].path.as_slice()).collect();
        let factors: Vec<f64> = active.iter().map(|&i| flows[i].relay_factor).collect();
        let rates = waterfill_slices(&capacity, &active, &paths, &factors);

        // Time to the earliest active flow finishing.
        let mut dt = f64::INFINITY;
        for &i in &active {
            let r = rates[&i];
            if r > 0.0 {
                dt = dt.min(remaining[i] * 8.0 / r);
            }
        }
        if !dt.is_finite() || dt <= 0.0 {
            // No progress possible (e.g. a flow with zero-rate on a
            // zero-capacity path). Mark stuck flows done with infinite time.
            for &i in &active {
                if rates[&i] <= 0.0 {
                    done[i] = true;
                    completion[i] = f64::INFINITY;
                }
            }
            continue;
        }

        // Advance.
        for &i in &active {
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
    // infinite.
    for i in 0..n_flows {
        if !done[i] {
            completion[i] = f64::INFINITY;
        }
    }

    // Summed in ascending link order, like the engine (see netsim's arena).
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
