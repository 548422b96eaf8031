//! Windowed simulation of a reconfigurable (OCS-reconfig) fabric.
//!
//! Following §5.1 and Appendix E.4: the controller measures the unsatisfied
//! demand every 50 ms window, computes new circuits with the
//! Algorithm 5 heuristic, pauses all flows for the reconfiguration latency,
//! and resumes. With host-based forwarding (OCS-reconfig-FW) multi-hop
//! relays are allowed between reconfigurations; without it
//! (OCS-reconfig-noFW) only directly connected pairs can exchange traffic,
//! so draining a high-communication-degree demand needs several
//! reconfiguration rounds.

use crate::engine::FluidEngine;
use crate::fluid::FlowSpec;
use crate::network::SimNetwork;
use serde::{Deserialize, Serialize};
use topoopt_core::ocs_reconfig::ocs_reconfig_topology;
use topoopt_graph::TrafficMatrix;
use topoopt_strategy::TrafficDemands;

/// Parameters of the reconfigurable-fabric simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReconfigParams {
    /// Interfaces per server.
    pub degree: usize,
    /// Per-interface bandwidth (bps).
    pub link_bps: f64,
    /// Reconfiguration latency in seconds (10 ms for commercial 3D-MEMS
    /// OCS, down to microseconds/nanoseconds for futuristic switches).
    pub reconfig_latency_s: f64,
    /// Enable host-based forwarding between reconfigurations
    /// (OCS-reconfig-FW vs -noFW).
    pub host_forwarding: bool,
    /// Compute time of the busiest server per iteration.
    pub compute_s: f64,
}

/// Demand-measurement window in seconds (50 ms in the paper).
const WINDOW_S: f64 = 50.0e-3;

/// Per-hop propagation latency in seconds.
const PER_HOP_LATENCY_S: f64 = 1.0e-6;

/// Safety cap on reconfiguration rounds per iteration.
const MAX_ROUNDS: usize = 256;

impl Default for ReconfigParams {
    fn default() -> Self {
        ReconfigParams {
            degree: 4,
            link_bps: 100.0e9,
            reconfig_latency_s: 10.0e-3,
            host_forwarding: true,
            compute_s: 0.0,
        }
    }
}

/// Result of simulating one iteration on the reconfigurable fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigResult {
    /// Communication time including all reconfiguration pauses.
    pub comm_s: f64,
    /// Total iteration time.
    pub total_s: f64,
    /// Number of reconfigurations performed.
    pub reconfigurations: usize,
    /// True if the demand could not be fully drained within the round cap.
    pub truncated: bool,
}

/// Merge a job's demands into one pairwise matrix: AllReduce groups are laid
/// on their natural +1 ring (the reconfigurable baseline is not
/// TotientPerms-aware), MP demand is added verbatim.
pub fn demand_matrix(demands: &TrafficDemands) -> TrafficMatrix {
    let n = demands.num_servers;
    let mut m = demands.mp.clone();
    for g in &demands.allreduce_groups {
        let k = g.members.len();
        if k < 2 {
            continue;
        }
        let per_node = 2.0 * g.bytes * (k as f64 - 1.0) / k as f64;
        for i in 0..k {
            m.add(g.members[i], g.members[(i + 1) % k], per_node);
        }
    }
    debug_assert_eq!(m.num_nodes(), n);
    m
}

/// Simulate one training iteration on an OCS-reconfigurable fabric.
pub fn simulate_reconfigurable_iteration(
    demands: &TrafficDemands,
    params: &ReconfigParams,
) -> ReconfigResult {
    let n = demands.num_servers;
    let mut residual = demand_matrix(demands);
    let mut comm_s = 0.0f64;
    let mut rounds = 0usize;
    let mut truncated = false;

    while residual.total() > 1.0 && rounds < MAX_ROUNDS {
        rounds += 1;
        // Reconfigure for the current residual demand.
        let topo = ocs_reconfig_topology(
            &residual,
            params.degree,
            params.link_bps,
            params.host_forwarding,
        );
        comm_s += params.reconfig_latency_s;

        let net = SimNetwork::without_rules(topo, n).with_host_forwarding(params.host_forwarding);

        // Build flows for the routable part of the residual demand.
        let mut flows: Vec<FlowSpec> = Vec::new();
        let mut flow_pairs: Vec<(usize, usize)> = Vec::new();
        for (src, dst, bytes) in residual.entries_desc() {
            if let Some(path) = net.path(src, dst) {
                flows.push(FlowSpec::new(path, bytes));
                flow_pairs.push((src, dst));
            }
        }
        if flows.is_empty() {
            // Nothing routable this round (can only happen without
            // forwarding); the next reconfiguration will pick other pairs —
            // but if the allocator is deterministic this would loop, so bail
            // out and report truncation.
            truncated = true;
            break;
        }

        // Run the engine for exactly one measurement window; its exact
        // per-flow residuals replace the old proportional-drain
        // approximation, so fast pairs finish early while slow pairs carry
        // their true backlog into the next reconfiguration round.
        let mut engine = FluidEngine::new(&net.graph, PER_HOP_LATENCY_S);
        let ids: Vec<usize> = flows.into_iter().map(|f| engine.add_flow(f)).collect();
        engine.run_until(WINDOW_S);
        if engine.drained() {
            // Everything routable drained within the window.
            comm_s += engine.makespan_so_far().min(WINDOW_S);
            for (k, &(src, dst)) in flow_pairs.iter().enumerate() {
                if engine.is_done(ids[k]) && engine.completion_s(ids[k]).is_finite() {
                    residual.set(src, dst, 0.0);
                }
            }
        } else {
            // Partial progress: every pair keeps its exact unsent bytes.
            comm_s += WINDOW_S;
            for (k, &(src, dst)) in flow_pairs.iter().enumerate() {
                let left = engine.remaining_bytes(ids[k]);
                residual.set(src, dst, if left < 1.0 { 0.0 } else { left });
            }
        }
    }
    if rounds >= MAX_ROUNDS && residual.total() > 1.0 {
        truncated = true;
    }

    ReconfigResult {
        comm_s,
        total_s: params.compute_s + comm_s,
        reconfigurations: rounds,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_models::zoo::build_dlrm;
    use topoopt_models::DlrmConfig;
    use topoopt_strategy::{extract_traffic, ParallelizationStrategy};

    fn dlrm_demands(n: usize) -> TrafficDemands {
        let m = build_dlrm(&DlrmConfig::shared());
        let s = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, n);
        extract_traffic(&m, &s, 4)
    }

    #[test]
    fn reconfiguration_latency_increases_iteration_time() {
        let demands = dlrm_demands(16);
        let fast = simulate_reconfigurable_iteration(
            &demands,
            &ReconfigParams { reconfig_latency_s: 1.0e-6, ..Default::default() },
        );
        let slow = simulate_reconfigurable_iteration(
            &demands,
            &ReconfigParams { reconfig_latency_s: 10.0e-3, ..Default::default() },
        );
        assert!(slow.comm_s > fast.comm_s);
        assert!(fast.reconfigurations >= 1);
    }

    #[test]
    fn forwarding_reduces_rounds_for_all_to_all_demand() {
        // All-to-all MP traffic has communication degree n-1 > d, so without
        // forwarding it needs several reconfigurations; with forwarding one
        // connected topology can carry everything (at a bandwidth tax).
        let demands = dlrm_demands(16);
        let fw = simulate_reconfigurable_iteration(
            &demands,
            &ReconfigParams { host_forwarding: true, ..Default::default() },
        );
        let nofw = simulate_reconfigurable_iteration(
            &demands,
            &ReconfigParams { host_forwarding: false, ..Default::default() },
        );
        assert!(nofw.reconfigurations >= fw.reconfigurations);
    }

    #[test]
    fn result_includes_compute_time() {
        let demands = dlrm_demands(8);
        let r = simulate_reconfigurable_iteration(
            &demands,
            &ReconfigParams { compute_s: 0.5, ..Default::default() },
        );
        assert!((r.total_s - r.comm_s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn demand_matrix_combines_allreduce_and_mp() {
        let demands = dlrm_demands(8);
        let m = demand_matrix(&demands);
        assert!(m.total() > demands.total_mp_bytes());
        assert!(m.total() > 0.0);
    }

    #[test]
    fn zero_demand_finishes_immediately() {
        let demands = TrafficDemands {
            num_servers: 4,
            allreduce_groups: vec![],
            mp: TrafficMatrix::new(4),
            samples_per_server: 1.0,
        };
        let r = simulate_reconfigurable_iteration(&demands, &ReconfigParams::default());
        assert_eq!(r.reconfigurations, 0);
        assert_eq!(r.comm_s, 0.0);
        assert!(!r.truncated);
    }
}
