//! # TopoOpt — co-optimizing network topology and parallelization strategy
//!
//! A from-scratch Rust reproduction of *TopoOpt: Co-optimizing Network
//! Topology and Parallelization Strategy for Distributed Training Jobs*
//! (NSDI 2023). This facade crate re-exports the whole workspace so a
//! downstream user only needs one dependency:
//!
//! ```rust
//! use topoopt::prelude::*;
//!
//! // 1. Pick a DNN from the model zoo (§5.1, List 1 configurations).
//! let model = build_model(ModelKind::Dlrm, ModelPreset::Shared);
//!
//! // 2. Co-optimize the parallelization strategy and the topology for a
//! //    16-server job with 4 x 25 Gbps interfaces per server (§4).
//! let mut cfg = AlternatingConfig::new(4, 25.0e9);
//! cfg.max_rounds = 2;
//! cfg.mcmc.iterations = 50;
//! let result = co_optimize(&model, 16, &cfg);
//! assert!(result.network.graph.is_strongly_connected());
//!
//! // 3. Simulate a training iteration on the resulting fabric (§5).
//! let plans = AllReducePlan::from_groups(&result.network.groups);
//! let net = SimNetwork::new(result.network.graph.clone(), 16, result.network.routing.clone());
//! let iteration = simulate_iteration(
//!     &net,
//!     &result.demands,
//!     &plans,
//!     &IterationParams { compute_s: result.estimate.compute_s },
//! );
//! assert!(iteration.total_s.is_finite());
//! ```
//!
//! ## Workspace layout
//!
//! | Crate | Role |
//! |---|---|
//! | `topoopt-graph` | graphs, matching, paths, canonical topologies |
//! | `topoopt-models` | DNN model zoo (DLRM, CANDLE, BERT, NCF, ResNet-50, VGG) |
//! | `topoopt-collectives` | AllReduce rings and trees, ring permutations, traffic models |
//! | `topoopt-strategy` | FlexNet-style MCMC parallelization strategy search |
//! | `topoopt-core` | TotientPerms, SelectPermutations, TopologyFinder, CoinChangeMod, the OCS-reconfig circuit allocator (Algorithm 5), alternating optimization |
//! | `topoopt-netsim` | flow-level network simulator (dedicated, shared, OCS-reconfig baseline) |
//! | `topoopt-cost` | component prices and interconnect cost model |
//! | `topoopt-cluster` | sharding, look-ahead provisioning, job scheduling |
//! | `topoopt-rdma` | NPAR host-based RDMA forwarding model |
//! | `topoopt-migration` | safe patch-panel migrations between jobs (Snowcap-style) |
//! | `topoopt-workloads` | synthetic production traces, heatmaps, time-to-accuracy |
//!
//! See `README.md` for the workspace inventory, and `EXPERIMENTS.md` for
//! the paper-vs-measured results index (regenerate it with
//! `cargo run --release -p topoopt-bench --bin reproduce -- all --md`).

pub mod export;

pub use topoopt_cluster as cluster;
pub use topoopt_collectives as collectives;
pub use topoopt_core as core;
pub use topoopt_cost as cost;
pub use topoopt_graph as graph;
pub use topoopt_migration as migration;
pub use topoopt_models as models;
pub use topoopt_netsim as netsim;
pub use topoopt_rdma as rdma;
pub use topoopt_strategy as strategy;
pub use topoopt_workloads as workloads;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use crate::export::{CoOptimizationExport, ForwardingExport, TopologyExport};
    pub use topoopt_collectives::ring::RingPermutation;
    pub use topoopt_core::alternating::{co_optimize, AlternatingConfig, CoOptResult};
    pub use topoopt_core::coinchange::{coin_change_route, CoinChangeTable};
    pub use topoopt_core::ocs_reconfig::ocs_reconfig_topology;
    pub use topoopt_core::routing::Routing;
    pub use topoopt_core::select::{select_for_group, select_permutations};
    pub use topoopt_core::topology_finder::{
        topology_finder, TopologyFinderInput, TopologyFinderOutput,
    };
    pub use topoopt_core::totient::{euler_totient, totient_perms, TotientPermsConfig};
    pub use topoopt_cost::{equivalent_fat_tree_bandwidth, interconnect_cost, CostedArchitecture};
    pub use topoopt_graph::matching::MatchingAlgo;
    pub use topoopt_graph::{Graph, TrafficMatrix};
    pub use topoopt_migration::{MigrationPlanner, MigrationProblem, TreeSearch};
    pub use topoopt_models::{build_model, DnnModel, ModelKind, ModelPreset};
    pub use topoopt_netsim::{
        simulate_dynamic_cluster, simulate_iteration, simulate_reconfigurable_iteration,
        simulate_shared_cluster, AllReducePlan, DynamicClusterParams, DynamicEngineStats,
        DynamicFabric, DynamicJobSpec, FluidEngine, IterationParams, MigrationMode, ReconfigParams,
        SharedEngineMode, SimNetwork,
    };
    pub use topoopt_rdma::RepairMode;
    pub use topoopt_strategy::{
        estimate_iteration_time, extract_traffic, search_strategy, ComputeParams, McmcConfig,
        ParallelizationStrategy, TopologyView, TrafficDemands,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        let model = build_model(ModelKind::ResNet50, ModelPreset::Testbed);
        assert_eq!(model.name, "ResNet50");
        assert_eq!(euler_totient(12), 4);
        let g = Graph::new(4);
        assert_eq!(g.num_nodes(), 4);
    }
}
