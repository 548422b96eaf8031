//! Graph substrate for the TopoOpt reproduction.
//!
//! This crate provides the graph machinery every other layer builds on:
//!
//! * [`Graph`] — a directed multigraph with per-edge capacities, used to
//!   represent physical interconnects (each node is a server or ToR switch,
//!   each edge a fiber / NIC interface).
//! * [`matching`] — maximum-weight matching on general graphs, used by
//!   `TopologyFinder` (Algorithm 1, step 3) to build the model-parallel
//!   sub-topology.
//! * [`paths`] — BFS and k-shortest paths, diameter, and average path
//!   length.
//! * [`topologies`] — canonical interconnect builders: Fat-tree,
//!   oversubscribed Fat-tree, Expander (Jellyfish-style random regular graph),
//!   circulant, star (Ideal Switch), and direct-connect graphs assembled from
//!   ring permutations.
//! * [`traffic`] — dense traffic matrices (demand in bytes between node
//!   pairs) with heatmap export helpers.

pub mod graph;
pub mod matching;
pub mod paths;
pub mod topologies;
pub mod traffic;

pub use graph::{EdgeId, Graph, NodeId};
pub use matching::{maximum_weight_matching, MatchingAlgo};
pub use paths::{all_pairs_shortest_path_lengths, bfs_shortest_path, diameter, k_shortest_paths};
pub use traffic::TrafficMatrix;
