//! Collective communication algorithms and their traffic models.
//!
//! The paper's key observation (§4.3) is that AllReduce traffic is *mutable*:
//! the set of nodes participating in an AllReduce can be relabelled by any
//! permutation without changing correctness or completion time, which lets
//! TopoOpt overlap several ring permutations to serve AllReduce traffic while
//! also shortening paths for model-parallel transfers.
//!
//! This crate models the collectives the paper uses:
//!
//! * [`ring`] — ring-AllReduce (the default inter-server collective), +p
//!   regular ring permutations (Figure 7), and multi-ring load balancing.
//! * [`tree`] — tree-AllReduce and the double binary tree of Appendix A.

pub mod ring;
pub mod tree;

pub use ring::{multi_ring_traffic, ring_allreduce_traffic, RingPermutation};
pub use tree::{double_binary_tree, tree_allreduce_traffic, DoubleBinaryTree};
