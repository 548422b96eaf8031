//! Simulated host-based RDMA forwarding (§6, Appendix I).
//!
//! RDMA NICs silently drop RoCEv2 packets whose destination IP is not their
//! own, so a direct-connect fabric where hosts relay traffic needs the NPAR
//! (network partitioning) trick: each physical interface is split into a
//! normal RDMA logical interface (`if1`, kernel-bypassed, has an IP) and a
//! forwarding logical interface (`if2`, no IP, identified by MAC). Relay
//! servers install kernel rules (`iproute`/`arp`/`tc flower`) that match the
//! final destination IP and rewrite the next-hop MAC.
//!
//! This crate rebuilds that control plane in simulation: given a topology
//! and routing table it derives the per-server rule set, verifies that every
//! pair of servers has a working logical RDMA connection, and models the
//! relay overhead (forwarded hops traverse the kernel instead of the NIC's
//! RDMA engine).

pub mod forwarding;
pub mod npar;

pub use forwarding::{
    build_forwarding_plan, DegradedPair, ForwardingPlan, ForwardingRule, RepairMode, RepairReport,
    RuleConflict, WalkOutcome,
};
pub use npar::NparPartition;
