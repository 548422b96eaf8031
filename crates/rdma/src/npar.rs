//! NPAR (network partitioning): one physical interface, two logical
//! interfaces.

use serde::{Deserialize, Serialize};

/// Which logical partition of a physical port a packet is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NparPartition {
    /// `if1`: the RDMA-capable interface with an IP address; traffic to it
    /// is consumed by the NIC's RDMA engine (kernel bypass).
    Rdma,
    /// `if2`: the forwarding interface without an IP; traffic to its MAC is
    /// delivered to the host kernel for relaying.
    Forwarding,
}
