//! Cluster management for shared TopoOpt deployments (§5.6, Appendix C).
//!
//! * [`shard`] — partition the cluster's servers into per-job shards.
//! * [`lookahead`] — the Active/Look-ahead dual-port provisioning scheme
//!   that hides patch-panel reconfiguration latency between jobs.
//! * [`scheduler`] — the §5.6 job mix (40% DLRM / 30% BERT / 20% CANDLE /
//!   10% VGG) and load-level generation.

pub mod lookahead;
pub mod scheduler;
pub mod shard;

pub use lookahead::{LookaheadProvisioner, TransitionRecord, TransitionSchedule};
pub use scheduler::{job_mix_for_load, jobs_for_load, poisson_arrival_times, JobRequest, MixModel};
pub use shard::ClusterShards;
