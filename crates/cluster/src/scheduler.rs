//! Shared-cluster job mix and load generation (§5.6).
//!
//! Following the paper (which follows Themis and Pollux): 40% of jobs are
//! DLRM, 30% BERT, 20% CANDLE and 10% VGG16, a fixed table; every job
//! requests 16 servers (64 GPUs) by default; 5 / 10 / 15 / 20 / 27 active
//! jobs represent 20–100% load on a 432-server cluster.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use topoopt_models::ModelKind;

/// The §5.6 model shares, in the order the remainder is sampled in.
const MIX: [(ModelKind, f64); 4] = [
    (ModelKind::Dlrm, 0.4),
    (ModelKind::Bert, 0.3),
    (ModelKind::Candle, 0.2),
    (ModelKind::Vgg16, 0.1),
];

/// The §5.6 job-mix model: the fixed 40/30/20/10 model shares, with a
/// configurable job size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixModel {
    /// Servers each job requests.
    pub servers_per_job: usize,
}

impl Default for MixModel {
    fn default() -> Self {
        MixModel { servers_per_job: 16 }
    }
}

/// One job request in the shared-cluster experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Which model the job trains.
    pub model: ModelKind,
    /// Number of servers requested.
    pub servers: usize,
}

/// Number of concurrently active jobs for a given load level on a cluster of
/// `total_servers` servers (§5.6 uses 5/10/15/20/27 jobs for 20–100% on 432
/// servers): at least one, unless not even one job fits.
pub fn jobs_for_load(total_servers: usize, servers_per_job: usize, load: f64) -> usize {
    let max_jobs = total_servers / servers_per_job.max(1);
    ((max_jobs as f64 * load).round() as usize).clamp(max_jobs.min(1), max_jobs)
}

/// Generate the job list for one load level, deterministically from `seed`,
/// with model shares as close to the mix as integer counts allow.
pub fn job_mix_for_load(
    mix: &MixModel,
    total_servers: usize,
    load: f64,
    seed: u64,
) -> Vec<JobRequest> {
    let count = jobs_for_load(total_servers, mix.servers_per_job, load);
    let mut rng = StdRng::seed_from_u64(seed);
    // Deterministic rounding: assign the guaranteed integer share of each
    // model first, then fill the remainder by sampling the mix.
    let mut jobs = Vec::with_capacity(count);
    for &(model, share) in &MIX {
        let k = (share * count as f64).floor() as usize;
        for _ in 0..k {
            jobs.push(JobRequest { model, servers: mix.servers_per_job });
        }
    }
    while jobs.len() < count {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        let mut model = ModelKind::Dlrm;
        for &(m, share) in &MIX {
            acc += share;
            if r <= acc {
                model = m;
                break;
            }
        }
        jobs.push(JobRequest { model, servers: mix.servers_per_job });
    }
    jobs
}

/// Deterministic Poisson-process arrival times for the dynamic
/// shared-cluster experiment: `count` cumulative exponential inter-arrival
/// gaps of mean `mean_gap_s`, seeded so trajectories are reproducible.
pub fn poisson_arrival_times(count: usize, mean_gap_s: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut times = Vec::with_capacity(count);
    let mut now = 0.0f64;
    for _ in 0..count {
        let u: f64 = rng.gen();
        // Inverse-CDF sampling; clamp away u = 1.0 to keep ln finite.
        now += -(1.0 - u.min(1.0 - 1e-12)).ln() * mean_gap_s.max(0.0);
        times.push(now);
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_sorted_deterministic_and_roughly_mean_spaced() {
        let a = poisson_arrival_times(500, 2.0, 9);
        let b = poisson_arrival_times(500, 2.0, 9);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = a.last().unwrap() / 500.0;
        assert!((mean_gap - 2.0).abs() < 0.5, "mean gap {mean_gap} far from 2.0");
        assert!(poisson_arrival_times(0, 1.0, 1).is_empty());
    }

    #[test]
    fn load_levels_match_paper_counts() {
        // 432 servers, 16 per job -> 27 jobs at 100%, ~5 at 20%.
        assert_eq!(jobs_for_load(432, 16, 1.0), 27);
        assert_eq!(jobs_for_load(432, 16, 0.2), 5);
        assert_eq!(jobs_for_load(432, 16, 0.4), 11);
        assert_eq!(jobs_for_load(432, 16, 0.6), 16);
        assert_eq!(jobs_for_load(432, 16, 0.8), 22);
    }

    #[test]
    fn mix_shares_are_respected_at_full_load() {
        let jobs = job_mix_for_load(&MixModel::default(), 432, 1.0, 7);
        assert_eq!(jobs.len(), 27);
        let dlrm = jobs.iter().filter(|j| j.model == ModelKind::Dlrm).count();
        let bert = jobs.iter().filter(|j| j.model == ModelKind::Bert).count();
        let vgg = jobs.iter().filter(|j| j.model == ModelKind::Vgg16).count();
        assert!(dlrm >= 10, "expected >= 40% DLRM, got {dlrm}/27");
        assert!(bert >= 8, "expected >= 30% BERT, got {bert}/27");
        assert!(vgg >= 2, "expected >= 10% VGG, got {vgg}/27");
        assert!(jobs.iter().all(|j| j.servers == 16));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = job_mix_for_load(&MixModel::default(), 432, 0.6, 3);
        let b = job_mix_for_load(&MixModel::default(), 432, 0.6, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn minimum_one_job_even_at_tiny_load() {
        assert_eq!(jobs_for_load(432, 16, 0.0), 1);
    }

    #[test]
    fn a_cluster_smaller_than_one_job_gets_no_jobs() {
        assert_eq!(jobs_for_load(8, 16, 1.0), 0);
        assert_eq!(jobs_for_load(0, 16, 0.5), 0);
        assert!(job_mix_for_load(&MixModel::default(), 8, 1.0, 7).is_empty());
    }
}
