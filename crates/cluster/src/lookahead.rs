//! Active / Look-ahead port provisioning (Appendix C).
//!
//! Patch panels take minutes to reconfigure, so a shared TopoOpt cluster
//! splits every server interface through an inexpensive 1×2 mechanical
//! switch into an *Active* port (carrying the current job's topology) and a
//! *Look-ahead* port (pre-wired with the next job's topology while the
//! current job trains). When the next job is ready, every 1×2 switch flips
//! sides — a microsecond-scale operation — and the roles swap.

use serde::{Deserialize, Serialize};

/// A per-step rewiring schedule for one patch-panel transition, as produced
/// by a migration planner (or the single-opaque-step atomic fallback).
/// Offsets are cumulative completion times measured from the moment wiring
/// starts on the look-ahead bank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionSchedule {
    /// Completion offset of each rewiring step, in seconds from wiring
    /// start, non-decreasing. Atomic transitions carry exactly one entry:
    /// the full opaque rewiring time.
    pub step_offsets_s: Vec<f64>,
    /// True when the schedule came from a migration planner (per-link
    /// steps), false for the opaque atomic swap.
    pub planned: bool,
    /// When the planner could not sequence the migration safely, the name
    /// and detail of the hard policy that forced the fallback to atomic.
    pub fallback: Option<String>,
}

impl TransitionSchedule {
    /// The opaque atomic swap: one step covering the full rewiring.
    pub fn atomic(total_s: f64) -> Self {
        TransitionSchedule { step_offsets_s: vec![total_s], planned: false, fallback: None }
    }

    /// A planner-produced per-step schedule.
    pub fn planned(step_offsets_s: Vec<f64>) -> Self {
        TransitionSchedule { step_offsets_s, planned: true, fallback: None }
    }

    /// Total rewiring time (the last step's completion offset).
    pub fn total_s(&self) -> f64 {
        self.step_offsets_s.last().copied().unwrap_or(0.0)
    }
}

/// The realized account of one patch-panel transition: the schedule that
/// was executed, when wiring started, and how much rewiring the admitted
/// job actually waited for (the part not hidden behind queueing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionRecord {
    /// Absolute simulation time at which look-ahead wiring started.
    pub wiring_started_s: f64,
    /// The executed schedule (atomic or planned).
    pub schedule: TransitionSchedule,
    /// Switch-over delay the job paid at flip time: the portion of the
    /// schedule not hidden behind the job's queue wait.
    pub residual_s: f64,
}

/// State of the dual-sided provisioning for one cluster: how much wiring
/// the look-ahead bank still needs before the 1×2 switches can flip.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LookaheadProvisioner {
    /// Remaining seconds of patch-panel rewiring for the look-ahead bank
    /// (0 once it is fully wired).
    provisioning_remaining_s: f64,
    /// Number of flips performed so far.
    pub flips: usize,
}

impl LookaheadProvisioner {
    /// Start wiring the next job's topology on the look-ahead bank, taking
    /// `total_s` seconds: the opaque full rewire, or the total of a
    /// migration planner's per-step schedule. A total that is not positive
    /// (NaN included) leaves the bank ready at once.
    pub fn start_provisioning_for(&mut self, total_s: f64) {
        // A comparison, not `max`: `(-0.0f64).max(0.0)` may keep the sign.
        self.provisioning_remaining_s = if total_s > 0.0 { total_s } else { 0.0 };
    }

    /// Advance wall-clock time (the robot keeps rewiring while the current
    /// job trains).
    pub fn advance(&mut self, dt_s: f64) {
        if self.provisioning_remaining_s > 0.0 {
            self.provisioning_remaining_s = (self.provisioning_remaining_s - dt_s).max(0.0);
        }
    }

    /// Switch-over delay the next job observes if it starts now: the
    /// remaining rewiring time, zero when the look-ahead bank is ready.
    pub fn switch_over_delay(&self) -> f64 {
        self.provisioning_remaining_s
    }

    /// Flip the 1×2 switches: the look-ahead bank becomes active. Returns
    /// the delay incurred (0 when pre-provisioning finished in time).
    pub fn flip(&mut self) -> f64 {
        let delay = self.switch_over_delay();
        self.provisioning_remaining_s = 0.0;
        self.flips += 1;
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A provisioner with an explicit ready flag beside the remaining time,
    /// set whenever that time reaches zero: the oracle the one-field state
    /// must replay bit for bit.
    #[derive(Default)]
    struct FlaggedProvisioner {
        lookahead_ready: bool,
        provisioning_remaining_s: f64,
        flips: usize,
    }

    impl FlaggedProvisioner {
        fn start_provisioning_for(&mut self, total_s: f64) {
            self.lookahead_ready = total_s <= 0.0;
            self.provisioning_remaining_s = total_s.max(0.0);
        }

        fn advance(&mut self, dt_s: f64) {
            if self.provisioning_remaining_s > 0.0 {
                self.provisioning_remaining_s = (self.provisioning_remaining_s - dt_s).max(0.0);
                if self.provisioning_remaining_s == 0.0 {
                    self.lookahead_ready = true;
                }
            }
        }

        fn switch_over_delay(&self) -> f64 {
            if self.lookahead_ready {
                0.0
            } else {
                self.provisioning_remaining_s
            }
        }

        fn flip(&mut self) -> f64 {
            let delay = self.switch_over_delay();
            self.lookahead_ready = false;
            self.provisioning_remaining_s = 0.0;
            self.flips += 1;
            delay
        }
    }

    /// Degenerate totals and time steps the random sequences draw from
    /// besides ordinary sampled ones.
    const SPECIAL: [f64; 7] =
        [0.0, -0.0, -30.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE];

    proptest! {
        #[test]
        fn one_field_provisioner_replays_the_flagged_one(
            ops in proptest::collection::vec((0usize..3, 0usize..14, 0.0f64..600.0), 1..40)
        ) {
            let mut p = LookaheadProvisioner::default();
            let mut oracle = FlaggedProvisioner::default();
            for (kind, pick, sampled) in ops {
                let x = SPECIAL.get(pick).copied().unwrap_or(sampled);
                match kind {
                    0 => {
                        p.start_provisioning_for(x);
                        oracle.start_provisioning_for(x);
                    }
                    1 => {
                        p.advance(x);
                        oracle.advance(x);
                    }
                    _ => prop_assert_eq!(p.flip().to_bits(), oracle.flip().to_bits()),
                }
                prop_assert_eq!(
                    p.switch_over_delay().to_bits(),
                    oracle.switch_over_delay().to_bits()
                );
                prop_assert_eq!(p.flips, oracle.flips);
            }
        }
    }

    #[test]
    fn pre_provisioned_flip_is_free() {
        let mut p = LookaheadProvisioner::default();
        p.start_provisioning_for(300.0);
        assert_eq!(p.switch_over_delay(), 300.0);
        p.advance(400.0); // the current job trained long enough
        assert_eq!(p.switch_over_delay(), 0.0);
        let delay = p.flip();
        assert_eq!(delay, 0.0);
        assert_eq!(p.flips, 1);
    }

    #[test]
    fn early_flip_pays_remaining_rewiring_time() {
        let mut p = LookaheadProvisioner::default();
        p.start_provisioning_for(300.0);
        p.advance(100.0);
        assert!((p.switch_over_delay() - 200.0).abs() < 1e-9);
        let delay = p.flip();
        assert!((delay - 200.0).abs() < 1e-9);
    }

    #[test]
    fn scheduled_provisioning_overrides_the_opaque_total() {
        let mut p = LookaheadProvisioner::default();
        // A planned migration that only needs 40s of rewiring instead of
        // the full 300s rewire.
        let schedule = TransitionSchedule::planned(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(schedule.step_offsets_s.len(), 4);
        assert!((schedule.total_s() - 40.0).abs() < 1e-12);
        p.start_provisioning_for(schedule.total_s());
        p.advance(25.0);
        assert!((p.switch_over_delay() - 15.0).abs() < 1e-9);
        let delay = p.flip();
        assert!((delay - 15.0).abs() < 1e-9);
    }

    #[test]
    fn atomic_schedule_is_one_opaque_step() {
        let s = TransitionSchedule::atomic(300.0);
        assert_eq!(s.step_offsets_s.len(), 1);
        assert!((s.total_s() - 300.0).abs() < 1e-12);
        assert!(!s.planned);
        assert!(s.fallback.is_none());
        assert_eq!(TransitionSchedule::planned(vec![]).total_s(), 0.0);
    }

    #[test]
    fn zero_length_schedule_is_immediately_ready() {
        let mut p = LookaheadProvisioner::default();
        p.start_provisioning_for(0.0);
        assert_eq!(p.switch_over_delay(), 0.0);
        assert_eq!(p.flip(), 0.0);
    }

    #[test]
    fn banks_alternate_across_flips() {
        // Every flip swaps the banks, so the flip count's parity names the
        // active one.
        let mut p = LookaheadProvisioner::default();
        for expect in [1usize, 0, 1, 0] {
            p.start_provisioning_for(1.0);
            p.advance(2.0);
            assert_eq!(p.flip(), 0.0);
            assert_eq!(p.flips % 2, expect);
        }
        assert_eq!(p.flips, 4);
    }
}
