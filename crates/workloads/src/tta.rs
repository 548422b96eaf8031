//! Time-to-accuracy model (Figure 20).
//!
//! The testbed experiment trains VGG19 on ImageNet and reports top-5
//! accuracy against wall-clock time for three fabrics. Training throughput
//! differs per fabric; the accuracy-versus-epoch curve does not (the same
//! SGD trajectory is followed), so time-to-accuracy is the accuracy curve
//! composed with each fabric's epoch time.

use serde::{Deserialize, Serialize};

/// A saturating accuracy-vs-epoch curve `acc(e) = max · (1 - exp(-e/τ))`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyCurve {
    /// Asymptotic accuracy (e.g. 0.92 top-5 for VGG19/ImageNet).
    pub max_accuracy: f64,
    /// Epoch constant τ controlling how fast the curve saturates.
    pub tau_epochs: f64,
}

impl AccuracyCurve {
    /// The VGG19 / ImageNet top-5 curve used for Figure 20 (saturates above
    /// 90% within a few tens of epochs).
    pub fn vgg19_imagenet() -> Self {
        AccuracyCurve { max_accuracy: 0.93, tau_epochs: 12.0 }
    }

    /// Epochs needed to reach `target` accuracy (`None` if unreachable).
    pub fn epochs_to_accuracy(&self, target: f64) -> Option<f64> {
        if target >= self.max_accuracy {
            return None;
        }
        Some(-self.tau_epochs * (1.0 - target / self.max_accuracy).ln())
    }
}

/// Wall-clock hours to reach `target` accuracy given the fabric's training
/// throughput in samples/second and the dataset size in samples per epoch.
pub fn time_to_accuracy(
    curve: &AccuracyCurve,
    target: f64,
    samples_per_second: f64,
    samples_per_epoch: f64,
) -> Option<f64> {
    let epochs = curve.epochs_to_accuracy(target)?;
    let seconds = epochs * samples_per_epoch / samples_per_second;
    Some(seconds / 3600.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accuracy after `epochs` epochs: the curve `epochs_to_accuracy`
    /// inverts.
    fn accuracy_at(c: &AccuracyCurve, epochs: f64) -> f64 {
        c.max_accuracy * (1.0 - (-epochs / c.tau_epochs).exp())
    }

    #[test]
    fn accuracy_curve_saturates() {
        let c = AccuracyCurve::vgg19_imagenet();
        assert!(accuracy_at(&c, 0.0) < 1e-12);
        assert!(accuracy_at(&c, 5.0) < accuracy_at(&c, 20.0));
        assert!(accuracy_at(&c, 200.0) < c.max_accuracy + 1e-9);
        assert!(accuracy_at(&c, 200.0) > 0.92);
    }

    #[test]
    fn epochs_to_target_inverts_the_curve() {
        let c = AccuracyCurve::vgg19_imagenet();
        let e = c.epochs_to_accuracy(0.90).unwrap();
        assert!((accuracy_at(&c, e) - 0.90).abs() < 1e-9);
        assert!(c.epochs_to_accuracy(0.99).is_none());
    }

    #[test]
    fn faster_fabric_reaches_target_sooner_proportionally() {
        // Figure 20: TopoOpt (4x25G) reaches 90% top-5 ~2x faster than the
        // 25G switch baseline because its throughput is ~2x higher.
        let c = AccuracyCurve::vgg19_imagenet();
        let slow = time_to_accuracy(&c, 0.90, 400.0, 1.28e6).unwrap();
        let fast = time_to_accuracy(&c, 0.90, 800.0, 1.28e6).unwrap();
        assert!((slow / fast - 2.0).abs() < 1e-9);
        assert!(fast > 0.0);
    }
}
