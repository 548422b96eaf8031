//! Output digest: FNV-1a over the bit patterns of a workload's simulated
//! outputs, so two commits (or two thread counts) can be compared exactly.

/// Running 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one 64-bit word in, byte by byte.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold a float in by its exact bit pattern.
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// Fold a count or index in.
    pub fn count(&mut self, n: usize) -> &mut Self {
        self.word(n as u64)
    }

    /// The hash so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit() {
        let a = Digest::default().float(1.0).value();
        let b = Digest::default().float(f64::from_bits(1.0f64.to_bits() + 1)).value();
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().float(1.0).value());
    }
}
