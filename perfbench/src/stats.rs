//! Order statistics over raw samples and a bit-exact trace digest.
//!
//! Every percentile the benchmark reports is computed here from the raw
//! samples it measured — never from the telemetry's log2 histograms, whose
//! quantiles are only good to a factor of two.

use cil_core::harness::LoopTrace;

/// Percentile `q` (0..=1) of `samples` by linear interpolation between the
/// closest ranks (the same rule as numpy's default). Panics on an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// FNV-1a over 64-bit words: equal digests mean bit-identical outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }

    /// Fold every recorded series of a loop trace, plus its event and
    /// outcome shape, into the digest.
    pub fn trace(&mut self, trace: &LoopTrace) {
        self.floats(&trace.times);
        for col in &trace.bunch_phase_deg {
            self.floats(col);
        }
        self.floats(&trace.mean_phase_deg);
        self.floats(&trace.control_hz);
        self.floats(&trace.jump_times);
        self.word(trace.events.len() as u64);
        self.word(u64::from(trace.survived()));
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Digest of one loop trace.
pub fn trace_digest(trace: &LoopTrace) -> u64 {
    let mut d = Digest::default();
    d.trace(trace);
    d.value()
}

/// Deterministic generator for the seeded workload inputs (splitmix64).
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn seeded_inputs_repeat() {
        let draw = |seed| {
            let mut r = SeedRng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        let mut r = SeedRng::new(1);
        assert!((0..1000).all(|_| (5..=9).contains(&r.range(5, 9))));
    }
}
