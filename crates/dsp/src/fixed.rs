//! Fixed-point helpers shared by the converter and DDS models.
//!
//! The FPGA framework operates on integer sample codes (14-bit ADC, 16-bit
//! DAC, 32-bit DDS phase accumulator). These helpers implement the
//! quantisation and wrap-around arithmetic of that world, with explicit
//! saturation semantics matching real converter front-ends.

/// Quantise a real value in `[-full_scale, +full_scale)` to a signed code of
/// `bits` bits, saturating at the rails (converter-style clipping).
#[inline]
pub fn quantize(value: f64, full_scale: f64, bits: u32) -> i32 {
    debug_assert!((2..=31).contains(&bits));
    debug_assert!(full_scale > 0.0);
    let max_code = (1i64 << (bits - 1)) - 1;
    let min_code = -(1i64 << (bits - 1));
    let scaled = round_half_away(value / full_scale * (max_code as f64 + 1.0));
    scaled.clamp(min_code, max_code) as i32
}

/// `x.round() as i64` without the libm call `f64::round` lowers to on the
/// x86-64 baseline target. The saturating cast truncates toward zero (NaN
/// to 0); below 2^63 in magnitude the truncated value is exact, so the
/// fraction `x - t` is exact and a single ±1 adjust rounds half away from
/// zero. At and beyond the `i64` range the cast saturates and the adjust
/// saturates with it, as the rounded cast would. The adjust is computed
/// without a branch: on converter samples the fraction is as likely above
/// as below one half, so a branch mispredicts on a large share of calls.
#[inline]
fn round_half_away(x: f64) -> i64 {
    let t = x as i64;
    let frac = x - t as f64;
    t.saturating_add(i64::from(frac >= 0.5) - i64::from(frac <= -0.5))
}

/// Reconstruct a real value from a signed `bits`-bit code (ideal DAC).
/// Multiplying by the power-of-two reciprocal is exact, so this equals the
/// division by `2^(bits-1)` bit for bit.
#[inline]
pub fn dequantize(code: i32, full_scale: f64, bits: u32) -> f64 {
    debug_assert!((2..=31).contains(&bits));
    let recip = 1.0 / (1i64 << (bits - 1)) as f64;
    f64::from(code) * recip * full_scale
}

/// One LSB of a `bits`-bit converter with the given full scale.
#[inline]
pub fn lsb(full_scale: f64, bits: u32) -> f64 {
    full_scale / (1i64 << (bits - 1)) as f64
}

/// A wrapping phase accumulator of `bits` bits — the core of every DDS.
///
/// The accumulator maps the full `2^bits` range onto one signal period, so
/// frequency resolution is `f_clk / 2^bits` and phase arithmetic wraps for
/// free, exactly like the hardware register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAccumulator {
    /// Current accumulator value (wraps modulo 2^bits).
    pub acc: u64,
    /// Per-clock increment (frequency tuning word).
    pub increment: u64,
    bits: u32,
}

impl PhaseAccumulator {
    /// New accumulator with the given width in bits (≤ 63).
    pub fn new(bits: u32) -> Self {
        assert!((8..=63).contains(&bits), "accumulator width out of range");
        Self {
            acc: 0,
            increment: 0,
            bits,
        }
    }

    /// Set the frequency tuning word for `freq` Hz at clock `f_clk` Hz.
    pub fn set_frequency(&mut self, freq: f64, f_clk: f64) {
        assert!(
            freq >= 0.0 && freq < f_clk / 2.0,
            "frequency out of Nyquist range"
        );
        self.increment = (freq / f_clk * self.span()).round() as u64 & self.mask();
    }

    /// Actual synthesised frequency (Hz) after tuning-word rounding.
    pub fn actual_frequency(&self, f_clk: f64) -> f64 {
        self.increment as f64 / self.span() * f_clk
    }

    /// Advance one clock; returns the *pre-increment* phase in turns [0, 1).
    #[inline]
    pub fn tick(&mut self) -> f64 {
        self.tick_raw() as f64 / self.span()
    }

    /// Advance one clock; returns the *pre-increment* accumulator value.
    #[inline]
    pub(crate) fn tick_raw(&mut self) -> u64 {
        let acc = self.acc;
        self.acc = (acc + self.increment) & self.mask();
        acc
    }

    /// Advance `k` clocks at once: `acc += k·increment` modulo `2^bits`,
    /// the same value `k` calls of [`Self::tick_raw`] leave.
    #[inline]
    pub(crate) fn advance(&mut self, k: u64) {
        self.acc = self.acc.wrapping_add(k.wrapping_mul(self.increment)) & self.mask();
    }

    /// Add a (possibly negative) phase offset in turns, wrapping.
    pub fn add_phase_turns(&mut self, turns: f64) {
        let span = self.span();
        let delta = (turns.rem_euclid(1.0) * span) as u64;
        self.acc = (self.acc + delta) & self.mask();
    }

    /// Reset the accumulator phase to zero (the synchronised DDS reset the
    /// mini control system performs in Fig. 4).
    pub fn reset(&mut self) {
        self.acc = 0;
    }

    #[inline]
    fn mask(&self) -> u64 {
        (1u64 << self.bits) - 1
    }

    /// `2^bits` (exact: `bits` ≤ 63).
    #[inline]
    fn span(&self) -> f64 {
        (1u64 << self.bits) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The rounding `quantize` used before its exact fast path.
    fn reference_round(x: f64) -> i64 {
        x.round() as i64
    }

    fn assert_rounds_like_f64_round(x: f64) {
        assert_eq!(
            round_half_away(x),
            reference_round(x),
            "x = {x:e} ({:#018x})",
            x.to_bits()
        );
    }

    #[test]
    fn round_half_away_matches_f64_round_on_edge_cases() {
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1e300,
            -1e300,
            i64::MAX as f64,
            i64::MIN as f64,
        ];
        // Neighbours of the powers of two where the fraction bits run out
        // (2^52, 2^53) and where the i64 cast starts to saturate (2^63).
        for e in [51, 52, 53, 62, 63, 64] {
            let p = 2.0f64.powi(e);
            for x in [p, -p] {
                for d in -3i64..=3 {
                    cases.push(f64::from_bits((x.to_bits() as i64 + d) as u64));
                }
                cases.push(x + 0.5);
                cases.push(x - 0.5);
            }
        }
        for x in cases {
            assert_rounds_like_f64_round(x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any bit pattern: NaNs, infinities, subnormals, huge magnitudes.
        #[test]
        fn round_half_away_matches_on_random_bits(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(round_half_away(x), reference_round(x), "x = {:e}", x);
        }

        /// The converter range, where the fraction decides the code, and
        /// exact ties n + 1/2 across 2^40 codes.
        #[test]
        fn round_half_away_matches_on_code_values(x in -40_000.0f64..40_000.0, n in any::<u64>()) {
            prop_assert_eq!(round_half_away(x), reference_round(x), "x = {:e}", x);
            let tie = (n >> 24) as f64 - 2.0f64.powi(39) + 0.5;
            prop_assert_eq!(round_half_away(tie), reference_round(tie), "tie = {:e}", tie);
        }

        /// End to end through `quantize` and `dequantize` for every width.
        #[test]
        fn quantize_matches_the_rounded_formula(v in -2.5f64..2.5, bits in 2u32..32, fs in 0.1f64..4.0) {
            let max_code = (1i64 << (bits - 1)) - 1;
            let min_code = -(1i64 << (bits - 1));
            let want = reference_round(v / fs * (max_code as f64 + 1.0)).clamp(min_code, max_code);
            let code = quantize(v, fs, bits);
            prop_assert_eq!(i64::from(code), want);
            let back = f64::from(code) / (1i64 << (bits - 1)) as f64 * fs;
            prop_assert_eq!(dequantize(code, fs, bits).to_bits(), back.to_bits());
        }
    }

    #[test]
    fn quantize_zero_is_zero() {
        assert_eq!(quantize(0.0, 1.0, 14), 0);
    }

    #[test]
    fn quantize_saturates_at_rails() {
        assert_eq!(quantize(2.0, 1.0, 14), 8191);
        assert_eq!(quantize(-2.0, 1.0, 14), -8192);
    }

    #[test]
    fn quantize_roundtrip_error_below_lsb() {
        let fs = 1.0;
        for i in 0..1000 {
            let v = (i as f64 / 1000.0) * 1.9 - 0.95;
            let code = quantize(v, fs, 14);
            let back = dequantize(code, fs, 14);
            assert!((back - v).abs() <= lsb(fs, 14), "v={v}");
        }
    }

    #[test]
    fn lsb_of_14_bit_2vpp() {
        // FMC151: ±1 V on 14 bits → LSB ≈ 122 µV.
        let l = lsb(1.0, 14);
        assert!((l - 1.0 / 8192.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_frequency_resolution() {
        let mut acc = PhaseAccumulator::new(32);
        acc.set_frequency(800e3, 250e6);
        let f = acc.actual_frequency(250e6);
        // 32-bit accumulator at 250 MHz: resolution ≈ 0.058 Hz.
        assert!((f - 800e3).abs() < 0.06, "f = {f}");
    }

    #[test]
    fn accumulator_phase_advances_linearly() {
        let mut acc = PhaseAccumulator::new(32);
        acc.set_frequency(1.0, 8.0); // period = 8 clocks
        let phases: Vec<f64> = (0..8).map(|_| acc.tick()).collect();
        for (i, p) in phases.iter().enumerate() {
            assert!((p - i as f64 / 8.0).abs() < 1e-9);
        }
        // Wrapped around after a full period.
        assert!(acc.tick() < 1e-9);
    }

    #[test]
    fn phase_offset_wraps() {
        let mut acc = PhaseAccumulator::new(32);
        acc.add_phase_turns(0.75);
        acc.add_phase_turns(0.5);
        let p = acc.tick();
        assert!((p - 0.25).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn negative_phase_offset() {
        let mut acc = PhaseAccumulator::new(32);
        acc.add_phase_turns(-0.25);
        let p = acc.tick();
        assert!((p - 0.75).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn reset_clears_phase() {
        let mut acc = PhaseAccumulator::new(32);
        acc.set_frequency(1e6, 250e6);
        for _ in 0..1000 {
            acc.tick();
        }
        acc.reset();
        assert_eq!(acc.acc, 0);
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn rejects_above_nyquist() {
        let mut acc = PhaseAccumulator::new(32);
        acc.set_frequency(200e6, 250e6);
    }
}
