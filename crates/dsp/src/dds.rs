//! Direct digital synthesis — the signal source of the experimental setup.
//!
//! The paper's testbed uses three synchronised DDS modules (Fig. 4) driven by
//! the BuTiS campus clock; the reference DDS "generates a sine wave that
//! follows the revolution frequency set values in an undisturbed way"
//! (Section IV-B). This model is a classic phase-accumulator + sine-LUT DDS
//! with run-time frequency/phase control and synchronised reset.

use crate::fixed::PhaseAccumulator;

/// A direct digital synthesiser producing one sample per clock tick.
#[derive(Debug, Clone)]
pub struct Dds {
    accumulator: PhaseAccumulator,
    /// `2^lut_bits` sine entries plus a copy of entry 0, so the
    /// interpolation partner of the last entry needs no wrap.
    lut: Box<[f64]>,
    lut_bits: u32,
    amplitude: f64,
    f_clk: f64,
    /// Output mute (injected fault): the accumulator keeps running — as a
    /// real DDS with a failed output stage would — but the analogue output
    /// is zero.
    dropout: bool,
}

impl Dds {
    /// New DDS with a 32-bit phase accumulator and a `2^lut_bits`-entry sine
    /// table, clocked at `f_clk` Hz.
    pub fn new(f_clk: f64, lut_bits: u32) -> Self {
        assert!((4..=20).contains(&lut_bits), "LUT size out of range");
        let n = 1usize << lut_bits;
        let lut: Box<[f64]> = (0..=n)
            .map(|i| (std::f64::consts::TAU * (i % n) as f64 / n as f64).sin())
            .collect();
        Self {
            accumulator: PhaseAccumulator::new(32),
            lut,
            lut_bits,
            amplitude: 1.0,
            f_clk,
            dropout: false,
        }
    }

    /// Standard instance for the paper's setup: 250 MHz clock, 4096-entry
    /// table.
    pub fn standard(f_clk: f64) -> Self {
        Self::new(f_clk, 12)
    }

    /// Set the output frequency in Hz (set-value interface).
    pub fn set_frequency(&mut self, freq: f64) {
        self.accumulator.set_frequency(freq, self.f_clk);
    }

    /// Actual synthesised frequency after tuning-word rounding.
    pub fn actual_frequency(&self) -> f64 {
        self.accumulator.actual_frequency(self.f_clk)
    }

    /// Set the peak output amplitude (volts).
    pub fn set_amplitude(&mut self, amplitude: f64) {
        assert!(amplitude >= 0.0);
        self.amplitude = amplitude;
    }

    /// Jump the output phase by `deg` degrees (the AWG/CEL phase-jump path
    /// of the evaluation acts here).
    pub fn jump_phase_deg(&mut self, deg: f64) {
        self.accumulator.add_phase_turns(deg / 360.0);
    }

    /// Synchronised phase reset (the "mini control system" resetting all
    /// DDS modules simultaneously, Section V).
    pub fn sync_reset(&mut self) {
        self.accumulator.reset();
    }

    /// Current phase in turns [0, 1) without advancing.
    pub fn phase_turns(&self) -> f64 {
        self.accumulator.acc as f64 / 2.0_f64.powi(32)
    }

    /// Inject or clear an output dropout. While set, [`Self::tick`] returns
    /// 0 V but the phase accumulator keeps advancing, so clearing the fault
    /// resumes the waveform phase-continuously.
    pub fn set_dropout(&mut self, dropout: bool) {
        self.dropout = dropout;
    }

    /// Whether an output dropout is currently injected.
    pub fn dropout(&self) -> bool {
        self.dropout
    }

    /// Produce the next sample (volts) and advance one clock.
    #[inline]
    pub fn tick(&mut self) -> f64 {
        let acc = self.accumulator.tick_raw();
        if self.dropout {
            return 0.0;
        }
        self.sample_at(acc)
    }

    /// Fill `out` with the samples the next `out.len()` ticks would produce,
    /// without advancing; [`Self::advance`] then commits the ones used.
    pub fn peek_fill(&self, out: &mut [f64]) {
        if self.dropout {
            out.fill(0.0);
            return;
        }
        let mut acc = self.accumulator;
        for o in out {
            *o = self.sample_at(acc.tick_raw());
        }
    }

    /// Advance `k` clocks at once, exactly as `k` ticks would.
    pub fn advance(&mut self, k: u64) {
        self.accumulator.advance(k);
    }

    /// Output voltage at accumulator value `acc`. Linear interpolation
    /// between adjacent LUT entries keeps spurs far below the 14-bit ADC
    /// floor.
    #[inline]
    fn sample_at(&self, acc: u64) -> f64 {
        let (idx, frac) = self.lut_position(acc);
        self.amplitude * (self.lut[idx] * (1.0 - frac) + self.lut[idx + 1] * frac)
    }

    /// LUT index and interpolation fraction of a 32-bit accumulator value:
    /// its top `lut_bits` bits and the remaining low bits scaled to [0, 1).
    /// Both are exact, so they equal the float form `idx_f = acc / 2^32 ·
    /// 2^lut_bits`, `frac = idx_f − ⌊idx_f⌋` bit for bit.
    #[inline]
    fn lut_position(&self, acc: u64) -> (usize, f64) {
        let shift = 32 - self.lut_bits;
        let idx = (acc >> shift) as usize & ((1usize << self.lut_bits) - 1);
        let frac = (acc & ((1u64 << shift) - 1)) as f64 * (1.0 / (1u64 << shift) as f64);
        (idx, frac)
    }

    /// Sample clock frequency, Hz.
    pub fn f_clk(&self) -> f64 {
        self.f_clk
    }

    /// Snapshot the dynamic state (accumulator position + tuning word,
    /// amplitude, dropout flag). The sine LUT is pure configuration and is
    /// rebuilt, not captured.
    pub fn state(&self) -> DdsState {
        DdsState {
            acc: self.accumulator.acc,
            increment: self.accumulator.increment,
            amplitude: self.amplitude,
            dropout: self.dropout,
        }
    }

    /// Restore a state captured by [`Self::state`].
    pub fn restore(&mut self, state: &DdsState) {
        self.accumulator.acc = state.acc;
        self.accumulator.increment = state.increment;
        self.amplitude = state.amplitude;
        self.dropout = state.dropout;
    }
}

/// Checkpointable state of a [`Dds`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdsState {
    /// Phase accumulator value.
    pub acc: u64,
    /// Tuning word (per-tick accumulator increment).
    pub increment: u64,
    /// Peak output amplitude, volts.
    pub amplitude: f64,
    /// Output-dropout fault flag.
    pub dropout: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The float LUT addressing `tick` used before its integer fast path.
    fn float_position(acc: u64, lut_bits: u32) -> (usize, f64) {
        let phase = acc as f64 / 2.0_f64.powi(32);
        let idx_f = phase * (1u64 << lut_bits) as f64;
        let idx = idx_f as usize & ((1usize << lut_bits) - 1);
        (idx, idx_f - idx_f.floor())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Integer index and fraction equal the float formula for every
        /// table size, on random and on boundary accumulator values.
        #[test]
        fn lut_position_matches_the_float_formula(lut_bits in 4u32..21, acc in any::<u32>(), low in 0u64..4) {
            let dds = Dds::new(250e6, lut_bits);
            let shift = 32 - lut_bits;
            let edge = (u64::from(acc) >> shift << shift) + low;
            for a in [u64::from(acc), edge, edge.wrapping_sub(2 * low) & 0xFFFF_FFFF] {
                let (idx, frac) = dds.lut_position(a);
                let (want_idx, want_frac) = float_position(a, lut_bits);
                prop_assert_eq!(idx, want_idx, "acc {:#x}, lut_bits {}", a, lut_bits);
                prop_assert_eq!(frac.to_bits(), want_frac.to_bits(), "acc {:#x}, lut_bits {}", a, lut_bits);
            }
        }

        /// `peek_fill` yields exactly the samples the next ticks produce,
        /// and `advance(k)` leaves exactly the state `k` ticks leave,
        /// muted or not and across the 2^32 accumulator wrap.
        #[test]
        fn peek_and_advance_match_ticks(
            f_mhz in 0.01f64..124.0,
            amp in 0.0f64..2.0,
            start in any::<u32>(),
            near_wrap in any::<bool>(),
            dropout in any::<bool>(),
            lens in prop::collection::vec(0usize..300, 1..6),
            used_fracs in prop::collection::vec(0.0f64..1.0, 6),
        ) {
            let mut block = Dds::standard(250e6);
            block.set_frequency(f_mhz * 1e6);
            block.set_amplitude(amp);
            block.set_dropout(dropout);
            let inc = block.state().increment;
            block.accumulator.acc = if near_wrap {
                // Just below the wrap, so the first run crosses it.
                (1u64 << 32) - 1 - u64::from(start) % (inc * 64 + 1)
            } else {
                u64::from(start)
            };
            let mut ticked = block.clone();
            for (len, used_frac) in lens.into_iter().zip(used_fracs) {
                let mut peeked = vec![0.0; len];
                block.peek_fill(&mut peeked);
                let mut ahead = ticked.clone();
                for (i, v) in peeked.iter().enumerate() {
                    prop_assert_eq!(v.to_bits(), ahead.tick().to_bits(), "sample {} of {}", i, len);
                }
                let used = (used_frac * len as f64) as u64;
                block.advance(used);
                for _ in 0..used {
                    ticked.tick();
                }
                prop_assert_eq!(block.state(), ticked.state());
            }
        }

        /// Whole samples equal the float-addressed interpolation.
        #[test]
        fn tick_matches_the_float_formula(lut_bits in 4u32..21, f_mhz in 0.01f64..120.0, amp in 0.0f64..2.0, start in any::<u32>()) {
            let mut dds = Dds::new(250e6, lut_bits);
            dds.set_frequency(f_mhz * 1e6);
            dds.set_amplitude(amp);
            dds.accumulator.acc = u64::from(start);
            let n = 1usize << lut_bits;
            for _ in 0..64 {
                let acc = dds.accumulator.acc;
                let (idx, frac) = float_position(acc, lut_bits);
                let next = (idx + 1) & (n - 1);
                let want = amp * (dds.lut[idx] * (1.0 - frac) + dds.lut[next] * frac);
                prop_assert_eq!(dds.tick().to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn dds_produces_requested_frequency() {
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(800e3);
        // Count positive zero crossings over 1 ms = 800 periods.
        let samples = 250_000;
        let mut crossings = 0;
        let mut last = dds.tick();
        for _ in 0..samples {
            let s = dds.tick();
            if last < 0.0 && s >= 0.0 {
                crossings += 1;
            }
            last = s;
        }
        assert!(
            (crossings as i64 - 800).abs() <= 1,
            "crossings = {crossings}"
        );
    }

    #[test]
    fn amplitude_scales_output() {
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(1e6);
        dds.set_amplitude(0.5);
        let max = (0..1000).map(|_| dds.tick()).fold(f64::MIN, f64::max);
        assert!((max - 0.5).abs() < 0.01);
    }

    #[test]
    fn sine_purity() {
        // RMS of a sine is A/sqrt(2); LUT interpolation keeps the error tiny.
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(2.5e6); // 100 samples per period
        let n = 100_000;
        let sum_sq: f64 = (0..n).map(|_| dds.tick().powi(2)).sum();
        let rms = (sum_sq / n as f64).sqrt();
        assert!((rms - 1.0 / 2.0_f64.sqrt()).abs() < 1e-3, "rms = {rms}");
    }

    #[test]
    fn phase_jump_shifts_waveform() {
        let mut a = Dds::standard(250e6);
        let mut b = Dds::standard(250e6);
        a.set_frequency(1e6);
        b.set_frequency(1e6);
        b.jump_phase_deg(90.0);
        // After a 90° jump, b leads a by a quarter period: b(t) = sin(x+π/2)=cos(x).
        let sa = a.tick();
        let sb = b.tick();
        assert!(sa.abs() < 1e-6, "a starts at sin(0)=0");
        assert!((sb - 1.0).abs() < 1e-6, "b starts at cos(0)=1");
    }

    #[test]
    fn sync_reset_aligns_two_modules() {
        let mut a = Dds::standard(250e6);
        let mut b = Dds::standard(250e6);
        // Use frequencies with an integer number of samples per period so
        // the check is exact up to tuning-word rounding.
        a.set_frequency(1e6);
        b.set_frequency(4e6);
        // Let them free-run out of alignment, then reset both.
        for _ in 0..12345 {
            a.tick();
            b.tick();
        }
        a.sync_reset();
        b.sync_reset();
        assert_eq!(a.phase_turns(), 0.0);
        assert_eq!(b.phase_turns(), 0.0);
        // Harmonic relationship: after one reference period both are at a
        // positive zero crossing again (h = 4).
        for _ in 0..250 {
            a.tick();
            b.tick();
        }
        let ap = a.phase_turns();
        assert!(
            !(1e-5..=1.0 - 1e-5).contains(&ap),
            "reference DDS phase = {ap}"
        );
        let bp = b.phase_turns();
        assert!(!(1e-4..=1.0 - 1e-4).contains(&bp), "gap DDS phase = {bp}");
    }

    #[test]
    fn negative_phase_jump() {
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(1e6);
        dds.jump_phase_deg(-90.0);
        let s = dds.tick();
        assert!((s + 1.0).abs() < 1e-6, "sin(-90°) = -1, got {s}");
    }

    #[test]
    fn dropout_mutes_but_keeps_phase() {
        let mut with_fault = Dds::standard(250e6);
        let mut clean = Dds::standard(250e6);
        with_fault.set_frequency(1e6);
        clean.set_frequency(1e6);
        // Mute for 100 samples: output is zero, accumulator still runs.
        with_fault.set_dropout(true);
        for _ in 0..100 {
            assert_eq!(with_fault.tick(), 0.0);
            clean.tick();
        }
        with_fault.set_dropout(false);
        // Phase-continuous resume: both modules agree exactly.
        for _ in 0..100 {
            assert_eq!(with_fault.tick(), clean.tick());
        }
    }

    #[test]
    fn tuning_word_rounding_reported() {
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(800e3);
        assert!((dds.actual_frequency() - 800e3).abs() < 0.06);
    }
}
