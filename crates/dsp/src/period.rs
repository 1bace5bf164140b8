//! Period-length detector (Section III-B / IV-B).
//!
//! Determines the frequency of the reference signal by measuring the number
//! of clock cycles between positive zero crossings, averaged over the past
//! four periods to reduce jitter ("the measured frequency is averaged over
//! the past four periods"). The width of the averaging window is a
//! parameter here so ablation A2 can sweep it.

use crate::zero_crossing::ZeroCrossingDetector;

/// Period-length detector with an N-period moving-average filter.
#[derive(Debug, Clone)]
pub struct PeriodLengthDetector {
    zcd: ZeroCrossingDetector,
    /// Most recent raw period measurements, in samples (fractional).
    history: Vec<f64>,
    /// Ring cursor into `history`.
    cursor: usize,
    /// Number of valid entries in `history`.
    filled: usize,
    last_crossing: Option<f64>,
}

impl PeriodLengthDetector {
    /// Detector averaging over `window` periods (the paper uses 4) with the
    /// given zero-crossing hysteresis threshold.
    pub fn new(window: usize, threshold: f64) -> Self {
        assert!(window >= 1, "window must be at least one period");
        Self {
            zcd: ZeroCrossingDetector::new(threshold),
            history: vec![0.0; window],
            cursor: 0,
            filled: 0,
            last_crossing: None,
        }
    }

    /// The paper's configuration: 4-period average.
    pub fn paper_default() -> Self {
        Self::new(4, 0.005)
    }

    /// Feed one reference-signal sample. Returns `Some(avg_period_samples)`
    /// whenever a new period measurement completes.
    #[inline]
    pub fn push(&mut self, sample: f64) -> Option<f64> {
        let t = self.zcd.push(sample)?;
        let result = if let Some(prev) = self.last_crossing {
            let period = t - prev;
            self.history[self.cursor] = period;
            self.cursor = (self.cursor + 1) % self.history.len();
            self.filled = (self.filled + 1).min(self.history.len());
            Some(self.average_period().unwrap())
        } else {
            None
        };
        self.last_crossing = Some(t);
        result
    }

    /// Feed samples up to and including the first one that completes a
    /// period, exactly as [`Self::push`] on each in turn: returns how many
    /// were consumed and that period's average (`None` when none completes
    /// and every sample was consumed). Samples after the stop are not drawn.
    pub fn push_until_period(
        &mut self,
        samples: impl IntoIterator<Item = f64>,
    ) -> (usize, Option<f64>) {
        let mut used = 0;
        for s in samples {
            used += 1;
            if let Some(avg) = self.push(s) {
                return (used, Some(avg));
            }
        }
        (used, None)
    }

    /// Average period over the filled window, in samples. `None` until the
    /// first full period has been measured.
    pub fn average_period(&self) -> Option<f64> {
        if self.filled == 0 {
            return None;
        }
        Some(
            self.history[..self.filled.max(1)]
                .iter()
                .take(self.filled)
                .sum::<f64>()
                / self.filled as f64,
        )
    }

    /// Measured frequency in Hz given the sample rate.
    pub fn frequency(&self, sample_rate: f64) -> Option<f64> {
        self.average_period().map(|p| sample_rate / p)
    }

    /// True once `window` periods have been accumulated — the kernel's
    /// "wait for a valid measurement of four full sine waves" condition.
    pub fn warmed_up(&self) -> bool {
        self.filled == self.history.len()
    }

    /// Access the inner zero-crossing detector (for crossing-relative
    /// addressing).
    pub fn zero_crossing(&self) -> &ZeroCrossingDetector {
        &self.zcd
    }

    /// Snapshot the complete detector state (including the nested
    /// zero-crossing detector) for checkpointing.
    pub fn state(&self) -> PeriodDetectorState {
        PeriodDetectorState {
            zcd: self.zcd.state(),
            history: self.history.clone(),
            cursor: self.cursor,
            filled: self.filled,
            last_crossing: self.last_crossing,
        }
    }

    /// Restore a state captured by [`Self::state`]. Fails (returns `false`)
    /// when the snapshot's window size does not match this detector's.
    pub fn restore(&mut self, state: &PeriodDetectorState) -> bool {
        if state.history.len() != self.history.len() || state.cursor >= self.history.len() {
            return false;
        }
        self.zcd.restore(&state.zcd);
        self.history.copy_from_slice(&state.history);
        self.cursor = state.cursor;
        self.filled = state.filled.min(self.history.len());
        self.last_crossing = state.last_crossing;
        true
    }
}

/// Checkpointable state of a [`PeriodLengthDetector`].
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodDetectorState {
    /// Nested zero-crossing detector state.
    pub zcd: crate::zero_crossing::ZeroCrossingState,
    /// Raw period history ring.
    pub history: Vec<f64>,
    /// Ring cursor.
    pub cursor: usize,
    /// Valid entries in the ring.
    pub filled: usize,
    /// Fractional sample time of the previous crossing.
    pub last_crossing: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `push_until_period` stops on exactly the sample at which
        /// per-sample pushes complete a period, returns the same average
        /// and leaves the same state, on noisy, clipped and flat signals.
        #[test]
        fn push_until_period_matches_pushes(
            period in 3.0f64..400.0,
            noise in 0.0f64..0.3,
            clip in 0.01f64..1.5,
            threshold in 0.0f64..0.2,
            window in 1usize..6,
            lens in prop::collection::vec(0usize..300, 1..40),
            seed in any::<u64>(),
        ) {
            let sample = |i: usize| {
                let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let jitter = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                ((std::f64::consts::TAU * i as f64 / period).sin() + noise * jitter).clamp(-clip, clip)
            };
            let mut block = PeriodLengthDetector::new(window, threshold);
            let mut single = block.clone();
            let mut at = 0;
            for len in lens {
                let run: Vec<f64> = (at..at + len).map(sample).collect();
                let mut drawn = 0;
                let (used, avg) = block.push_until_period(run.iter().inspect(|_| drawn += 1).copied());
                let mut want = (run.len(), None);
                for (i, &v) in run.iter().enumerate() {
                    if let Some(p) = single.push(v) {
                        want = (i + 1, Some(p.to_bits()));
                        break;
                    }
                }
                prop_assert_eq!((used, avg.map(f64::to_bits)), want, "run of {} at sample {}", len, at);
                prop_assert_eq!(drawn, used, "samples drawn past the stop");
                prop_assert_eq!(block.state(), single.state());
                at += used;
            }
        }
    }

    fn run_sine(det: &mut PeriodLengthDetector, f: f64, fs: f64, n: usize) {
        for i in 0..n {
            det.push((std::f64::consts::TAU * f * i as f64 / fs).sin());
        }
    }

    #[test]
    fn measures_800khz_at_250msps() {
        let mut det = PeriodLengthDetector::paper_default();
        run_sine(&mut det, 800e3, 250e6, 10_000);
        assert!(det.warmed_up());
        let f = det.frequency(250e6).unwrap();
        assert!((f - 800e3).abs() < 50.0, "f = {f}");
    }

    #[test]
    fn warms_up_after_window_periods() {
        let mut det = PeriodLengthDetector::new(4, 0.0);
        let fs = 250e6;
        let f = 1e6;
        // 4 period measurements need 5 crossings → just over 5 periods of samples.
        let mut pushed = 0usize;
        while !det.warmed_up() {
            det.push((std::f64::consts::TAU * f * pushed as f64 / fs).sin());
            pushed += 1;
            assert!(pushed < 2000, "did not warm up in time");
        }
        let periods = pushed as f64 / (fs / f);
        assert!(
            periods > 4.5 && periods < 6.5,
            "warmed up after {periods} periods"
        );
    }

    #[test]
    fn averaging_reduces_quantization_jitter() {
        // At 800 kHz / 250 MS/s the true period is 312.5 samples; raw
        // crossing-to-crossing measurements (without sub-sample refinement
        // the hardware might lack) would alternate 312/313. With refinement
        // plus averaging the estimate is essentially exact; we instead
        // compare window=1 vs window=8 under additive noise.
        let fs = 250e6;
        let f = 800e3;
        let make_noise = |i: usize| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
        let mut narrow = PeriodLengthDetector::new(1, 0.05);
        let mut wide = PeriodLengthDetector::new(8, 0.05);
        let mut narrow_errs = Vec::new();
        let mut wide_errs = Vec::new();
        for i in 0..200_000 {
            let s = (std::f64::consts::TAU * f * i as f64 / fs).sin() + 0.02 * make_noise(i);
            if let Some(p) = narrow.push(s) {
                narrow_errs.push((p - 312.5).abs());
            }
            if let Some(p) = wide.push(s) {
                wide_errs.push((p - 312.5).abs());
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // Skip the warm-up region of the wide filter.
        let nw = mean(&narrow_errs[8..]);
        let ww = mean(&wide_errs[8..]);
        assert!(
            ww < nw,
            "averaging must reduce error: narrow {nw} vs wide {ww}"
        );
    }

    #[test]
    fn tracks_frequency_change() {
        let mut det = PeriodLengthDetector::paper_default();
        let fs = 250e6;
        // 1 MHz then 0.5 MHz; detector should converge to the new value.
        let mut phase = 0.0_f64;
        for _ in 0..5_000 {
            phase += std::f64::consts::TAU * 1e6 / fs;
            det.push(phase.sin());
        }
        for _ in 0..20_000 {
            phase += std::f64::consts::TAU * 0.5e6 / fs;
            det.push(phase.sin());
        }
        let f = det.frequency(fs).unwrap();
        assert!((f - 0.5e6).abs() < 1e3, "f = {f}");
    }

    #[test]
    fn no_frequency_before_first_period() {
        let det = PeriodLengthDetector::paper_default();
        assert_eq!(det.frequency(250e6), None);
        assert!(!det.warmed_up());
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn zero_window_rejected() {
        let _ = PeriodLengthDetector::new(0, 0.0);
    }
}
