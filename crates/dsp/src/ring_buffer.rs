//! The dual-port capture ring buffers of the FPGA framework (Section III-B).
//!
//! One buffer per input signal, written at the full 250 MHz sample rate.
//! Capacity is 2¹³ = 8192 samples — enough for two full reference periods at
//! the lowest supported revolution frequency (100 kHz → 2500 samples per
//! period), so both positive and negative Δt lookups stay in range. A second
//! read port lets the CGRA fetch any held sample each cycle without stalling
//! capture.

/// Dual-port sample capture buffer.
///
/// Indexing convention: `read_back(0)` is the most recently written sample,
/// `read_back(1)` the one before, etc. The simulator addresses samples
/// relative to the last positive zero crossing, which the zero-crossing
/// detector reports as such a back-offset.
#[derive(Debug, Clone)]
pub struct CaptureRingBuffer {
    data: Box<[f64]>,
    /// Next write position.
    head: usize,
    /// Total samples ever written.
    written: u64,
}

/// The paper's buffer depth: 2^13 samples.
pub const PAPER_DEPTH: usize = 8192;

impl CaptureRingBuffer {
    /// New buffer of `depth` samples (must be a power of two, like the
    /// hardware address space).
    pub fn new(depth: usize) -> Self {
        assert!(depth.is_power_of_two(), "depth must be a power of two");
        Self {
            data: vec![0.0; depth].into_boxed_slice(),
            head: 0,
            written: 0,
        }
    }

    /// The paper's 8192-sample configuration.
    pub fn paper_sized() -> Self {
        Self::new(PAPER_DEPTH)
    }

    /// Write one sample (port A — the capture port).
    #[inline]
    pub fn push(&mut self, sample: f64) {
        self.data[self.head] = sample;
        self.head = (self.head + 1) & (self.data.len() - 1);
        self.written += 1;
    }

    /// Write a run of samples, exactly as [`Self::push`] on each in order.
    pub fn push_slice(&mut self, samples: &[f64]) {
        let depth = self.data.len();
        // Samples older than the last `depth` would be overwritten anyway.
        let skip = samples.len().saturating_sub(depth);
        let kept = &samples[skip..];
        let head = (self.head + skip) & (depth - 1);
        let (to_end, wrapped) = kept.split_at(kept.len().min(depth - head));
        self.data[head..head + to_end.len()].copy_from_slice(to_end);
        self.data[..wrapped.len()].copy_from_slice(wrapped);
        self.head = (head + kept.len()) & (depth - 1);
        self.written += samples.len() as u64;
    }

    /// Read the sample written `back` positions ago (port B — the simulator
    /// port). `back = 0` is the latest sample. Returns `None` if that sample
    /// has not been written yet or has been overwritten (out of capacity).
    #[inline]
    pub fn read_back(&self, back: usize) -> Option<f64> {
        if back as u64 >= self.written || back >= self.data.len() {
            return None;
        }
        let idx = (self.head + self.data.len() - 1 - back) & (self.data.len() - 1);
        Some(self.data[idx])
    }

    /// Like [`Self::read_back`] but with a fractional offset: performs the
    /// two reads + linear interpolation of Section IV-B. `back` may be
    /// fractional; interpolates between `floor(back)` and `floor(back)+1`
    /// samples ago.
    #[inline]
    pub fn read_back_interpolated(&self, back: f64) -> Option<f64> {
        if back < 0.0 {
            return None;
        }
        let i = back.floor() as usize;
        let frac = back - back.floor();
        let a = self.read_back(i)?;
        if frac == 0.0 {
            return Some(a);
        }
        let b = self.read_back(i + 1)?;
        // `a` is newer than `b`; "back + frac" moves toward the older sample.
        Some(a * (1.0 - frac) + b * frac)
    }

    /// Buffer capacity in samples.
    pub fn depth(&self) -> usize {
        self.data.len()
    }

    /// Total samples written since construction.
    pub fn samples_written(&self) -> u64 {
        self.written
    }

    /// Valid samples currently held: `samples_written` until the buffer
    /// fills, then the capacity. Telemetry layers sample this as the
    /// occupancy gauge.
    pub fn occupancy(&self) -> usize {
        self.written.min(self.data.len() as u64) as usize
    }

    /// Whether the buffer can hold two full periods of `period_samples`.
    /// The paper sizes buffers so this holds for f_rev ≥ 100 kHz.
    pub fn holds_two_periods(&self, period_samples: usize) -> bool {
        2 * period_samples <= self.depth()
    }

    /// Snapshot the complete buffer state for checkpointing.
    pub fn state(&self) -> RingBufferState {
        RingBufferState {
            data: self.data.to_vec(),
            head: self.head,
            written: self.written,
        }
    }

    /// Restore a state captured by [`Self::state`]. Fails (returns `false`)
    /// when the snapshot's depth does not match this buffer's depth or its
    /// cursor is out of range — a restore must never manufacture an
    /// inconsistent buffer.
    pub fn restore(&mut self, state: &RingBufferState) -> bool {
        if state.data.len() != self.data.len() || state.head >= self.data.len() {
            return false;
        }
        self.data.copy_from_slice(&state.data);
        self.head = state.head;
        self.written = state.written;
        true
    }
}

/// Checkpointable state of a [`CaptureRingBuffer`].
#[derive(Debug, Clone, PartialEq)]
pub struct RingBufferState {
    /// Raw sample memory, oldest-to-newest in physical order.
    pub data: Vec<f64>,
    /// Next write position.
    pub head: usize,
    /// Total samples ever written.
    pub written: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `push_slice` leaves exactly the state per-sample pushes leave,
        /// for runs that wrap the head, fill the buffer or overrun it.
        #[test]
        fn push_slice_matches_pushes(
            depth_bits in 0u32..6,
            lead in 0usize..40,
            runs in prop::collection::vec(0usize..80, 1..6),
        ) {
            let depth = 1usize << depth_bits;
            let (mut sliced, mut pushed) = (CaptureRingBuffer::new(depth), CaptureRingBuffer::new(depth));
            let mut next = 0.0;
            let mut take = |n: usize| -> Vec<f64> {
                (0..n).map(|_| { next += 1.0; next }).collect()
            };
            for v in take(lead) {
                sliced.push(v);
                pushed.push(v);
            }
            for run in runs {
                let samples = take(run);
                sliced.push_slice(&samples);
                for &v in &samples {
                    pushed.push(v);
                }
                prop_assert_eq!(sliced.state(), pushed.state(), "run of {} at depth {}", run, depth);
            }
        }
    }

    #[test]
    fn paper_sizing_invariant() {
        // 100 kHz at 250 MS/s → 2500 samples/period; two periods fit in 8192.
        let buf = CaptureRingBuffer::paper_sized();
        assert_eq!(buf.depth(), 8192);
        assert!(buf.holds_two_periods(2500));
        // But not at 50 kHz.
        assert!(!buf.holds_two_periods(5000));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = CaptureRingBuffer::new(1000);
    }

    #[test]
    fn read_back_returns_recent_samples() {
        let mut buf = CaptureRingBuffer::new(8);
        for i in 0..5 {
            buf.push(i as f64);
        }
        assert_eq!(buf.read_back(0), Some(4.0));
        assert_eq!(buf.read_back(4), Some(0.0));
        assert_eq!(buf.read_back(5), None, "never written");
    }

    #[test]
    fn wraparound_overwrites_oldest() {
        let mut buf = CaptureRingBuffer::new(4);
        for i in 0..6 {
            buf.push(i as f64);
        }
        assert_eq!(buf.read_back(0), Some(5.0));
        assert_eq!(buf.read_back(3), Some(2.0));
        assert_eq!(buf.read_back(4), None, "out of capacity");
    }

    #[test]
    fn capture_continues_while_reading() {
        // Dual-port semantics: reads never disturb the write cursor.
        let mut buf = CaptureRingBuffer::new(16);
        for i in 0..10 {
            buf.push(i as f64);
            let _ = buf.read_back(0);
            let _ = buf.read_back(3);
        }
        assert_eq!(buf.samples_written(), 10);
        assert_eq!(buf.read_back(0), Some(9.0));
    }

    #[test]
    fn interpolated_read_between_samples() {
        let mut buf = CaptureRingBuffer::new(8);
        buf.push(10.0); // back=1 after next push
        buf.push(20.0); // back=0
                        // back=0.25: 25% of the way from newest (20) toward older (10) = 17.5.
        let v = buf.read_back_interpolated(0.25).unwrap();
        assert!((v - 17.5).abs() < 1e-12);
    }

    #[test]
    fn interpolated_read_on_integer_offset_needs_one_sample() {
        let mut buf = CaptureRingBuffer::new(8);
        buf.push(42.0);
        assert_eq!(buf.read_back_interpolated(0.0), Some(42.0));
        assert_eq!(buf.read_back_interpolated(0.5), None, "needs 2 samples");
    }

    #[test]
    fn interpolation_reconstructs_slow_sine() {
        // A 1 MHz sine sampled at 250 MS/s: interpolation error well below
        // 1e-3 of full scale.
        let mut buf = CaptureRingBuffer::paper_sized();
        let f = 1e6;
        let fs = 250e6;
        let n = 4096;
        for i in 0..n {
            buf.push((std::f64::consts::TAU * f * i as f64 / fs).sin());
        }
        // True value 2.5 samples back from sample n-1:
        let t_true = (n - 1) as f64 - 2.5;
        let expect = (std::f64::consts::TAU * f * t_true / fs).sin();
        let got = buf.read_back_interpolated(2.5).unwrap();
        assert!((got - expect).abs() < 1e-4, "got {got}, expect {expect}");
    }

    #[test]
    fn negative_back_rejected() {
        let mut buf = CaptureRingBuffer::new(8);
        buf.push(1.0);
        assert_eq!(buf.read_back_interpolated(-0.5), None);
    }
}
