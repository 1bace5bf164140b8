//! Spans for the traced run: wall-clock laps around calls into a layer,
//! folded in memory into per-layer sums and counts and printed when the
//! run ends.

use std::time::Instant;

/// Sum and count of one layer's spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanSum {
    pub nanos: u64,
    pub count: u64,
}

impl SpanSum {
    /// Mean span, nanoseconds (0 for none).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.nanos as f64 / self.count as f64
        }
    }
}

/// Chained span clock: each `lap` closes the span opened by the previous
/// one, so consecutive calls cost one clock read each. With `ON = false`
/// every lap compiles to nothing.
pub struct SpanClock<const ON: bool> {
    last: Instant,
}

impl<const ON: bool> SpanClock<ON> {
    pub fn start() -> Self {
        Self {
            last: Instant::now(),
        }
    }

    #[inline(always)]
    pub fn lap(&mut self, into: &mut SpanSum) {
        if ON {
            let now = Instant::now();
            into.nanos += now.duration_since(self.last).as_nanos() as u64;
            into.count += 1;
            self.last = now;
        }
    }
}

/// What a span around no work at all reads, nanoseconds: the median over
/// batches of back-to-back laps. Subtract it from a per-call span mean to
/// get the call's own cost.
pub fn empty_span_ns() -> f64 {
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let mut clock = SpanClock::<true>::start();
            let mut sum = SpanSum::default();
            for _ in 0..200_000 {
                clock.lap(&mut sum);
            }
            sum.mean_ns()
        })
        .collect();
    crate::stats::median(&batches)
}
