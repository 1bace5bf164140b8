//! `signal_loop`: the paper's 250 MS/s closed loop (Fig. 5a) through
//! `LoopHarness::run`, and a traced replica that drives the same public
//! chain calls one sample at a time.

use std::time::Instant;

use cil_core::control::BeamPhaseController;
use cil_core::engine::{BeamEngine, SignalLevelEngine, StepBlock};
use cil_core::framework::SimulatorFramework;
use cil_core::harness::{LoopHarness, LoopTrace, DEFAULT_BLOCK_ROWS};
use cil_core::scenario::MdeScenario;
use cil_core::signalgen::SignalBench;
use cil_core::trace::{score_jump_response, TimeSeries};
use cil_dsp::phase_detector::PhaseDetector;

use crate::trace::{SpanClock, SpanSum};

/// Simulated seconds per loop: 5 ms past the first 8° jump at 0.05 s —
/// several synchrotron periods, so the first swing is complete — and short
/// of the second jump at 0.10 s, so exactly one jump is scored.
const DURATION_S: f64 = 0.055;
/// EXPERIMENTS.md F5: first peak after the jump on the signal-level side
/// (Fig. 5a) is 2.27× the jump (the paper states 2×).
pub const FIRST_PEAK_RATIO: f64 = 2.27;
/// Accepted distance from [`FIRST_PEAK_RATIO`].
pub const FIRST_PEAK_TOLERANCE: f64 = 0.15;
/// Converter sample rate of the Fig. 4 bench, samples per second.
const SAMPLE_RATE: f64 = 250e6;

/// The Nov-24 MDE point with one bunch, as in Fig. 5a.
pub fn scenario() -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.bunches = 1;
    s.duration_s = DURATION_S;
    s
}

/// The signal-level harness exactly as `SignalLevelLoop::run` builds it:
/// the detector measures once per bunch passage, so the controller runs at
/// `f_rev × bunches`.
fn harness(s: &MdeScenario) -> LoopHarness {
    let controller = BeamPhaseController::new(s.controller, s.f_rev * s.bunches as f64);
    LoopHarness::new(controller, s.jumps, s.instrument_offset_deg)
}

/// One end-to-end closed loop.
pub struct SignalRun {
    pub wall_s: f64,
    pub sim_s: f64,
    pub trace: LoopTrace,
}

impl SignalRun {
    /// Wall seconds per simulated second.
    pub fn x_realtime(&self) -> f64 {
        self.wall_s / self.sim_s
    }
}

/// Build the engine (untimed), then time one closed loop through
/// `LoopHarness::run`.
pub fn run_loop() -> cil_core::error::Result<SignalRun> {
    let s = scenario();
    let mut engine = SignalLevelEngine::from_scenario(&s)?;
    let mut harness = harness(&s);
    let t0 = Instant::now();
    let trace = harness.run(&mut engine, s.duration_s);
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(SignalRun {
        wall_s,
        sim_s: engine.time(),
        trace,
    })
}

/// Step the same engine through `step_block` alone (no harness, open
/// loop); the per-sample work is the closed loop's, so the harness's own
/// cost is the difference. Returns (rows, wall seconds).
pub fn engine_only() -> cil_core::error::Result<(u64, f64)> {
    let s = scenario();
    let mut engine = SignalLevelEngine::from_scenario(&s)?;
    let mut block = StepBlock::new();
    let mut rows = 0u64;
    let t0 = Instant::now();
    while engine.time() < s.duration_s {
        engine.step_block(&s.jumps, s.duration_s, DEFAULT_BLOCK_ROWS, &mut block);
        rows += block.rows() as u64;
    }
    Ok((rows, t0.elapsed().as_secs_f64()))
}

/// Output check of one end-to-end loop: it survives, records exactly one
/// jump, and its first peak matches EXPERIMENTS.md. Returns the first-peak
/// ratio, or why the check failed.
pub fn check(run: &SignalRun) -> Result<f64, String> {
    let trace = &run.trace;
    if !trace.survived() {
        return Err(format!("signal loop lost the beam: {:?}", trace.outcome));
    }
    if trace.jump_times.len() != 1 {
        return Err(format!(
            "signal loop recorded {} jumps, expected 1",
            trace.jump_times.len()
        ));
    }
    let s = scenario();
    let t_rev = 1.0 / s.f_rev;
    let display = resample(&trace.times, &trace.mean_phase_deg, t_rev, run.sim_s).averaged(5);
    let t_jump = trace.jump_times[0];
    let end = display.t0 + display.dt * display.len() as f64;
    let ratio = score_jump_response(&display, t_jump, end, s.jumps.amplitude_deg).first_peak_ratio;
    if (ratio - FIRST_PEAK_RATIO).abs() > FIRST_PEAK_TOLERANCE {
        return Err(format!(
            "first peak {ratio:.3}x the jump, expected {FIRST_PEAK_RATIO} ± {FIRST_PEAK_TOLERANCE}"
        ));
    }
    Ok(ratio)
}

/// Zero-order-hold resampling of detector-event rows onto the revolution
/// grid (the display form Fig. 5a is scored on).
fn resample(times: &[f64], values: &[f64], dt: f64, duration: f64) -> TimeSeries {
    let n = (duration / dt) as usize;
    let mut out = Vec::with_capacity(n);
    let mut idx = 0usize;
    let mut current = values.first().copied().unwrap_or(0.0);
    for i in 0..n {
        let t = i as f64 * dt;
        while idx < times.len() && times[idx] <= t {
            current = values[idx];
            idx += 1;
        }
        out.push(current);
    }
    TimeSeries::new(0.0, dt, out)
}

/// Per-layer spans of the chain replica.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChainSpans {
    /// `SignalBench::tick`.
    pub tick: SpanSum,
    /// `SimulatorFramework::push_sample` + `measured_period`.
    pub framework: SpanSum,
    /// Period guard + `PhaseDetector::push`.
    pub detector: SpanSum,
    /// `BeamPhaseController::push_measurement` + actuation, per row.
    pub control: SpanSum,
}

/// One run of the chain replica.
pub struct ChainRun {
    pub wall_s: f64,
    pub samples: u64,
    pub times: Vec<f64>,
    pub phases: Vec<f64>,
    pub control: Vec<f64>,
    pub period_admitted: u64,
    pub period_rejected: u64,
    pub dropped_samples: u64,
    pub spans: ChainSpans,
}

/// Replay the signal-level loop through the public chain calls —
/// `SignalBench::tick`, `SimulatorFramework::push_sample` /
/// `measured_period`, `PhaseDetector::push`,
/// `BeamPhaseController::push_measurement` — in the order
/// `SignalLevelEngine::step` and `LoopHarness::run` make them (no fault
/// program, one bunch). With `TRACED` every call is wrapped in a span;
/// without, the replica is the same loop with no clock reads, the baseline
/// the spans' overhead is measured against.
pub fn run_chain<const TRACED: bool>() -> cil_core::error::Result<ChainRun> {
    let s = scenario();
    let mut bench = SignalBench::new(
        SAMPLE_RATE,
        s.f_rev,
        s.harmonic(),
        s.adc_amplitude,
        s.adc_amplitude,
        s.jumps,
    );
    let mut fw = SimulatorFramework::new(s.framework_config(), s.kernel_params()?);
    let nominal = SAMPLE_RATE / s.f_rev;
    let mut detector = PhaseDetector::with_zc_threshold(
        fw.config.pulse_amplitude * 0.25,
        f64::from(s.harmonic()),
        nominal,
        fw.config.zc_threshold,
    );
    let mut controller = BeamPhaseController::new(s.controller, s.f_rev * s.bunches as f64);
    let rows_hint = (s.duration_s * s.f_rev) as usize + 1;
    let mut out = ChainRun {
        wall_s: 0.0,
        samples: 0,
        times: Vec::with_capacity(rows_hint),
        phases: Vec::with_capacity(rows_hint),
        control: Vec::with_capacity(rows_hint),
        period_admitted: 0,
        period_rejected: 0,
        dropped_samples: 0,
        spans: ChainSpans::default(),
    };
    let cap = (nominal * 2.0) as usize;
    let mut sample: u64 = 0;
    let mut clock = SpanClock::<TRACED>::start();
    let t0 = Instant::now();
    while (sample as f64 / SAMPLE_RATE) < s.duration_s {
        for _ in 0..cap {
            let (v_ref, v_gap) = bench.tick();
            clock.lap(&mut out.spans.tick);
            let fo = fw.push_sample(v_ref, v_gap);
            sample += 1;
            let period = fw.measured_period();
            clock.lap(&mut out.spans.framework);
            if let Some(p) = period {
                let samples = p * SAMPLE_RATE;
                if samples > nominal * 0.5 && samples < nominal * 2.0 {
                    out.period_admitted += 1;
                    detector.set_period_samples(samples);
                } else {
                    out.period_rejected += 1;
                }
            }
            let measured = detector.push(v_ref, fo.beam);
            clock.lap(&mut out.spans.detector);
            if let Some(m) = measured {
                let deg = m.phase_deg + s.instrument_offset_deg;
                out.times.push(sample as f64 / SAMPLE_RATE);
                out.phases.push(deg);
                if let Some(u) = controller.push_measurement(deg) {
                    bench.set_control_frequency_offset(u);
                }
                out.control.push(controller.output());
                clock.lap(&mut out.spans.control);
                break;
            }
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.samples = sample;
    out.dropped_samples = detector.dropped_samples();
    Ok(out)
}

/// The replica's rows must be the engine's rows, bit for bit, or its spans
/// time some other program.
pub fn replica_matches(chain: &ChainRun, trace: &LoopTrace) -> Result<(), String> {
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    if !same(&chain.times, &trace.times) {
        return Err("traced chain replica: row times differ from the engine's".into());
    }
    if !same(&chain.phases, &trace.bunch_phase_deg[0]) {
        return Err("traced chain replica: measured phases differ from the engine's".into());
    }
    if !same(&chain.control, &trace.control_hz) {
        return Err("traced chain replica: controller outputs differ from the harness's".into());
    }
    Ok(())
}
