//! `turn_loop`: one supervised closed loop per turn-level fidelity, back to
//! back, and the traced split of each row's cost into engine, harness and
//! supervisor.

use std::hint::black_box;
use std::time::Instant;

use cil_core::control::BeamPhaseController;
use cil_core::engine::{EngineKind, StepBlock};
use cil_core::fault::{LoopEvent, LoopSupervisor};
use cil_core::harness::{LoopHarness, LoopTrace, DEFAULT_BLOCK_ROWS};
use cil_core::scenario::MdeScenario;
use cil_core::telemetry::TelemetryRegistry;

use crate::trace::{SpanClock, SpanSum};

/// Macro particles of the RefTrack ensemble.
pub const PARTICLES: usize = 256;

/// One fidelity of the workload and its loop length in rows (each many
/// 0.05 s jump periods long).
#[derive(Debug, Clone, Copy)]
pub struct Fidelity {
    pub label: &'static str,
    pub kind: EngineKind,
    pub rows: u64,
}

/// The three fidelities; `seed` draws the RefTrack ensemble.
pub fn fidelities(seed: u64) -> [Fidelity; 3] {
    [
        Fidelity {
            label: "map",
            kind: EngineKind::Map,
            rows: 400_000,
        },
        Fidelity {
            label: "cgra",
            kind: EngineKind::Cgra,
            rows: 300_000,
        },
        Fidelity {
            label: "reftrack",
            kind: EngineKind::RefTrack {
                particles: PARTICLES,
                seed,
            },
            rows: 150_000,
        },
    ]
}

/// The Nov-24 MDE point, one bunch, long enough for exactly `rows` rows:
/// the end time sits half a revolution past row `rows - 1`, so float drift
/// in the engine clock cannot add or drop a row.
pub fn scenario(rows: u64) -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.bunches = 1;
    s.duration_s = (rows as f64 - 0.5) / s.f_rev;
    s
}

/// One timed supervised loop.
pub struct LoopRun {
    pub wall_s: f64,
    pub trace: LoopTrace,
}

/// Time `LoopHarness::run_supervised` at one fidelity (engine build and the
/// supervisor's start-up calibration included: the caller pays them).
pub fn run_supervised(f: &Fidelity) -> cil_core::error::Result<LoopRun> {
    let s = scenario(f.rows);
    let mut harness = LoopHarness::for_scenario(&s, true);
    let mut supervisor = LoopSupervisor::for_scenario(&s);
    let t0 = Instant::now();
    let trace = harness.run_supervised(&s, f.kind, s.duration_s, &mut supervisor)?;
    Ok(LoopRun {
        wall_s: t0.elapsed().as_secs_f64(),
        trace,
    })
}

/// Output check: the loop survives with no demotion and the exact row
/// count.
pub fn check(f: &Fidelity, trace: &LoopTrace) -> Result<(), String> {
    if !trace.survived() {
        return Err(format!(
            "{} loop lost the beam: {:?}",
            f.label, trace.outcome
        ));
    }
    let demotions = trace
        .events
        .iter()
        .filter(|e| matches!(e, LoopEvent::EngineDemoted { .. }))
        .count();
    if demotions != 0 {
        return Err(format!("{} loop demoted {demotions} times", f.label));
    }
    if trace.times.len() as u64 != f.rows {
        return Err(format!(
            "{} loop recorded {} rows, expected {}",
            f.label,
            trace.times.len(),
            f.rows
        ));
    }
    Ok(())
}

/// Drive `step_block` alone over the loop length, open loop, one span per
/// block when `TRACED`. Returns (rows, wall seconds, block spans).
pub fn engine_only<const TRACED: bool>(
    f: &Fidelity,
) -> cil_core::error::Result<(u64, f64, SpanSum)> {
    let s = scenario(f.rows);
    let mut engine = f.kind.build(&s)?;
    let mut block = StepBlock::new();
    let mut rows = 0u64;
    let mut spans = SpanSum::default();
    let mut clock = SpanClock::<TRACED>::start();
    let t0 = Instant::now();
    while engine.time() < s.duration_s {
        engine.step_block(&s.jumps, s.duration_s, DEFAULT_BLOCK_ROWS, &mut block);
        clock.lap(&mut spans);
        if block.rows() == 0 {
            break;
        }
        rows += block.rows() as u64;
    }
    Ok((rows, t0.elapsed().as_secs_f64(), spans))
}

/// Time `LoopHarness::run` on a freshly built engine, optionally with
/// telemetry attached. Returns ns per row.
pub fn run_plain(f: &Fidelity, telemetry: bool) -> cil_core::error::Result<f64> {
    let s = scenario(f.rows);
    let mut engine = f.kind.build(&s)?;
    let mut harness = LoopHarness::for_scenario(&s, true);
    let registry = TelemetryRegistry::new();
    if telemetry {
        harness = harness.with_telemetry(&registry);
    }
    let t0 = Instant::now();
    let trace = harness.run(engine.as_mut(), s.duration_s);
    let wall = t0.elapsed().as_secs_f64();
    Ok(wall * 1e9 / trace.times.len().max(1) as f64)
}

/// Mean cost of one `BeamPhaseController::push_measurement` call, ns, over
/// a recorded phase series (one span over the whole batch: a call costs
/// less than a clock read).
pub fn push_measurement_ns(phases: &[f64]) -> f64 {
    let s = MdeScenario::nov24_2023();
    let mut controller = BeamPhaseController::new(s.controller, s.f_rev);
    let mut acc = 0.0;
    let t0 = Instant::now();
    for &p in phases {
        if let Some(u) = controller.push_measurement(black_box(p)) {
            acc += u;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    black_box(acc);
    wall * 1e9 / phases.len().max(1) as f64
}
