//! Bit-identity suite for the 250 MS/s signal chain (DDS → ADC → ring
//! buffers → detectors → CGRA → Gauss/DAC → phase detector → controller).
//!
//! The chain computes values that only move at events (jump edges, period
//! completions, kernel Δt writes) at those events rather than per sample,
//! and its converter/DDS arithmetic uses exact integer forms of the float
//! formulas. None of that may move a single bit of output:
//!
//! * six [`SignalLevelLoop`] scenarios are pinned to FNV digests of their
//!   phase, control and jump-time bits plus their audit-event count;
//! * a checkpoint taken just before, exactly on and just after a jump edge,
//!   and in the middle of a beam pulse, restores into a fresh engine and
//!   continues bit-identically, with identical encoded CILCKPT bytes;
//! * the scheduled-edge [`SignalBench`] applies every jump on exactly the
//!   sample the per-sample `offset_deg_at` predicate names, across random
//!   programs and mid-interval restores.

use cil_core::checkpoint::{decode_snapshot, encode_snapshot, Checkpoint};
use cil_core::engine::{BeamEngine, EngineKind, EngineState, EngineStep, SignalLevelEngine};
use cil_core::fault::{FaultEvent, FaultInjector, FaultKind, FaultProgram};
use cil_core::hil::HilResult;
use cil_core::signalgen::{PhaseJumpProgram, SignalBench};
use cil_core::{BeamPhaseController, CilError, MdeScenario, SignalLevelLoop};
use proptest::prelude::*;

const FS: f64 = 250e6;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01B3);
    }
}

fn digest_series(h: &mut u64, values: &[f64]) {
    fnv(h, values.len() as u64);
    for v in values {
        fnv(h, v.to_bits());
    }
}

/// FNV-1a over the phase, control and jump-time bits of a run.
fn digest(r: &HilResult) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    digest_series(&mut h, &r.phase_deg.values);
    digest_series(&mut h, &r.control_hz.values);
    digest_series(&mut h, &r.jump_times);
    h
}

/// A jump program toggling every 1.3 ms, so short runs cross several edges.
fn fast_jumps(path_latency_s: f64) -> PhaseJumpProgram {
    PhaseJumpProgram {
        amplitude_deg: 8.0,
        interval_s: 1.3e-3,
        path_latency_s,
    }
}

fn one_bunch() -> MdeScenario {
    MdeScenario {
        bunches: 1,
        ..MdeScenario::nov24_2023()
    }
}

/// The pinned scenarios: name, scenario, bench seconds.
fn golden_scenarios() -> Vec<(&'static str, MdeScenario, f64)> {
    let plain = one_bunch();
    let noisy = MdeScenario {
        adc_noise_rms: 0.004,
        ..one_bunch()
    };
    let jumps = MdeScenario {
        jumps: fast_jumps(330e-9),
        ..one_bunch()
    };
    let dropout = MdeScenario {
        faults: FaultProgram {
            seed: 0xD0D5,
            events: vec![FaultEvent {
                start_s: 1.0e-3,
                end_s: 1.4e-3,
                kind: FaultKind::DdsDropout,
            }],
        },
        ..one_bunch()
    };
    let trip = MdeScenario {
        faults: FaultProgram::cavity_trip(1.0e-3, 1.5e-3, 0.5e-3, 0xCAF3),
        ..one_bunch()
    };
    let four = MdeScenario {
        bunches: 4,
        ..MdeScenario::nov24_2023()
    };
    vec![
        ("plain", plain, 3e-3),
        ("adc_noise", noisy, 3e-3),
        ("fast_jumps", jumps, 4e-3),
        ("dds_dropout", dropout, 3e-3),
        ("cavity_trip", trip, 3e-3),
        ("four_bunches", four, 3e-3),
    ]
}

/// Digest and audit-event count of each scenario in [`golden_scenarios`],
/// recorded from the per-sample chain before its event-driven rewrite.
const GOLDEN: [(&str, u64, usize); 6] = [
    ("plain", 0xb64ecb7d3de80832, 0),
    ("adc_noise", 0x9506b76f7eba11aa, 0),
    ("fast_jumps", 0xbef77ab6d51ee370, 0),
    ("dds_dropout", 0xf5d509de6295c542, 0),
    ("cavity_trip", 0x42d8db32d2b5ba0f, 0),
    ("four_bunches", 0x49b1964377087305, 0),
];

#[test]
fn golden_scenarios_match_the_per_sample_chain() {
    let mut got = Vec::new();
    for (name, scenario, seconds) in golden_scenarios() {
        let r = SignalLevelLoop::new(scenario).run(seconds, true).unwrap();
        got.push((name, digest(&r), r.events.len()));
    }
    // Printed so a deliberate change to the traces can re-record the table.
    for g in &got {
        println!("    (\"{}\", {:#018x}, {}),", g.0, g.1, g.2);
    }
    for (g, want) in got.iter().zip(&GOLDEN) {
        assert_eq!(g, want, "signal-chain digest drifted for scenario {}", g.0);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint round trips around a jump edge.
// ---------------------------------------------------------------------------

/// One measured row: time, phase, controller output and jump offset bits.
type Row = [u64; 4];

/// The engine + controller pair, driven the way `LoopHarness::run` drives
/// them (no supervisor, no faults).
struct Chain {
    jumps: PhaseJumpProgram,
    engine: SignalLevelEngine,
    controller: BeamPhaseController,
    rows: Vec<Row>,
    jump_edges: u64,
}

impl Chain {
    fn new(s: &MdeScenario) -> Self {
        Self {
            jumps: s.jumps,
            engine: SignalLevelEngine::from_scenario(s).unwrap(),
            controller: BeamPhaseController::new(s.controller, s.f_rev * s.bunches as f64),
            rows: Vec::new(),
            jump_edges: 0,
        }
    }

    fn sample(&self) -> u64 {
        match self.engine.save_state() {
            EngineState::SignalLevel(s) => s.sample,
            _ => unreachable!("signal-level engine"),
        }
    }

    fn pulse_playing(&self) -> bool {
        match self.engine.save_state() {
            EngineState::SignalLevel(s) => s.fw.pulses[0].playing.is_some(),
            _ => unreachable!("signal-level engine"),
        }
    }

    fn step(&mut self) {
        let before = self.engine.applied_jump_deg();
        let mut phase = [0.0];
        if self.engine.step(&self.jumps, &mut phase) == EngineStep::Measured {
            if let Some(u) = self.controller.push_measurement(phase[0]) {
                self.engine.apply_control(u, 1);
            }
            self.rows.push([
                self.engine.time().to_bits(),
                phase[0].to_bits(),
                self.controller.output().to_bits(),
                self.engine.applied_jump_deg().to_bits(),
            ]);
        }
        if self.engine.applied_jump_deg() != before {
            self.jump_edges += 1;
        }
    }

    /// Encoded CILCKPT snapshot of the chain. The rebuild recipe (`kind`)
    /// is unused: the test rebuilds the signal-level engine itself.
    fn snapshot(&self) -> Vec<u8> {
        encode_snapshot(&Checkpoint {
            turn: self.rows.len() as u64,
            time_s: self.engine.time(),
            supervised: false,
            kind: EngineKind::Map,
            bunches: 1,
            engine: self.engine.save_state(),
            controller: self.controller.state(),
            injector: FaultInjector::none().state(),
            supervisor: None,
            ctrl_phase_rad: 0.0,
            last_jump_deg: self.engine.applied_jump_deg(),
            rows: self.rows.len() as u64,
            events: 0,
            jumps: self.jump_edges,
            log_bytes: 0,
            telemetry: None,
        })
    }

    fn restore(s: &MdeScenario, bytes: &[u8]) -> Self {
        let ck = decode_snapshot(bytes).unwrap();
        let mut chain = Self::new(s);
        assert!(chain.engine.restore_state(&ck.engine));
        assert!(chain.controller.restore(&ck.controller));
        chain.jump_edges = ck.jumps;
        chain
    }
}

/// First sample whose bench time the jump program maps to a non-zero
/// offset (the bench's own `sample / sample_rate` time base).
fn first_edge_sample(p: &PhaseJumpProgram) -> u64 {
    let mut lo = 0u64;
    let mut hi = ((p.interval_s + p.path_latency_s) * FS) as u64 + 4;
    assert!(p.offset_deg_at(hi as f64 / FS) != 0.0);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if p.offset_deg_at(mid as f64 / FS) != 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[test]
fn checkpoints_around_a_jump_edge_resume_bit_identically() {
    let seconds = 2.0e-3;
    // Step boundaries before the first edge do not depend on the program
    // (the offset is zero until then), so probe them on the default
    // program, whose first edge is at 50 ms, and place the edge exactly on
    // one: the "on the edge" checkpoint then holds a bench whose very next
    // tick applies the jump.
    let mut probe = Chain::new(&one_bunch());
    let mut boundaries = vec![0u64];
    while probe.engine.time() < 1.4e-3 {
        probe.step();
        boundaries.push(probe.sample());
    }
    let target = (1.3e-3 + 330e-9) * FS;
    let on = *boundaries
        .iter()
        .min_by_key(|&&b| (b as f64 - target).abs() as u64)
        .unwrap();
    let jumps = fast_jumps((on as f64 - 0.5) / FS - 1.3e-3);
    assert_eq!(first_edge_sample(&jumps), on, "edge placed on a boundary");
    let s = MdeScenario {
        jumps,
        ..one_bunch()
    };

    // Uninterrupted run, snapshotting at every step boundary.
    let mut full = Chain::new(&s);
    let mut snaps = vec![(0u64, 0usize, full.snapshot(), full.pulse_playing())];
    while full.engine.time() < seconds {
        full.step();
        snaps.push((
            full.sample(),
            full.rows.len(),
            full.snapshot(),
            full.pulse_playing(),
        ));
    }
    let end_bytes = full.snapshot();
    assert!(full.jump_edges >= 1, "the run crosses the edge");

    let at = snaps.iter().position(|s| s.0 == on).unwrap();
    let mid_pulse = (at + 2..snaps.len())
        .find(|&i| snaps[i].3)
        .expect("a boundary inside a beam pulse");
    for (label, i) in [
        ("before the edge", at - 1),
        ("on the edge", at),
        ("after the edge", at + 1),
        ("mid pulse", mid_pulse),
    ] {
        let (sample, rows, ref bytes, _) = snaps[i];
        let mut resumed = Chain::restore(&s, bytes);
        assert_eq!(resumed.sample(), sample, "{label}");
        resumed.rows = full.rows[..rows].to_vec();
        assert_eq!(&resumed.snapshot(), bytes, "{label}: re-encoded bytes");
        while resumed.engine.time() < seconds {
            resumed.step();
        }
        assert_eq!(resumed.rows, full.rows, "{label}: rows");
        assert_eq!(resumed.snapshot(), end_bytes, "{label}: final bytes");
    }
}

// ---------------------------------------------------------------------------
// Scheduled jump edges against the per-sample predicate.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every tick, the bench's applied offset equals `offset_deg_at` of the
    /// tick's time, for random rates and programs (including "no jumps"
    /// intervals, zero latency and zero amplitude), across a restore into
    /// a fresh bench in the middle of an interval.
    #[test]
    fn scheduled_edges_match_the_per_sample_predicate(
        rate_mhz in 1.0f64..300.0,
        interval_samples in 2.0f64..400.0,
        latency_samples in 0.0f64..300.0,
        amplitude in -20.0f64..20.0,
        shape in 0u32..8,
        restore_frac in 0.0f64..1.0,
    ) {
        let rate = rate_mhz * 1e6;
        let program = PhaseJumpProgram {
            amplitude_deg: if shape == 1 { 0.0 } else { amplitude },
            interval_s: if shape == 2 { 1e9 } else { interval_samples / rate },
            path_latency_s: if shape == 3 { 0.0 } else { latency_samples / rate },
        };
        let bench = || SignalBench::new(rate, rate / 40.0, 4, 0.5, 0.5, program);
        let n = 2_000u64;
        let cut = (restore_frac * n as f64) as u64;
        let mut a = bench();
        for i in 0..n {
            if i == cut {
                let mut b = bench();
                b.restore(&a.state());
                a = b;
            }
            let t = i as f64 / rate;
            a.tick();
            prop_assert_eq!(
                a.applied_jump_deg().to_bits(),
                program.offset_deg_at(t).to_bits(),
                "sample {} of {:?} at {} S/s", i, program, rate
            );
        }
    }
}

#[test]
fn degenerate_jump_programs_are_rejected() {
    let bad = [
        (0.0, 0.0),
        (-1e-3, 0.0),
        (f64::NAN, 0.0),
        (f64::INFINITY, 0.0),
        (1e-3, -1e-9),
        (1e-3, f64::NAN),
        (1e-3, f64::INFINITY),
    ];
    for (interval_s, path_latency_s) in bad {
        let s = MdeScenario {
            jumps: PhaseJumpProgram {
                amplitude_deg: 8.0,
                interval_s,
                path_latency_s,
            },
            ..one_bunch()
        };
        assert!(
            matches!(
                SignalLevelEngine::from_scenario(&s),
                Err(CilError::InvalidConfig(_))
            ),
            "interval {interval_s}, latency {path_latency_s} accepted"
        );
    }
}
