//! Bit-identity suite for the 250 MS/s signal chain (DDS → ADC → ring
//! buffers → detectors → CGRA → Gauss/DAC → phase detector → controller).
//!
//! The chain computes values that only move at events (jump edges, period
//! completions, kernel Δt writes) at those events rather than per sample,
//! and its converter/DDS arithmetic uses exact integer forms of the float
//! formulas. None of that may move a single bit of output:
//!
//! * seven [`SignalLevelLoop`] scenarios are pinned to FNV digests of their
//!   phase, control and jump-time bits plus their audit-event count;
//! * the engine, which block-steps the stretches between beam pulses, is
//!   run against a per-sample reference chain built from the public
//!   per-sample calls, across faults, noise, jumps and restores;
//! * a checkpoint taken just before, exactly on and just after a jump edge,
//!   and in the middle of a beam pulse, restores into a fresh engine and
//!   continues bit-identically, with identical encoded CILCKPT bytes;
//! * the scheduled-edge [`SignalBench`] applies every jump on exactly the
//!   sample the per-sample `offset_deg_at` predicate names, across random
//!   programs and mid-interval restores;
//! * out-of-range jump programs and revolution frequencies are typed
//!   configuration errors, not panics.

use cil_core::checkpoint::{decode_snapshot, encode_snapshot, Checkpoint};
use cil_core::engine::{
    BeamEngine, EngineKind, EngineState, EngineStep, SignalLevelEngine, SignalLevelEngineState,
};
use cil_core::fault::{CavityPlant, FaultEvent, FaultInjector, FaultKind, FaultProgram};
use cil_core::framework::SimulatorFramework;
use cil_core::hil::HilResult;
use cil_core::signalgen::{PhaseJumpProgram, SignalBench};
use cil_core::{BeamPhaseController, CilError, MdeScenario, SignalLevelLoop};
use cil_dsp::phase_detector::PhaseDetector;
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
    let adc_window = |start_s: f64, end_s: f64, kind| FaultEvent {
        start_s,
        end_s,
        kind,
    };
    let adc_faults = MdeScenario {
        faults: FaultProgram {
            seed: 0xADC5,
            events: vec![
                adc_window(0.8e-3, 1.1e-3, FaultKind::AdcSaturation),
                adc_window(1.4e-3, 1.7e-3, FaultKind::AdcStuckCode { code: 1234 }),
                adc_window(2.0e-3, 2.4e-3, FaultKind::AdcBitFlip { bit: 11 }),
            ],
        },
        ..one_bunch()
    };
    vec![
        ("plain", plain, 3e-3),
        ("adc_noise", noisy, 3e-3),
        ("fast_jumps", jumps, 4e-3),
        ("dds_dropout", dropout, 3e-3),
        ("cavity_trip", trip, 3e-3),
        ("four_bunches", four, 3e-3),
        ("adc_faults", adc_faults, 3e-3),
    ]
}

/// Digest and audit-event count of each scenario in [`golden_scenarios`],
/// recorded from the per-sample chain (the first six before its
/// event-driven rewrite, `adc_faults` before block stepping).
const GOLDEN: [(&str, u64, usize); 7] = [
    ("plain", 0xb64ecb7d3de80832, 0),
    ("adc_noise", 0x9506b76f7eba11aa, 0),
    ("fast_jumps", 0xbef77ab6d51ee370, 0),
    ("dds_dropout", 0xf5d509de6295c542, 0),
    ("cavity_trip", 0x42d8db32d2b5ba0f, 0),
    ("four_bunches", 0x49b1964377087305, 0),
    ("adc_faults", 0xe38324ba3d2f396d, 0),
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

/// An engine + controller pair, driven the way `LoopHarness::run` drives
/// them (no supervisor).
struct Chain<E = SignalLevelEngine> {
    jumps: PhaseJumpProgram,
    engine: E,
    controller: BeamPhaseController,
    rows: Vec<Row>,
    jump_edges: u64,
}

impl Chain {
    fn new(s: &MdeScenario) -> Self {
        Self::with_engine(s, SignalLevelEngine::from_scenario(s).unwrap())
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

impl<E: BeamEngine> Chain<E> {
    fn with_engine(s: &MdeScenario, engine: E) -> Self {
        Self {
            jumps: s.jumps,
            engine,
            controller: BeamPhaseController::new(s.controller, s.f_rev * s.bunches as f64),
            rows: Vec::new(),
            jump_edges: 0,
        }
    }

    fn state(&self) -> Box<SignalLevelEngineState> {
        match self.engine.save_state() {
            EngineState::SignalLevel(s) => s,
            _ => unreachable!("signal-level engine"),
        }
    }

    fn sample(&self) -> u64 {
        self.state().sample
    }

    fn pulse_playing(&self) -> bool {
        self.state().fw.pulses[0].playing.is_some()
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

// ---------------------------------------------------------------------------
// Block stepping against the per-sample chain.
// ---------------------------------------------------------------------------

/// `SignalLevelEngine::step` as it ran before stretches between beam
/// pulses were block-stepped: every sample through the public per-sample
/// calls, in the same order, with the same per-step fault and cavity
/// refresh and the same period guard.
struct PerSampleEngine {
    bench: SignalBench,
    fw: SimulatorFramework,
    detector: PhaseDetector,
    faults: FaultProgram,
    plant: CavityPlant,
    period_samples: f64,
    sample: u64,
    period_admitted: u64,
    period_rejected: u64,
}

impl PerSampleEngine {
    fn new(s: &MdeScenario) -> Self {
        let bench = SignalBench::new(
            FS,
            s.f_rev,
            s.harmonic(),
            s.adc_amplitude,
            s.adc_amplitude,
            s.jumps,
        );
        let fw = SimulatorFramework::new(s.framework_config(), s.kernel_params().unwrap());
        let period_samples = FS / s.f_rev;
        let detector = PhaseDetector::with_zc_threshold(
            fw.config.pulse_amplitude * 0.25,
            f64::from(s.harmonic()),
            period_samples,
            fw.config.zc_threshold,
        );
        Self {
            bench,
            fw,
            detector,
            faults: s.faults.clone(),
            plant: CavityPlant::from_program(&s.faults),
            period_samples,
            sample: 0,
            period_admitted: 0,
            period_rejected: 0,
        }
    }
}

impl BeamEngine for PerSampleEngine {
    fn bunches(&self) -> usize {
        1
    }

    fn time(&self) -> f64 {
        self.sample as f64 / FS
    }

    fn step(&mut self, _jumps: &PhaseJumpProgram, phase_out: &mut [f64]) -> EngineStep {
        if !self.faults.is_empty() {
            let sf = self.faults.sample_faults_at(self.time());
            self.fw.set_adc_fault(sf.adc);
            self.bench.gap.set_dropout(sf.dds_dropout);
        }
        if !self.plant.is_idle() {
            let t = self.time();
            self.bench
                .set_cavity(self.plant.effective_scale_at(t), self.plant.detune_hz_at(t));
        }
        for _ in 0..(self.period_samples * 2.0) as usize {
            let (v_ref, v_gap) = self.bench.tick();
            let out = self.fw.push_sample(v_ref, v_gap);
            self.sample += 1;
            if let Some(p) = self.fw.measured_period() {
                let samples = p * FS;
                if samples > self.period_samples * 0.5 && samples < self.period_samples * 2.0 {
                    self.period_admitted += 1;
                    self.detector.set_period_samples(samples);
                } else {
                    self.period_rejected += 1;
                }
            }
            if let Some(m) = self.detector.push(v_ref, out.beam) {
                phase_out[0] = m.phase_deg;
                return EngineStep::Measured;
            }
        }
        EngineStep::Idle
    }

    fn apply_control(&mut self, u_hz: f64, _decimation: u32) {
        self.bench.set_control_frequency_offset(u_hz);
    }

    fn applied_jump_deg(&self) -> f64 {
        self.bench.applied_jump_deg()
    }

    fn save_state(&self) -> EngineState {
        EngineState::SignalLevel(Box::new(SignalLevelEngineState {
            bench: self.bench.state(),
            fw: self.fw.state(),
            detector: self.detector.state(),
            period_samples: self.period_samples,
            sample: self.sample,
            period_admitted: self.period_admitted,
            period_rejected: self.period_rejected,
            cavity: self.plant.state(),
        }))
    }

    fn restore_state(&mut self, _state: &EngineState) -> bool {
        false
    }
}

/// A fault window of kind `code % 4` (ADC saturation, stuck code, bit
/// flip, DDS dropout) on `[start_s, start_s + len_s)`.
fn signal_fault(code: u64, start_s: f64, len_s: f64) -> FaultEvent {
    let kind = match code % 4 {
        0 => FaultKind::AdcSaturation,
        1 => FaultKind::AdcStuckCode {
            code: (code / 4 % 16384) as i32 - 8192,
        },
        2 => FaultKind::AdcBitFlip {
            bit: (code / 4 % 14) as u32,
        },
        _ => FaultKind::DdsDropout,
    };
    FaultEvent {
        start_s,
        end_s: start_s + len_s,
        kind,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The block-stepped engine and the per-sample chain produce the same
    /// rows and jump edges step for step, and end with the same period
    /// guard and dropped-sample counters and the same CILCKPT bytes —
    /// across bunch counts, ADC noise, ADC and DDS fault windows, a cavity
    /// trip, fast jump programs (latency 0, or the first edge placed inside
    /// a stretch between pulses) and save/restore of the block-stepped
    /// chain at random step boundaries.
    #[test]
    fn block_stepping_matches_the_per_sample_chain(
        bunches in 1usize..5,
        noisy in any::<bool>(),
        fault_codes in prop::collection::vec(any::<u64>(), 0..4),
        fault_starts in prop::collection::vec(0.05f64..1.0, 4),
        fault_lens in prop::collection::vec(0.02f64..0.3, 4),
        trip in any::<bool>(),
        placed_edge in any::<bool>(),
        edge_offset in 30u64..200,
        interval_ms in 0.15f64..0.5,
        restore_at in prop::collection::vec(0.0f64..1.0, 0..4),
    ) {
        let seconds = 1.2e-3;
        let mut events: Vec<FaultEvent> = fault_codes
            .iter()
            .zip(fault_starts.iter().zip(&fault_lens))
            .map(|(&c, (&t, &len))| signal_fault(c, t * 1e-3, len * 1e-3))
            .collect();
        if trip {
            events.push(FaultEvent {
                start_s: 0.4e-3,
                end_s: 0.55e-3,
                kind: FaultKind::CavityTrip { recover_s: 0.2e-3 },
            });
        }
        let mut s = MdeScenario {
            bunches,
            adc_noise_rms: if noisy { 0.004 } else { 0.0 },
            faults: FaultProgram { seed: 0x5EED, events },
            jumps: PhaseJumpProgram {
                amplitude_deg: 8.0,
                interval_s: 1e9,
                path_latency_s: 0.0,
            },
            ..MdeScenario::nov24_2023()
        };
        let interval_s = interval_ms * 1e-3;
        s.jumps = if placed_edge {
            // Until the first edge the run does not depend on the program,
            // so probe it jump-free and put the edge some samples past a
            // measured step boundary: between two beam pulses.
            let mut probe = Chain::new(&s);
            while probe.engine.time() < interval_s {
                probe.step();
            }
            let edge = probe.sample() + edge_offset;
            let jumps = PhaseJumpProgram {
                amplitude_deg: 8.0,
                interval_s,
                path_latency_s: (edge as f64 - 0.5) / FS - interval_s,
            };
            prop_assert_eq!(first_edge_sample(&jumps), edge);
            jumps
        } else {
            PhaseJumpProgram {
                amplitude_deg: 8.0,
                interval_s,
                path_latency_s: 0.0,
            }
        };

        let mut reference = Chain::with_engine(&s, PerSampleEngine::new(&s));
        let mut block = Chain::new(&s);
        let mut step = 0usize;
        let mut restores: Vec<usize> = restore_at.iter().map(|f| (f * 900.0) as usize).collect();
        while reference.engine.time() < seconds {
            if restores.contains(&step) {
                restores.retain(|&r| r != step);
                let bytes = block.snapshot();
                let mut resumed = Chain::restore(&s, &bytes);
                resumed.rows = std::mem::take(&mut block.rows);
                prop_assert_eq!(resumed.snapshot(), bytes, "re-encoded at step {}", step);
                block = resumed;
            }
            reference.step();
            block.step();
            step += 1;
            prop_assert_eq!(reference.rows.last(), block.rows.last(), "row at step {}", step);
            prop_assert_eq!(reference.rows.len(), block.rows.len(), "rows at step {}", step);
            prop_assert_eq!(reference.jump_edges, block.jump_edges, "jump edges at step {}", step);
        }
        prop_assert!(reference.jump_edges >= 2, "the run crosses jump edges");
        let (want, got) = (reference.state(), block.state());
        prop_assert_eq!(
            (want.period_admitted, want.period_rejected, want.detector.dropped),
            (got.period_admitted, got.period_rejected, got.detector.dropped)
        );
        prop_assert_eq!(reference.snapshot(), block.snapshot(), "final CILCKPT bytes");
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

#[test]
fn out_of_range_revolution_frequencies_are_rejected() {
    // 20 and 40 MHz put β above 1 on the 216.72 m orbit; -1 and NaN are
    // no frequency at all. Every engine builder must refuse them with a
    // typed error instead of panicking in the kernel builder or the DDS.
    for f_rev in [20e6, 40e6, -1.0, f64::NAN] {
        let s = MdeScenario {
            f_rev,
            ..one_bunch()
        };
        for kind in [
            EngineKind::Map,
            EngineKind::Cgra,
            EngineKind::RefTrack {
                particles: 8,
                seed: 1,
            },
        ] {
            assert!(
                matches!(kind.build(&s), Err(CilError::InvalidConfig(_))),
                "{kind:?} accepted f_rev {f_rev}"
            );
        }
        assert!(
            matches!(
                SignalLevelEngine::from_scenario(&s),
                Err(CilError::InvalidConfig(_))
            ),
            "signal level accepted f_rev {f_rev}"
        );
    }
    // A valid revolution frequency whose gap harmonic the DDS cannot
    // synthesise at 250 MS/s (1.3 MHz × 100 = 130 MHz > 125 MHz).
    let s = MdeScenario {
        f_rev: 1.3e6,
        machine: cil_physics::machine::MachineParams::sis18_with_harmonic(100),
        ..one_bunch()
    };
    assert!(matches!(
        SignalLevelEngine::from_scenario(&s),
        Err(CilError::InvalidConfig(_))
    ));
}
