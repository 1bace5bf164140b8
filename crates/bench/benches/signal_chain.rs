//! Criterion: the signal-level chain, component by component and end to
//! end (samples/s through the full framework, per sample and through
//! `SignalLevelEngine::step`).
//!
//! The end-to-end number, divided into 250 MS/s, is the slowdown factor of
//! our software model vs the real-time hardware — the cost of fidelity
//! that ablation A6 reports at experiment scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use cil_core::engine::{BeamEngine, SignalLevelEngine};
use cil_core::framework::SimulatorFramework;
use cil_core::scenario::MdeScenario;
use cil_core::signalgen::{PhaseJumpProgram, SignalBench};
use cil_dsp::dds::Dds;
use cil_dsp::fir::FirFilter;
use cil_dsp::period::PeriodLengthDetector;
use cil_dsp::phase_detector::PhaseDetector;
use cil_dsp::ring_buffer::CaptureRingBuffer;

fn bench_components(c: &mut Criterion) {
    let mut g = c.benchmark_group("dsp_components");
    g.throughput(Throughput::Elements(1));

    g.bench_function("dds_tick", |b| {
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(3.2e6);
        b.iter(|| black_box(dds.tick()));
    });

    g.bench_function("ring_buffer_push_read", |b| {
        let mut buf = CaptureRingBuffer::paper_sized();
        let mut i = 0u64;
        b.iter(|| {
            buf.push(i as f64);
            i += 1;
            black_box(buf.read_back(100))
        });
    });

    g.bench_function("period_detector_push", |b| {
        let mut det = PeriodLengthDetector::paper_default();
        let mut ph = 0.0f64;
        b.iter(|| {
            ph += std::f64::consts::TAU * 800e3 / 250e6;
            black_box(det.push(ph.sin()))
        });
    });

    g.bench_function("phase_detector_push", |b| {
        let mut det = PhaseDetector::new(0.2, 4.0, 312.5);
        let mut i = 0u64;
        b.iter(|| {
            let t = i as f64;
            i += 1;
            let r = (std::f64::consts::TAU * t / 312.5).sin();
            let beam = (-0.5 * ((t % 312.5 - 50.0) / 5.0).powi(2)).exp();
            black_box(det.push(r, beam))
        });
    });

    g.bench_function("fir_63tap_push", |b| {
        let mut f = FirFilter::lowpass(0.01, 63);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(f.push((i as f64 * 0.01).sin()))
        });
    });

    g.finish();
}

fn bench_framework(c: &mut Criterion) {
    let mut g = c.benchmark_group("signal_level");
    g.throughput(Throughput::Elements(1));

    let mut s = MdeScenario::nov24_2023();
    s.bunches = 1;
    let mut fw = SimulatorFramework::new(s.framework_config(), s.kernel_params().unwrap());
    let mut bench = SignalBench::new(
        250e6,
        s.f_rev,
        s.harmonic(),
        s.adc_amplitude,
        s.adc_amplitude,
        PhaseJumpProgram::evaluation_default(),
    );
    g.bench_function("framework_push_sample", |b| {
        b.iter(|| {
            let (r, gp) = bench.tick();
            black_box(fw.push_sample(r, gp))
        });
    });

    // The engine's own loop, which runs the stretches between beam pulses
    // as blocks: one iteration steps 1 ms of bench time (250k samples at
    // 250 MS/s), so samples/s = 250e3 / (ns/iter · 1e-9).
    const SAMPLES_PER_ITER: u64 = 250_000;
    let mut engine = SignalLevelEngine::from_scenario(&s).unwrap();
    let mut phase = [0.0];
    while engine.time() < 0.2e-3 {
        engine.step(&s.jumps, &mut phase);
    }
    g.throughput(Throughput::Elements(SAMPLES_PER_ITER));
    g.bench_function("engine_step", |b| {
        b.iter(|| {
            let until = engine.time() + SAMPLES_PER_ITER as f64 / 250e6;
            while engine.time() < until {
                engine.step(&s.jumps, &mut phase);
            }
            black_box(phase[0])
        });
    });
    g.finish();
}

criterion_group!(benches, bench_components, bench_framework);
criterion_main!(benches);
