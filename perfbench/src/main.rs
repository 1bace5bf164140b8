//! The repository benchmark.
//!
//! ```text
//! cil-perfbench --workload <signal_loop|turn_loop|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run executes all three parts — the signal-level loop, the
//! turn-level fidelity loops and the session fleet — so every run reports
//! every metric. `--workload` picks the part that gets half of the
//! measurement window (`--seconds`); the other two share the rest.
//! With `--trace 0` the run reports the end-to-end metrics, measured with
//! no spans; with `--trace 1` it reports the per-layer metrics, timed by
//! spans around the calls this benchmark makes into each layer.
//!
//! Output checks fail the run: the last stdout line then says
//! `"correct": false` and the exit code is 1.

mod fleet;
mod host;
mod signal;
mod stats;
mod trace;
mod turn;

use std::process::ExitCode;
use std::time::Instant;

use cil_core::engine::EngineKind;
use stats::{median, percentile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SignalLoop,
    TurnLoop,
    Fleet,
}

impl Workload {
    const ALL: [Workload; 3] = [Self::SignalLoop, Self::TurnLoop, Self::Fleet];

    fn name(self) -> &'static str {
        match self {
            Self::SignalLoop => "signal_loop",
            Self::TurnLoop => "turn_loop",
            Self::Fleet => "fleet",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        match key.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

/// One reported metric with the number of samples behind it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Listed in `BENCHMARK.json` and the result line; an unlisted metric
    /// appears only in the full record.
    listed: bool,
}

/// Everything one run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    digests: Vec<(&'static str, u64)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            listed: true,
        });
    }

    /// Median of per-unit values, as a metric.
    fn median_of(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.quantile_of(name, values, unit, 0.5);
    }

    /// The `q`-quantile of per-unit values, as a metric.
    fn quantile_of(&mut self, name: &str, values: &[f64], unit: &'static str, q: f64) {
        if values.len() > 1 {
            let list: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            self.notes
                .push(format!("{name} per unit [{unit}]: {}", list.join(" ")));
        }
        let value = if values.is_empty() {
            f64::NAN
        } else {
            percentile(values, q)
        };
        self.metric(name, value, unit, values.len());
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// Record a part's output digest; every unit of a part must produce the
    /// same outputs.
    fn digest(&mut self, part: &'static str, value: u64) {
        match self.digests.iter().find(|(p, _)| *p == part) {
            Some(&(_, first)) if first != value => self.failures.push(format!(
                "{part}: outputs differ between units ({first:016x} vs {value:016x})"
            )),
            Some(_) => {}
            None => self.digests.push((part, value)),
        }
    }
}

/// Per-unit samples of the end-to-end metrics.
#[derive(Default)]
struct EndToEnd {
    signal_x_realtime: Vec<f64>,
    revs_per_s: [Vec<f64>; 3],
    fleet_revs_per_s: Vec<f64>,
    /// Per churn unit: step p50, step p99, evict p50, evict p99 (ms), each
    /// from that unit's raw request samples.
    latency: [Vec<f64>; 4],
    /// Raw request samples behind `latency`.
    requests: usize,
    /// Peak RSS after the first fleet burst, MiB. The scheduler's first
    /// pass runs a signal loop and the turn loops before it, so this covers
    /// one unit of every kind of work; later units only add allocator
    /// fragmentation, and how many of them fit depends on speed.
    peak_rss_mb: Option<f64>,
}

/// Per-unit samples of the per-layer metrics (name → values, in report
/// order).
#[derive(Default)]
struct Layers {
    values: Vec<(String, &'static str, Vec<f64>)>,
}

impl Layers {
    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, v)) => v.push(value),
            None => self.values.push((name.to_string(), unit, vec![value])),
        }
    }
}

struct Ctx {
    seed: u64,
    workers: usize,
    empty_span_ns: f64,
}

// --------------------------------------------------------------------------
// Set-up
// --------------------------------------------------------------------------

/// Set-up repetitions before the window, and again before every unit in
/// it; `setup_s` is the median of all of them. Spreading them over
/// the window puts them under the same host conditions as the units: a
/// set-up is ~4 ms, so repetitions taken only at process start all land in
/// whatever state the host is in at that moment.
const SETUP_REPS_BEFORE: usize = 5;
const SETUP_REPS_PER_UNIT: usize = 5;

/// What one set-up cost.
struct Setup {
    wall_s: f64,
    /// Cold-compile seconds, and the kernel cache's hits and misses, within
    /// this set-up.
    compile_s: f64,
    hits: u64,
    misses: u64,
}

/// One set-up: cold CGRA compile, every engine built and warmed, a mux
/// spawned, run one session through and shut down.
fn setup_once(ctx: &Ctx) -> cil_core::error::Result<Setup> {
    use cil_core::engine::{BeamEngine, SignalLevelEngine, StepBlock};
    let cache = cil_cgra::cache::global();
    cache.clear();
    let t0 = Instant::now();
    let s = signal::scenario();
    let mut engine = SignalLevelEngine::from_scenario(&s)?;
    let mut phase = [0.0];
    for _ in 0..64 {
        engine.step(&s.jumps, &mut phase);
    }
    let mut block = StepBlock::new();
    for f in turn::fidelities(ctx.seed) {
        let s = turn::scenario(f.rows);
        let mut engine = f.kind.build(&s)?;
        for _ in 0..4 {
            engine.step_block(&s.jumps, s.duration_s, 64, &mut block);
        }
    }
    let mux = cil_core::session::SessionMux::new(cil_core::session::MuxConfig {
        workers: ctx.workers,
        ..Default::default()
    })?;
    let mut warm = turn::scenario(256);
    warm.duration_s = 255.5 / warm.f_rev;
    let h = mux.create(cil_core::session::SessionSpec::new(warm, EngineKind::Map))?;
    h.run_to_end()?;
    h.join()?;
    drop(mux);
    Ok(Setup {
        wall_s: t0.elapsed().as_secs_f64(),
        compile_s: cache.compile_seconds(),
        hits: cache.hits(),
        misses: cache.misses(),
    })
}

// --------------------------------------------------------------------------
// End-to-end units (no spans)
// --------------------------------------------------------------------------

fn signal_unit(r: &mut Report, e: &mut EndToEnd) {
    r.attempted += 1;
    let run = match signal::run_loop() {
        Ok(run) => run,
        Err(err) => return r.fail(format!("signal loop: {err}")),
    };
    match signal::check(&run) {
        Ok(ratio) => {
            e.signal_x_realtime.push(run.x_realtime());
            r.digest("signal_loop", stats::trace_digest(&run.trace));
            if e.signal_x_realtime.len() == 1 {
                r.notes.push(format!(
                    "signal_loop: {} rows, first peak {ratio:.3}x the jump \
                     (EXPERIMENTS.md {} ± {})",
                    run.trace.times.len(),
                    signal::FIRST_PEAK_RATIO,
                    signal::FIRST_PEAK_TOLERANCE
                ));
            }
        }
        Err(msg) => r.fail(msg),
    }
}

fn turn_unit(ctx: &Ctx, r: &mut Report, e: &mut EndToEnd) {
    let mut digest = stats::Digest::default();
    for (i, f) in turn::fidelities(ctx.seed).iter().enumerate() {
        r.attempted += 1;
        match turn::run_supervised(f) {
            Ok(run) => match turn::check(f, &run.trace) {
                Ok(()) => {
                    e.revs_per_s[i].push(f.rows as f64 / run.wall_s);
                    digest.word(stats::trace_digest(&run.trace));
                }
                Err(msg) => r.fail(msg),
            },
            Err(err) => r.fail(format!("{} loop: {err}", f.label)),
        }
    }
    r.digest("turn_loop", digest.value());
}

/// Bursts per fleet unit: a burst is short next to a churn loop, so each
/// unit samples it several times.
const BURSTS_PER_UNIT: usize = 3;

fn fleet_unit(ctx: &Ctx, r: &mut Report, e: &mut EndToEnd) {
    let lengths = fleet::burst_lengths(ctx.seed);
    for _ in 0..BURSTS_PER_UNIT {
        r.attempted += lengths.len() as u64;
        match fleet::burst(&lengths, ctx.workers, false) {
            Ok(b) => {
                r.failed += b.failed;
                r.failures.extend(b.errors);
                e.fleet_revs_per_s.push(b.rows as f64 / b.wall_s);
                r.digest("fleet.burst", b.digest);
                e.peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
            }
            Err(msg) => {
                r.failed += lengths.len() as u64;
                r.failures.push(msg);
            }
        }
    }
    let requests = fleet::CHURN_SESSIONS as u64 * fleet::CHURN_ROUNDS;
    r.attempted += requests;
    match fleet::churn(ctx.workers, false) {
        Ok(c) => {
            for (i, (samples, q)) in [
                (&c.step_ms, 0.5),
                (&c.step_ms, 0.99),
                (&c.evict_ms, 0.5),
                (&c.evict_ms, 0.99),
            ]
            .into_iter()
            .enumerate()
            {
                e.latency[i].push(percentile(samples, q));
            }
            e.requests += c.step_ms.len();
            r.digest("fleet.churn", c.digest);
        }
        Err(msg) => {
            r.failed += requests;
            r.failures.push(msg);
        }
    }
}

// --------------------------------------------------------------------------
// Traced units
// --------------------------------------------------------------------------

fn signal_traced(ctx: &Ctx, r: &mut Report, l: &mut Layers) {
    r.attempted += 1;
    let result = (|| -> Result<(), String> {
        let run = signal::run_loop().map_err(|e| e.to_string())?;
        signal::check(&run)?;
        let plain = signal::run_chain::<false>().map_err(|e| e.to_string())?;
        signal::replica_matches(&plain, &run.trace)?;
        let traced = signal::run_chain::<true>().map_err(|e| e.to_string())?;
        signal::replica_matches(&traced, &run.trace)?;
        let (engine_rows, engine_wall) = signal::engine_only().map_err(|e| e.to_string())?;
        r.digest("signal_loop", stats::trace_digest(&run.trace));
        let rows = run.trace.times.len() as f64;
        let net = |s: trace::SpanSum| s.mean_ns() - ctx.empty_span_ns;
        l.push("signalgen.tick_ns", "ns", net(traced.spans.tick));
        l.push(
            "framework.push_sample_ns",
            "ns",
            net(traced.spans.framework),
        );
        l.push("phase_detector.push_ns", "ns", net(traced.spans.detector));
        l.push(
            "control.signal_ns_per_row",
            "ns/row",
            net(traced.spans.control),
        );
        l.push(
            "harness.signal_ns_per_row",
            "ns/row",
            run.wall_s * 1e9 / rows - engine_wall * 1e9 / engine_rows as f64,
        );
        l.push(
            "signal.samples_per_row",
            "samples/row",
            traced.samples as f64 / rows,
        );
        let periods = (traced.period_admitted + traced.period_rejected).max(1) as f64;
        l.push(
            "phase_detector.period_admit_ratio",
            "ratio",
            traced.period_admitted as f64 / periods,
        );
        l.push(
            "phase_detector.dropped_samples",
            "count",
            traced.dropped_samples as f64,
        );
        l.push(
            "trace.signal_loop.overhead",
            "ratio",
            traced.wall_s / plain.wall_s,
        );
        Ok(())
    })();
    if let Err(msg) = result {
        r.fail(msg);
    }
}

fn turn_traced(ctx: &Ctx, r: &mut Report, l: &mut Layers) {
    let mut digest = stats::Digest::default();
    for f in turn::fidelities(ctx.seed) {
        r.attempted += 1;
        let result = (|| -> Result<(), String> {
            let (_, plain_wall, _) = turn::engine_only::<false>(&f).map_err(|e| e.to_string())?;
            let (rows, traced_wall, blocks) =
                turn::engine_only::<true>(&f).map_err(|e| e.to_string())?;
            if rows != f.rows {
                return Err(format!(
                    "{} engine stepped {rows} rows, expected {}",
                    f.label, f.rows
                ));
            }
            let engine_ns =
                (blocks.nanos as f64 - blocks.count as f64 * ctx.empty_span_ns) / rows as f64;
            let run_ns = turn::run_plain(&f, false).map_err(|e| e.to_string())?;
            let sup = turn::run_supervised(&f).map_err(|e| e.to_string())?;
            turn::check(&f, &sup.trace)?;
            digest.word(stats::trace_digest(&sup.trace));
            let sup_ns = sup.wall_s * 1e9 / f.rows as f64;
            let name = |layer: &str, metric: &str| format!("{layer}.{}.{metric}", f.label);
            l.push(&name("engine", "step_ns_per_row"), "ns/row", engine_ns);
            l.push(
                &name("harness", "self_ns_per_row"),
                "ns/row",
                run_ns - engine_ns,
            );
            l.push(
                &name("fault", "supervisor_ns_per_row"),
                "ns/row",
                sup_ns - run_ns,
            );
            match f.kind {
                EngineKind::Map => {
                    l.push("harness.map.share", "ratio", (run_ns - engine_ns) / run_ns);
                    let tel_ns = turn::run_plain(&f, true).map_err(|e| e.to_string())?;
                    l.push("telemetry.map.ns_per_row", "ns/row", tel_ns - run_ns);
                    l.push(
                        "control.push_measurement_ns",
                        "ns",
                        turn::push_measurement_ns(&sup.trace.mean_phase_deg),
                    );
                    l.push(
                        "trace.turn_loop.overhead",
                        "ratio",
                        traced_wall / plain_wall,
                    );
                }
                EngineKind::RefTrack { particles, .. } => l.push(
                    "reftrack.ns_per_particle_turn",
                    "ns",
                    engine_ns / particles as f64,
                ),
                EngineKind::Cgra => {}
            }
            Ok(())
        })();
        if let Err(msg) = result {
            r.fail(msg);
        }
    }
    r.digest("turn_loop", digest.value());
}

fn fleet_traced(ctx: &Ctx, r: &mut Report, l: &mut Layers) {
    let lengths = fleet::burst_lengths(ctx.seed);
    r.attempted += 2 * lengths.len() as u64;
    let bursts = fleet::burst(&lengths, ctx.workers, false)
        .and_then(|plain| Ok((plain, fleet::burst(&lengths, ctx.workers, true)?)));
    match bursts {
        Ok((plain, b)) => {
            r.failed += plain.failed + b.failed;
            r.failures.extend(plain.errors);
            r.failures.extend(b.errors);
            r.digest("fleet.burst", plain.digest);
            r.digest("fleet.burst", b.digest);
            l.push("session.create_us", "us", b.create_us);
            l.push("session.queue_wait_mean_ms", "ms", b.queue_wait_mean_ms);
            l.push("session.worker_busy_frac", "ratio", b.worker_busy_frac);
            l.push("session.slice_ns_per_row", "ns/row", b.slice_ns_per_row);
            l.push("session.steals", "count", b.steals as f64);
            l.push("sweep.arena_hit_ratio", "ratio", b.arena_hit_ratio);
            l.push("trace.fleet.overhead", "ratio", b.total_s / plain.total_s);
        }
        Err(msg) => {
            r.failed += 2 * lengths.len() as u64;
            r.failures.push(msg);
        }
    }
    let requests = fleet::CHURN_SESSIONS as u64 * fleet::CHURN_ROUNDS;
    r.attempted += requests;
    match fleet::churn(ctx.workers, true) {
        Ok(c) => {
            l.push(
                "checkpoint.evict_ns_per_trace_row",
                "ns/row",
                median(&c.evict_ns_per_row),
            );
            l.push(
                "checkpoint.snapshot_bytes_per_row",
                "B/row",
                median(&c.bytes_per_row),
            );
            l.push(
                "checkpoint.decode_ns_per_trace_row",
                "ns/row",
                median(&c.decode_ns_per_row),
            );
            l.push("checkpoint.restore_ms", "ms", fleet::restore_ms(&c));
            l.push("session.step_p99_ms", "ms", percentile(&c.step_ms, 0.99));
            l.push(
                "checkpoint.evict_p99_ms",
                "ms",
                percentile(&c.evict_ms, 0.99),
            );
            l.push("session.step_run_ms", "ms", median(&c.live_step_ms));
            l.push("session.evictions", "count", c.evictions as f64);
            l.push("session.restores", "count", c.restores as f64);
            r.digest("fleet.churn.traced", c.digest);
        }
        Err(msg) => {
            r.failed += requests;
            r.failures.push(msg);
        }
    }
}

// --------------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------------

/// Share of the measurement window the chosen workload's part gets; the
/// other two parts split the rest evenly.
const FOCUS_SHARE: f64 = 0.5;

/// Timing metrics report the per-unit (or per-repetition) value at the
/// faster quartile, not the median. On a shared VM every part can run ~30 %
/// slower for 10–20 s stretches, and stall for milliseconds at times; both
/// cover anywhere from none to over half of a run's units. The faster
/// quartile stays on unslowed units until three quarters of the run is
/// slowed, where the median flips at half. A change to the program moves
/// every unit, so it moves this quartile as much as the median.
const FAST_QUARTILE: f64 = 0.25;

fn run(args: &Args) -> Report {
    let workers = host::nproc();
    let mut ctx = Ctx {
        seed: args.seed,
        workers,
        empty_span_ns: 0.0,
    };
    let mut r = Report::default();

    let mut setups = Vec::new();
    let mut set_up = |ctx: &Ctx, r: &mut Report, reps: usize| {
        for _ in 0..reps {
            match setup_once(ctx) {
                Ok(s) => setups.push(s),
                Err(err) => r.fail(format!("set-up: {err}")),
            }
        }
    };
    set_up(&ctx, &mut r, SETUP_REPS_BEFORE);
    if args.traced {
        ctx.empty_span_ns = trace::empty_span_ns();
    }

    let mut e = EndToEnd::default();
    let mut l = Layers::default();
    let mut unit = |w: Workload, r: &mut Report| match (w, args.traced) {
        (Workload::SignalLoop, false) => signal_unit(r, &mut e),
        (Workload::TurnLoop, false) => turn_unit(&ctx, r, &mut e),
        (Workload::Fleet, false) => fleet_unit(&ctx, r, &mut e),
        (Workload::SignalLoop, true) => signal_traced(&ctx, r, &mut l),
        (Workload::TurnLoop, true) => turn_traced(&ctx, r, &mut l),
        (Workload::Fleet, true) => fleet_traced(&ctx, r, &mut l),
    };
    // Interleave the parts' units so slow phases of a shared host fall on
    // all of them alike: always run the part furthest behind its share of
    // the window, until the window is spent and every part ran at least
    // twice. Ties go to the earlier part, so the first pass runs signal,
    // turn, fleet in that order.
    let share = |w: Workload| {
        if w == args.workload {
            FOCUS_SHARE
        } else {
            (1.0 - FOCUS_SHARE) / 2.0
        }
    };
    let mut spent = [0.0f64; 3];
    let mut units = [0usize; 3];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || units.iter().any(|&n| n < 2) {
        let i = (0..3)
            .min_by(|&a, &b| {
                let behind = |i: usize| spent[i] / share(Workload::ALL[i]);
                behind(a).total_cmp(&behind(b))
            })
            .expect("three parts");
        set_up(&ctx, &mut r, SETUP_REPS_PER_UNIT);
        let t0 = Instant::now();
        unit(Workload::ALL[i], &mut r);
        spent[i] += t0.elapsed().as_secs_f64();
        units[i] += 1;
    }
    r.notes.push(format!(
        "units in the window: signal_loop {}, turn_loop {}, fleet {}",
        units[0], units[1], units[2]
    ));

    if args.traced {
        for (name, unit, values) in &l.values {
            r.median_of(name, values, unit);
        }
        let per_setup = |f: fn(&Setup) -> f64| setups.iter().map(f).collect::<Vec<_>>();
        r.median_of("cgra.cache.compile_s", &per_setup(|s| s.compile_s), "s");
        r.median_of("cgra.cache.hits", &per_setup(|s| s.hits as f64), "count");
        r.median_of(
            "cgra.cache.misses",
            &per_setup(|s| s.misses as f64),
            "count",
        );
        r.metric("trace.empty_span_ns", ctx.empty_span_ns, "ns", 1);
    } else {
        // The median, not the faster quartile: a set-up is too short to
        // span a slow stretch of the host, so each repetition lands wholly
        // in one host state, and the median over the window's repetitions
        // (~160 in 35 s) tracks the share of time in each state smoothly,
        // where the faster quartile jumps between the states' levels.
        let wall: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
        r.median_of("setup_s", &wall, "s");
        r.metric("peak_rss_mb", e.peak_rss_mb.unwrap_or(f64::NAN), "MiB", 1);
        r.quantile_of(
            "signal_x_realtime",
            &e.signal_x_realtime,
            "x",
            FAST_QUARTILE,
        );
        for (i, name) in ["map_revs_per_s", "cgra_revs_per_s", "reftrack_revs_per_s"]
            .into_iter()
            .enumerate()
        {
            r.quantile_of(name, &e.revs_per_s[i], "rows/s", 1.0 - FAST_QUARTILE);
        }
        r.quantile_of(
            "fleet_revs_per_s",
            &e.fleet_revs_per_s,
            "rows/s",
            1.0 - FAST_QUARTILE,
        );
        // Percentiles of each churn unit's raw samples (1000 requests, so
        // ten lie beyond the p99), then the faster quartile over units: a
        // host stall moves one unit's tail, not the run's. The p99s are
        // recorded but not listed: a hypervisor stall of a few ms lands in
        // the top 1 % of ~1 ms requests, so on a shared VM their spread
        // across runs reaches 0.35–0.75, beyond the largest bound
        // `BENCHMARK.json` allows (0.25).
        let units = e.latency[0].len();
        for (i, name) in ["step_p50_ms", "step_p99_ms", "evict_p50_ms", "evict_p99_ms"]
            .into_iter()
            .enumerate()
        {
            r.quantile_of(name, &e.latency[i], "ms", FAST_QUARTILE);
            if let Some(m) = r.metrics.last_mut() {
                m.samples = e.requests;
                m.listed = !name.ends_with("_p99_ms");
            }
        }
        r.notes.push(format!(
            "churn latencies: {} requests in {units} units, percentiles per unit, faster quartile over units",
            e.requests
        ));
    }
    for m in &r.metrics {
        if !m.value.is_finite() {
            r.failures.push(format!("{}: no valid samples", m.name));
        }
    }
    r
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("cil-perfbench: {msg}");
            eprintln!(
                "usage: cil-perfbench --workload <signal_loop|turn_loop|fleet> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let stamp = host::HostStamp::detect();
    println!(
        "host: {} cores, {}, {}, commit {}, {} build, {} mux workers + {} generator thread",
        stamp.nproc,
        stamp.cpu,
        stamp.rustc,
        stamp.commit,
        stamp.profile,
        stamp.mux_workers,
        stamp.generator_threads
    );
    if stamp.oversubscribed() {
        println!(
            "host: OVERSUBSCRIBED — {} mux workers + {} generator thread > {} cores",
            stamp.mux_workers, stamp.generator_threads, stamp.nproc
        );
    }
    println!(
        "run: workload {}, seed {}, {} s window, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );

    let report = run(&args);

    for note in &report.notes {
        println!("{note}");
    }
    for (part, d) in &report.digests {
        println!("digest {part}: {d:016x}");
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "error_rate = {error_rate} ({} failed / {} attempted)",
        report.failed, report.attempted
    );
    for m in &report.metrics {
        println!(
            "{} = {} {} (n={})",
            m.name,
            json_num(m.value),
            m.unit,
            m.samples
        );
    }
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = report.failures.is_empty() && report.failed == 0;

    let metrics = |with_samples: bool| {
        report
            .metrics
            .iter()
            .filter(|m| with_samples || m.listed)
            .map(|m| {
                let samples = if with_samples {
                    format!(", \"samples\": {}", m.samples)
                } else {
                    String::new()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                    host::json_str(&m.name),
                    json_num(m.value),
                    host::json_str(m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let digests = report
        .digests
        .iter()
        .map(|(p, d)| format!("{}: \"{d:016x}\"", host::json_str(p)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"record\": \"perfbench\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, {}, \"error_rate\": {}, \"digests\": {{{digests}}}, \
         \"metrics\": {{{}}}}}",
        host::json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.traced),
        stamp.json_members(),
        json_num(error_rate),
        metrics(true)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics(false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
