//! `fleet`: a `SessionMux` with one worker per core, driven by this single
//! generator thread. Phase (a) is a burst of short and long Map sessions
//! armed at once; phase (b) is a closed loop of step-then-evict requests
//! over long sessions, so every request restores from checkpoint bytes.

use std::time::Instant;

use cil_core::checkpoint::{decode_snapshot, decode_trace_log};
use cil_core::engine::EngineKind;
use cil_core::harness::LoopTrace;
use cil_core::scenario::MdeScenario;
use cil_core::session::{MuxConfig, SessionHandle, SessionMux, SessionSpec, SessionState};
use cil_core::telemetry::TelemetryRegistry;

use crate::stats::{median, trace_digest, Digest, SeedRng};
use crate::trace::SpanSum;

/// Sessions in the burst.
pub const BURST_SESSIONS: usize = 1000;
/// Share of burst sessions that are short ("hot").
const HOT_SHARE: f64 = 0.9;
/// Row ranges of hot and cold burst sessions.
const HOT_ROWS: (u64, u64) = (256, 768);
const COLD_ROWS: (u64, u64) = (2048, 6144);
/// Sessions in the churn loop.
pub const CHURN_SESSIONS: usize = 100;
/// Rows each churn request advances a session by.
pub const CHURN_CHUNK: u64 = 1024;
/// Measured churn rounds (after one untimed warm-up round).
pub const CHURN_ROUNDS: u64 = 10;

/// A Map session of exactly `rows` rows (end time half a revolution past
/// the last row).
fn spec(rows: u64) -> SessionSpec {
    let mut s = MdeScenario::nov24_2023();
    s.bunches = 1;
    s.duration_s = (rows as f64 - 0.5) / s.f_rev;
    SessionSpec::new(s, EngineKind::Map)
}

/// The seeded 90/10 hot/cold burst lengths.
pub fn burst_lengths(seed: u64) -> Vec<u64> {
    let mut rng = SeedRng::new(seed ^ 0xF1EE_7000);
    (0..BURST_SESSIONS)
        .map(|_| {
            let (lo, hi) = if rng.unit() < HOT_SHARE {
                HOT_ROWS
            } else {
                COLD_ROWS
            };
            rng.range(lo, hi)
        })
        .collect()
}

fn mux(workers: usize) -> cil_core::error::Result<SessionMux> {
    SessionMux::new(MuxConfig {
        workers,
        ..MuxConfig::default()
    })
}

fn counter(reg: &TelemetryRegistry, name: &str) -> u64 {
    reg.counter(name).get()
}

/// Phase (a) results.
pub struct Burst {
    pub rows: u64,
    /// Arm-to-last-join wall, seconds: the aggregate-throughput window.
    pub wall_s: f64,
    /// Create + arm + join wall, seconds.
    pub total_s: f64,
    pub create_us: f64,
    pub queue_wait_mean_ms: f64,
    pub worker_busy_frac: f64,
    pub slice_ns_per_row: f64,
    pub steals: u64,
    pub arena_hit_ratio: f64,
    /// Sessions that failed, lost the beam or ran the wrong length.
    pub failed: u64,
    pub errors: Vec<String>,
    pub digest: u64,
}

/// Run the burst: create every session, arm them all, join them all.
/// `traced` wraps each `create` call in its own span.
pub fn burst(lengths: &[u64], workers: usize, traced: bool) -> Result<Burst, String> {
    let mux = mux(workers).map_err(|e| e.to_string())?;
    let t_create = Instant::now();
    let mut create_spans = SpanSum::default();
    let mut handles = Vec::with_capacity(lengths.len());
    for &rows in lengths {
        let span = traced.then(Instant::now);
        handles.push(mux.create(spec(rows)).map_err(|e| e.to_string())?);
        if let Some(t) = span {
            create_spans.nanos += t.elapsed().as_nanos() as u64;
            create_spans.count += 1;
        }
    }
    let create_us = if traced {
        create_spans.mean_ns() / 1e3
    } else {
        t_create.elapsed().as_secs_f64() * 1e6 / lengths.len() as f64
    };

    let t0 = Instant::now();
    for h in &handles {
        h.run_to_end().map_err(|e| e.to_string())?;
    }
    let mut digest = Digest::default();
    let mut rows = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    // `join` succeeds only for a session that ended `Finished`.
    for (h, &want) in handles.iter().zip(lengths) {
        match h.join() {
            Ok(trace) => {
                let got = trace.times.len() as u64;
                rows += got;
                digest.trace(&trace);
                if !trace.survived() || got != want {
                    failed += 1;
                    errors.push(format!(
                        "session {}: {got}/{want} rows, {:?}",
                        h.id(),
                        trace.outcome
                    ));
                }
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("session {}: {e}", h.id()));
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let total_s = t_create.elapsed().as_secs_f64();

    let reg = mux.telemetry().clone();
    let dispatch = reg.histogram("cil_mux_dispatch_latency_wall_seconds");
    let slices = reg.histogram("cil_mux_slice_wall_seconds");
    let steals = counter(&reg, "cil_mux_steals_total");
    let queue_wait_mean_ms = dispatch.sum() * 1e3 / dispatch.count().max(1) as f64;
    let worker_busy_frac = slices.sum() / (workers as f64 * wall_s);
    let slice_ns_per_row = slices.sum() * 1e9 / rows.max(1) as f64;
    // Workers fold their arena counters into the registry as they exit.
    drop(handles);
    drop(mux);
    let hits = counter(&reg, "cil_arena_hits_total") as f64;
    let misses = counter(&reg, "cil_arena_misses_total") as f64;
    Ok(Burst {
        rows,
        wall_s,
        total_s,
        create_us,
        queue_wait_mean_ms,
        worker_busy_frac,
        slice_ns_per_row,
        steals,
        arena_hit_ratio: hits / (hits + misses).max(1.0),
        failed,
        errors,
        digest: digest.value(),
    })
}

/// Phase (b) results. Latencies in milliseconds, one sample per request.
#[derive(Default)]
pub struct Churn {
    pub requests: u64,
    pub step_ms: Vec<f64>,
    pub evict_ms: Vec<f64>,
    /// Traced only: a step with no eviction before it.
    pub live_step_ms: Vec<f64>,
    /// Traced only: evict ns per trace row held at eviction.
    pub evict_ns_per_row: Vec<f64>,
    /// Traced only: snapshot + trace-log decode ns per trace row.
    pub decode_ns_per_row: Vec<f64>,
    /// Traced only: snapshot bytes per trace row.
    pub bytes_per_row: Vec<f64>,
    pub evictions: u64,
    pub restores: u64,
    pub digest: u64,
}

fn wait_parked(h: &SessionHandle, rows: u64) -> Result<(), String> {
    let status = h.wait().map_err(|e| e.to_string())?;
    if status.state != SessionState::Parked || status.rows != rows {
        return Err(format!(
            "churn session {}: {:?} at {} rows, expected parked at {rows}",
            h.id(),
            status.state,
            status.rows
        ));
    }
    Ok(())
}

fn evict(h: &SessionHandle) -> Result<(), String> {
    if h.evict().map_err(|e| e.to_string())? {
        Ok(())
    } else {
        Err(format!("churn session {} was not evicted", h.id()))
    }
}

/// Decode eviction bytes as the session layer stores them —
/// `[u64 le snapshot length][snapshot][framed trace log]` — and return the
/// row count the snapshot and the trace log each hold.
fn decode_evicted(bytes: &[u8]) -> Result<(u64, usize), String> {
    let head: [u8; 8] = bytes
        .get(..8)
        .and_then(|h| h.try_into().ok())
        .ok_or("eviction bytes shorter than their header")?;
    let rest = &bytes[8..];
    let len = usize::try_from(u64::from_le_bytes(head))
        .ok()
        .filter(|&l| l <= rest.len())
        .ok_or("snapshot length exceeds the eviction bytes")?;
    let ck = decode_snapshot(&rest[..len]).map_err(|e| e.to_string())?;
    let log = decode_trace_log(&rest[len..]).map_err(|e| e.to_string())?;
    Ok((ck.rows, log.times.len()))
}

/// Run the churn loop. `traced` adds, per request, a second step with no
/// eviction before it and a timed decode of the eviction bytes.
pub fn churn(workers: usize, traced: bool) -> Result<Churn, String> {
    let mux = mux(workers).map_err(|e| e.to_string())?;
    let steps_per_round = if traced { 2 } else { 1 };
    let total_rows = (1 + CHURN_ROUNDS * steps_per_round) * CHURN_CHUNK + CHURN_CHUNK / 2;
    let handles = (0..CHURN_SESSIONS)
        .map(|_| mux.create(spec(total_rows)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    // Warm-up round: every session runs once and is evicted, so each
    // measured request restores from bytes.
    for h in &handles {
        h.step_to(CHURN_CHUNK).map_err(|e| e.to_string())?;
        wait_parked(h, CHURN_CHUNK)?;
        evict(h)?;
    }
    let reg = mux.telemetry().clone();
    let evictions0 = counter(&reg, "cil_mux_evictions_total");
    let restores0 = counter(&reg, "cil_mux_restores_total");
    let mut out = Churn::default();
    let mut rows = CHURN_CHUNK;
    for _ in 0..CHURN_ROUNDS {
        for h in &handles {
            let mut at = rows + CHURN_CHUNK;
            let t0 = Instant::now();
            h.step_to(at).map_err(|e| e.to_string())?;
            wait_parked(h, at)?;
            out.step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if traced {
                at += CHURN_CHUNK;
                let t0 = Instant::now();
                h.step_to(at).map_err(|e| e.to_string())?;
                wait_parked(h, at)?;
                out.live_step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            let t0 = Instant::now();
            evict(h)?;
            let evict_s = t0.elapsed().as_secs_f64();
            out.evict_ms.push(evict_s * 1e3);
            out.requests += 1;
            if traced {
                out.evict_ns_per_row.push(evict_s * 1e9 / at as f64);
                let bytes = h.snapshot().map_err(|e| e.to_string())?;
                let t0 = Instant::now();
                let (snap_rows, log_rows) = decode_evicted(&bytes)?;
                let decode_s = t0.elapsed().as_secs_f64();
                if snap_rows != at || log_rows as u64 != at {
                    return Err(format!(
                        "churn session {}: snapshot holds {snap_rows}/{log_rows} rows, expected {at}",
                        h.id()
                    ));
                }
                out.decode_ns_per_row.push(decode_s * 1e9 / at as f64);
                out.bytes_per_row.push(bytes.len() as f64 / at as f64);
            }
        }
        rows += CHURN_CHUNK * steps_per_round;
    }
    out.evictions = counter(&reg, "cil_mux_evictions_total") - evictions0;
    out.restores = counter(&reg, "cil_mux_restores_total") - restores0;
    if out.evictions != out.requests || out.restores != out.requests {
        return Err(format!(
            "churn: {} evictions and {} restores for {} requests",
            out.evictions, out.restores, out.requests
        ));
    }

    // Bit-identity: finish one churned session and the same session run
    // with no interruption; their traces must match bit for bit.
    let churned = finish(&handles[0])?;
    let fresh = mux.create(spec(total_rows)).map_err(|e| e.to_string())?;
    let uninterrupted = finish(&fresh)?;
    out.digest = trace_digest(&churned);
    if out.digest != trace_digest(&uninterrupted) || churned.events != uninterrupted.events {
        return Err("churned session's trace differs from an uninterrupted run".into());
    }
    Ok(out)
}

fn finish(h: &SessionHandle) -> Result<LoopTrace, String> {
    h.run_to_end().map_err(|e| e.to_string())?;
    let trace = h.join().map_err(|e| e.to_string())?;
    if !trace.survived() {
        return Err(format!("session {} lost the beam", h.id()));
    }
    Ok(trace)
}

/// Median of the traced step latency with a restore minus the one without.
pub fn restore_ms(c: &Churn) -> f64 {
    median(&c.step_ms) - median(&c.live_step_ms)
}
