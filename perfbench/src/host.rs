//! Host and build stamp carried by every result record, and the process's
//! peak resident set size.

use std::fmt::Write as _;

/// Where and how a result was measured.
pub struct HostStamp {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: &'static str,
    pub commit: String,
    pub profile: &'static str,
    pub mux_workers: usize,
    pub generator_threads: usize,
}

impl HostStamp {
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: nproc(),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            // The runner script passes the git commit, or a digest of the
            // sources outside a git checkout; a bare binary reports unknown.
            commit: std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            // The fleet's mux runs one worker per core (see `main`).
            mux_workers: nproc(),
            generator_threads: 1,
        }
    }

    /// True when the benchmark's own threads outnumber the cores.
    pub fn oversubscribed(&self) -> bool {
        self.mux_workers + self.generator_threads > self.nproc
    }

    /// The stamp as JSON object members (no braces).
    pub fn json_members(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"profile\": {}, \
             \"mux_workers\": {}, \"generator_threads\": {}, \"oversubscribed\": {}",
            self.nproc,
            json_str(&self.cpu),
            json_str(self.rustc),
            json_str(&self.commit),
            json_str(self.profile),
            self.mux_workers,
            self.generator_threads,
            self.oversubscribed()
        );
        s
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
