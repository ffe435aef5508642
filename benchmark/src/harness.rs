//! Pieces every workload shares: the run's arguments and outcome, the
//! pass loop, bit-identity checks, scratch space and peak RSS.

use crate::catalog::Metrics;
use crate::scenario::{self, Inputs, Workload, K};
use crate::stats::{self, median};
use dataset::exact::Neighbor;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, one set-up repeat: the smoke test's mode.
    pub quick: bool,
}

impl Args {
    /// How many times the repeated part of set-up runs; `setup_s`
    /// reports the median and `build_s` the fastest.
    pub fn setup_repeats(&self, full: usize) -> usize {
        if self.quick || self.trace {
            1
        } else {
            full
        }
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted: correctness-check comparisons plus timed
    /// operations.
    pub attempted: u64,
    /// Those that errored or failed their check.
    pub failed: u64,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: CHECK FAILED: {}", what());
        }
    }
}

/// Ids and raw distance bits: the form every byte-identity check compares.
pub fn bits(hits: &[Neighbor]) -> Vec<(u32, u64)> {
    hits.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Ids alone.
pub fn ids(hits: &[Neighbor]) -> Vec<u32> {
    hits.iter().map(|n| n.id).collect()
}

/// Runs whole passes until `seconds` have gone by (at least two).
/// `pass(i)` runs pass `i` and returns its per-operation latencies in µs.
pub fn timed_passes(seconds: f64, mut pass: impl FnMut(usize) -> Vec<f64>) -> Timed {
    let mut samples_us = Vec::new();
    let mut passes = 0;
    let t0 = Instant::now();
    while passes < 2 || t0.elapsed().as_secs_f64() < seconds {
        samples_us.extend(pass(passes));
        passes += 1;
    }
    Timed {
        wall_secs: t0.elapsed().as_secs_f64(),
        samples_us,
    }
}

/// A finished timed phase: every search's latency, in order.
pub struct Timed {
    pub samples_us: Vec<f64>,
    /// Wall time of the whole phase, loop overhead included.
    pub wall_secs: f64,
}

impl Timed {
    /// Stores the three latency metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.set("query_p50_us", stats::p50(&self.samples_us));
        m.set("query_p95_us", stats::p95(&self.samples_us));
        m.set("qps", self.samples_us.len() as f64 / self.wall_secs);
        eprintln!(
            "benchmark: timed {} searches over {:.2} s; p95 per {}-sample window {:.0?} us",
            self.samples_us.len(),
            self.wall_secs,
            stats::TAIL_WINDOW,
            stats::window_p95s(&self.samples_us)
        );
    }
}

/// Microseconds since `t`.
pub fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Times `f` in seconds.
pub fn secs<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median of per-repeat timings plus what ran once: the run's `setup_s`.
pub fn setup_secs(once: f64, repeated: &[f64]) -> f64 {
    eprintln!("benchmark: set-up {once:.3} s once + median of {repeated:.3?} s repeated");
    once + median(repeated)
}

/// Recall@K of `answers` (one id list per query, in query order).
pub fn recall_of(answers: &[Vec<u32>], inputs: &Inputs) -> f64 {
    scenario::recall(answers, &scenario::truth_ids(&inputs.truth))
}

/// The workload and its knobs, for the header and check messages.
pub fn describe(w: &Workload) -> String {
    format!(
        "{} (k={K}, budget={}, probes={})",
        w.name, w.budget, w.probes
    )
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The benchmark's output directory, `benchmark/out/` — everything the
/// benchmark writes (scratch space, span files) lands inside its own
/// directory, never in `$TMPDIR`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under [`out_dir`], removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `out/run-<pid>/`.
    pub fn create() -> std::io::Result<ScratchDir> {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// A fresh empty subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
