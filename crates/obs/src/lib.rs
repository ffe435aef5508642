//! Workspace-wide observability: structured leveled logging, request
//! tracing, and a metrics registry with Prometheus text exposition.
//!
//! Three concerns, one zero-dependency crate (no registry deps — this
//! workspace builds fully offline):
//!
//! * [`mod@log`]: leveled structured events to stderr, in logfmt
//!   (`level=info msg="listening" addr=…`) or JSON, gated by a
//!   process-global level. The serving binaries route every diagnostic
//!   line through this instead of bare `eprintln!`, so every event
//!   carries its connection / request / index fields.
//! * [`trace`]: a [`TraceContext`] — `(trace_id, span_id)` pair — minted
//!   at the serving edge and propagated over the wire, plus
//!   [`SpanRecord`] trees the router assembles for slow-query logs
//!   (per-shard queue wait, connect, downstream RTT, merge).
//! * [`metrics`]: process-global counters / gauges / log2 histograms
//!   (the generalization of the serving layer's `IndexStats` bucket
//!   scheme) rendered in Prometheus text format through [`PromText`].
//!   The hot path touches only relaxed atomics; registration is the
//!   only lock.
//!
//! Everything is deliberately `std`-only and cheap enough to leave on:
//! the repo's benchmark tracks traced vs untraced query latency as
//! `trace_overhead_pct` (`BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod trace;

pub use crate::log::{enabled, log, set_level, set_log_json, Level};
pub use crate::metrics::{
    bucket_index, bucket_upper, global, hist_quantile, Counter, Gauge, Histogram, PromText,
    Registry, HIST_BUCKETS,
};
pub use crate::trace::{SpanRecord, TraceContext};

use std::sync::atomic::{AtomicU64, Ordering};

/// Slow-query threshold in microseconds; `0` disables slow-query logs.
static SLOW_QUERY_MICROS: AtomicU64 = AtomicU64::new(0);

/// Sets the process-global slow-query threshold (`0` turns the slow
/// query log off). The serving binaries wire `--slow-query-ms` here.
pub fn set_slow_query_micros(micros: u64) {
    SLOW_QUERY_MICROS.store(micros, Ordering::Relaxed);
}

/// The current slow-query threshold in microseconds (`0` = off).
pub fn slow_query_micros() -> u64 {
    SLOW_QUERY_MICROS.load(Ordering::Relaxed)
}

/// Whether a request that took `micros` qualifies for the slow-query
/// log (false whenever the threshold is unset).
pub fn is_slow(micros: u64) -> bool {
    let t = slow_query_micros();
    t > 0 && micros >= t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_query_threshold_gates() {
        set_slow_query_micros(0);
        assert!(!is_slow(u64::MAX), "0 disables the slow-query log");
        set_slow_query_micros(1000);
        assert!(!is_slow(999));
        assert!(is_slow(1000));
        assert!(is_slow(5000));
        set_slow_query_micros(0);
    }
}
