//! # uldp-telemetry
//!
//! Structured observability for the Uldp-FL workspace: hierarchical wall-clock
//! [spans](trace::Span), [instant events](trace::event) (fault injections, privacy-ledger
//! entries), atomic [counters](metrics::Counter), [gauges](metrics::Gauge) and
//! fixed-bucket [histograms](metrics::Histogram), with two exporters — a chrome-trace
//! (`chrome://tracing` / Perfetto) JSON file and a flat human-readable summary — plus
//! per-span statistics ([`export::span_stats`]) and raw counter reads for benchmarks and
//! tests that gate exact operation counts.
//!
//! The crate has **zero dependencies** (the same vendored-shim philosophy as the rest of
//! the workspace) so it can sit below every other crate in the graph: `uldp-runtime`
//! emits per-job spans, `uldp-bigint`/`uldp-crypto` bump hot-path op counters,
//! `uldp-core` names the Protocol 1 phases and training folds, and `uldp-accounting`
//! appends privacy-budget ledger events — all through this one registry.
//!
//! ## Gating and overhead
//!
//! Everything is gated on [`enabled`]: the `ULDP_TRACE` environment variable is read
//! **once per process** into an atomic that hot paths
//! check with a single relaxed load. With tracing off, a counter bump is one load and a
//! branch, and a span is a no-op that never calls [`std::time::Instant::now`] —
//! protocol-phase spans that must report durations regardless (they fill the
//! `ProtocolTimings` / `RoundReport` phase fields) use [`trace::timed_span`], which always
//! measures but only records when enabled. [`set_enabled`] exists for tests and binaries
//! that need to flip tracing programmatically (e.g. the traced-vs-untraced bitwise
//! determinism oracle in `tests/trace_determinism.rs`).
//!
//! ## Determinism
//!
//! Telemetry must never perturb results: timestamps live only in timing fields, spans
//! and events never branch the instrumented code and never touch an RNG stream. The
//! bitwise grid oracle (threads × shards) holds with tracing on.

pub mod export;
pub mod metrics;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Environment variable that enables telemetry recording (`1`/`true`/`on`).
pub const TRACE_ENV: &str = "ULDP_TRACE";

/// Environment variable overriding the chrome-trace output path used by
/// [`export::write_chrome_trace_default`].
pub const TRACE_OUT_ENV: &str = "ULDP_TRACE_OUT";

/// Default chrome-trace output path when `ULDP_TRACE_OUT` is unset.
pub const DEFAULT_TRACE_OUT: &str = "ULDP_trace.json";

fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let on = std::env::var(TRACE_ENV)
            .map(|v| {
                let v = v.trim();
                !v.is_empty()
                    && v != "0"
                    && !v.eq_ignore_ascii_case("false")
                    && !v.eq_ignore_ascii_case("off")
            })
            .unwrap_or(false);
        AtomicBool::new(on)
    })
}

/// Whether telemetry recording is on. One relaxed atomic load — cheap enough for the
/// Montgomery-multiply hot path; the environment is consulted only on the first call.
#[inline]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Programmatically switches recording on or off, overriding `ULDP_TRACE`.
///
/// Intended for tests (the traced-vs-untraced determinism oracle) and binaries that
/// manage their own tracing lifecycle; production code should rely on the env knob.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// The process-wide monotonic epoch all span/event timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-wide telemetry epoch.
pub(crate) fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Clears every recorded span/event and resets all counters, gauges and histograms.
///
/// Benchmarks call this between sections so each section's `telemetry` export covers
/// exactly its own work.
pub fn reset() {
    trace::clear_records();
    metrics::reset_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled flag is process-global; tests that flip it share this lock so they
    // don't observe each other's state.
    pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn set_enabled_overrides_and_restores() {
        let _g = test_guard();
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
