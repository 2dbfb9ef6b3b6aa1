//! Hierarchical spans and instant events, buffered per thread.
//!
//! A [`Span`] is an RAII guard: it captures a monotonic begin timestamp on creation and
//! records a *complete* record (begin + duration) when finished or dropped. Hierarchy
//! comes from nesting — records carry the logical thread id and per-thread span depth,
//! which is exactly what `chrome://tracing` / Perfetto use to stack slices.
//!
//! Records accumulate in a per-thread buffer and drain into the global registry when
//! the thread's span stack unwinds to depth zero (every pool job is wrapped in a span,
//! so worker threads flush at each job boundary) or when the buffer hits its cap.
//! Recording never panics and never blocks the instrumented code beyond the registry
//! mutex during a flush.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Flush the thread buffer to the global registry once it holds this many records.
const THREAD_BUFFER_CAP: usize = 256;

/// One argument value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    Int(i64),
    Uint(u64),
    Float(f64),
    Str(String),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::Int(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::Uint(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::Uint(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> ArgValue {
        ArgValue::Uint(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::Float(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// One recorded span or instant event.
#[derive(Debug, Clone)]
pub struct Record {
    /// Category (the chrome-trace `cat` field): `protocol`, `runtime`, `train`, `fault`,
    /// `privacy`, …
    pub cat: &'static str,
    pub name: &'static str,
    /// Microseconds since the process telemetry epoch.
    pub ts_us: u64,
    /// Duration in microseconds; `None` for instant events.
    pub dur_us: Option<u64>,
    /// Logical thread id (small dense integers, assigned per OS thread on first record).
    pub tid: u64,
    /// Span nesting depth on that thread at record time (0 = top level).
    pub depth: u32,
    pub args: Vec<(&'static str, ArgValue)>,
}

struct ThreadBuffer {
    records: Vec<Record>,
    tid: u64,
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer {
        records: Vec::new(),
        tid: next_tid(),
    });
    /// Number of live (emitting) spans on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn next_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Relaxed)
}

fn registry() -> &'static Mutex<Vec<Record>> {
    static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    &RECORDS
}

fn push_record(mut record: Record) {
    BUFFER.with(|buf| {
        let mut buf = buf.borrow_mut();
        record.tid = buf.tid;
        buf.records.push(record);
        if buf.records.len() >= THREAD_BUFFER_CAP || DEPTH.with(Cell::get) == 0 {
            let drained = std::mem::take(&mut buf.records);
            registry().lock().unwrap_or_else(|e| e.into_inner()).extend(drained);
        }
    });
}

/// Drains the current thread's buffer into the global registry.
///
/// Only needed by threads that emit events outside any span and want them visible
/// before the thread's next depth-zero flush; span unwinding flushes automatically.
pub fn flush_thread() {
    BUFFER.with(|buf| {
        let mut buf = buf.borrow_mut();
        if !buf.records.is_empty() {
            let drained = std::mem::take(&mut buf.records);
            registry().lock().unwrap_or_else(|e| e.into_inner()).extend(drained);
        }
    });
}

/// A snapshot of every record drained to the registry so far (flushes the calling
/// thread first). Records stay in the registry until [`crate::reset`].
pub fn snapshot_records() -> Vec<Record> {
    flush_thread();
    registry().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Empties the global registry and the calling thread's buffer (see [`crate::reset`]).
pub(crate) fn clear_records() {
    BUFFER.with(|buf| buf.borrow_mut().records.clear());
    registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// An in-flight span. Created by [`span`] / [`timed_span`]; records on [`Span::finish`]
/// or drop.
#[must_use = "a span measures the scope it lives in; bind it with `let _span = ...`"]
pub struct Span {
    cat: &'static str,
    name: &'static str,
    /// `Some` while the span is timing; `None` for a disabled no-op span.
    start: Option<(Instant, u64)>,
    /// Record on finish/drop (false when telemetry was off at creation).
    emit: bool,
    args: Vec<(&'static str, ArgValue)>,
}

/// Starts a span, or a no-op (no clock read, nothing recorded) when telemetry is off.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if crate::enabled() {
        Span::start(cat, name, true)
    } else {
        Span { cat, name, start: None, emit: false, args: Vec::new() }
    }
}

/// Starts a span that always measures wall-clock time — [`Span::finish`] returns the
/// real elapsed duration even when telemetry is off (nothing is recorded then).
///
/// For call sites like the Protocol 1 phases, whose timings feed `ProtocolTimings` /
/// `RoundReport` regardless of tracing.
#[inline]
pub fn timed_span(cat: &'static str, name: &'static str) -> Span {
    Span::start(cat, name, crate::enabled())
}

impl Span {
    fn start(cat: &'static str, name: &'static str, emit: bool) -> Span {
        if emit {
            DEPTH.with(|d| d.set(d.get() + 1));
        }
        Span { cat, name, start: Some((Instant::now(), crate::now_us())), emit, args: Vec::new() }
    }

    /// Attaches an argument (visible in the chrome trace). No-op on a disabled span, so
    /// callers may pass cheaply-computed values unconditionally.
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Span {
        if self.emit {
            self.args.push((key, value.into()));
        }
        self
    }

    /// Ends the span, records it (when enabled) and returns the measured duration
    /// (`Duration::ZERO` for a disabled [`span`]).
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some((start, ts_us)) = self.start.take() else {
            return Duration::ZERO;
        };
        let elapsed = start.elapsed();
        if self.emit {
            // Depth decrements before the push so a top-level span flushes itself.
            let depth = DEPTH.with(|d| {
                let v = d.get().saturating_sub(1);
                d.set(v);
                v
            });
            push_record(Record {
                cat: self.cat,
                name: self.name,
                ts_us,
                dur_us: Some(elapsed.as_micros() as u64),
                tid: 0, // filled by push_record
                depth,
                args: std::mem::take(&mut self.args),
            });
            self.emit = false;
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Records an instant event (a vertical marker in the chrome trace): fault injections,
/// privacy-ledger entries.
///
/// Cheap no-op when telemetry is off; callers constructing expensive argument values
/// should still gate on [`crate::enabled`] themselves.
pub fn event(cat: &'static str, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    if !crate::enabled() {
        return;
    }
    push_record(Record {
        cat,
        name,
        ts_us: crate::now_us(),
        dur_us: None,
        tid: 0, // filled by push_record
        depth: DEPTH.with(Cell::get),
        args,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = crate::tests::test_guard();
        crate::set_enabled(false);
        crate::reset();
        let s = span("test", "noop");
        assert_eq!(s.finish(), Duration::ZERO);
        event("test", "noop_event", vec![]);
        assert!(snapshot_records().is_empty());
    }

    #[test]
    fn timed_span_measures_even_when_disabled() {
        let _g = crate::tests::test_guard();
        crate::set_enabled(false);
        crate::reset();
        let s = timed_span("test", "always_timed");
        std::thread::sleep(Duration::from_millis(2));
        assert!(s.finish() >= Duration::from_millis(2));
        assert!(snapshot_records().is_empty());
    }

    #[test]
    fn nested_spans_record_depth_and_flush_at_top_level() {
        let _g = crate::tests::test_guard();
        crate::set_enabled(true);
        crate::reset();
        {
            let _outer = span("test", "outer").arg("k", 1u64);
            {
                let _inner = span("test", "inner");
            }
            event("test", "marker", vec![("silo", 3u64.into())]);
        }
        let records = snapshot_records();
        crate::set_enabled(false);
        assert_eq!(records.len(), 3);
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let marker = records.iter().find(|r| r.name == "marker").unwrap();
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert_eq!(marker.dur_us, None);
        assert_eq!(marker.args, vec![("silo", ArgValue::Uint(3))]);
        assert_eq!(outer.args, vec![("k", ArgValue::Uint(1))]);
        // the inner span nests inside the outer one on the timeline
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + inner.dur_us.unwrap() <= outer.ts_us + outer.dur_us.unwrap() + 1);
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn worker_thread_records_carry_their_own_tid() {
        let _g = crate::tests::test_guard();
        crate::set_enabled(true);
        crate::reset();
        {
            let _main = span("test", "main_side");
        }
        std::thread::spawn(|| {
            let _worker = span("test", "worker_side");
        })
        .join()
        .unwrap();
        let records = snapshot_records();
        crate::set_enabled(false);
        let main_tid = records.iter().find(|r| r.name == "main_side").unwrap().tid;
        let worker_tid = records.iter().find(|r| r.name == "worker_side").unwrap().tid;
        assert_ne!(main_tid, worker_tid);
    }
}
