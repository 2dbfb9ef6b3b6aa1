//! # uldp-runtime
//!
//! A deterministic parallel execution substrate for the Uldp-FL workspace.
//!
//! Every compute-heavy layer of the reproduction — the per-round training loops in
//! `uldp-core`, the Paillier hot path of Protocol 1, and batched decryption in
//! `uldp-crypto` — runs on one persistent worker pool instead of spawning ad-hoc OS
//! threads per call site. The pool exposes three primitives, all of which produce results
//! that are **bitwise-identical at any thread count**:
//!
//! * [`Runtime::par_map`] / [`Runtime::par_map_range`] — chunked, order-preserving
//!   parallel map over a slice / index range.
//! * [`Runtime::par_map_seeded`] — like `par_map_range`, but every index additionally
//!   receives its own `StdRng` derived from `splitmix64(seed ^ hash(index))`
//!   ([`seeding::index_seed`]), so randomised work is a pure function of `(seed, index)`.
//!   [`Runtime::par_map_wide_seeded`] is the 256-bit-seed variant for security-relevant
//!   randomness (encryption randomizers), preserving the source RNG's full entropy.
//! * [`Runtime::par_fold_ranges`] — a streaming fold over caller-given index spans: each
//!   span folds its indices into one accumulator in index order (no per-task value is
//!   ever materialised), and the span partials come back in span order. Callers (the
//!   sharded round engine in `uldp-core`) derive the spans from their inputs, never from
//!   the thread count — [`fold_chunk_ranges`] gives a grid that depends only on
//!   `(n, chunk_size)` — so transient memory is O(spans × accumulator) instead of
//!   O(n × item).
//!
//! ## Sizing
//!
//! [`Runtime::global`] sizes the shared pool from the `ULDP_THREADS` environment variable
//! when set (a positive integer; `1` disables parallelism entirely; any other value
//! panics), falling back to [`std::thread::available_parallelism`]. Components that
//! want an explicit size (e.g. `FlConfig::threads` / `ProtocolConfig::threads`) build
//! their own handle with [`Runtime::handle`].
//!
//! ## Nesting
//!
//! Calling a parallel primitive from inside a pool task runs the nested region inline on
//! the current worker. This keeps nested parallel code deadlock-free (workers never block
//! on work only workers can drain) without changing results — determinism never depends
//! on where a task runs.

pub mod seeding;

mod pool;

use pool::Pool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock};

/// Name of the environment variable that overrides the global pool size.
pub const THREADS_ENV: &str = "ULDP_THREADS";

/// How many chunks each worker gets on average in a `par_map`; > 1 smooths imbalance
/// between chunks without making per-chunk overhead noticeable.
const CHUNKS_PER_THREAD: usize = 4;

/// A handle to a persistent worker pool with deterministic parallel primitives.
///
/// `Runtime` is usually shared as `Arc<Runtime>`; a runtime with one thread executes
/// everything inline (no pool is spawned), which is the reference behaviour all parallel
/// runs must reproduce bit-for-bit.
pub struct Runtime {
    threads: usize,
    pool: Option<Pool>,
    fold_gauge: MemoryGauge,
}

/// Records the transient accumulator footprint of streaming-fold regions.
///
/// Fold call sites report the bytes of chunk partials a region keeps alive
/// ([`MemoryGauge::record`]); benchmarks read the per-round peak to turn the
/// "O(chunks × dim) instead of O(tasks × dim)" claim into a measured number. The counts
/// are analytic (spans × accumulator size), so they are identical at any thread count.
#[derive(Debug, Default)]
pub struct MemoryGauge {
    last: std::sync::atomic::AtomicUsize,
    peak: std::sync::atomic::AtomicUsize,
}

impl MemoryGauge {
    /// Records the live accumulator bytes of one fold region.
    ///
    /// Also republishes the reading on the `runtime.fold_bytes` telemetry gauge, so
    /// traced runs see fold footprints alongside spans without polling the gauge.
    pub fn record(&self, bytes: usize) {
        use std::sync::atomic::Ordering::Relaxed;
        self.last.store(bytes, Relaxed);
        self.peak.fetch_max(bytes, Relaxed);
        uldp_telemetry::metrics::FOLD_BYTES.set(bytes as u64);
    }

    /// The bytes recorded by the most recent fold region.
    pub fn last(&self) -> usize {
        self.last.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The largest bytes recorded since the last [`MemoryGauge::reset`].
    pub fn peak(&self) -> usize {
        self.peak.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Clears both readings (call before the region of interest, e.g. one round).
    pub fn reset(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        self.last.store(0, Relaxed);
        self.peak.store(0, Relaxed);
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime").field("threads", &self.threads).finish()
    }
}

impl Runtime {
    /// Creates a runtime with exactly `threads` workers (`0` and `1` both mean inline
    /// sequential execution).
    pub fn new(threads: usize) -> Runtime {
        let threads = threads.max(1);
        let pool = if threads > 1 { Some(Pool::new(threads)) } else { None };
        Runtime { threads, pool, fold_gauge: MemoryGauge::default() }
    }

    /// Resolves a configured thread count to a runtime handle: `0` means "auto" (the
    /// shared [`Runtime::global`] pool), anything else builds a dedicated pool.
    pub fn handle(threads: usize) -> Arc<Runtime> {
        if threads == 0 {
            Runtime::global()
        } else {
            Arc::new(Runtime::new(threads))
        }
    }

    /// The process-wide shared runtime, sized from `ULDP_THREADS` or the machine's
    /// available parallelism on first use.
    pub fn global() -> Arc<Runtime> {
        static GLOBAL: OnceLock<Arc<Runtime>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(Runtime::new(threads_from_env()))))
    }

    /// Number of worker threads this runtime uses (`1` = inline sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The gauge recording the transient accumulator footprint of streaming folds run on
    /// this runtime.
    pub fn fold_gauge(&self) -> &MemoryGauge {
        &self.fold_gauge
    }

    /// Order-preserving parallel map over `0..n`.
    ///
    /// Results are identical to `(0..n).map(f).collect()` at any thread count.
    pub fn par_map_range<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if n == 0 {
            // Empty regions must not touch the pool's job queue at all.
            return Vec::new();
        }
        let Some(pool) = self.usable_pool(n) else {
            return (0..n).map(f).collect();
        };
        // Chunked: each task computes a contiguous index range into its own slot, so the
        // output order is the input order regardless of which worker ran what.
        let ranges = chunk_ranges(n, self.threads * CHUNKS_PER_THREAD);
        let slots: Vec<Mutex<Vec<U>>> = ranges.iter().map(|_| Mutex::new(Vec::new())).collect();
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
            .iter()
            .zip(slots.iter())
            .map(|(range, slot)| {
                let range = range.clone();
                Box::new(move || {
                    let out: Vec<U> = range.map(f).collect();
                    *slot.lock().expect("chunk slot poisoned") = out;
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_tasks(tasks);
        slots.into_iter().flat_map(|slot| slot.into_inner().expect("chunk slot poisoned")).collect()
    }

    /// Order-preserving parallel map over a slice; `f` receives `(index, &item)`.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.par_map_range(items.len(), |i| f(i, &items[i]))
    }

    /// Order-preserving parallel map over `0..n` where index `i` receives a fresh
    /// `StdRng` seeded with [`seeding::index_seed`]`(seed, i)`.
    ///
    /// Because the RNG is a pure function of `(seed, index)`, the output is
    /// bitwise-identical at any thread count — the deterministic replacement for handing a
    /// shared RNG to a parallel loop.
    pub fn par_map_seeded<U, F>(&self, n: usize, seed: u64, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, &mut StdRng) -> U + Sync,
    {
        self.par_map_range(n, |i| {
            let mut rng = StdRng::seed_from_u64(seeding::index_seed(seed, i as u64));
            f(i, &mut rng)
        })
    }

    /// Like [`Runtime::par_map_seeded`], but with a 256-bit base seed: index `i` receives
    /// a fresh `StdRng` built with `StdRng::from_seed` from
    /// [`seeding::index_seed_wide`]`(seed, i)`.
    ///
    /// Use this where the RNG feeds security-relevant randomness (e.g. encryption
    /// randomizers): the derivation preserves the base seed's full 256 bits of entropy,
    /// while remaining bitwise-identical at any thread count.
    pub fn par_map_wide_seeded<U, F>(&self, n: usize, seed: seeding::WideSeed, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, &mut StdRng) -> U + Sync,
    {
        self.par_map_range(n, |i| {
            let mut rng = StdRng::from_seed(seeding::index_seed_wide(seed, i as u64));
            f(i, &mut rng)
        })
    }

    /// Streaming fold over caller-provided index spans: each span folds its indices, in
    /// order, into one fresh accumulator, and the per-span partials are returned in span
    /// order. Spans run as independent pooled tasks.
    ///
    /// Callers derive their own span grid (e.g. the sharded round engine in `uldp-core`
    /// or [`fold_chunk_ranges`]). Because the partials depend only on the spans — never
    /// on which worker ran what — the result is bitwise-identical at any thread count. An empty span list returns
    /// immediately without touching the pool.
    pub fn par_fold_ranges<A, I, F>(
        &self,
        ranges: &[std::ops::Range<usize>],
        init: I,
        fold: F,
    ) -> Vec<A>
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, usize) + Sync,
    {
        if ranges.is_empty() {
            return Vec::new();
        }
        let run_range = |range: &std::ops::Range<usize>| {
            // One span per fold chunk: traced runs see every chunk of every streaming
            // fold as its own slice.
            let _span = uldp_telemetry::trace::span("runtime", "fold_chunk")
                .arg("start", range.start)
                .arg("len", range.len());
            let mut acc = init();
            for i in range.clone() {
                fold(&mut acc, i);
            }
            acc
        };
        let Some(pool) = self.usable_pool(ranges.len()) else {
            return ranges.iter().map(run_range).collect();
        };
        let slots: Vec<Mutex<Option<A>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
        let run_range = &run_range;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
            .iter()
            .zip(slots.iter())
            .map(|(range, slot)| {
                Box::new(move || {
                    let partial = run_range(range);
                    *slot.lock().expect("fold slot poisoned") = Some(partial);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_tasks(tasks);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().expect("fold slot poisoned").expect("fold partial missing")
            })
            .collect()
    }

    /// The pool to use for a region of `n` items, or `None` when the region should run
    /// inline (sequential runtime, trivial size, or already on a worker thread).
    ///
    /// The `threads < 2` arm is deliberately explicit even though a 1-thread runtime
    /// never constructs a pool: dispatching to a hypothetical 1-worker pool would pay
    /// cross-thread hand-off for zero parallelism, and the inline path is the
    /// bit-for-bit reference all pooled runs must reproduce anyway.
    fn usable_pool(&self, n: usize) -> Option<&Pool> {
        if self.threads < 2 || n < 2 || pool::on_worker_thread() {
            return None;
        }
        self.pool.as_ref()
    }
}

/// Reads the pool size from `ULDP_THREADS`, falling back to available parallelism.
///
/// A set-but-invalid value panics: silently ignoring a typo would make e.g. a 1-vs-N
/// determinism check compare two identically-sized pools.
fn threads_from_env() -> usize {
    positive_from_env(THREADS_ENV).unwrap_or_else(available_threads)
}

/// Parses the raw value of the positive-integer environment knob `name`: unset
/// (`None`) is `Ok(None)`, a positive integer (surrounding whitespace allowed) is
/// `Ok(Some(n))`, and anything else is an error naming the variable and the value.
fn parse_positive(name: &str, raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("{name} must be a positive integer, not `{v}`")),
        },
    }
}

/// Reads the positive-integer environment knob `name` through [`parse_positive`]:
/// `None` when unset, panicking (naming the variable and the value) when set but
/// invalid.
fn positive_from_env(name: &str) -> Option<usize> {
    let raw = match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("{name}: {e}"),
    };
    parse_positive(name, raw.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// The fixed chunk grid of a streaming fold: `0..n` split into `⌈n / chunk_size⌉`
/// contiguous ranges of exactly `chunk_size` indices (the last one smaller).
///
/// The grid depends only on `(n, chunk_size)` — never on the thread count — so a
/// [`Runtime::par_fold_ranges`] over it is bitwise-identical at any pool size.
/// `chunk_size = 0` and `chunk_size ≥ n` both yield a single chunk.
pub fn fold_chunk_ranges(n: usize, chunk_size: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunk = if chunk_size == 0 { n } else { chunk_size.min(n) };
    (0..n).step_by(chunk).map(|start| start..(start + chunk).min(n)).collect()
}

/// Splits `0..n` into at most `max_chunks` contiguous ranges of near-equal size.
fn chunk_ranges(n: usize, max_chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = max_chunks.clamp(1, n.max(1));
    let base = n / chunks;
    let extra = n % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn par_map_preserves_order() {
        let rt = Runtime::new(4);
        let out = rt.par_map_range(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        let items: Vec<u32> = (0..17).collect();
        let doubled = rt.par_map(&items, |i, &x| (i as u32, x * 2));
        assert_eq!(doubled.len(), 17);
        assert!(doubled.iter().enumerate().all(|(i, &(j, v))| i as u32 == j && v == 2 * i as u32));
    }

    #[test]
    fn par_map_matches_sequential_runtime() {
        let seq = Runtime::new(1);
        let par = Runtime::new(3);
        let a = seq.par_map_range(33, |i| i as f64 * 0.1);
        let b = par.par_map_range(33, |i| i as f64 * 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_map_is_bitwise_identical_across_thread_counts() {
        let draws = |threads: usize| {
            Runtime::new(threads).par_map_seeded(64, 99, |i, rng| (i, rng.gen::<u64>()))
        };
        let one = draws(1);
        assert_eq!(one, draws(2));
        assert_eq!(one, draws(7));
        // distinct indices draw from distinct streams
        assert_ne!(one[0].1, one[1].1);
    }

    #[test]
    fn seeded_map_is_ordered_and_seed_sensitive() {
        let rt = Runtime::new(3);
        let f = |i: usize, rng: &mut StdRng| vec![i as f64, rng.gen::<f64>()];
        let a = rt.par_map_seeded(4, 7, f);
        assert_eq!(a, rt.par_map_seeded(4, 7, f));
        for (i, v) in a.iter().enumerate() {
            assert_eq!(v[0], i as f64);
        }
        // a different base seed gives different randomness
        assert_ne!(a, rt.par_map_seeded(4, 8, f));
    }

    #[test]
    fn seeded_map_single_item() {
        let out = Runtime::new(2).par_map_seeded(1, 0, |_, _| vec![42.0]);
        assert_eq!(out, vec![vec![42.0]]);
    }

    #[test]
    fn wide_seeded_map_is_bitwise_identical_across_thread_counts() {
        let seed: seeding::WideSeed = [3, 1, 4, 1];
        let draws = |threads: usize| {
            Runtime::new(threads).par_map_wide_seeded(32, seed, |i, rng| (i, rng.gen::<u64>()))
        };
        let one = draws(1);
        assert_eq!(one, draws(2));
        assert_eq!(one, draws(5));
        assert_ne!(one[0].1, one[1].1);
        // a different base seed changes every stream
        let other =
            Runtime::new(1).par_map_wide_seeded(32, [3, 1, 4, 2], |_, rng| rng.gen::<u64>());
        assert_ne!(one[0].1, other[0]);
    }

    #[test]
    fn nested_parallel_regions_run_inline_without_deadlock() {
        let rt = Runtime::new(2);
        let out = rt.par_map_range(8, |i| {
            // A nested region on the same (global-free) runtime must not deadlock; it runs
            // inline on the worker.
            Runtime::global().par_map_range(4, |j| i * 10 + j).iter().sum::<usize>()
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[1], 10 + 11 + 12 + 13);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let rt = Runtime::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.par_map_range(16, |i| {
                if i == 11 {
                    panic!("boom at 11");
                }
                i
            })
        }));
        assert!(result.is_err());
        // the pool survives a panicked batch
        assert_eq!(rt.par_map_range(4, |i| i).len(), 4);
    }

    #[test]
    fn handle_resolves_zero_to_global() {
        let auto = Runtime::handle(0);
        assert!(auto.threads() >= 1);
        let fixed = Runtime::handle(3);
        assert_eq!(fixed.threads(), 3);
    }

    #[test]
    fn empty_regions_do_not_touch_the_pool() {
        // Regression test for the n == 0 fast path: with every worker wedged on a
        // long-running batch, an empty region on the *same* runtime must still return
        // immediately — it may not enqueue anything behind the blocked jobs.
        let rt = Arc::new(Runtime::new(2));
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let guard = std::thread::spawn({
            let rt = Arc::clone(&rt);
            let release = Arc::clone(&release);
            move || {
                rt.par_map_range(2, |_| {
                    while !release.load(std::sync::atomic::Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                });
            }
        });
        // Give the blocking batch time to occupy both workers.
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(rt.par_map_range(0, |i| i), Vec::<usize>::new());
        assert!(rt.par_fold_ranges(&[], || 0u64, |_, _| {}).is_empty());
        release.store(true, std::sync::atomic::Ordering::Relaxed);
        guard.join().expect("blocking batch completes");
    }

    #[test]
    fn fold_chunk_ranges_have_fixed_size() {
        assert!(fold_chunk_ranges(0, 4).is_empty());
        assert_eq!(fold_chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(fold_chunk_ranges(3, 0), vec![0..3]);
        assert_eq!(fold_chunk_ranges(3, usize::MAX), vec![0..3]);
        for n in [1usize, 2, 7, 16, 100] {
            for chunk in [1usize, 3, 7, 200] {
                let ranges = fold_chunk_ranges(n, chunk);
                assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), n);
                assert!(ranges.iter().all(|r| r.len() <= chunk.max(1)));
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
            }
        }
    }

    #[test]
    fn fold_partials_follow_the_chunk_grid_at_any_thread_count() {
        // Chunk boundaries come from (n, chunk_size) only: the string partials expose
        // them directly, so any scheduling dependence shows up as a different grouping.
        let folds = |threads: usize| {
            Runtime::new(threads).par_fold_ranges(
                &fold_chunk_ranges(7, 3),
                String::new,
                |acc, i| acc.push_str(&i.to_string()),
            )
        };
        let one = folds(1);
        assert_eq!(one, vec!["012".to_string(), "345".to_string(), "6".to_string()]);
        assert_eq!(one, folds(4));
    }

    #[test]
    fn memory_gauge_tracks_last_and_peak() {
        let rt = Runtime::new(1);
        let gauge = rt.fold_gauge();
        assert_eq!((gauge.last(), gauge.peak()), (0, 0));
        gauge.record(100);
        gauge.record(40);
        assert_eq!((gauge.last(), gauge.peak()), (40, 100));
        gauge.reset();
        assert_eq!((gauge.last(), gauge.peak()), (0, 0));
    }

    #[test]
    fn parse_positive_accepts_positive_integers_and_names_anything_else() {
        assert_eq!(parse_positive(THREADS_ENV, None), Ok(None));
        for (value, n) in [("1", 1), ("4", 4), (" 8 ", 8), ("1000000", 1_000_000)] {
            assert_eq!(parse_positive(THREADS_ENV, Some(value)), Ok(Some(n)));
        }
        for bad in ["0", "", "-2", "two", "1.5", "4x"] {
            let err = parse_positive(THREADS_ENV, Some(bad)).unwrap_err();
            assert!(err.contains(THREADS_ENV), "{err}");
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 2, 7, 16, 100] {
            for chunks in [1usize, 3, 8, 200] {
                let ranges = chunk_ranges(n, chunks);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
            }
        }
    }
}
