//! Atomic counters, gauges and fixed-bucket histograms with a static registry.
//!
//! Every metric in the workspace is a `static` declared in this module, so hot-path
//! increments are a gated `fetch_add` on a known address — no name lookup, no
//! registration handshake. The registry slices ([`all_counters`], [`all_gauges`],
//! [`all_histograms`]) are what the exporters and [`crate::reset`] iterate.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A monotonically increasing event count (ops, calls, faults).
///
/// Increments are dropped while [`crate::enabled`] is off, so an untraced process pays
/// one relaxed load and a predictable branch per call site.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, value: AtomicU64::new(0) }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// Bumps the counter by one (no-op while telemetry is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

/// A last-value metric with a high-water mark (pool occupancy, fold bytes).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Gauge {
        Gauge { name, value: AtomicU64::new(0), peak: AtomicU64::new(0) }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the gauge to `v` (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if crate::enabled() {
            self.value.store(v, Relaxed);
            self.peak.fetch_max(v, Relaxed);
        }
    }

    /// Increments the gauge (e.g. a job entering the pool's busy set).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            let now = self.value.fetch_add(n, Relaxed) + n;
            self.peak.fetch_max(now, Relaxed);
        }
    }

    /// Decrements the gauge, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        if crate::enabled() {
            // fetch_update never misses concurrent adds; saturate so a late decrement
            // after a reset can't wrap to u64::MAX.
            let _ = self.value.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(n)));
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    pub fn peak(&self) -> u64 {
        self.peak.load(Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Relaxed);
        self.peak.store(0, Relaxed);
    }
}

/// Number of histogram buckets: bucket `i` counts values in `[2^(i-1), 2^i)` µs, with
/// bucket 0 covering zero and an implicit saturation into the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed power-of-two-bucket histogram of microsecond durations.
///
/// Recording is one `leading_zeros` plus one `fetch_add`; the bucket layout is fixed at
/// compile time so the exporter needs no per-histogram metadata.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    pub const fn new(name: &'static str) -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The bucket index a microsecond value falls into.
    pub fn bucket_index(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one duration in microseconds (no-op while telemetry is disabled).
    #[inline]
    pub fn record_us(&self, us: u64) {
        if crate::enabled() {
            self.buckets[Self::bucket_index(us)].fetch_add(1, Relaxed);
            self.count.fetch_add(1, Relaxed);
            self.sum_us.fetch_add(us, Relaxed);
            self.max_us.fetch_max(us, Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Relaxed)
    }

    pub fn max_us(&self) -> u64 {
        self.max_us.load(Relaxed)
    }

    /// Non-empty buckets as `(bucket upper bound in µs, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Relaxed);
                (n > 0).then(|| (if i == 0 { 0 } else { 1u64 << i }, n))
            })
            .collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum_us.store(0, Relaxed);
        self.max_us.store(0, Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The workspace's metrics. Names are `layer.metric`; the exporters group by the
// prefix before the first dot.
// ---------------------------------------------------------------------------

/// CIOS Montgomery multiplications (`ModulusCtx::mont_mul`).
pub static MONT_MUL: Counter = Counter::new("bigint.mont_mul");
/// Montgomery squarings (`ModulusCtx::mont_sqr`).
pub static MONT_SQR: Counter = Counter::new("bigint.mont_sqr");
/// Schoolbook square-and-multiply exponentiations (`modular::mod_pow` generic path).
pub static MODPOW_GENERIC: Counter = Counter::new("bigint.mod_pow_generic");
/// Sliding-window Montgomery exponentiations (`ModulusCtx::pow` / `pow_mont`).
pub static MODPOW_WINDOW: Counter = Counter::new("bigint.mod_pow_window");
/// Fixed-base comb exponentiations (`ModulusCtx::pow_fixed_base`): one per Protocol 1
/// cell a silo re-randomises on its fixed output base.
pub static MODPOW_FIXED_BASE: Counter = Counter::new("bigint.mod_pow_fixed_base");
/// Interleaved multi-exponentiations (`ModulusCtx::multi_exp_tables`).
pub static MULTI_EXP: Counter = Counter::new("bigint.multi_exp");
/// Odd-power window tables built for the shared ladder (`ModulusCtx::window_table`).
pub static WINDOW_TABLE: Counter = Counter::new("bigint.window_table");
/// Paillier encryptions (`encrypt` / `encrypt_with_randomness`, incl. batch members).
pub static PAILLIER_ENCRYPT: Counter = Counter::new("crypto.paillier_encrypt");
/// Paillier ciphertext re-randomisations (all `rerandomise*` variants).
pub static PAILLIER_RERANDOMISE: Counter = Counter::new("crypto.paillier_rerandomise");
/// Paillier ciphertext scalar multiplications (all `scalar_mul*` variants).
pub static PAILLIER_SCALAR_MUL: Counter = Counter::new("crypto.paillier_scalar_mul");
/// Paillier decryptions (CRT and generic).
pub static PAILLIER_DECRYPT: Counter = Counter::new("crypto.paillier_decrypt");
/// Blinding-factor expansions: one SHA-256 candidate `r_u` per user, and one more per
/// retry after a failed coprimality check (`MultiplicativeBlinder`).
pub static BLIND_FACTOR: Counter = Counter::new("crypto.blind_factor");
/// Coprimality `gcd`s of blinding factors: one per `MultiplicativeBlinder::factors`
/// batch, one per `MultiplicativeBlinder::factor` candidate.
pub static BLIND_COPRIMALITY_CHECK: Counter = Counter::new("crypto.blind_coprimality_check");
/// Jobs executed by the worker pool.
pub static POOL_JOBS: Counter = Counter::new("runtime.pool_jobs");
/// Structured fault events emitted by the scenario engine.
pub static FAULT_EVENTS: Counter = Counter::new("scenario.fault_events");
/// Privacy-ledger entries appended by the accountant.
pub static LEDGER_ENTRIES: Counter = Counter::new("privacy.ledger_entries");

/// Workers currently executing a pool job (peak = max observed concurrency).
pub static POOL_OCCUPANCY: Gauge = Gauge::new("runtime.pool_occupancy");
/// Live streaming-fold accumulator bytes, republished from the runtime's `MemoryGauge`.
pub static FOLD_BYTES: Gauge = Gauge::new("runtime.fold_bytes");

/// Time pool jobs spend queued before a worker picks them up.
pub static JOB_QUEUE_US: Histogram = Histogram::new("runtime.job_queue_wait_us");
/// Pool job execution time.
pub static JOB_EXEC_US: Histogram = Histogram::new("runtime.job_exec_us");

static COUNTERS: [&Counter; 16] = [
    &MONT_MUL,
    &MONT_SQR,
    &MODPOW_GENERIC,
    &MODPOW_WINDOW,
    &MODPOW_FIXED_BASE,
    &MULTI_EXP,
    &WINDOW_TABLE,
    &PAILLIER_ENCRYPT,
    &PAILLIER_SCALAR_MUL,
    &PAILLIER_RERANDOMISE,
    &PAILLIER_DECRYPT,
    &BLIND_FACTOR,
    &BLIND_COPRIMALITY_CHECK,
    &POOL_JOBS,
    &FAULT_EVENTS,
    &LEDGER_ENTRIES,
];
static GAUGES: [&Gauge; 2] = [&POOL_OCCUPANCY, &FOLD_BYTES];
static HISTOGRAMS: [&Histogram; 2] = [&JOB_QUEUE_US, &JOB_EXEC_US];

/// Every counter, in export order.
pub fn all_counters() -> &'static [&'static Counter] {
    &COUNTERS
}

/// Every gauge, in export order.
pub fn all_gauges() -> &'static [&'static Gauge] {
    &GAUGES
}

/// Every histogram, in export order.
pub fn all_histograms() -> &'static [&'static Histogram] {
    &HISTOGRAMS
}

/// Zeroes every metric (see [`crate::reset`]).
pub(crate) fn reset_all() {
    for c in all_counters() {
        c.reset();
    }
    for g in all_gauges() {
        g.reset();
    }
    for h in all_histograms() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gate_on_enabled() {
        let _g = crate::tests::test_guard();
        crate::set_enabled(false);
        static C: Counter = Counter::new("test.gated");
        C.inc();
        assert_eq!(C.get(), 0);
        crate::set_enabled(true);
        C.inc();
        C.add(4);
        assert_eq!(C.get(), 5);
        crate::set_enabled(false);
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let _g = crate::tests::test_guard();
        crate::set_enabled(true);
        static G: Gauge = Gauge::new("test.gauge");
        G.reset();
        G.add(2);
        G.add(3);
        G.sub(4);
        assert_eq!(G.get(), 1);
        assert_eq!(G.peak(), 5);
        G.sub(100); // saturates, never wraps
        assert_eq!(G.get(), 0);
        G.set(7);
        assert_eq!((G.get(), G.peak()), (7, 7));
        crate::set_enabled(false);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let _g = crate::tests::test_guard();
        crate::set_enabled(true);
        static H: Histogram = Histogram::new("test.hist");
        H.reset();
        for us in [0, 1, 3, 3, 1000] {
            H.record_us(us);
        }
        assert_eq!(H.count(), 5);
        assert_eq!(H.sum_us(), 1007);
        assert_eq!(H.max_us(), 1000);
        let buckets = H.nonzero_buckets();
        assert_eq!(buckets.iter().map(|&(_, n)| n).sum::<u64>(), 5);
        assert!(buckets.iter().any(|&(bound, n)| bound == 4 && n == 2)); // the two 3 µs
        crate::set_enabled(false);
    }

    #[test]
    fn registry_covers_workspace_metrics() {
        assert!(all_counters().iter().any(|c| c.name() == "bigint.mont_mul"));
        assert!(all_counters().iter().any(|c| c.name() == "bigint.multi_exp"));
        assert!(all_counters().iter().any(|c| c.name() == "bigint.window_table"));
        assert!(all_counters().iter().any(|c| c.name() == "crypto.paillier_rerandomise"));
        assert!(all_counters().iter().any(|c| c.name() == "crypto.blind_coprimality_check"));
        assert!(all_counters().iter().any(|c| c.name() == "privacy.ledger_entries"));
        assert!(all_gauges().iter().any(|g| g.name() == "runtime.pool_occupancy"));
        assert!(all_histograms().iter().any(|h| h.name() == "runtime.job_exec_us"));
        // names are unique — duplicate registration would corrupt the export
        let mut names: Vec<_> = all_counters().iter().map(|c| c.name()).collect();
        names.extend(all_gauges().iter().map(|g| g.name()));
        names.extend(all_histograms().iter().map(|h| h.name()));
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
