//! The streaming sharded round engine behind the user-level round of ULDP-AVG and
//! ULDP-SGD ([`crate::algorithms::uldp`]) and, via [`crate::algorithms::group`], the
//! per-silo DP-SGD aggregation.
//!
//! Materialising one dim-length delta per participating `(silo, user)` task would cost
//! O(tasks × dim) transient memory per round, which caps how many users a silo can
//! serve. The engine instead runs chunked in-place folds on [`Runtime::par_fold_ranges`]:
//!
//! * each silo's participating users are split into [`FlConfig::shards`] contiguous
//!   **shards** that run as independent pooled tasks (so one silo's round scales past a
//!   single task), and each shard is further split into **chunks** of [`TRAIN_CHUNK`]
//!   tasks;
//! * each `(silo, shard, chunk)` span folds its users' deltas into one
//!   [`DeltaAccumulator`] — no per-task delta collection ever exists — giving
//!   O(spans × dim) transient memory;
//! * span partials merge per silo in span order.
//!
//! ## Determinism
//!
//! The accumulator is an **exact** fixed-point integer ([`DeltaAccumulator`]): adds and
//! merges are integer additions, so the per-silo sums are independent of how tasks are
//! grouped into spans and of which worker ran what. Together with the per-task RNG
//! streams (a pure function of `(round_seed, silo, user)`), this makes every round
//! **bitwise-identical across all `(threads, shards)` settings**, asserted by
//! `tests/runtime_determinism.rs`.

use std::ops::Range;
use uldp_runtime::Runtime;

/// Fixed-point scale (in bits) of the exact delta accumulator.
///
/// Contributions are quantised to multiples of 2⁻⁸⁰ (≈ 8.3·10⁻²⁵ — over ten orders of
/// magnitude below f64's relative resolution at typical delta magnitudes) and summed as
/// exact `i128` integers. Headroom: |Σ| < 2⁴⁷ ≈ 1.4·10¹⁴, far above any clipped-delta
/// aggregate (|coordinate| ≤ C per user).
const SCALE_BITS: i32 = 80;

/// Tasks per fold chunk of the training hot path. Per-user training dominates each
/// task, so modest chunks keep the pool busy while a round holds about one span
/// partial per 16 tasks.
pub(crate) const TRAIN_CHUNK: usize = 16;

/// An exact fixed-point accumulator for dim-length f64 delta vectors.
///
/// `add` quantises each coordinate to the 2⁻⁸⁰ grid (an exact operation up to the
/// quantisation itself: scaling by a power of two is lossless, truncation is
/// deterministic) and accumulates in `i128`. Integer addition is associative and
/// commutative, so any grouping of `add`/`merge` calls over the same multiset of
/// contributions produces identical bits — the property the sharded round engine's
/// invariance guarantee rests on.
#[derive(Clone, Debug)]
pub(crate) struct DeltaAccumulator {
    acc: Vec<i128>,
}

impl DeltaAccumulator {
    /// A zeroed accumulator for `dim` coordinates.
    pub(crate) fn new(dim: usize) -> Self {
        DeltaAccumulator { acc: vec![0i128; dim] }
    }

    /// Transient footprint of one accumulator in bytes (what the fold sites report to
    /// the runtime's [`uldp_runtime::MemoryGauge`]).
    pub(crate) fn bytes(dim: usize) -> usize {
        dim * std::mem::size_of::<i128>()
    }

    /// Adds a delta vector (must have the accumulator's dimensionality).
    pub(crate) fn add(&mut self, delta: &[f64]) {
        assert_eq!(delta.len(), self.acc.len(), "delta dimensionality mismatch");
        let scale = 2f64.powi(SCALE_BITS);
        for (a, &d) in self.acc.iter_mut().zip(delta.iter()) {
            // Saturating cast + wrapping add: both deterministic, neither reachable for
            // clipped training deltas.
            *a = a.wrapping_add((d * scale) as i128);
        }
    }

    /// Merges another accumulator in (exact, so merge order cannot change the result).
    pub(crate) fn merge(&mut self, other: DeltaAccumulator) {
        assert_eq!(other.acc.len(), self.acc.len(), "accumulator dimensionality mismatch");
        for (a, b) in self.acc.iter_mut().zip(other.acc) {
            *a = a.wrapping_add(b);
        }
    }

    /// Rounds the exact sum back to f64 (one rounding for the whole sum, `i128 → f64`
    /// is round-to-nearest and the power-of-two rescale is lossless).
    pub(crate) fn finish(self) -> Vec<f64> {
        let inv_scale = 2f64.powi(-SCALE_BITS);
        self.acc.into_iter().map(|a| a as f64 * inv_scale).collect()
    }
}

/// One fold span of a round: a contiguous run of task indices belonging to one silo.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SiloSpan {
    /// The silo every task in the span belongs to.
    pub(crate) silo: usize,
    /// Contiguous range into the flattened `(silo, user)` task list.
    pub(crate) range: Range<usize>,
}

/// Builds the `(silo, shard, chunk)` span grid over a silo-major task list.
///
/// Each silo's contiguous task run is split into at most `shards` near-equal shards
/// (empty shards are dropped), and each shard into chunks of [`TRAIN_CHUNK`] tasks. The
/// grid depends only on the task list and the shard count — never on the thread count.
pub(crate) fn shard_spans(
    tasks: &[(usize, usize)],
    num_silos: usize,
    shards: usize,
) -> Vec<SiloSpan> {
    debug_assert!(tasks.windows(2).all(|w| w[0].0 <= w[1].0), "task list must be silo-major");
    assert!(shards > 0, "shards must be at least 1");
    let mut spans = Vec::new();
    let mut silo_start = 0usize;
    for silo in 0..num_silos {
        let silo_end = tasks[silo_start..]
            .iter()
            .position(|&(s, _)| s != silo)
            .map(|off| silo_start + off)
            .unwrap_or(tasks.len());
        let len = silo_end - silo_start;
        // Near-equal shard split (first `len % shards` shards get one extra task).
        let base = len / shards;
        let extra = len % shards;
        let mut shard_start = silo_start;
        for shard in 0..shards {
            let shard_len = base + usize::from(shard < extra);
            if shard_len == 0 {
                continue;
            }
            let shard_end = shard_start + shard_len;
            let mut start = shard_start;
            while start < shard_end {
                let end = (start + TRAIN_CHUNK).min(shard_end);
                spans.push(SiloSpan { silo, range: start..end });
                start = end;
            }
            shard_start = shard_end;
        }
        silo_start = silo_end;
    }
    spans
}

/// Streams per-task contributions into per-silo delta sums on the worker pool.
///
/// `per_task(silo, user)` produces one task's (already weighted/clipped) delta, or
/// `None` when the task contributes nothing; it is called exactly once per task, in a
/// scheduling-independent order within each span. Returns one dim-length sum per silo
/// (zeros for silos without contributions). Transient memory — reported to the
/// runtime's fold gauge — is O(spans × dim) instead of O(tasks × dim).
pub(crate) fn stream_silo_deltas<F>(
    rt: &Runtime,
    tasks: &[(usize, usize)],
    num_silos: usize,
    shards: usize,
    dim: usize,
    per_task: F,
) -> Vec<Vec<f64>>
where
    F: Fn(usize, usize) -> Option<Vec<f64>> + Sync,
{
    let spans = shard_spans(tasks, num_silos, shards);
    // The whole streaming fold as one span; the runtime adds one nested `fold_chunk`
    // span per (silo, shard, chunk) range underneath it.
    let _stream_span = uldp_telemetry::trace::span("train", "stream_silo_deltas")
        .arg("tasks", tasks.len())
        .arg("spans", spans.len())
        .arg("dim", dim);
    rt.fold_gauge().record(spans.len() * DeltaAccumulator::bytes(dim));
    let ranges: Vec<Range<usize>> = spans.iter().map(|s| s.range.clone()).collect();
    let partials = rt.par_fold_ranges(
        &ranges,
        || DeltaAccumulator::new(dim),
        |acc, i| {
            let (silo, user) = tasks[i];
            if let Some(delta) = per_task(silo, user) {
                acc.add(&delta);
            }
        },
    );
    // Exact per-silo merge in span order (spans are silo-major).
    let mut per_silo: Vec<DeltaAccumulator> =
        (0..num_silos).map(|_| DeltaAccumulator::new(dim)).collect();
    for (span, partial) in spans.into_iter().zip(partials) {
        per_silo[span.silo].merge(partial);
    }
    per_silo.into_iter().map(DeltaAccumulator::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_is_exact_and_grouping_invariant() {
        let values: Vec<Vec<f64>> =
            (0..17).map(|i| vec![0.1 * i as f64, -0.37 + i as f64 * 1e-9]).collect();
        // One big fold vs many partial merges in a different grouping.
        let mut whole = DeltaAccumulator::new(2);
        for v in &values {
            whole.add(v);
        }
        let mut grouped = DeltaAccumulator::new(2);
        for group in values.chunks(3).rev() {
            let mut partial = DeltaAccumulator::new(2);
            for v in group {
                partial.add(v);
            }
            grouped.merge(partial);
        }
        let a = whole.finish();
        let b = grouped.finish();
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // and the fixed-point sum tracks the real sum to quantisation precision
        let expect: f64 = values.iter().map(|v| v[0]).sum();
        assert!((a[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn accumulator_saturates_deterministically_at_extreme_magnitudes() {
        // |d| ≥ 2⁴⁷ overflows the i128 grid (2¹²⁷ / 2⁸⁰ = 2⁴⁷): the cast saturates and
        // the wrapping add keeps every grouping on the same bits — a byzantine
        // scaled-gradient delta of 1e30 must not introduce grouping-dependent results.
        let extremes =
            vec![vec![1e30], vec![-1e30], vec![f64::MAX], vec![-f64::MAX], vec![2f64.powi(47)]];
        let mut whole = DeltaAccumulator::new(1);
        for v in &extremes {
            whole.add(v);
        }
        let mut grouped = DeltaAccumulator::new(1);
        for group in extremes.chunks(2).rev() {
            let mut partial = DeltaAccumulator::new(1);
            for v in group {
                partial.add(v);
            }
            grouped.merge(partial);
        }
        assert_eq!(whole.finish()[0].to_bits(), grouped.finish()[0].to_bits());

        // The saturation boundary is exact: 2⁴⁷ pins to i128::MAX while the largest f64
        // below 2⁴⁷ still fits the grid (its scaled value is < 2¹²⁷).
        let saturating = |d: f64| {
            let mut acc = DeltaAccumulator::new(1);
            acc.add(&[d]);
            acc.acc[0]
        };
        assert_eq!(saturating(2f64.powi(47)), i128::MAX);
        assert_eq!(saturating(-2f64.powi(47)), i128::MIN);
        let below = f64::from_bits(2f64.powi(47).to_bits() - 1);
        assert!(saturating(below) < i128::MAX);
        // Opposite saturations cancel to -1 on the wrap (MAX + MIN), not to 0: the
        // result is garbage numerically but identical garbage in every grouping.
        let mut wrap = DeltaAccumulator::new(1);
        wrap.add(&[1e30]);
        wrap.add(&[-1e30]);
        assert_eq!(wrap.acc[0], -1);
    }

    #[test]
    fn accumulator_quantises_signed_zeros_and_subnormals_to_positive_zero() {
        // -0.0 · 2⁸⁰ = -0.0, and `(-0.0) as i128 == 0`; subnormals (≈ 5·10⁻³²⁴) scale to
        // ≈ 6·10⁻³⁰⁰, far below the 2⁻⁸⁰ grid, and truncate to 0. Either way the sum is
        // integer zero and `finish` returns +0.0 — the sign bit of a -0.0 contribution
        // never leaks into the aggregate.
        for d in [-0.0f64, 0.0, f64::from_bits(1), -f64::from_bits(1), f64::MIN_POSITIVE] {
            let mut acc = DeltaAccumulator::new(1);
            acc.add(&[d]);
            assert_eq!(acc.acc[0], 0, "d = {d:e}");
            assert_eq!(acc.finish()[0].to_bits(), 0.0f64.to_bits(), "d = {d:e}");
        }
        // Mixed signed zeros across merges agree bitwise with the plain fold.
        let mut a = DeltaAccumulator::new(2);
        a.add(&[-0.0, 1.5]);
        let mut b = DeltaAccumulator::new(2);
        b.add(&[0.0, -0.0]);
        a.merge(b);
        let out = a.finish();
        assert_eq!(out[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(out[1].to_bits(), 1.5f64.to_bits());
    }

    #[test]
    fn shard_spans_cover_the_task_list_in_order() {
        // Silo 0 has 40 tasks (more than two chunks), silo 1 none, silo 2 three.
        let tasks: Vec<(usize, usize)> =
            (0..40).map(|u| (0, u)).chain((0..3).map(|u| (2, u))).collect();
        for shards in [1usize, 2, 3, 10, 50] {
            let spans = shard_spans(&tasks, 3, shards);
            // spans tile the list exactly, in order, and never exceed one chunk
            let mut expect = 0;
            for span in &spans {
                assert_eq!(span.range.start, expect);
                expect = span.range.end;
                assert!(span.range.len() <= TRAIN_CHUNK, "shards={shards}");
                // every task in the span belongs to the span's silo
                assert!(tasks[span.range.clone()].iter().all(|&(s, _)| s == span.silo));
            }
            assert_eq!(expect, tasks.len(), "shards={shards}");
        }
        let shape = |shards: usize| -> Vec<(usize, usize)> {
            shard_spans(&tasks, 3, shards).iter().map(|s| (s.silo, s.range.len())).collect()
        };
        // One shard: silo 0 chunks 16+16+8, silo 2 is one short chunk.
        assert_eq!(shape(1), vec![(0, 16), (0, 16), (0, 8), (2, 3)]);
        // Two shards: silo 0 splits 20+20 (each 16+4), silo 2 splits 2+1.
        assert_eq!(shape(2), vec![(0, 16), (0, 4), (0, 16), (0, 4), (2, 2), (2, 1)]);
    }

    #[test]
    fn stream_matches_naive_accumulation_and_is_structure_invariant() {
        // 40 users per silo: a single shard already spans three chunks.
        let tasks: Vec<(usize, usize)> =
            (0..3).flat_map(|s| (0..40).map(move |u| (s, u))).collect();
        let dim = 4;
        let per_task = |silo: usize, user: usize| {
            if user == 5 {
                return None; // tasks may contribute nothing
            }
            Some((0..dim).map(|j| (silo * 100 + user * 7 + j) as f64 * 0.013 - 1.5).collect())
        };
        let reference = stream_silo_deltas(&Runtime::new(1), &tasks, 3, 1, dim, per_task);
        // naive sum tracks it to quantisation precision
        for (silo, sums) in reference.iter().enumerate() {
            for j in 0..dim {
                let expect: f64 = (0..40).filter_map(|u| per_task(silo, u).map(|d| d[j])).sum();
                assert!((sums[j] - expect).abs() < 1e-12, "silo {silo} coord {j}");
            }
        }
        let bits = |deltas: &Vec<Vec<f64>>| {
            deltas.iter().flat_map(|d| d.iter().map(|v| v.to_bits())).collect::<Vec<_>>()
        };
        // bitwise-identical across every (threads, shards) combination
        for threads in [1usize, 2, 4] {
            let rt = Runtime::new(threads);
            for shards in [1usize, 2, 3, 40] {
                let out = stream_silo_deltas(&rt, &tasks, 3, shards, dim, per_task);
                assert_eq!(bits(&out), bits(&reference), "threads={threads} shards={shards}");
            }
        }
    }

    #[test]
    fn empty_task_list_yields_zero_sums() {
        let out =
            stream_silo_deltas(&Runtime::new(2), &[], 2, 3, 3, |_, _| panic!("no tasks to fold"));
        assert_eq!(out, vec![vec![0.0; 3]; 2]);
    }

    #[test]
    fn gauge_reports_span_count_times_accumulator_bytes() {
        let tasks: Vec<(usize, usize)> = (0..10).map(|u| (0, u)).collect();
        let rt = Runtime::new(1);
        rt.fold_gauge().reset();
        let _ = stream_silo_deltas(&rt, &tasks, 1, 2, 6, |_, _| Some(vec![0.0; 6]));
        // 2 shards × 5 tasks, each within one chunk → one span per shard
        assert_eq!(rt.fold_gauge().last(), 2 * DeltaAccumulator::bytes(6));
    }
}
