//! The parent side of a run: collects the episodes' sample lines and turns them into
//! the metrics the benchmark reports.

use crate::stats::{median, percentile, tail_percentile};
use std::collections::BTreeMap;

/// Metrics a user of the program sees, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("round_ms", "ms"), ("total_s", "s"), ("peak_rss_mb", "MB")];

/// Metrics of single layers, reported by traced runs: `(name, unit)`. A workload that
/// does not reach a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("datasets.generate_ms", "ms"),
    ("datasets.user_records_ms", "ms"),
    ("trainer.new_ms", "ms"),
    ("trainer.step_ms", "ms"),
    ("trainer.evaluate_ms", "ms"),
    ("ml.local_train_ms", "ms"),
    ("ml.local_train_us", "us"),
    ("accounting.epsilon_us", "us"),
    ("runtime.pool_jobs", "count"),
    ("runtime.job_queue_wait_ms", "ms"),
    ("runtime.job_exec_ms", "ms"),
    ("runtime.parallelism", "ratio"),
    ("runtime.fold_bytes_peak", "B"),
    ("protocol.key_exchange_ms", "ms"),
    ("protocol.histogram_blinding_ms", "ms"),
    ("protocol.inverse_ms", "ms"),
    ("protocol.server_encryption_ms", "ms"),
    ("protocol.silo_weighting_ms", "ms"),
    ("protocol.aggregation_ms", "ms"),
    ("protocol.first_round_ms", "ms"),
    ("protocol.first_silo_weighting_ms", "ms"),
    ("protocol.decrypt_share", "%"),
    ("protocol.cache_hit_ratio", "ratio"),
    ("protocol.cached_state_mb", "MB"),
    ("protocol.cached_entries", "count"),
    ("protocol.active_users", "count"),
    ("protocol.setup_explained_pct", "%"),
    ("protocol.explained_pct", "%"),
    ("protocol.mont_explained_pct", "%"),
    ("sampling.poisson_us", "us"),
    ("sampling.sampled_users", "count"),
    ("bigint.mont_mul", "count"),
    ("bigint.mont_sqr", "count"),
    ("bigint.mod_pow_window", "count"),
    ("bigint.mod_pow_fixed_base", "count"),
    ("bigint.multi_exp", "count"),
    ("crypto.paillier_encrypt", "count"),
    ("crypto.paillier_rerandomise", "count"),
    ("crypto.paillier_scalar_mul", "count"),
    ("crypto.paillier_decrypt", "count"),
    ("bigint.mont_mul_ns", "ns"),
    ("bigint.mont_sqr_ns", "ns"),
    ("bigint.mod_inv_us", "us"),
    ("crypto.encrypt_us", "us"),
    ("crypto.rerandomise_us", "us"),
    ("crypto.scalar_mul_us", "us"),
    ("crypto.decrypt_us", "us"),
    ("crypto.blind_us", "us"),
    ("telemetry.overhead_pct", "%"),
];

/// One episode's output as read back from its lines.
#[derive(Debug, Default)]
pub struct EpisodeOutput {
    pub traced: bool,
    pub samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub fingerprint: String,
}

impl EpisodeOutput {
    /// Parses the lines an episode printed (see `episode.rs` for the format).
    pub fn parse(traced: bool, text: &str) -> Result<EpisodeOutput, String> {
        let mut out = EpisodeOutput { traced, ..Default::default() };
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kind {
                "sample" => {
                    let (name, value) =
                        rest.split_once(' ').ok_or_else(|| format!("bad sample line {line:?}"))?;
                    let known = END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name);
                    if !known {
                        return Err(format!("episode emitted unknown metric {name:?}"));
                    }
                    let value: f64 =
                        value.parse().map_err(|_| format!("bad sample value in {line:?}"))?;
                    out.samples.entry(name.to_string()).or_default().push(value);
                }
                "attempted" => {
                    out.attempted =
                        rest.parse().map_err(|_| format!("bad attempted line {line:?}"))?
                }
                "fail" => out.failures.push(rest.to_string()),
                "fingerprint" => out.fingerprint = rest.to_string(),
                _ => return Err(format!("unexpected episode output {line:?}")),
            }
        }
        if out.fingerprint.is_empty() {
            return Err("episode printed no fingerprint".to_string());
        }
        Ok(out)
    }
}

/// The result of a run: every episode's checks plus the reported metrics.
pub struct RunReport {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed ahead of the JSON result.
    pub summary: Vec<String>,
}

fn pooled<'a>(episodes: impl Iterator<Item = &'a EpisodeOutput>, name: &str) -> Vec<f64> {
    episodes.filter_map(|e| e.samples.get(name)).flatten().copied().collect()
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

impl RunReport {
    /// Reduces a run's episodes to metrics: medians over pooled samples, untraced
    /// episodes for end-to-end metrics and traced ones for per-layer metrics.
    ///
    /// Every episode after the first is also an output check: all episodes of a run use
    /// one seed, so their fingerprints must agree bit for bit.
    pub fn build(episodes: &[EpisodeOutput], traced: bool) -> RunReport {
        let mut attempted = 0;
        let mut failures = Vec::new();
        for (i, e) in episodes.iter().enumerate() {
            attempted += e.attempted;
            failures.extend(e.failures.iter().map(|f| format!("episode {i}: {f}")));
            if i > 0 {
                attempted += 1;
                if e.fingerprint != episodes[0].fingerprint {
                    failures.push(format!(
                        "episode {i}: fingerprint {} differs from {} at the same seed",
                        e.fingerprint, episodes[0].fingerprint
                    ));
                }
            }
        }
        let plain = || episodes.iter().filter(|e| !e.traced);
        let rounds = pooled(plain(), "round_ms");
        let mut summary = Vec::new();
        let mut metrics = Vec::new();
        if traced {
            let with_trace = || episodes.iter().filter(|e| e.traced);
            for (name, unit) in PER_LAYER {
                let value = match name {
                    "telemetry.overhead_pct" => {
                        let on = median_or_zero(&pooled(with_trace(), "total_s"));
                        let off = median_or_zero(&pooled(plain(), "total_s"));
                        if off > 0.0 {
                            100.0 * (on / off - 1.0)
                        } else {
                            0.0
                        }
                    }
                    _ => median_or_zero(&pooled(with_trace(), name)),
                };
                metrics.push((name, value, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let values = pooled(plain(), name);
                if values.is_empty() {
                    failures.push(format!("no {name} samples"));
                }
                let value = median_or_zero(&values);
                let mut line =
                    format!("{name:<12} {value:>12.4} {unit:<3} median of {}", values.len());
                if let Some(p) = tail_percentile(values.len()) {
                    line.push_str(&format!(", p{p} {:.4}", percentile(&values, p)));
                }
                summary.push(line);
                metrics.push((name, value, unit));
            }
        }
        for (name, value, _) in &metrics {
            if !value.is_finite() {
                failures.push(format!("{name} is not finite"));
            }
        }
        summary.insert(
            0,
            format!(
                "{} episodes ({} traced), {} untraced steady rounds, failed/attempted {}/{}",
                episodes.len(),
                episodes.iter().filter(|e| e.traced).count(),
                rounds.len(),
                failures.len(),
                attempted.max(1)
            ),
        );
        RunReport { attempted, failures, metrics, summary }
    }

    /// The result line: one JSON object with `correct`, `attempted`, `failed` and
    /// `metrics`. Values keep every digit Rust's shortest round-trip formatting gives.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?} of {name}"
            );
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(spec.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
    }

    fn episode(traced: bool, fingerprint: &str, lines: &str) -> EpisodeOutput {
        let text = format!("{lines}attempted 3\nfingerprint {fingerprint}\n");
        EpisodeOutput::parse(traced, &text).expect("well-formed episode")
    }

    #[test]
    fn end_to_end_metrics_are_medians_of_pooled_samples() {
        let a = episode(false, "ab", "sample setup_s 2\nsample round_ms 10\nsample round_ms 30\nsample total_s 5\nsample peak_rss_mb 7\n");
        let b = episode(
            false,
            "ab",
            "sample setup_s 4\nsample round_ms 20\nsample total_s 6\nsample peak_rss_mb 9\n",
        );
        let report = RunReport::build(&[a, b], false);
        let values: Vec<f64> = report.metrics.iter().map(|m| m.1).collect();
        assert_eq!(values, vec![3.0, 20.0, 5.5, 8.0]);
        assert_eq!(report.attempted, 7);
        assert!(report.failures.is_empty());
        let json = report.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0,"));
        assert!(json.contains("\"round_ms\": {\"value\": 20.0, \"unit\": \"ms\"}"));
    }

    #[test]
    fn differing_fingerprints_at_one_seed_fail_the_run() {
        let lines = "sample setup_s 1\nsample round_ms 1\nsample total_s 1\nsample peak_rss_mb 1\n";
        let report =
            RunReport::build(&[episode(false, "aa", lines), episode(false, "bb", lines)], false);
        assert_eq!(report.failures.len(), 1);
        assert!(report.to_json().contains("\"correct\": false"));
    }

    #[test]
    fn traced_runs_report_every_layer_metric() {
        let on = episode(
            true,
            "aa",
            "sample total_s 11\nsample bigint.mont_mul 4\nsample bigint.mont_mul 6\n",
        );
        let off = episode(false, "aa", "sample total_s 10\n");
        let report = RunReport::build(&[on, off], true);
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        let get = |n: &str| report.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("bigint.mont_mul"), 5.0);
        assert!((get("telemetry.overhead_pct") - 10.0).abs() < 1e-9);
        assert_eq!(get("ml.local_train_ms"), 0.0);
    }

    #[test]
    fn unknown_or_malformed_lines_are_rejected() {
        assert!(EpisodeOutput::parse(false, "sample no.such_metric 1\nfingerprint 0\n").is_err());
        assert!(EpisodeOutput::parse(false, "sample round_ms x\nfingerprint 0\n").is_err());
        assert!(EpisodeOutput::parse(false, "attempted 1\n").is_err());
    }
}
