//! # uldp-bench
//!
//! Figure-regeneration harness for the Uldp-FL reproduction.
//!
//! Every figure of the paper's evaluation section has a dedicated binary in `src/bin/`
//! that regenerates the corresponding series and prints them as aligned tables / CSV:
//!
//! | binary | paper figure | content |
//! |--------|--------------|---------|
//! | `fig2_group_privacy` | Fig. 2 | ε of the group-privacy conversion vs. group size k |
//! | `fig4_creditcard` | Fig. 4 | Creditcard privacy-utility trade-offs, all methods |
//! | `fig5_mnist` | Fig. 5 | MNIST trade-offs incl. the non-i.i.d. variants |
//! | `fig6_heartdisease` | Fig. 6 | HeartDisease trade-offs |
//! | `fig7_tcgabrca` | Fig. 7 | TcgaBrca trade-offs (C-index) |
//! | `fig8_weighting` | Fig. 8 | ULDP-AVG vs ULDP-AVG-w test loss under skew, |S| ∈ {5,20,50} |
//! | `fig9_subsampling` | Fig. 9 | effect of user-level sub-sampling rates |
//! | `fig10_protocol_bench` | Fig. 10 | private weighting protocol wall-clock, benchmark scenarios |
//! | `fig11_protocol_scaling` | Fig. 11 | protocol scaling with parameter count and user count |
//!
//! Scale is controlled by the `ULDP_BENCH_SCALE` environment variable: `quick` (default,
//! minutes) or `full` (closer to the paper's scale, much slower). The benchmark of
//! record, with per-layer costs of training and Protocol 1, is `perfbench/` at the
//! repository root.

pub mod scenarios;

use rand::rngs::StdRng;
use uldp_core::{
    FlConfig, Method, PrivateWeightingProtocol, RoundReport, Trainer, TrainingHistory,
};
use uldp_datasets::FederatedDataset;
use uldp_ml::Model;
use uldp_runtime::Runtime;

/// Experiment scale selected via the `ULDP_BENCH_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small workloads that finish in seconds to minutes (default).
    Quick,
    /// Workloads close to the paper's scale.
    Full,
}

impl Scale {
    /// Reads the scale from `ULDP_BENCH_SCALE` (see [`Scale::parse`]); panics on any
    /// other value, naming it, so a typo never silently runs the `quick` workloads.
    pub fn from_env() -> Self {
        let value = match std::env::var("ULDP_BENCH_SCALE") {
            Ok(v) => Some(v),
            Err(std::env::VarError::NotPresent) => None,
            Err(e) => panic!("ULDP_BENCH_SCALE: {e}"),
        };
        Scale::parse(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parses a `ULDP_BENCH_SCALE` value: unset means `quick`; `quick` and `full` are
    /// accepted case-insensitively.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None => Ok(Scale::Quick),
            Some(v) if v.eq_ignore_ascii_case("quick") => Ok(Scale::Quick),
            Some(v) if v.eq_ignore_ascii_case("full") => Ok(Scale::Full),
            Some(v) => Err(format!("ULDP_BENCH_SCALE must be `quick` or `full`, not `{v}`")),
        }
    }

    /// Picks `quick` or `full` value.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// One row of a figure's result table.
#[derive(Clone, Debug)]
pub struct ResultRow {
    /// Series / method label.
    pub label: String,
    /// Named values of the row, printed in insertion order.
    pub values: Vec<(String, String)>,
}

impl ResultRow {
    /// Creates an empty row with a label.
    pub fn new(label: impl Into<String>) -> Self {
        ResultRow { label: label.into(), values: Vec::new() }
    }

    /// Appends a formatted numeric value.
    pub fn push_f64(&mut self, name: &str, value: f64) {
        let rendered = if value.is_infinite() {
            "inf".to_string()
        } else if value.abs() >= 1000.0 {
            format!("{value:.1}")
        } else {
            format!("{value:.4}")
        };
        self.values.push((name.to_string(), rendered));
    }

    /// Appends a pre-formatted value.
    pub fn push_str(&mut self, name: &str, value: impl Into<String>) {
        self.values.push((name.to_string(), value.into()));
    }
}

/// Prints a titled table of rows in an aligned, grep-friendly format.
pub fn print_table(title: &str, rows: &[ResultRow]) {
    println!("\n== {title} ==");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    // header from the first row
    let mut header = format!("{:<24}", "series");
    for (name, _) in &rows[0].values {
        header.push_str(&format!(" {name:>14}"));
    }
    println!("{header}");
    for row in rows {
        let mut line = format!("{:<24}", row.label);
        for (_, value) in &row.values {
            line.push_str(&format!(" {value:>14}"));
        }
        println!("{line}");
    }
}

/// Trains `method` on a clone of `dataset` with a model produced by `make_model`, using
/// the supplied configuration tweaks, and returns the history. Shared by the figure
/// binaries so all of them configure runs consistently.
pub fn run_training(
    dataset: &FederatedDataset,
    method: Method,
    rounds: u64,
    sigma: f64,
    user_sampling: f64,
    make_model: &dyn Fn() -> Box<dyn Model>,
) -> TrainingHistory {
    let mut config = FlConfig::recommended(method, dataset.num_silos);
    config.rounds = rounds;
    // ULDP-SGD takes one local gradient step and keeps its recommended one epoch.
    if !matches!(method, Method::UldpSgd { .. }) {
        config.local_epochs = 2;
    }
    config.local_lr = 0.3;
    config.clip_bound = 1.0;
    config.sigma = sigma;
    config.user_sampling = user_sampling;
    config.eval_every = (rounds / 5).max(1);
    if matches!(method, Method::UldpAvg { .. } | Method::UldpSgd { .. }) {
        config.global_lr = dataset.num_silos as f64 * 20.0;
    }
    Trainer::new(config, dataset.clone(), make_model()).run()
}

/// Formats a `Duration` in milliseconds with three decimals.
pub fn millis(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Outcome of running one weighting round on the pooled runtime and again on a 1-thread
/// runtime from an identically-seeded RNG.
#[derive(Clone, Debug)]
pub struct RoundComparison {
    /// Decrypted aggregate of the pooled round (bitwise-equal to the sequential one).
    pub aggregate: Vec<f64>,
    /// Per-phase timings of the pooled round.
    pub timings: RoundReport,
    /// Per-phase timings of the 1-thread round.
    pub seq_timings: RoundReport,
    /// Wall-clock speedup of the pooled round over the sequential one.
    pub speedup: f64,
}

/// Runs `protocol`'s weighting round twice — on its configured (pooled) runtime with
/// `rng`, then on a 1-thread runtime from a pre-round clone of `rng` — and asserts the
/// decrypted aggregates are bitwise-identical (the runtime's determinism guarantee).
///
/// Shared by `fig10_protocol_bench` and `fig11_protocol_scaling` so the comparison
/// harness cannot drift between them. Both set [`uldp_core::ProtocolConfig::fresh_encrypt`],
/// so each round pays its own step 2.(a) encryption. `rng` advances exactly as one
/// round would; the protocol is returned with the 1-thread runtime installed.
pub fn pooled_vs_sequential_round(
    protocol: PrivateWeightingProtocol,
    deltas: &[Vec<Vec<f64>>],
    noises: &[Vec<f64>],
    rng: &mut StdRng,
) -> (PrivateWeightingProtocol, RoundComparison) {
    // Warm-up round on a cloned RNG, output discarded: the first round over a fresh
    // protocol pays one-time lazy initialisation (CRT decryption contexts, allocator
    // growth) that belongs to neither side of the threads comparison — without this
    // the pooled round, which runs first, absorbed that cost and a 1-thread "pooled"
    // run read as slower than sequential.
    let mut warm_rng = rng.clone();
    let _ = protocol.weighting_round(deltas, noises, None, &mut warm_rng);
    let mut seq_rng = rng.clone();
    let (aggregate, timings) = protocol.weighting_round(deltas, noises, None, rng);
    let protocol = protocol.with_runtime(Runtime::handle(1));
    let (seq_aggregate, seq_timings) = protocol.weighting_round(deltas, noises, None, &mut seq_rng);
    assert_eq!(
        aggregate.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        seq_aggregate.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "pooled and sequential aggregates must be bitwise-identical"
    );
    let speedup = seq_timings.total().as_secs_f64() / timings.total().as_secs_f64().max(1e-12);
    (protocol, RoundComparison { aggregate, timings, seq_timings, speedup })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_quick() {
        // The environment variable is not set in the test harness.
        assert_eq!(Scale::from_env(), Scale::Quick);
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn scale_parse_accepts_quick_and_full_and_names_anything_else() {
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        for (value, scale) in [
            ("quick", Scale::Quick),
            ("QUICK", Scale::Quick),
            ("full", Scale::Full),
            ("FULL", Scale::Full),
        ] {
            assert_eq!(Scale::parse(Some(value)), Ok(scale));
        }
        for bad in ["ful", "", "fast", "full "] {
            let err = Scale::parse(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn result_rows_format_values() {
        let mut row = ResultRow::new("test");
        row.push_f64("eps", f64::INFINITY);
        row.push_f64("acc", 0.91234);
        row.push_f64("big", 12345.6);
        row.push_str("note", "ok");
        assert_eq!(row.values[0].1, "inf");
        assert_eq!(row.values[1].1, "0.9123");
        assert_eq!(row.values[2].1, "12345.6");
        assert_eq!(row.values[3].1, "ok");
        // print_table must not panic
        print_table("unit", &[row]);
        print_table("empty", &[]);
    }

    #[test]
    fn millis_converts() {
        assert!((millis(std::time::Duration::from_millis(250)) - 250.0).abs() < 1e-9);
    }
}
