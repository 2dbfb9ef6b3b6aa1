//! # uldp-fl
//!
//! A Rust reproduction of **"Uldp-FL: Federated Learning with Across-Silo User-Level
//! Differential Privacy"** (Kato, Xiong, Takagi, Cao, Yoshikawa — VLDB 2024).
//!
//! This facade crate re-exports the whole workspace behind a single dependency:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `uldp-core` | the FL framework: DEFAULT, ULDP-NAIVE, ULDP-GROUP-k, ULDP-AVG/SGD, ULDP-AVG-w, user-level sub-sampling, Protocol 1 |
//! | [`accounting`] | `uldp-accounting` | RDP accountant, group-privacy conversions |
//! | [`ml`] | `uldp-ml` | models (linear / MLP / Cox), SGD, clipping, metrics |
//! | [`datasets`] | `uldp-datasets` | synthetic Creditcard / MNIST / HeartDisease / TcgaBrca + uniform / zipf allocation |
//! | [`crypto`] | `uldp-crypto` | Paillier, Diffie–Hellman, SHA-256, masking, blinding, fixed-point codec |
//! | [`bigint`] | `uldp-bigint` | arbitrary-precision integers, modular arithmetic, primes |
//! | [`runtime`] | `uldp-runtime` | deterministic worker pool: `par_map`, `par_fold_ranges`, per-index seed derivation |
//! | [`telemetry`] | `uldp-telemetry` | spans, counters, histograms, privacy ledger; chrome-trace export (`ULDP_TRACE`) |
//!
//! ## Quickstart
//!
//! ```rust
//! use uldp_fl::core::{FlConfig, Method, Trainer, WeightingStrategy};
//! use uldp_fl::datasets::creditcard::{self, CreditcardConfig};
//! use uldp_fl::ml::LinearClassifier;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A small synthetic cross-silo federation (5 silos, 100 users).
//! let mut rng = StdRng::seed_from_u64(0);
//! let dataset = creditcard::generate(
//!     &mut rng,
//!     &CreditcardConfig { train_records: 500, test_records: 100, ..Default::default() },
//! );
//!
//! // Train with ULDP-AVG: user-level DP across silos, σ = 5, C = 1.
//! let mut config = FlConfig::recommended(
//!     Method::UldpAvg { weighting: WeightingStrategy::Uniform },
//!     dataset.num_silos,
//! );
//! config.rounds = 2;
//! let model = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
//! let history = Trainer::new(config, dataset, model).run();
//!
//! assert!(history.final_epsilon().is_finite());
//! ```

pub use uldp_accounting as accounting;
pub use uldp_bigint as bigint;
pub use uldp_core as core;
pub use uldp_crypto as crypto;
pub use uldp_datasets as datasets;
pub use uldp_ml as ml;
pub use uldp_runtime as runtime;
pub use uldp_telemetry as telemetry;

/// The workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Touch one item from every re-exported crate to catch wiring regressions.
        let _ = crate::accounting::DEFAULT_DELTA;
        let _ = crate::bigint::BigUint::one();
        let _ = crate::core::FlConfig::default();
        let _ = crate::crypto::sha256(b"uldp");
        let _ = crate::datasets::Allocation::Uniform;
        let _ = crate::ml::Sgd::new(0.1);
        assert!(crate::runtime::Runtime::global().threads() >= 1);
        let _ = crate::telemetry::enabled();
        assert!(!crate::VERSION.is_empty());
    }
}
