//! Training orchestration: rounds, user-level sub-sampling, privacy accounting and
//! evaluation.
//!
//! [`Trainer`] owns a federated dataset, a model, an [`Accountant`] matched to the chosen
//! [`Method`], and the clipping-weight matrix. [`Trainer::run`] executes the configured
//! number of rounds and produces a [`TrainingHistory`] whose per-round entries are exactly
//! the series plotted in Figures 4–9 of the paper: a utility metric (accuracy, test loss
//! or C-index) and the accumulated ULDP ε.

use crate::algorithms::{group, round_seed, silo_level, uldp};
use crate::config::{FlConfig, Method, WeightingStrategy};
use crate::sampling::SampleMask;
use crate::weighting::WeightMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use uldp_accounting::{Accountant, AlgorithmPrivacy};
use uldp_datasets::FederatedDataset;
use uldp_ml::{metrics, Model, ModelKind};
use uldp_runtime::Runtime;
use uldp_telemetry::trace;

/// Utility and privacy measurements recorded after a round.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundMetrics {
    /// 1-based round index.
    pub round: u64,
    /// Test accuracy (classification tasks).
    pub test_accuracy: Option<f64>,
    /// Average test loss.
    pub test_loss: Option<f64>,
    /// Concordance index (survival tasks).
    pub c_index: Option<f64>,
    /// Accumulated `(ε, δ)`-ULDP ε (infinite for the non-private baseline).
    pub epsilon: f64,
}

/// The complete record of a training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Method label (matches the paper's legends, e.g. "ULDP-AVG-w").
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Per-evaluation-point metrics.
    pub rounds: Vec<RoundMetrics>,
    /// Final flat model parameters.
    pub final_parameters: Vec<f64>,
}

impl TrainingHistory {
    /// The last recorded test accuracy, if any.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.rounds.iter().rev().find_map(|r| r.test_accuracy)
    }

    /// The last recorded test loss, if any.
    pub fn final_loss(&self) -> Option<f64> {
        self.rounds.iter().rev().find_map(|r| r.test_loss)
    }

    /// The last recorded concordance index, if any.
    pub fn final_c_index(&self) -> Option<f64> {
        self.rounds.iter().rev().find_map(|r| r.c_index)
    }

    /// The final accumulated ε.
    pub fn final_epsilon(&self) -> f64 {
        self.rounds.last().map(|r| r.epsilon).unwrap_or(0.0)
    }

    /// Renders the history as CSV rows (`round,accuracy,loss,c_index,epsilon`), the format
    /// consumed by the figure-regeneration binaries.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,accuracy,loss,c_index,epsilon\n");
        for r in &self.rounds {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                r.round,
                r.test_accuracy.map(|v| v.to_string()).unwrap_or_default(),
                r.test_loss.map(|v| v.to_string()).unwrap_or_default(),
                r.c_index.map(|v| v.to_string()).unwrap_or_default(),
                r.epsilon
            ));
        }
        out
    }
}

/// Orchestrates a full federated training run for one method on one dataset.
pub struct Trainer {
    config: FlConfig,
    dataset: FederatedDataset,
    model: Box<dyn Model>,
    accountant: Accountant,
    weights: WeightMatrix,
    contribution_flags: Option<Vec<bool>>,
    rng: StdRng,
    runtime: Arc<Runtime>,
}

impl Trainer {
    /// Creates a trainer, deriving the weight matrix, contribution flags and privacy
    /// accountant implied by the configured method.
    pub fn new(config: FlConfig, dataset: FederatedDataset, model: Box<dyn Model>) -> Self {
        config.validate();
        let histogram = dataset.histogram();
        let weights = match config.method {
            Method::UldpAvg { weighting } | Method::UldpSgd { weighting } => {
                WeightMatrix::from_histogram(weighting, &histogram)
            }
            _ => WeightMatrix::from_histogram(WeightingStrategy::Uniform, &histogram),
        };
        let contribution_flags = match config.method {
            Method::UldpGroup { group_size, .. } => {
                let k = group::resolve_group_size(&dataset, group_size);
                Some(group::build_contribution_flags(&dataset, k))
            }
            _ => None,
        };
        let privacy = match config.method {
            Method::Default => AlgorithmPrivacy::NonPrivate,
            // `validate` leaves ULDP-NAIVE only q = 1.
            Method::UldpNaive | Method::UldpAvg { .. } | Method::UldpSgd { .. } => {
                AlgorithmPrivacy::UserLevelGaussian { sigma: config.sigma, q: config.user_sampling }
            }
            Method::UldpGroup { group_size, sampling_rate } => {
                let k = group::resolve_group_size(&dataset, group_size);
                AlgorithmPrivacy::GroupDpSgd {
                    sigma: config.sigma,
                    sampling_rate,
                    steps_per_round: config.local_epochs,
                    group_size: group::accounting_group_size(k),
                }
            }
        };
        let accountant = Accountant::new(privacy);
        let rng = StdRng::seed_from_u64(config.seed);
        let runtime = Runtime::handle(config.threads);
        Trainer { config, dataset, model, accountant, weights, contribution_flags, rng, runtime }
    }

    /// The configuration used by this trainer.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// The dataset being trained on.
    pub fn dataset(&self) -> &FederatedDataset {
        &self.dataset
    }

    /// The current global model.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// The privacy accountant (read access, e.g. for inspecting the RDP curve).
    pub fn accountant(&self) -> &Accountant {
        &self.accountant
    }

    /// The clipping weight matrix in use.
    pub fn weights(&self) -> &WeightMatrix {
        &self.weights
    }

    /// The worker pool rounds run on (sized by [`FlConfig::threads`]).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Executes a single round (without evaluation) and updates the privacy accountant.
    pub fn step(&mut self, round: u64) {
        let seed = round_seed(self.config.seed, round);
        let rt = Arc::clone(&self.runtime);
        match self.config.method {
            Method::Default | Method::UldpNaive => {
                silo_level::run_round(&rt, &mut self.model, &self.dataset, &self.config, seed);
            }
            Method::UldpGroup { .. } => {
                let flags = self
                    .contribution_flags
                    .as_ref()
                    .expect("GROUP method always builds contribution flags");
                group::run_round(&rt, &mut self.model, &self.dataset, &self.config, flags, seed);
            }
            Method::UldpAvg { .. } | Method::UldpSgd { .. } => {
                let q = self.config.user_sampling;
                // A fresh Poisson mask every round (the paper's setting). The draw walks
                // geometric gaps (one uniform per *sampled* user), so a sparse round over
                // a large population never pays a per-user Bernoulli pass.
                let (sample, effective_q) = if q < 1.0 {
                    (Some(SampleMask::poisson(&mut self.rng, self.dataset.num_users, q)), q)
                } else {
                    (None, 1.0)
                };
                uldp::run_round(
                    &rt,
                    &mut self.model,
                    &self.dataset,
                    &self.config,
                    &self.weights,
                    sample.as_ref(),
                    effective_q,
                    seed,
                );
            }
        }
        self.accountant.step_round();
        // Privacy-budget ledger: one entry per accounted round with the running
        // (ε, δ) total, so traces show privacy spend alongside the timing spans.
        if uldp_telemetry::enabled() {
            uldp_telemetry::metrics::LEDGER_ENTRIES.inc();
            let epsilon = self.accountant.epsilon(self.config.delta);
            trace::event(
                "privacy",
                "ledger",
                vec![
                    ("round", round.into()),
                    ("rounds_accounted", self.accountant.rounds().into()),
                    ("epsilon", epsilon.into()),
                    ("delta", self.config.delta.into()),
                ],
            );
        }
    }

    /// Evaluates the current model on the held-out test set.
    pub fn evaluate(&self, round: u64) -> RoundMetrics {
        let epsilon = self.accountant.epsilon(self.config.delta);
        let (model, test) = (self.model.as_ref(), &self.dataset.test);
        match model.kind() {
            ModelKind::Cox => RoundMetrics {
                round,
                test_accuracy: None,
                test_loss: Some(metrics::average_loss(model, test)),
                c_index: Some(metrics::concordance_index(model, test)),
                epsilon,
            },
            _ => RoundMetrics {
                round,
                test_accuracy: Some(metrics::accuracy(model, test)),
                test_loss: Some(metrics::average_loss(model, test)),
                c_index: None,
                epsilon,
            },
        }
    }

    /// Runs the full configured number of rounds and returns the training history,
    /// evaluating every [`FlConfig::eval_every`] rounds and after the last one.
    pub fn run(&mut self) -> TrainingHistory {
        let mut rounds = Vec::new();
        for t in 0..self.config.rounds {
            self.step(t);
            let is_last = t + 1 == self.config.rounds;
            if (t + 1) % self.config.eval_every == 0 || is_last {
                rounds.push(self.evaluate(t + 1));
            }
        }
        TrainingHistory {
            method: self.config.method.label(),
            dataset: self.dataset.name.clone(),
            rounds,
            final_parameters: self.model.parameters().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_util::{tiny_federation, tiny_model};
    use crate::config::GroupSize;

    fn quick_config(method: Method) -> FlConfig {
        FlConfig {
            method,
            rounds: 3,
            local_epochs: 2,
            local_lr: 0.3,
            global_lr: if matches!(method, Method::UldpAvg { .. } | Method::UldpSgd { .. }) {
                10.0
            } else {
                1.0
            },
            sigma: if method.is_private() { 1.0 } else { 0.0 },
            clip_bound: 2.0,
            ..Default::default()
        }
    }

    #[test]
    fn default_run_produces_history_without_privacy() {
        let dataset = tiny_federation(2, 6, 80);
        let mut trainer = Trainer::new(quick_config(Method::Default), dataset, tiny_model());
        let history = trainer.run();
        assert_eq!(history.method, "DEFAULT");
        assert_eq!(history.rounds.len(), 3);
        assert!(history.final_epsilon().is_infinite());
        assert!(history.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn uldp_avg_tracks_finite_epsilon() {
        let dataset = tiny_federation(2, 6, 80);
        let method = Method::UldpAvg { weighting: WeightingStrategy::Uniform };
        let mut trainer = Trainer::new(quick_config(method), dataset, tiny_model());
        let history = trainer.run();
        let eps = history.final_epsilon();
        assert!(eps.is_finite() && eps > 0.0);
        // epsilon grows monotonically across evaluation points
        let eps_series: Vec<f64> = history.rounds.iter().map(|r| r.epsilon).collect();
        assert!(eps_series.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn group_method_has_larger_epsilon_than_avg() {
        let dataset = tiny_federation(2, 6, 120);
        let avg = Method::UldpAvg { weighting: WeightingStrategy::Uniform };
        let group = Method::UldpGroup { group_size: GroupSize::Fixed(8), sampling_rate: 0.5 };
        let mut avg_trainer = Trainer::new(quick_config(avg), dataset.clone(), tiny_model());
        let mut group_trainer = Trainer::new(quick_config(group), dataset, tiny_model());
        let avg_eps = avg_trainer.run().final_epsilon();
        let group_eps = group_trainer.run().final_epsilon();
        assert!(group_eps > avg_eps, "group eps {group_eps} should exceed avg eps {avg_eps}");
    }

    #[test]
    fn subsampling_reduces_epsilon_in_training() {
        let dataset = tiny_federation(2, 10, 100);
        let method = Method::UldpAvg { weighting: WeightingStrategy::Uniform };
        let mut full_cfg = quick_config(method);
        full_cfg.sigma = 5.0;
        let mut sub_cfg = full_cfg.clone();
        sub_cfg.user_sampling = 0.3;
        let full_eps = Trainer::new(full_cfg, dataset.clone(), tiny_model()).run().final_epsilon();
        let sub_eps = Trainer::new(sub_cfg, dataset, tiny_model()).run().final_epsilon();
        assert!(sub_eps < full_eps, "{sub_eps} !< {full_eps}");
    }

    #[test]
    fn eval_every_controls_history_density() {
        let dataset = tiny_federation(2, 6, 40);
        let mut cfg = quick_config(Method::Default);
        cfg.rounds = 4;
        cfg.eval_every = 2;
        let mut trainer = Trainer::new(cfg, dataset, tiny_model());
        let history = trainer.run();
        assert_eq!(history.rounds.len(), 2);
        assert_eq!(history.rounds[0].round, 2);
        assert_eq!(history.rounds[1].round, 4);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let dataset = tiny_federation(2, 6, 40);
        let mut trainer = Trainer::new(quick_config(Method::Default), dataset, tiny_model());
        let history = trainer.run();
        let csv = history.to_csv();
        assert!(csv.starts_with("round,accuracy,loss,c_index,epsilon\n"));
        assert_eq!(csv.lines().count(), 1 + history.rounds.len());
    }

    #[test]
    fn runs_are_reproducible_with_same_seed() {
        let dataset = tiny_federation(2, 6, 60);
        let cfg = quick_config(Method::UldpAvg { weighting: WeightingStrategy::Uniform });
        let h1 = Trainer::new(cfg.clone(), dataset.clone(), tiny_model()).run();
        let h2 = Trainer::new(cfg, dataset, tiny_model()).run();
        assert_eq!(h1.final_parameters, h2.final_parameters);
    }
}
