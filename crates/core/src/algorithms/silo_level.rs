//! DEFAULT and ULDP-NAIVE (Algorithm 1): silo-level FedAVG with two-sided learning rates.
//!
//! Every silo trains for `Q` epochs of mini-batch SGD on its full local dataset and sends
//! the model delta; the server averages the deltas and applies the global learning rate.
//!
//! * **DEFAULT** sends the raw delta. It is the utility upper bound ("DEFAULT" in
//!   Figures 4–7) and offers no DP guarantee.
//! * **ULDP-NAIVE** clips the delta to `C` and adds Gaussian noise with variance
//!   `σ²C²|S|`. Because a single user may appear in every silo, the user-level
//!   sensitivity of the aggregated delta is `C·|S|` and the per-silo noise must be scaled
//!   up accordingly (Theorem 1); with only a handful of silos to average over, the
//!   result is a very noisy update — the reason this baseline achieves a small ε but poor
//!   utility in the figures.

use crate::aggregation::{add_gaussian_noise, sum_deltas};
use crate::algorithms::apply_update;
use crate::config::{FlConfig, Method};
use crate::silo;
use uldp_datasets::FederatedDataset;
use uldp_ml::{clipping, Model};
use uldp_runtime::Runtime;

/// Runs one DEFAULT or ULDP-NAIVE round (per `config.method`) on the worker pool,
/// updating `model` in place. Panics for any other method.
///
/// Every silo trains with its own RNG derived from `(round_seed, silo)`; ULDP-NAIVE
/// draws the silo's noise from the same RNG after training, so the round is
/// bitwise-identical at any thread count.
pub fn run_round(
    rt: &Runtime,
    model: &mut Box<dyn Model>,
    dataset: &FederatedDataset,
    config: &FlConfig,
    round_seed: u64,
) {
    // Per-silo noise std of ULDP-NAIVE: sqrt(σ²C²|S|) = σ·C·√|S| (Algorithm 1, l.14).
    let naive_noise_std = match config.method {
        Method::Default => None,
        Method::UldpNaive => {
            Some(config.sigma * config.clip_bound * (dataset.num_silos as f64).sqrt())
        }
        method => panic!("{} is not a silo-level method", method.label()),
    };
    let global = model.parameters().to_vec();
    let dim = global.len();
    let template = model.clone_model();
    let deltas = rt.par_map_seeded(dataset.num_silos, round_seed, |silo_id, rng| {
        let mut scratch = template.clone_model();
        let records: Vec<&uldp_ml::Sample> =
            dataset.silo_records(silo_id).into_iter().map(|r| &r.sample).collect();
        let mut delta = silo::local_train(
            scratch.as_mut(),
            &global,
            &records,
            config.local_epochs,
            config.local_lr,
            config.batch_size,
            rng,
        );
        if let Some(noise_std) = naive_noise_std {
            clipping::clip_to_norm(&mut delta, config.clip_bound);
            add_gaussian_noise(&mut delta, noise_std, rng);
        }
        delta
    });
    let aggregate = sum_deltas(&deltas, dim);
    apply_update(model.as_mut(), &aggregate, config.global_lr, 1.0 / dataset.num_silos as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_util::{tiny_federation, tiny_model};
    use uldp_ml::metrics::accuracy;

    fn rt() -> Runtime {
        Runtime::new(2)
    }

    #[test]
    fn default_round_improves_accuracy() {
        let dataset = tiny_federation(3, 10, 120);
        let mut model = tiny_model();
        let config = FlConfig {
            method: Method::Default,
            rounds: 5,
            local_epochs: 2,
            local_lr: 0.3,
            ..Default::default()
        };
        let before = accuracy(model.as_ref(), &dataset.test);
        for t in 0..5 {
            run_round(&rt(), &mut model, &dataset, &config, t);
        }
        let after = accuracy(model.as_ref(), &dataset.test);
        assert!(after > before.max(0.9), "accuracy {before} -> {after}");
    }

    #[test]
    fn round_is_deterministic_for_fixed_seed() {
        let dataset = tiny_federation(2, 5, 60);
        let config = FlConfig { method: Method::Default, ..Default::default() };
        let mut m1 = tiny_model();
        let mut m2 = tiny_model();
        run_round(&rt(), &mut m1, &dataset, &config, 3);
        run_round(&rt(), &mut m2, &dataset, &config, 3);
        assert_eq!(m1.parameters(), m2.parameters());
    }

    #[test]
    fn empty_silo_contributes_zero() {
        // 5 silos but records only land in silos 0..3 (probabilistically all); even if a
        // silo is empty the round must not panic.
        let dataset = tiny_federation(5, 4, 20);
        let mut model = tiny_model();
        let config = FlConfig { method: Method::Default, ..Default::default() };
        run_round(&rt(), &mut model, &dataset, &config, 0);
        assert!(model.parameters().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn noiseless_naive_matches_clipped_default_behaviour() {
        // With sigma = 0 the only difference from DEFAULT is clipping; training should
        // still make progress on separable data.
        let dataset = tiny_federation(3, 10, 120);
        let mut model = tiny_model();
        let config = FlConfig {
            method: Method::UldpNaive,
            sigma: 0.0,
            clip_bound: 10.0,
            local_lr: 0.3,
            ..Default::default()
        };
        for t in 0..5 {
            run_round(&rt(), &mut model, &dataset, &config, t);
        }
        let acc = accuracy(model.as_ref(), &dataset.test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn noise_dominates_with_default_sigma() {
        // With the paper's sigma = 5 and few silos the update is mostly noise: parameters
        // after one round should differ markedly between two different noise seeds.
        let dataset = tiny_federation(3, 10, 60);
        let config = FlConfig { method: Method::UldpNaive, sigma: 5.0, ..Default::default() };
        let mut m1 = tiny_model();
        let mut m2 = tiny_model();
        run_round(&rt(), &mut m1, &dataset, &config, 1);
        run_round(&rt(), &mut m2, &dataset, &config, 2);
        let diff: f64 =
            m1.parameters().iter().zip(m2.parameters().iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 0.1, "different noise seeds should give different models");
    }

    #[test]
    fn clipping_bounds_silo_contribution_without_noise() {
        let dataset = tiny_federation(2, 5, 60);
        let clip = 0.05;
        let config = FlConfig {
            method: Method::UldpNaive,
            sigma: 0.0,
            clip_bound: clip,
            global_lr: 1.0,
            ..Default::default()
        };
        let mut model = tiny_model();
        let before = model.parameters().to_vec();
        run_round(&rt(), &mut model, &dataset, &config, 0);
        // ||x_{t+1} - x_t|| <= global_lr * (1/|S|) * sum_s ||clip(delta_s)|| <= clip
        let moved: f64 = model
            .parameters()
            .iter()
            .zip(before.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(moved <= clip + 1e-9, "moved {moved} > clip {clip}");
    }
}
