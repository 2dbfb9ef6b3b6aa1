//! ULDP-SGD (Algorithm 3, client variant for a single gradient step).
//!
//! Like ULDP-AVG but each user contributes a single clipped, weighted stochastic gradient
//! instead of a multi-epoch model delta; the server applies the aggregated gradient as a
//! descent step. The paper notes ULDP-SGD converges more slowly than ULDP-AVG (the same
//! relationship as FedSGD vs FedAVG), which Figures 4–7 confirm.

use crate::aggregation::{add_gaussian_noise, sum_deltas};
use crate::algorithms::{apply_update, noise_rng, participating_tasks, stream};
use crate::config::FlConfig;
use crate::sampling::SampleMask;
use crate::silo;
use crate::weighting::WeightMatrix;
use uldp_datasets::FederatedDataset;
use uldp_ml::{clipping, Model};
use uldp_runtime::Runtime;
use uldp_telemetry::{metrics, trace};

/// Runs one ULDP-SGD round on the worker pool, updating `model` in place.
///
/// The per-user gradient computations run on the streaming sharded round engine
/// (`algorithms::stream`) like ULDP-AVG's training loops (they consume no
/// randomness); per-silo Gaussian noise comes from dedicated seeded streams, so the
/// round is bitwise-identical across all `(threads, shards, chunk_size)` settings.
///
/// [`FlConfig::fault_plan`] degradation semantics match ULDP-AVG
/// ([`crate::algorithms::uldp_avg::run_round`]): dropped silos contribute neither
/// gradients nor noise and the update re-scales by the surviving silo count; byzantine
/// silos corrupt raw gradients *before* clipping, bounding their influence by the
/// clipping norm. Fault decisions are seed-derived, preserving bitwise determinism.
#[allow(clippy::too_many_arguments)]
pub fn run_round(
    rt: &Runtime,
    model: &mut Box<dyn Model>,
    dataset: &FederatedDataset,
    config: &FlConfig,
    weights: &WeightMatrix,
    mask: Option<&SampleMask>,
    sampling_q: f64,
    round_seed: u64,
) {
    debug_assert!(weights.satisfies_sensitivity_constraint(1e-9));
    let _round_span = trace::span("train", "uldp_sgd_round").arg("round", round_seed);
    let global = model.parameters().to_vec();
    let dim = global.len();
    let template = model.clone_model();
    let noise_std = config.sigma * config.clip_bound / (dataset.num_silos as f64).sqrt();

    let plan = &config.fault_plan;
    let dropped = plan.dropped_silos(round_seed, dataset.num_silos);
    let byzantine = plan.byzantine_silos(round_seed, dataset.num_silos);
    let surviving = dropped.iter().filter(|&&d| !d).count();

    if uldp_telemetry::enabled() {
        for (silo, &d) in dropped.iter().enumerate() {
            if d {
                metrics::FAULT_EVENTS.inc();
                trace::event(
                    "fault",
                    "dropout",
                    vec![("round", round_seed.into()), ("silo", silo.into())],
                );
            }
        }
    }

    let mut tasks = participating_tasks(dataset, weights, mask);
    tasks.retain(|&(silo_id, _)| !dropped[silo_id]);

    let mut gradients = stream::stream_silo_deltas(
        rt,
        &tasks,
        dataset.num_silos,
        config.resolved_shards(),
        config.resolved_chunk_size(),
        dim,
        |silo_id, user| {
            let records = dataset.silo_user_records(silo_id, user);
            if records.is_empty() {
                return None;
            }
            let mut scratch = template.clone_model();
            let mut grad = silo::local_gradient(scratch.as_mut(), &global, &records);
            if byzantine[silo_id] {
                plan.corrupt_delta(&mut grad, round_seed, dataset.num_users, silo_id, user);
                if uldp_telemetry::enabled() {
                    metrics::FAULT_EVENTS.inc();
                    trace::event(
                        "fault",
                        "byzantine",
                        vec![
                            ("round", round_seed.into()),
                            ("silo", silo_id.into()),
                            ("user", user.into()),
                        ],
                    );
                }
            }
            clipping::clip_to_norm(&mut grad, config.clip_bound);
            let w = weights.get(silo_id, user);
            for g in grad.iter_mut() {
                *g *= w;
            }
            Some(grad)
        },
    );
    for (silo_id, silo_grad) in gradients.iter_mut().enumerate() {
        if dropped[silo_id] {
            continue;
        }
        add_gaussian_noise(silo_grad, noise_std, &mut noise_rng(round_seed, silo_id));
    }

    let aggregate = sum_deltas(&gradients, dim);
    // Gradients point uphill, so the server applies a *descent* step with the local
    // learning rate folded in (one SGD step per round at user level).
    let scale = -config.local_lr / (sampling_q * dataset.num_users as f64 * surviving as f64);
    apply_update(model.as_mut(), &aggregate, config.global_lr, scale);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_util::{tiny_federation, tiny_model};
    use crate::config::{FlConfig, Method, WeightingStrategy};
    use uldp_ml::metrics::accuracy;

    fn rt() -> Runtime {
        Runtime::new(2)
    }

    fn sgd_config() -> FlConfig {
        FlConfig {
            method: Method::UldpSgd { weighting: WeightingStrategy::Uniform },
            sigma: 0.0,
            clip_bound: 5.0,
            local_lr: 0.5,
            global_lr: 2.0 * 8.0, // |S| * |U| to undo the averaging scale on the tiny problem
            ..Default::default()
        }
    }

    #[test]
    fn noiseless_uldp_sgd_learns_slower_than_avg_but_learns() {
        let dataset = tiny_federation(2, 8, 120);
        let weights = WeightMatrix::uniform(2, 8);
        let cfg = sgd_config();
        let mut model = tiny_model();
        let before = accuracy(model.as_ref(), &dataset.test);
        for t in 0..30 {
            run_round(&rt(), &mut model, &dataset, &cfg, &weights, None, 1.0, t);
        }
        let after = accuracy(model.as_ref(), &dataset.test);
        assert!(after > before.max(0.85), "accuracy {before} -> {after}");
    }

    #[test]
    fn gradient_step_moves_against_loss() {
        let dataset = tiny_federation(2, 8, 120);
        let weights = WeightMatrix::uniform(2, 8);
        let cfg = sgd_config();
        let mut model = tiny_model();
        let refs: Vec<&uldp_ml::Sample> = dataset.test.iter().collect();
        let loss_before = model.loss(&refs);
        run_round(&rt(), &mut model, &dataset, &cfg, &weights, None, 1.0, 0);
        let loss_after = model.loss(&refs);
        assert!(loss_after < loss_before, "{loss_before} -> {loss_after}");
    }

    #[test]
    fn zero_weights_freeze_model() {
        let dataset = tiny_federation(2, 8, 60);
        let weights = WeightMatrix::uniform(2, 8).masked_by_sampling(&[false; 8]);
        let cfg = sgd_config();
        let mut model = tiny_model();
        let before = model.parameters().to_vec();
        run_round(&rt(), &mut model, &dataset, &cfg, &weights, None, 1.0, 0);
        assert_eq!(model.parameters(), before.as_slice());
    }
}
