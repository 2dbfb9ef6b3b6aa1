//! ULDP-AVG and ULDP-SGD (Algorithm 3): per-user weighted clipping inside each silo.
//!
//! For every user `u` with data in silo `s`, the silo computes a local update from that
//! user's records only, clips it to `C`, scales it by the clipping weight `w_{s,u}`, and
//! sums over users. Gaussian noise with variance `σ²C²/|S|` is added per silo so the
//! aggregate carries variance `σ²C²`. Because `Σ_s w_{s,u} = 1`, each user's total
//! contribution to the aggregate is at most `C`, i.e. the user-level sensitivity is `C` —
//! this is what lets Algorithm 3 satisfy ULDP directly (Theorem 3) without the
//! group-privacy blow-up.
//!
//! The two methods differ only in the local update, as FedAvg and FedSGD do:
//!
//! * **ULDP-AVG** trains a copy of the global model for `Q` epochs and sends the model
//!   delta; the server adds the aggregate.
//! * **ULDP-SGD** sends one gradient; the server takes a descent step with the local
//!   learning rate folded in. It converges more slowly than ULDP-AVG, which Figures 4–7
//!   confirm.
//!
//! The server update divides by `|U|·|S|` (or `q·|U|·|S|` under user-level sub-sampling,
//! Algorithm 4).

use crate::aggregation::{add_gaussian_noise, sum_deltas};
use crate::algorithms::{apply_update, noise_rng, participating_tasks, stream, task_rng};
use crate::config::{FlConfig, Method};
use crate::sampling::SampleMask;
use crate::silo;
use crate::weighting::WeightMatrix;
use uldp_datasets::FederatedDataset;
use uldp_ml::{clipping, Model, Sample};
use uldp_runtime::Runtime;
use uldp_telemetry::{metrics, trace};

/// A user's raw local update from its records in one silo: `(model, records, silo, user)`.
type LocalUpdate<'a> = dyn Fn(&mut dyn Model, &[&Sample], usize, usize) -> Vec<f64> + Sync + 'a;

/// Runs one ULDP-AVG or ULDP-SGD round (per `config.method`) on the worker pool,
/// updating `model` in place. Panics for any other method.
///
/// `weights` must satisfy the `Σ_s w_{s,u} ≤ 1` constraint; user-level sub-sampling is
/// expressed by passing the round's [`SampleMask`] together with the matching
/// `sampling_q`. The mask filters the task list directly — equivalent to (but without
/// allocating) a [`WeightMatrix::masked_by_sampling`] copy whose unsampled users are
/// zeroed, so sampled-round cost scales with the sampled users, not the population.
///
/// The per-user local updates — the algorithm's dominant cost (Section 3.4) — run on the
/// streaming sharded round engine (`algorithms::stream`): each silo's users are split
/// into [`FlConfig::shards`] pooled shards whose 16-task chunks fold weighted updates in
/// place (O(chunks × dim) transient memory instead of O(users × dim)). Each ULDP-AVG
/// `(silo, user)` task trains with an RNG derived from `(round_seed, silo, user)` (a
/// gradient consumes no randomness) and each silo draws its Gaussian noise from a
/// separate per-silo stream, so the round is bitwise-identical across all
/// `(threads, shards)` settings.
///
/// Degradation semantics under [`FlConfig::fault_plan`] ([`crate::scenario`]):
///
/// * A **dropped** silo contributes neither updates nor noise, and the server update is
///   re-scaled by the surviving silo count (`scale = 1/(q·|U|·|S_surviving|)`), so the
///   round equals a plan-less round over the survivors with the global learning rate
///   compensated by `|S|/|S_surviving|`.
/// * A **byzantine** silo's raw per-user updates are corrupted *before* clipping, so each
///   corrupted task still contributes at most `w_{s,u}·C` in norm — the attacker's total
///   influence on the aggregate is bounded by `2·C·Σ_{corrupted (s,u)} w_{s,u}`.
///
/// All fault decisions are pure functions of `(plan seed, round_seed, silo[, user])`, so
/// faulted rounds keep the bitwise runtime-grid determinism.
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
    let _round_span = trace::span("train", "uldp_round")
        .arg("round", round_seed)
        .arg("method", config.method.label());
    let global = model.parameters().to_vec();
    let dim = global.len();
    let template = model.clone_model();

    // The only per-method choice: the local update and the server's step along it.
    let (local_update, step): (Box<LocalUpdate>, f64) = match config.method {
        Method::UldpAvg { .. } => (
            // Q epochs on D_{s,u}, full-batch per epoch: per-user datasets are small.
            Box::new(|scratch, records, silo_id, user| {
                let mut rng = task_rng(round_seed, dataset.num_users, silo_id, user);
                silo::local_train(
                    scratch,
                    &global,
                    records,
                    config.local_epochs,
                    config.local_lr,
                    records.len(),
                    &mut rng,
                )
            }),
            1.0,
        ),
        // Gradients point uphill, so the server takes a descent step with the local
        // learning rate folded in (one SGD step per round at user level).
        Method::UldpSgd { .. } => (
            Box::new(|scratch, records, _, _| silo::local_gradient(scratch, &global, records)),
            -config.local_lr,
        ),
        method => panic!("{} is not a user-level method", method.label()),
    };

    let noise_std = config.sigma * config.clip_bound / (dataset.num_silos as f64).sqrt();
    let plan = &config.fault_plan;
    let dropped = plan.draw_dropouts(round_seed, dataset.num_silos);
    let byzantine = plan.byzantine_silos(round_seed, dataset.num_silos);
    let surviving = dropped.iter().filter(|&&d| !d).count();

    let mut tasks = participating_tasks(dataset, weights, mask);
    tasks.retain(|&(silo_id, _)| !dropped[silo_id]);

    let mut deltas = stream::stream_silo_deltas(
        rt,
        &tasks,
        dataset.num_silos,
        config.shards,
        dim,
        |silo_id, user| {
            let records = dataset.silo_user_records(silo_id, user);
            if records.is_empty() {
                return None;
            }
            let mut scratch = template.clone_model();
            let mut delta = local_update(scratch.as_mut(), &records, silo_id, user);
            if byzantine[silo_id] {
                plan.corrupt_delta(&mut delta, round_seed, dataset.num_users, silo_id, user);
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
            clipping::clip_to_norm(&mut delta, config.clip_bound);
            let w = weights.get(silo_id, user);
            for d in delta.iter_mut() {
                *d *= w;
            }
            Some(delta)
        },
    );
    // Per-silo noise from dedicated streams on top of the streamed per-silo sums; a
    // dropped silo's report never arrives, noise included.
    for (silo_id, silo_delta) in deltas.iter_mut().enumerate() {
        if dropped[silo_id] {
            continue;
        }
        add_gaussian_noise(silo_delta, noise_std, &mut noise_rng(round_seed, silo_id));
    }

    let aggregate = sum_deltas(&deltas, dim);
    let scale = step / (sampling_q * dataset.num_users as f64 * surviving as f64);
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

    /// Theorem 3's reference: the largest contribution of a single user to the
    /// aggregated (pre-noise) update under the given weights.
    fn user_sensitivity_bound(weights: &WeightMatrix, clip_bound: f64) -> f64 {
        weights.user_sums().into_iter().fold(0.0f64, f64::max) * clip_bound
    }

    fn avg_config(sigma: f64, num_silos: usize) -> FlConfig {
        FlConfig {
            method: Method::UldpAvg { weighting: WeightingStrategy::Uniform },
            sigma,
            clip_bound: 2.0,
            local_lr: 0.5,
            local_epochs: 3,
            global_lr: num_silos as f64,
            ..Default::default()
        }
    }

    fn sgd_config() -> FlConfig {
        FlConfig {
            method: Method::UldpSgd { weighting: WeightingStrategy::Uniform },
            local_epochs: 1,
            sigma: 0.0,
            clip_bound: 5.0,
            local_lr: 0.5,
            global_lr: 2.0 * 8.0, // |S| * |U| to undo the averaging scale on the tiny problem
            ..Default::default()
        }
    }

    #[test]
    fn noiseless_uldp_avg_learns() {
        let dataset = tiny_federation(3, 8, 160);
        let mut model = tiny_model();
        let config = avg_config(0.0, 3);
        let weights = WeightMatrix::uniform(3, 8);
        // The per-user averaging scales the effective step by ~1/|U|, so run more rounds
        // with an up-scaled global lr.
        let mut cfg = config;
        cfg.global_lr = 3.0 * 8.0;
        for t in 0..10 {
            run_round(&rt(), &mut model, &dataset, &cfg, &weights, None, 1.0, t);
        }
        let acc = accuracy(model.as_ref(), &dataset.test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn user_contribution_bounded_by_clip() {
        // One round with a single user's data and zero noise: the parameter movement is at
        // most global_lr * C / (|U| |S|) because Σ_s w_{s,u} = 1.
        let dataset = tiny_federation(2, 6, 80);
        let mut model = tiny_model();
        let clip = 0.1;
        let cfg = FlConfig {
            method: Method::UldpAvg { weighting: WeightingStrategy::Uniform },
            sigma: 0.0,
            clip_bound: clip,
            local_lr: 1.0,
            local_epochs: 5,
            global_lr: 1.0,
            ..Default::default()
        };
        let weights = WeightMatrix::uniform(2, 6);
        let before = model.parameters().to_vec();
        run_round(&rt(), &mut model, &dataset, &cfg, &weights, None, 1.0, 0);
        let moved: f64 = model
            .parameters()
            .iter()
            .zip(before.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        // Total aggregate norm <= |U| * C (each user at most C), scaled by 1/(|U||S|).
        let bound = cfg.global_lr * clip / dataset.num_silos as f64;
        assert!(moved <= bound + 1e-9, "moved {moved} > bound {bound}");
    }

    #[test]
    fn sensitivity_bound_matches_theorem3() {
        let weights = WeightMatrix::uniform(4, 10);
        assert!((user_sensitivity_bound(&weights, 2.0) - 2.0).abs() < 1e-9);
        let masked = weights.masked_by_sampling(&[false; 10]);
        assert_eq!(user_sensitivity_bound(&masked, 2.0), 0.0);
    }

    #[test]
    fn subsampled_round_skips_unsampled_users() {
        let dataset = tiny_federation(2, 6, 60);
        let cfg = avg_config(0.0, 2);
        let weights = WeightMatrix::uniform(2, 6);
        // No users sampled: model must not move.
        let none = weights.masked_by_sampling(&[false; 6]);
        let mut model = tiny_model();
        let before = model.parameters().to_vec();
        run_round(&rt(), &mut model, &dataset, &cfg, &none, None, 0.5, 0);
        assert_eq!(model.parameters(), before.as_slice());
    }

    #[test]
    fn record_proportional_weights_respect_constraint() {
        let dataset = tiny_federation(3, 7, 90);
        let weights = WeightMatrix::from_histogram(
            WeightingStrategy::RecordProportional,
            &dataset.histogram(),
        );
        assert!(weights.satisfies_sensitivity_constraint(1e-9));
        let mut model = tiny_model();
        let cfg = avg_config(0.0, 3);
        run_round(&rt(), &mut model, &dataset, &cfg, &weights, None, 1.0, 0);
        assert!(model.parameters().iter().all(|p| p.is_finite()));
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
