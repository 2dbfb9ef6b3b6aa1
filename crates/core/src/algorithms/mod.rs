//! Round implementations of the training algorithms evaluated in the paper.
//!
//! Three round functions cover the five algorithms, each performing one complete
//! federated round: silo-local computation (possibly per user), clipping, DP noise,
//! aggregation and the global model update.
//!
//! * [`silo_level::run_round`] — DEFAULT and ULDP-NAIVE (Algorithm 1): one delta per
//!   silo, clipped and noised for ULDP-NAIVE.
//! * [`group::run_round`] — ULDP-GROUP-k (Algorithm 2): per-silo DP-SGD.
//! * [`uldp::run_round`] — ULDP-AVG and ULDP-SGD (Algorithm 3): per-user weighted
//!   clipping; the two differ only in the local update.
//!
//! The [`crate::trainer::Trainer`] dispatches on [`crate::config::Method`] and handles
//! privacy accounting, user-level sub-sampling masks and evaluation.

pub mod group;
pub mod silo_level;
pub(crate) mod stream;
pub mod uldp;

use crate::sampling::SampleMask;
use crate::weighting::WeightMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_datasets::FederatedDataset;
use uldp_ml::Model;
use uldp_runtime::seeding;

/// Stream tag separating per-task training RNGs from per-silo noise RNGs within a round.
pub(crate) const STREAM_TRAIN: u64 = 1;
/// Stream tag for per-silo Gaussian-noise RNGs.
pub(crate) const STREAM_NOISE: u64 = 2;

/// The deterministic RNG for one `(silo, user)` training task of a round.
///
/// Seeded from the round's training stream and the user's global task index, so the
/// stream is a pure function of `(round_seed, silo, user)` — independent of both thread
/// count and of which other users participate in the round.
pub(crate) fn task_rng(round_seed: u64, num_users: usize, silo: usize, user: usize) -> StdRng {
    let task_index = (silo * num_users + user) as u64;
    StdRng::seed_from_u64(seeding::index_seed(seeding::mix(round_seed, STREAM_TRAIN), task_index))
}

/// The deterministic RNG for silo-level Gaussian noise of a round.
pub(crate) fn noise_rng(round_seed: u64, silo: usize) -> StdRng {
    StdRng::seed_from_u64(seeding::index_seed(seeding::mix(round_seed, STREAM_NOISE), silo as u64))
}

/// The participating `(silo, user)` pairs of a round — users present in a silo whose
/// weight is non-zero and who are in the round's sampling mask — in flattened
/// silo-major order: the task list of [`uldp::run_round`], which runs one task per
/// pair.
///
/// The mask is probed per candidate task rather than materialised into a zeroed weight
/// matrix, so an unsampled user costs one [`SampleMask::contains`] probe and no
/// per-user allocation; the resulting task list is identical to filtering on a
/// [`WeightMatrix::masked_by_sampling`] copy of `weights`.
pub(crate) fn participating_tasks(
    dataset: &FederatedDataset,
    weights: &WeightMatrix,
    mask: Option<&SampleMask>,
) -> Vec<(usize, usize)> {
    (0..dataset.num_silos)
        .flat_map(|silo_id| {
            dataset
                .users_in_silo(silo_id)
                .into_iter()
                .filter(move |&user| {
                    mask.is_none_or(|m| m.contains(user)) && weights.get(silo_id, user) != 0.0
                })
                .map(move |user| (silo_id, user))
        })
        .collect()
}

/// Applies the aggregated update to the global model:
/// `x ← x + global_lr · scale · aggregate`.
pub(crate) fn apply_update(model: &mut dyn Model, aggregate: &[f64], global_lr: f64, scale: f64) {
    let params = model.parameters_mut();
    assert_eq!(params.len(), aggregate.len(), "aggregate dimensionality mismatch");
    for (p, a) in params.iter_mut().zip(aggregate.iter()) {
        *p += global_lr * scale * a;
    }
}

/// Derives a fresh per-round seed from the configured seed and round index.
///
/// A SplitMix64-style hash ([`seeding::index_seed`]) rather than a full `StdRng`
/// construction per call: the derivation is a pure 64-bit mix, an order of magnitude
/// cheaper and just as well distributed.
pub(crate) fn round_seed(seed: u64, round: u64) -> u64 {
    seeding::index_seed(seed, round)
}

#[cfg(test)]
pub(crate) mod test_util {
    //! Shared helpers for algorithm unit tests: a tiny linearly separable federation.

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use uldp_datasets::{FederatedDataset, FederatedRecord};
    use uldp_ml::{LinearClassifier, Model, Sample};

    /// A tiny 2-feature, 2-class, linearly separable federation.
    pub fn tiny_federation(num_silos: usize, num_users: usize, records: usize) -> FederatedDataset {
        let mut rng = StdRng::seed_from_u64(99);
        let mut recs = Vec::with_capacity(records);
        for i in 0..records {
            let label = i % 2;
            let sign = if label == 1 { 1.0 } else { -1.0 };
            let features =
                vec![sign * 2.0 + rng.gen_range(-0.3..0.3), sign * 1.0 + rng.gen_range(-0.3..0.3)];
            recs.push(FederatedRecord {
                sample: Sample::classification(features, label),
                user: rng.gen_range(0..num_users),
                silo: rng.gen_range(0..num_silos),
            });
        }
        let test: Vec<Sample> = (0..40)
            .map(|i| {
                let label = i % 2;
                let sign = if label == 1 { 1.0 } else { -1.0 };
                Sample::classification(vec![sign * 2.0, sign * 1.0], label)
            })
            .collect();
        FederatedDataset::new("tiny", num_silos, num_users, recs, test)
    }

    /// A fresh linear model matching the tiny federation.
    pub fn tiny_model() -> Box<dyn Model> {
        Box::new(LinearClassifier::new(2, 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use uldp_ml::LinearClassifier;

    #[test]
    fn task_and_noise_rngs_are_stream_separated() {
        let a: u64 = task_rng(5, 10, 0, 0).gen();
        let b: u64 = task_rng(5, 10, 0, 1).gen();
        let c: u64 = task_rng(5, 10, 1, 0).gen();
        let z: u64 = noise_rng(5, 0).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, z);
        let a2: u64 = task_rng(5, 10, 0, 0).gen();
        assert_eq!(a, a2);
    }

    #[test]
    fn apply_update_moves_parameters() {
        let mut model: Box<dyn uldp_ml::Model> = Box::new(LinearClassifier::new(1, 2));
        let dim = model.num_parameters();
        apply_update(model.as_mut(), &vec![1.0; dim], 0.5, 2.0);
        assert!(model.parameters().iter().all(|&p| (p - 1.0).abs() < 1e-12));
    }

    #[test]
    fn round_seed_varies_by_round() {
        assert_ne!(round_seed(1, 0), round_seed(1, 1));
        assert_eq!(round_seed(1, 5), round_seed(1, 5));
    }
}
