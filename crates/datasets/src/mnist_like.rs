//! Synthetic stand-in for MNIST.
//!
//! The paper uses MNIST (60k training images, 10 classes) with a ≈20k-parameter CNN,
//! `|S| = 5` silos and `|U| ∈ {100, 10000}` users, in i.i.d. and non-i.i.d. (at most two
//! labels per user) variants. This generator creates a 10-class dataset from per-class
//! prototype vectors plus Gaussian noise. The default feature dimension is 64 (an 8×8
//! "image") to keep the experiment harness fast; the benchmark binaries can raise it to
//! 784 to match the original input size.

use crate::allocation::{allocate_free, Allocation};
use crate::schema::{FederatedDataset, FederatedRecord};
use rand::Rng;
use uldp_ml::rng::gaussian;
use uldp_ml::Sample;

/// Configuration of the synthetic MNIST-like generator.
#[derive(Clone, Debug)]
pub struct MnistConfig {
    /// Number of training records (paper: 60 000; defaults are smaller for speed).
    pub train_records: usize,
    /// Number of held-out evaluation records.
    pub test_records: usize,
    /// Feature dimensionality ("pixels"); 784 matches real MNIST.
    pub dim: usize,
    /// Number of classes (10 digits).
    pub classes: usize,
    /// Distance scale between class prototypes.
    pub class_separation: f64,
    /// Noise standard deviation around the prototypes.
    pub noise: f64,
    /// Number of silos `|S|` (paper: 5).
    pub num_silos: usize,
    /// Number of users `|U|` (paper: 100 or 10000).
    pub num_users: usize,
    /// User/record/silo allocation scheme.
    pub allocation: Allocation,
    /// Non-i.i.d. mode: each user only generates records from at most two labels.
    pub non_iid: bool,
}

impl Default for MnistConfig {
    fn default() -> Self {
        MnistConfig {
            train_records: 6000,
            test_records: 1000,
            dim: 64,
            classes: 10,
            class_separation: 2.5,
            noise: 1.0,
            num_silos: 5,
            num_users: 100,
            allocation: Allocation::Uniform,
            non_iid: false,
        }
    }
}

/// Deterministic class prototypes: class `c` activates a distinct block of coordinates.
fn prototypes(cfg: &MnistConfig) -> Vec<Vec<f64>> {
    let mut protos = Vec::with_capacity(cfg.classes);
    for c in 0..cfg.classes {
        let mut p = vec![0.0; cfg.dim];
        for (i, v) in p.iter_mut().enumerate() {
            // Block structure plus a class-specific sinusoidal pattern for separability.
            let block = (i * cfg.classes) / cfg.dim.max(1);
            let phase = (i as f64 * 0.37 + c as f64 * 1.13).sin();
            *v = if block == c { cfg.class_separation } else { 0.3 * phase * cfg.class_separation };
        }
        protos.push(p);
    }
    protos
}

fn sample_with_label<R: Rng + ?Sized>(
    rng: &mut R,
    cfg: &MnistConfig,
    protos: &[Vec<f64>],
    label: usize,
) -> Sample {
    let features: Vec<f64> = protos[label].iter().map(|&m| m + gaussian(rng) * cfg.noise).collect();
    Sample::classification(features, label)
}

/// Generates a synthetic MNIST-like federated dataset.
pub fn generate<R: Rng + ?Sized>(rng: &mut R, cfg: &MnistConfig) -> FederatedDataset {
    assert!(cfg.classes >= 2 && cfg.dim >= cfg.classes);
    let protos = prototypes(cfg);
    let placement =
        allocate_free(rng, cfg.train_records, cfg.num_users, cfg.num_silos, cfg.allocation);
    // In the non-iid variant each user draws labels only from a fixed pair.
    let user_label_pairs: Vec<(usize, usize)> = (0..cfg.num_users)
        .map(|_| {
            let a = rng.gen_range(0..cfg.classes);
            let b = rng.gen_range(0..cfg.classes);
            (a, b)
        })
        .collect();
    let records: Vec<FederatedRecord> = placement
        .placements
        .iter()
        .map(|&(user, silo)| {
            let label = if cfg.non_iid {
                let (a, b) = user_label_pairs[user];
                if rng.gen_bool(0.5) {
                    a
                } else {
                    b
                }
            } else {
                rng.gen_range(0..cfg.classes)
            };
            FederatedRecord { sample: sample_with_label(rng, cfg, &protos, label), user, silo }
        })
        .collect();
    let test: Vec<Sample> = (0..cfg.test_records)
        .map(|_| {
            let label = rng.gen_range(0..cfg.classes);
            sample_with_label(rng, cfg, &protos, label)
        })
        .collect();
    let iid_tag = if cfg.non_iid { "noniid" } else { "iid" };
    FederatedDataset::new(
        format!("mnist-{}-{}-U{}", cfg.allocation.label(), iid_tag, cfg.num_users),
        cfg.num_silos,
        cfg.num_users,
        records,
        test,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_labels() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MnistConfig::default();
        let d = generate(&mut rng, &cfg);
        assert_eq!(d.num_records(), cfg.train_records);
        assert_eq!(d.feature_dim(), cfg.dim);
        // all ten classes present
        let mut seen = vec![false; cfg.classes];
        for r in d.records() {
            seen[r.sample.target.class().unwrap()] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn non_iid_restricts_labels_per_user() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg =
            MnistConfig { non_iid: true, num_users: 20, train_records: 4000, ..Default::default() };
        let d = generate(&mut rng, &cfg);
        let mut per_user: Vec<std::collections::HashSet<usize>> =
            vec![std::collections::HashSet::new(); cfg.num_users];
        for r in d.records() {
            per_user[r.user].insert(r.sample.target.class().unwrap());
        }
        for labels in per_user {
            assert!(labels.len() <= 2, "user has {} labels", labels.len());
        }
    }

    #[test]
    fn iid_users_see_many_labels() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = MnistConfig { num_users: 10, train_records: 4000, ..Default::default() };
        let d = generate(&mut rng, &cfg);
        let mut per_user: Vec<std::collections::HashSet<usize>> =
            vec![std::collections::HashSet::new(); cfg.num_users];
        for r in d.records() {
            per_user[r.user].insert(r.sample.target.class().unwrap());
        }
        assert!(per_user.iter().all(|l| l.len() >= 5));
    }

    #[test]
    fn prototypes_are_distinct() {
        let cfg = MnistConfig::default();
        let protos = prototypes(&cfg);
        for i in 0..cfg.classes {
            for j in (i + 1)..cfg.classes {
                let dist: f64 = protos[i]
                    .iter()
                    .zip(protos[j].iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                assert!(dist > 1.0, "classes {i} and {j} too close ({dist})");
            }
        }
    }
}
