//! Synthetic stand-in for the Kaggle credit-card fraud-detection dataset.
//!
//! The real dataset has 29 anonymised PCA features and a heavily imbalanced binary label;
//! the paper undersamples it to ≈25k training records and trains a ≈4k-parameter network
//! across `|S| = 5` silos with `|U| ∈ {100, 1000}` users. This generator reproduces that
//! structure: two Gaussian class clusters in 29 dimensions with configurable class
//! imbalance and overlap, and the paper's uniform / zipf user-record allocation.

use crate::allocation::{allocate_free, Allocation};
use crate::schema::{FederatedDataset, FederatedRecord};
use rand::Rng;
use uldp_ml::rng::gaussian;
use uldp_ml::Sample;

/// Configuration of the synthetic Creditcard generator.
#[derive(Clone, Debug)]
pub struct CreditcardConfig {
    /// Number of training records (paper: ≈25 000; smaller defaults keep tests fast).
    pub train_records: usize,
    /// Number of held-out evaluation records.
    pub test_records: usize,
    /// Feature dimensionality (the Kaggle dataset has 29 usable features).
    pub dim: usize,
    /// Fraction of records labelled as fraud (class 1).
    pub fraud_rate: f64,
    /// Distance between the two class means (larger = easier task).
    pub class_separation: f64,
    /// Number of silos `|S|` (paper: 5).
    pub num_silos: usize,
    /// Number of users `|U|` (paper: 100 or 1000).
    pub num_users: usize,
    /// User/record/silo allocation scheme.
    pub allocation: Allocation,
}

impl Default for CreditcardConfig {
    fn default() -> Self {
        CreditcardConfig {
            train_records: 4000,
            test_records: 1000,
            dim: 29,
            fraud_rate: 0.15,
            class_separation: 1.6,
            num_silos: 5,
            num_users: 100,
            allocation: Allocation::Uniform,
        }
    }
}

fn class_means(dim: usize, separation: f64) -> (Vec<f64>, Vec<f64>) {
    // Deterministic, well-separated directions: the legit class sits at -d/2 on a sparse
    // set of coordinates, the fraud class at +d/2.
    let mut legit = vec![0.0; dim];
    let mut fraud = vec![0.0; dim];
    for i in 0..dim {
        let direction = if i % 3 == 0 {
            1.0
        } else if i % 3 == 1 {
            -0.5
        } else {
            0.25
        };
        legit[i] = -direction * separation / 2.0;
        fraud[i] = direction * separation / 2.0;
    }
    (legit, fraud)
}

fn sample_record<R: Rng + ?Sized>(
    rng: &mut R,
    cfg: &CreditcardConfig,
    means: &(Vec<f64>, Vec<f64>),
) -> Sample {
    let is_fraud = rng.gen_bool(cfg.fraud_rate);
    let mean = if is_fraud { &means.1 } else { &means.0 };
    let features: Vec<f64> = mean.iter().map(|&m| m + gaussian(rng)).collect();
    Sample::classification(features, usize::from(is_fraud))
}

/// Generates a synthetic Creditcard federated dataset.
pub fn generate<R: Rng + ?Sized>(rng: &mut R, cfg: &CreditcardConfig) -> FederatedDataset {
    assert!(cfg.dim >= 1 && cfg.train_records >= 1);
    let means = class_means(cfg.dim, cfg.class_separation);
    let placement =
        allocate_free(rng, cfg.train_records, cfg.num_users, cfg.num_silos, cfg.allocation);
    let records: Vec<FederatedRecord> = placement
        .placements
        .iter()
        .map(|&(user, silo)| FederatedRecord {
            sample: sample_record(rng, cfg, &means),
            user,
            silo,
        })
        .collect();
    let test: Vec<Sample> =
        (0..cfg.test_records).map(|_| sample_record(rng, cfg, &means)).collect();
    FederatedDataset::new(
        format!("creditcard-{}-U{}", cfg.allocation.label(), cfg.num_users),
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
    fn default_shape_matches_paper_structure() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = CreditcardConfig::default();
        let d = generate(&mut rng, &cfg);
        assert_eq!(d.num_silos, 5);
        assert_eq!(d.num_users, 100);
        assert_eq!(d.num_records(), cfg.train_records);
        assert_eq!(d.test.len(), cfg.test_records);
        assert_eq!(d.feature_dim(), 29);
    }

    #[test]
    fn labels_are_imbalanced() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = generate(&mut rng, &CreditcardConfig::default());
        let fraud = d.records().iter().filter(|r| r.sample.target.class() == Some(1)).count()
            as f64
            / d.num_records() as f64;
        assert!(fraud > 0.05 && fraud < 0.30, "fraud rate {fraud}");
    }

    #[test]
    fn zipf_allocation_is_applied() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = CreditcardConfig {
            allocation: Allocation::zipf_default(),
            num_users: 50,
            train_records: 5000,
            ..CreditcardConfig::default()
        };
        let d = generate(&mut rng, &cfg);
        let mut totals = d.user_totals();
        totals.sort_unstable_by(|a, b| b.cmp(a));
        assert!(totals[0] > 2 * totals[25].max(1));
        assert!(d.name.contains("zipf"));
    }

    #[test]
    fn classes_are_separable_in_feature_space() {
        // The mean feature vectors of the two classes should be far apart relative to the
        // unit noise, otherwise no model could learn anything.
        let mut rng = StdRng::seed_from_u64(3);
        let d = generate(&mut rng, &CreditcardConfig::default());
        let dim = d.feature_dim();
        let mut mean0 = vec![0.0; dim];
        let mut mean1 = vec![0.0; dim];
        let mut n0 = 0.0;
        let mut n1 = 0.0;
        for r in d.records() {
            let target = r.sample.target.class().unwrap();
            let (m, n) = if target == 0 { (&mut mean0, &mut n0) } else { (&mut mean1, &mut n1) };
            for (mi, &x) in m.iter_mut().zip(r.sample.features.iter()) {
                *mi += x;
            }
            *n += 1.0;
        }
        for v in mean0.iter_mut() {
            *v /= n0;
        }
        for v in mean1.iter_mut() {
            *v /= n1;
        }
        let dist: f64 =
            mean0.iter().zip(mean1.iter()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        assert!(dist > 1.0, "class means too close: {dist}");
    }
}
