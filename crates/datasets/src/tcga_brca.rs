//! Synthetic stand-in for the FLamby Fed-TCGA-BRCA benchmark.
//!
//! The real benchmark predicts survival of breast-cancer patients from 39 clinical
//! features across 6 geographic silos, evaluated with the concordance index and trained
//! with the Cox partial-likelihood loss. Silo sizes are fixed by the benchmark. The paper
//! uses `|U| ∈ {50, 200}` users and notes that the Cox loss needs at least two records per
//! (silo, user) pair for per-user training, which this generator enforces.

use crate::allocation::{allocate_fixed_silos, enforce_min_records_per_pair, Allocation};
use crate::schema::{FederatedDataset, FederatedRecord};
use rand::Rng;
use uldp_ml::rng::gaussian;
use uldp_ml::Sample;

/// Configuration of the synthetic TcgaBrca generator.
#[derive(Clone, Debug)]
pub struct TcgaBrcaConfig {
    /// Records held by each of the six silos (FLamby-like sizes by default).
    pub silo_sizes: Vec<usize>,
    /// Number of held-out evaluation records.
    pub test_records: usize,
    /// Feature dimensionality (Fed-TCGA-BRCA: 39).
    pub dim: usize,
    /// Number of users `|U|` (paper: 50 or 200).
    pub num_users: usize,
    /// Probability that an event is observed (not censored).
    pub event_rate: f64,
    /// User allocation scheme.
    pub allocation: Allocation,
    /// Minimum records per (silo, user) pair (the Cox loss needs ≥ 2).
    pub min_records_per_pair: usize,
}

impl Default for TcgaBrcaConfig {
    fn default() -> Self {
        TcgaBrcaConfig {
            silo_sizes: vec![248, 156, 164, 129, 129, 40],
            test_records: 200,
            dim: 39,
            num_users: 50,
            event_rate: 0.7,
            allocation: Allocation::Uniform,
            min_records_per_pair: 2,
        }
    }
}

/// The "true" risk coefficients used to generate survival times: a sparse signal so that
/// a linear Cox model can recover it.
fn true_beta(dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|i| match i % 5 {
            0 => 0.8,
            1 => -0.5,
            _ => 0.0,
        })
        .collect()
}

fn make_sample<R: Rng + ?Sized>(rng: &mut R, cfg: &TcgaBrcaConfig, beta: &[f64]) -> Sample {
    let features: Vec<f64> = (0..cfg.dim).map(|_| gaussian(rng)).collect();
    let risk: f64 = features.iter().zip(beta.iter()).map(|(x, b)| x * b).sum();
    // Exponential survival time with hazard proportional to exp(risk).
    let u: f64 = rng.gen_range(1e-6..1.0);
    let time = -u.ln() / risk.exp().max(1e-6);
    let event = rng.gen_bool(cfg.event_rate);
    Sample::survival(features, time.max(1e-3), event)
}

/// Generates a synthetic TcgaBrca federated dataset.
pub fn generate<R: Rng + ?Sized>(rng: &mut R, cfg: &TcgaBrcaConfig) -> FederatedDataset {
    assert_eq!(cfg.silo_sizes.len(), 6, "Fed-TCGA-BRCA has six silos");
    let beta = true_beta(cfg.dim);
    let users_per_silo = allocate_fixed_silos(rng, &cfg.silo_sizes, cfg.num_users, cfg.allocation);
    // Flatten to (user, silo) placements so we can enforce the per-pair minimum.
    let mut placements: Vec<(usize, usize)> = Vec::new();
    for (silo, users) in users_per_silo.iter().enumerate() {
        for &user in users {
            placements.push((user, silo));
        }
    }
    enforce_min_records_per_pair(&mut placements, cfg.num_users, cfg.min_records_per_pair);
    let records: Vec<FederatedRecord> = placements
        .into_iter()
        .map(|(user, silo)| FederatedRecord { sample: make_sample(rng, cfg, &beta), user, silo })
        .collect();
    let test: Vec<Sample> = (0..cfg.test_records).map(|_| make_sample(rng, cfg, &beta)).collect();
    FederatedDataset::new(
        format!("tcgabrca-{}-U{}", cfg.allocation.label(), cfg.num_users),
        cfg.silo_sizes.len(),
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
    fn silo_count_and_features() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TcgaBrcaConfig::default();
        let d = generate(&mut rng, &cfg);
        assert_eq!(d.num_silos, 6);
        assert_eq!(d.feature_dim(), 39);
        assert_eq!(d.num_records(), cfg.silo_sizes.iter().sum::<usize>());
    }

    #[test]
    fn targets_are_survival() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = generate(&mut rng, &TcgaBrcaConfig::default());
        let mut events = 0usize;
        for r in d.records() {
            let (time, event) = r.sample.target.survival().expect("survival target");
            assert!(time > 0.0);
            events += usize::from(event);
        }
        let rate = events as f64 / d.num_records() as f64;
        assert!(rate > 0.5 && rate < 0.9, "event rate {rate}");
    }

    #[test]
    fn per_pair_minimum_is_enforced() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = TcgaBrcaConfig {
            num_users: 200,
            allocation: Allocation::zipf_default(),
            ..Default::default()
        };
        let d = generate(&mut rng, &cfg);
        let hist = d.histogram();
        for (s, row) in hist.iter().enumerate() {
            for (u, &count) in row.iter().enumerate() {
                assert!(
                    count == 0 || count >= cfg.min_records_per_pair,
                    "pair (silo {s}, user {u}) has {count} records"
                );
            }
        }
    }

    #[test]
    fn higher_risk_means_shorter_survival() {
        // Sanity check of the generative process: correlate the true risk score with time.
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TcgaBrcaConfig::default();
        let d = generate(&mut rng, &cfg);
        let beta = true_beta(cfg.dim);
        let mut risky_times = Vec::new();
        let mut safe_times = Vec::new();
        for r in d.records() {
            let risk: f64 = r.sample.features.iter().zip(beta.iter()).map(|(x, b)| x * b).sum();
            let (time, _) = r.sample.target.survival().unwrap();
            if risk > 0.5 {
                risky_times.push(time);
            } else if risk < -0.5 {
                safe_times.push(time);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&risky_times) < mean(&safe_times));
    }
}
