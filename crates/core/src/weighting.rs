//! Per-user clipping weights `W = (w_{s,u})`.
//!
//! ULDP-AVG bounds each user's contribution to the aggregated model delta by `C` as long
//! as the weights satisfy `w_{s,u} ≥ 0` and `Σ_s w_{s,u} = 1` for every user (Theorem 3).
//! Two strategies from the paper are provided:
//!
//! * **uniform** — `w_{s,u} = 1/|S|`, which requires no knowledge of the data.
//! * **record-proportional** (Eq. 3, "ULDP-AVG-w") — `w_{s,u} = n_{s,u} / N_u`, which puts
//!   more weight on the silo holding more of the user's records and empirically reduces
//!   the clipping bias identified in the convergence analysis (Remark 4).
//!
//! User-level sub-sampling (Algorithm 4) is expressed by zeroing the weights of users not
//! sampled in the current round.

use crate::config::WeightingStrategy;
use serde::{Deserialize, Serialize};

/// A `|S| × |U|` matrix of per-(silo, user) clipping weights.
///
/// ```
/// use uldp_core::config::WeightingStrategy;
/// use uldp_core::weighting::WeightMatrix;
///
/// // Two silos, one user with 3 records in silo 0 and 1 record in silo 1.
/// let histogram = vec![vec![3], vec![1]];
/// let weights = WeightMatrix::from_histogram(WeightingStrategy::RecordProportional, &histogram);
/// assert_eq!(weights.get(0, 0), 0.75);
/// assert_eq!(weights.get(1, 0), 0.25);
/// assert!(weights.satisfies_sensitivity_constraint(1e-12));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightMatrix {
    num_silos: usize,
    num_users: usize,
    /// Row-major weights indexed `[silo][user]`.
    weights: Vec<f64>,
}

impl WeightMatrix {
    /// Builds the weight matrix for a strategy from the record histogram `n_{s,u}`.
    ///
    /// Users with zero records everywhere get zero weight in every silo (they contribute
    /// nothing and add no noise slots).
    pub fn from_histogram(strategy: WeightingStrategy, histogram: &[Vec<usize>]) -> Self {
        let num_silos = histogram.len();
        assert!(num_silos > 0, "need at least one silo");
        let num_users = histogram[0].len();
        assert!(
            histogram.iter().all(|row| row.len() == num_users),
            "histogram rows must have equal length"
        );
        let mut weights = vec![0.0; num_silos * num_users];
        for u in 0..num_users {
            let total: usize = (0..num_silos).map(|s| histogram[s][u]).sum();
            if total == 0 {
                continue;
            }
            for s in 0..num_silos {
                weights[s * num_users + u] = match strategy {
                    WeightingStrategy::Uniform => 1.0 / num_silos as f64,
                    WeightingStrategy::RecordProportional => histogram[s][u] as f64 / total as f64,
                };
            }
        }
        WeightMatrix { num_silos, num_users, weights }
    }

    /// A uniform `1/|S|` matrix for all users (no histogram needed).
    pub fn uniform(num_silos: usize, num_users: usize) -> Self {
        assert!(num_silos > 0 && num_users > 0);
        WeightMatrix {
            num_silos,
            num_users,
            weights: vec![1.0 / num_silos as f64; num_silos * num_users],
        }
    }

    /// The weight `w_{s,u}`.
    pub fn get(&self, silo: usize, user: usize) -> f64 {
        self.weights[silo * self.num_users + user]
    }

    /// Overrides the weight `w_{s,u}` (used by tests and the sub-sampling mask).
    pub fn set(&mut self, silo: usize, user: usize, value: f64) {
        assert!(value >= 0.0, "weights must be non-negative");
        self.weights[silo * self.num_users + user] = value;
    }

    /// Number of silos.
    pub fn num_silos(&self) -> usize {
        self.num_silos
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Returns a copy with the weights of all users *not* in `sampled` set to zero
    /// (Algorithm 4: user-level sub-sampling by zeroing weights).
    pub fn masked_by_sampling(&self, sampled: &[bool]) -> WeightMatrix {
        assert_eq!(sampled.len(), self.num_users, "sampling mask length mismatch");
        let mut out = self.clone();
        for (u, &keep) in sampled.iter().enumerate() {
            if !keep {
                for s in 0..self.num_silos {
                    out.weights[s * self.num_users + u] = 0.0;
                }
            }
        }
        out
    }

    /// The per-user column sums `Σ_s w_{s,u}` (should be 1 for participating users, 0 for
    /// absent or unsampled users).
    pub fn user_sums(&self) -> Vec<f64> {
        (0..self.num_users).map(|u| (0..self.num_silos).map(|s| self.get(s, u)).sum()).collect()
    }

    /// Verifies the sensitivity constraint of Theorem 3: every column sums to at most
    /// `1 + tolerance`.
    pub fn satisfies_sensitivity_constraint(&self, tolerance: f64) -> bool {
        self.user_sums().into_iter().all(|s| s <= 1.0 + tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram() -> Vec<Vec<usize>> {
        // 2 silos, 3 users: user0 has 3+1 records, user1 has 0+4, user2 has none.
        vec![vec![3, 0, 0], vec![1, 4, 0]]
    }

    #[test]
    fn uniform_weights_sum_to_one_for_present_users() {
        let w = WeightMatrix::from_histogram(WeightingStrategy::Uniform, &histogram());
        let sums = w.user_sums();
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert!((sums[1] - 1.0).abs() < 1e-12);
        assert_eq!(sums[2], 0.0); // absent user
        assert!(w.satisfies_sensitivity_constraint(1e-9));
    }

    #[test]
    fn record_proportional_matches_eq3() {
        let w = WeightMatrix::from_histogram(WeightingStrategy::RecordProportional, &histogram());
        assert!((w.get(0, 0) - 0.75).abs() < 1e-12);
        assert!((w.get(1, 0) - 0.25).abs() < 1e-12);
        assert_eq!(w.get(0, 1), 0.0);
        assert!((w.get(1, 1) - 1.0).abs() < 1e-12);
        assert!(w.satisfies_sensitivity_constraint(1e-9));
    }

    #[test]
    fn uniform_constructor() {
        let w = WeightMatrix::uniform(4, 10);
        assert_eq!(w.num_silos(), 4);
        assert_eq!(w.num_users(), 10);
        assert!((w.get(3, 9) - 0.25).abs() < 1e-12);
        assert!(w.satisfies_sensitivity_constraint(1e-9));
    }

    #[test]
    fn sampling_mask_zeroes_unsampled_users() {
        let w = WeightMatrix::uniform(2, 3);
        let masked = w.masked_by_sampling(&[true, false, true]);
        assert_eq!(masked.get(0, 1), 0.0);
        assert_eq!(masked.get(1, 1), 0.0);
        assert!((masked.get(0, 0) - 0.5).abs() < 1e-12);
        // still satisfies the constraint
        assert!(masked.satisfies_sensitivity_constraint(1e-9));
    }

    #[test]
    fn sensitivity_constraint_detects_violation() {
        let mut w = WeightMatrix::uniform(2, 2);
        w.set(0, 0, 0.9);
        w.set(1, 0, 0.9);
        assert!(!w.satisfies_sensitivity_constraint(1e-9));
    }

    #[test]
    #[should_panic(expected = "sampling mask length mismatch")]
    fn mask_length_checked() {
        let w = WeightMatrix::uniform(2, 3);
        let _ = w.masked_by_sampling(&[true]);
    }
}
