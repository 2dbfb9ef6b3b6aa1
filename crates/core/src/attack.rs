//! User-level membership-inference evaluation.
//!
//! The paper's conclusion points to empirically comparing user-level and record-level DP
//! through membership-inference attacks as an interesting follow-up. This module provides
//! that evaluation harness for the *user-level* threat model: the adversary observes the
//! released model and, given all records of a candidate user, must decide whether that
//! user's data was part of training.
//!
//! The implemented attack is the standard loss-threshold attack lifted to user level: the
//! attack score of a user is the negated average loss of the model on that user's records
//! (members tend to have lower loss because the model has seen their data). Reported
//! metrics are the attack ROC-AUC and the membership advantage `2·AUC − 1`; a model with a
//! strong user-level DP guarantee must keep the advantage close to zero.

use uldp_accounting::membership_advantage_bound;
use uldp_datasets::FederatedDataset;
use uldp_ml::{Model, Sample};

/// Result of a user-level membership-inference evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MembershipInferenceResult {
    /// ROC-AUC of the attack score (0.5 = no better than guessing).
    pub auc: f64,
    /// Membership advantage `2·AUC − 1` (0 = no leakage, 1 = perfect attack).
    pub advantage: f64,
    /// Mean per-user average loss over member users.
    pub member_mean_loss: f64,
    /// Mean per-user average loss over non-member users.
    pub non_member_mean_loss: f64,
}

/// Average loss of `model` over one user's records (the attack's sufficient statistic).
///
/// Returns `None` for users with no records.
pub fn user_average_loss(model: &dyn Model, records: &[Sample]) -> Option<f64> {
    if records.is_empty() {
        return None;
    }
    let refs: Vec<&Sample> = records.iter().collect();
    Some(model.loss(&refs))
}

/// Groups a federated dataset's training records per user (the member users' data as the
/// attacker would assemble it after record linkage).
pub fn member_user_records(dataset: &FederatedDataset) -> Vec<Vec<Sample>> {
    let mut per_user: Vec<Vec<Sample>> = vec![Vec::new(); dataset.num_users];
    for record in dataset.records() {
        per_user[record.user].push(record.sample.clone());
    }
    per_user.into_iter().filter(|records| !records.is_empty()).collect()
}

/// Runs the user-level loss-threshold membership-inference attack.
///
/// `members` holds the per-user record sets that *were* used in training and
/// `non_members` per-user record sets drawn from the same distribution that were *not*.
/// Users with no records are skipped.
pub fn user_level_membership_inference(
    model: &dyn Model,
    members: &[Vec<Sample>],
    non_members: &[Vec<Sample>],
) -> MembershipInferenceResult {
    let member_losses: Vec<f64> =
        members.iter().filter_map(|records| user_average_loss(model, records)).collect();
    let non_member_losses: Vec<f64> =
        non_members.iter().filter_map(|records| user_average_loss(model, records)).collect();
    assert!(
        !member_losses.is_empty() && !non_member_losses.is_empty(),
        "both member and non-member user sets must be non-empty"
    );

    // AUC of the score "-loss": members (positives) should score higher (lower loss).
    let mut favourable = 0.0f64;
    for &m in &member_losses {
        for &n in &non_member_losses {
            if m < n {
                favourable += 1.0;
            } else if (m - n).abs() < 1e-15 {
                favourable += 0.5;
            }
        }
    }
    let auc = favourable / (member_losses.len() as f64 * non_member_losses.len() as f64);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    MembershipInferenceResult {
        auc,
        advantage: 2.0 * auc - 1.0,
        member_mean_loss: mean(&member_losses),
        non_member_mean_loss: mean(&non_member_losses),
    }
}

/// The membership-inference outcome of one [`crate::scenario::Scenario`], scored against
/// the accountant's ε: the empirical attack advantage next to the theoretical
/// `(ε, δ)`-DP ceiling ([`membership_advantage_bound`]).
#[derive(Clone, Debug)]
pub struct ScenarioAttackScore {
    /// Scenario name ([`crate::scenario::Scenario::name`]).
    pub scenario: String,
    /// The attack result on the scenario's released model.
    pub result: MembershipInferenceResult,
    /// The accountant's accumulated ε for the run (∞ for non-private methods).
    pub epsilon: f64,
    /// The δ the guarantee (and the bound) is stated at.
    pub delta: f64,
    /// The `(ε, δ)`-DP ceiling on any attack's advantage.
    pub advantage_bound: f64,
}

impl ScenarioAttackScore {
    /// Whether the empirical advantage respects the theoretical ceiling (up to `slack`
    /// for the attack's finite-sample estimation noise).
    pub fn within_bound(&self, slack: f64) -> bool {
        self.result.advantage <= self.advantage_bound + slack
    }
}

/// Runs the user-level attack on a scenario's released model and scores it against the
/// `(ε, δ)` guarantee the accountant certified for that run.
pub fn score_scenario(
    scenario: impl Into<String>,
    model: &dyn Model,
    members: &[Vec<Sample>],
    non_members: &[Vec<Sample>],
    epsilon: f64,
    delta: f64,
) -> ScenarioAttackScore {
    let result = user_level_membership_inference(model, members, non_members);
    ScenarioAttackScore {
        scenario: scenario.into(),
        result,
        epsilon,
        delta,
        advantage_bound: membership_advantage_bound(epsilon, delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use uldp_ml::{LinearClassifier, Model, Sgd};

    /// Random-label data: the only way a model achieves low loss on it is memorisation,
    /// which is exactly the leakage membership inference detects.
    fn random_label_users(
        num_users: usize,
        records_per_user: usize,
        seed: u64,
    ) -> Vec<Vec<Sample>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..num_users)
            .map(|_| {
                (0..records_per_user)
                    .map(|_| {
                        let features: Vec<f64> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        Sample::classification(features, rng.gen_range(0..2))
                    })
                    .collect()
            })
            .collect()
    }

    fn overfit_model(members: &[Vec<Sample>]) -> LinearClassifier {
        let mut model = LinearClassifier::new(8, 2);
        let all: Vec<&Sample> = members.iter().flatten().collect();
        let sgd = Sgd::new(0.5);
        for _ in 0..2000 {
            let (_, grad) = model.loss_and_gradient(&all);
            sgd.step(model.parameters_mut(), &grad);
        }
        model
    }

    #[test]
    fn overfit_model_leaks_membership() {
        // Few records relative to model capacity (18 parameters, 24 records) so the
        // model can genuinely memorise the random labels and the attack has signal.
        let members = random_label_users(12, 2, 1);
        let non_members = random_label_users(12, 2, 2);
        let model = overfit_model(&members);
        let result = user_level_membership_inference(&model, &members, &non_members);
        assert!(result.auc > 0.6, "expected clear leakage, got AUC {}", result.auc);
        assert!(result.member_mean_loss < result.non_member_mean_loss);
        assert!(result.advantage > 0.2);
    }

    #[test]
    fn untrained_model_has_no_advantage() {
        let members = random_label_users(15, 4, 3);
        let non_members = random_label_users(15, 4, 4);
        let model = LinearClassifier::new(8, 2);
        let result = user_level_membership_inference(&model, &members, &non_members);
        // A constant predictor assigns the same loss structure to everyone.
        assert!(result.advantage.abs() < 0.25, "advantage {}", result.advantage);
    }

    #[test]
    fn member_user_records_groups_by_user() {
        use uldp_datasets::FederatedRecord;
        let records = vec![
            FederatedRecord { sample: Sample::classification(vec![0.0], 0), user: 0, silo: 0 },
            FederatedRecord { sample: Sample::classification(vec![1.0], 1), user: 0, silo: 1 },
            FederatedRecord { sample: Sample::classification(vec![2.0], 0), user: 2, silo: 0 },
        ];
        let dataset = FederatedDataset::new("t", 2, 3, records, vec![]);
        let grouped = member_user_records(&dataset);
        // user 1 has no records and is skipped
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].len(), 2);
        assert_eq!(grouped[1].len(), 1);
    }

    #[test]
    fn user_average_loss_empty_is_none() {
        let model = LinearClassifier::new(2, 2);
        assert!(user_average_loss(&model, &[]).is_none());
    }

    #[test]
    fn scenario_score_pairs_attack_with_epsilon_ceiling() {
        let members = random_label_users(12, 2, 5);
        let non_members = random_label_users(12, 2, 6);
        // A non-private overfit model: huge empirical advantage, but ε = ∞ puts the
        // ceiling at 1, so the score is still "within bound".
        let leaky = overfit_model(&members);
        let score = score_scenario("baseline", &leaky, &members, &non_members, f64::INFINITY, 1e-5);
        assert_eq!(score.scenario, "baseline");
        assert_eq!(score.advantage_bound, 1.0);
        assert!(score.within_bound(0.0));
        // A private untrained model at small ε: tiny ceiling, near-zero advantage.
        let private = LinearClassifier::new(8, 2);
        let score = score_scenario("dp", &private, &members, &non_members, 0.5, 1e-5);
        assert!(score.advantage_bound < 0.3);
        assert!(score.within_bound(0.25), "advantage {}", score.result.advantage);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn attack_requires_both_populations() {
        let model = LinearClassifier::new(2, 2);
        let members = vec![vec![Sample::classification(vec![0.0, 0.0], 0)]];
        let _ = user_level_membership_inference(&model, &members, &[]);
    }
}
