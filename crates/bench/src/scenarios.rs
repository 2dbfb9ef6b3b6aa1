//! Per-scenario membership-inference scoring.
//!
//! Every [`Scenario`] of the catalogue — baseline, dropouts, byzantine strategies, Zipf
//! skew and the mixed worst case — is trained on the memorisation-prone
//! Creditcard federation with the scenario's fault plan and allocation, attacked with the
//! user-level loss-threshold attack of `uldp_core::attack`, and scored against the
//! accountant's `(ε, δ)` ceiling on any attack's advantage
//! ([`uldp_accounting::membership_advantage_bound`]). The outcomes feed the
//! per-scenario table `ext_membership_inference` prints.

use crate::{print_table, ResultRow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_core::attack::{member_user_records, score_scenario, ScenarioAttackScore};
use uldp_core::{FlConfig, Method, Scenario, Trainer, WeightingStrategy};
use uldp_datasets::creditcard::{self, CreditcardConfig};
use uldp_ml::{LinearClassifier, Model};

/// One scenario's training + attack outcome.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The attack result paired with the accountant's `(ε, δ)` ceiling.
    pub score: ScenarioAttackScore,
    /// Final test accuracy of the scenario's model (`NaN` when never evaluated).
    pub test_accuracy: f64,
}

/// Trains ULDP-AVG under every catalogue scenario and scores the released model with
/// the user-level membership-inference attack against the accountant's ε.
///
/// Each scenario re-generates its federation from the same seed (only the allocation
/// and fault plan differ), plus a shadow federation from the same generative process
/// for the non-member population.
pub fn evaluate_scenarios(rounds: u64, train_records: usize, sigma: f64) -> Vec<ScenarioOutcome> {
    Scenario::catalogue()
        .iter()
        .map(|scenario| {
            let mut rng = StdRng::seed_from_u64(0x005c_e017);
            let cfg = CreditcardConfig {
                train_records,
                test_records: 200,
                num_users: 40,
                class_separation: 0.6, // hard task: low separation forces memorisation
                allocation: scenario.allocation(),
                ..Default::default()
            };
            let dataset = creditcard::generate(&mut rng, &cfg);
            let shadow = creditcard::generate(&mut rng, &cfg);
            let members = member_user_records(&dataset);
            let mut non_members = member_user_records(&shadow);
            non_members.truncate(members.len());

            let method = Method::UldpAvg { weighting: WeightingStrategy::RecordProportional };
            let mut config = FlConfig::recommended(method, dataset.num_silos);
            config.rounds = rounds;
            config.local_epochs = 4;
            config.local_lr = 0.5;
            config.sigma = sigma;
            config.clip_bound = 1.0;
            config.eval_every = rounds;
            config.global_lr = dataset.num_silos as f64 * 20.0;
            config.fault_plan = scenario.plan;
            let delta = config.delta;
            let model: Box<dyn Model> = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
            let mut trainer = Trainer::new(config, dataset, model);
            let history = trainer.run();
            let score = score_scenario(
                scenario.name,
                trainer.model(),
                &members,
                &non_members,
                history.final_epsilon(),
                delta,
            );
            ScenarioOutcome { score, test_accuracy: history.final_accuracy().unwrap_or(f64::NAN) }
        })
        .collect()
}

/// Prints the per-scenario attack-vs-ε table.
pub fn print_scenario_table(outcomes: &[ScenarioOutcome]) {
    let rows: Vec<ResultRow> = outcomes
        .iter()
        .map(|outcome| {
            let mut row = ResultRow::new(outcome.score.scenario.clone());
            row.push_f64("attack AUC", outcome.score.result.auc);
            row.push_f64("advantage", outcome.score.result.advantage);
            row.push_f64("epsilon", outcome.score.epsilon);
            row.push_f64("adv bound", outcome.score.advantage_bound);
            row.push_f64("test acc", outcome.test_accuracy);
            row.push_str(
                "within bound",
                if outcome.score.within_bound(0.15) { "yes" } else { "NO" },
            );
            row
        })
        .collect();
    print_table("Per-scenario membership inference vs (ε, δ)-DP ceiling", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_cover_the_catalogue() {
        let outcomes = evaluate_scenarios(2, 160, 1.0);
        let names: Vec<&str> = Scenario::catalogue().iter().map(|s| s.name).collect();
        assert_eq!(
            outcomes.iter().map(|o| o.score.scenario.as_str()).collect::<Vec<_>>(),
            names,
            "one outcome per catalogue scenario, in order"
        );
        for o in &outcomes {
            assert!((0.0..=1.0).contains(&o.score.result.auc), "{}: AUC", o.score.scenario);
            assert!(o.score.epsilon > 0.0, "{}: ε", o.score.scenario);
            assert!(
                (0.0..=1.0).contains(&o.score.advantage_bound),
                "{}: advantage bound",
                o.score.scenario
            );
        }
    }
}
