//! Extension experiment: user-level membership inference against trained models.
//!
//! The paper's conclusion suggests empirically comparing the privacy protection of the
//! different methods with membership-inference attacks. This harness trains the
//! non-private baseline (DEFAULT) and the private methods on a memorisation-prone
//! Creditcard federation and runs the user-level loss-threshold attack of
//! `uldp_core::attack`, reporting the attack AUC and membership advantage per method.
//! User-level DP should push the advantage towards zero.
//!
//! A second pass scores the attack per [`uldp_core::Scenario`] — dropouts, byzantine
//! silos, Zipf skew — against the accountant's ε and the `(ε, δ)`-DP ceiling
//! on any attack's advantage, and prints it as a second table.
//!
//! ```bash
//! cargo run --release -p uldp-bench --bin ext_membership_inference
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_bench::scenarios::{evaluate_scenarios, print_scenario_table};
use uldp_bench::{print_table, ResultRow, Scale};
use uldp_core::attack::{member_user_records, user_level_membership_inference};
use uldp_core::{FlConfig, Method, Trainer, WeightingStrategy};
use uldp_datasets::creditcard::{self, CreditcardConfig};
use uldp_datasets::Allocation;
use uldp_ml::{LinearClassifier, Model, Sample};

fn main() {
    let scale = Scale::from_env();
    let rounds = scale.pick(15, 60);

    // A small, noisy federation encourages memorisation, which is what the attack detects.
    let mut rng = StdRng::seed_from_u64(13);
    let cfg = CreditcardConfig {
        train_records: scale.pick(600, 2500),
        test_records: 400,
        num_users: 40,
        class_separation: 0.6, // hard task: low separation forces memorisation
        allocation: Allocation::Uniform,
        ..Default::default()
    };
    let dataset = creditcard::generate(&mut rng, &cfg);
    // Non-member users: fresh users drawn from the same generative process.
    let shadow = creditcard::generate(&mut rng, &cfg);
    let members = member_user_records(&dataset);
    let non_members = member_user_records(&shadow);
    let non_members: Vec<Vec<Sample>> = non_members.into_iter().take(members.len()).collect();

    println!(
        "Membership inference extension: {} member users vs {} non-member users, T={rounds}",
        members.len(),
        non_members.len()
    );

    let methods = [
        (Method::Default, 0.0),
        (Method::UldpNaive, 5.0),
        (Method::UldpAvg { weighting: WeightingStrategy::Uniform }, 5.0),
        (Method::UldpAvg { weighting: WeightingStrategy::RecordProportional }, 5.0),
    ];

    let mut rows = Vec::new();
    for (method, sigma) in methods {
        let mut config = FlConfig::recommended(method, dataset.num_silos);
        config.rounds = rounds;
        config.local_epochs = 4;
        config.local_lr = 0.5;
        config.sigma = sigma;
        config.clip_bound = 1.0;
        config.eval_every = rounds;
        if matches!(method, Method::UldpAvg { .. }) {
            config.global_lr = dataset.num_silos as f64 * 20.0;
        }
        let model: Box<dyn Model> = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
        let mut trainer = Trainer::new(config, dataset.clone(), model);
        let history = trainer.run();
        let attack = user_level_membership_inference(trainer.model(), &members, &non_members);
        let mut row = ResultRow::new(history.method.clone());
        row.push_f64("test acc", history.final_accuracy().unwrap_or(f64::NAN));
        row.push_f64("epsilon", history.final_epsilon());
        row.push_f64("attack AUC", attack.auc);
        row.push_f64("advantage", attack.advantage);
        rows.push(row);
    }
    print_table("User-level membership inference (loss-threshold attack)", &rows);
    println!(
        "\nExpected shape: the non-private DEFAULT model leaks the most (largest advantage);\n\
         the ULDP methods keep the user-level attack advantage close to zero at the cost of\n\
         some accuracy."
    );

    // Per-scenario pass: the same attack under each catalogue scenario's fault plan and
    // allocation, scored against the accountant's ε. Every empirical advantage must sit
    // under the (ε, δ) ceiling — adversarial conditions degrade utility, not privacy.
    let outcomes = evaluate_scenarios(scale.pick(5, 20), scale.pick(400, 1200), 5.0);
    print_scenario_table(&outcomes);
}
