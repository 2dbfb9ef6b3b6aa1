//! Credit-card fraud detection across five card companies (the paper's motivating
//! scenario): the same customer holds cards at several companies, so record-level DP per
//! silo does not bound that customer's total influence. This example compares every
//! method's privacy-utility trade-off on the synthetic Creditcard federation.
//!
//! ```bash
//! cargo run --release --example credit_fraud
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_fl::core::{FlConfig, GroupSize, Method, Trainer, WeightingStrategy};
use uldp_fl::datasets::creditcard::{self, CreditcardConfig};
use uldp_fl::datasets::Allocation;
use uldp_fl::ml::LinearClassifier;

fn run_method(method: Method, dataset: &uldp_fl::datasets::FederatedDataset) -> (String, f64, f64) {
    let mut config = FlConfig::recommended(method, dataset.num_silos);
    config.rounds = 10;
    // ULDP-SGD takes one local gradient step and keeps its recommended one epoch.
    if !matches!(method, Method::UldpSgd { .. }) {
        config.local_epochs = 2;
    }
    config.local_lr = 0.3;
    config.clip_bound = 1.0;
    config.sigma = 5.0;
    if matches!(method, Method::UldpAvg { .. } | Method::UldpSgd { .. }) {
        config.global_lr = dataset.num_silos as f64 * 20.0;
    }
    let model = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
    let history = Trainer::new(config, dataset.clone(), model).run();
    (history.method.clone(), history.final_accuracy().unwrap_or(f64::NAN), history.final_epsilon())
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let dataset = creditcard::generate(
        &mut rng,
        &CreditcardConfig {
            train_records: 2500,
            test_records: 500,
            num_users: 100,
            allocation: Allocation::zipf_default(),
            ..Default::default()
        },
    );
    println!(
        "Creditcard federation: {} records over {} silos, {} users (zipf allocation)\n",
        dataset.num_records(),
        dataset.num_silos,
        dataset.num_users
    );

    let methods = [
        Method::Default,
        Method::UldpNaive,
        Method::UldpGroup { group_size: GroupSize::Max, sampling_rate: 0.1 },
        Method::UldpGroup { group_size: GroupSize::Fixed(8), sampling_rate: 0.1 },
        Method::UldpSgd { weighting: WeightingStrategy::Uniform },
        Method::UldpAvg { weighting: WeightingStrategy::Uniform },
        Method::UldpAvg { weighting: WeightingStrategy::RecordProportional },
    ];

    println!("{:<20} {:>10} {:>14}", "method", "accuracy", "epsilon(ULDP)");
    for method in methods {
        let (label, acc, eps) = run_method(method, &dataset);
        let eps_str = if eps.is_infinite() { "inf".to_string() } else { format!("{eps:.2}") };
        println!("{label:<20} {acc:>10.4} {eps_str:>14}");
    }
    println!(
        "\nExpected shape (cf. paper Fig. 4): ULDP-AVG(-w) gets accuracy close to DEFAULT at a\n\
         small epsilon; ULDP-GROUP needs a far larger epsilon; ULDP-NAIVE has small epsilon but\n\
         poor accuracy."
    );
}
