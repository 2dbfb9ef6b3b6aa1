//! Integration test for the extension built on top of the paper's core system: the
//! user-level membership-inference harness.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_fl::core::attack::{member_user_records, user_level_membership_inference};
use uldp_fl::core::{FlConfig, Method, Trainer, WeightingStrategy};
use uldp_fl::datasets::creditcard::{self, CreditcardConfig};
use uldp_fl::ml::{LinearClassifier, Model};

fn hard_creditcard(seed: u64) -> uldp_fl::datasets::FederatedDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    creditcard::generate(
        &mut rng,
        &CreditcardConfig {
            train_records: 400,
            test_records: 200,
            num_users: 30,
            class_separation: 0.6,
            ..Default::default()
        },
    )
}

#[test]
fn membership_inference_advantage_is_larger_without_dp() {
    // The memorisation signal on low-separation data should be stronger for the
    // non-private model than for the heavily-noised ULDP-AVG model.
    let dataset = hard_creditcard(2);
    let shadow = hard_creditcard(3);
    let members = member_user_records(&dataset);
    let non_members = member_user_records(&shadow);

    let run = |method: Method, sigma: f64| {
        let mut config = FlConfig::recommended(method, dataset.num_silos);
        config.rounds = 10;
        config.local_epochs = 4;
        config.local_lr = 0.5;
        config.sigma = sigma;
        config.eval_every = 10;
        if matches!(method, Method::UldpAvg { .. }) {
            config.global_lr = dataset.num_silos as f64 * 10.0;
        }
        let model: Box<dyn Model> = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
        let mut trainer = Trainer::new(config, dataset.clone(), model);
        trainer.run();
        user_level_membership_inference(trainer.model(), &members, &non_members)
    };

    let non_private = run(Method::Default, 0.0);
    let private = run(Method::UldpAvg { weighting: WeightingStrategy::Uniform }, 5.0);
    // Both advantages are valid probabilistic quantities.
    assert!((0.0..=1.0).contains(&non_private.auc));
    assert!((0.0..=1.0).contains(&private.auc));
    // The DP model must not leak more than the non-private model (allow a small slack for
    // the randomness of the tiny quick-scale setup).
    assert!(
        private.advantage <= non_private.advantage + 0.15,
        "DP advantage {} vs non-private {}",
        private.advantage,
        non_private.advantage
    );
}
