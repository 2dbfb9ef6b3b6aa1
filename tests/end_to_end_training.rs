//! Cross-crate integration tests: every training method runs end to end on small
//! synthetic federations and reproduces the qualitative relationships the paper reports.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_fl::core::{FlConfig, GroupSize, Method, Trainer, WeightingStrategy};
use uldp_fl::datasets::creditcard::{self, CreditcardConfig};
use uldp_fl::datasets::heart_disease::{self, HeartDiseaseConfig};
use uldp_fl::datasets::tcga_brca::{self, TcgaBrcaConfig};
use uldp_fl::datasets::{Allocation, FederatedDataset};
use uldp_fl::ml::{CoxRegression, LinearClassifier};

fn small_creditcard(allocation: Allocation) -> FederatedDataset {
    let mut rng = StdRng::seed_from_u64(100);
    creditcard::generate(
        &mut rng,
        &CreditcardConfig {
            train_records: 1200,
            test_records: 300,
            num_users: 60,
            allocation,
            ..Default::default()
        },
    )
}

fn config_for(method: Method, num_silos: usize, rounds: u64) -> FlConfig {
    let mut cfg = FlConfig::recommended(method, num_silos);
    cfg.rounds = rounds;
    // ULDP-SGD takes one local gradient step and keeps its recommended one epoch.
    if !matches!(method, Method::UldpSgd { .. }) {
        cfg.local_epochs = 2;
    }
    cfg.local_lr = 0.3;
    cfg.clip_bound = 1.0;
    cfg.sigma = 5.0;
    cfg.eval_every = rounds; // evaluate only at the end to keep tests fast
    if matches!(method, Method::UldpAvg { .. } | Method::UldpSgd { .. }) {
        cfg.global_lr = num_silos as f64 * 15.0;
    }
    cfg
}

#[test]
fn all_methods_run_and_report_consistent_privacy() {
    let dataset = small_creditcard(Allocation::Uniform);
    let methods = [
        Method::Default,
        Method::UldpNaive,
        Method::UldpGroup { group_size: GroupSize::Fixed(8), sampling_rate: 0.2 },
        Method::UldpSgd { weighting: WeightingStrategy::Uniform },
        Method::UldpAvg { weighting: WeightingStrategy::Uniform },
        Method::UldpAvg { weighting: WeightingStrategy::RecordProportional },
    ];
    let mut results = Vec::new();
    for method in methods {
        let cfg = config_for(method, dataset.num_silos, 3);
        let model = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
        let history = Trainer::new(cfg, dataset.clone(), model).run();
        let acc = history.final_accuracy().expect("classification accuracy");
        assert!((0.0..=1.0).contains(&acc), "{}: accuracy {acc}", history.method);
        assert!(history.final_parameters.iter().all(|p| p.is_finite()));
        results.push((history.method.clone(), acc, history.final_epsilon()));
    }
    // DEFAULT is non-private.
    assert!(results[0].2.is_infinite());
    // All private methods report a positive finite epsilon.
    for (label, _, eps) in &results[1..] {
        assert!(eps.is_finite() && *eps > 0.0, "{label} epsilon {eps}");
    }
    // NAIVE and AVG share the same accountant, so their epsilon matches (Theorems 1 & 3).
    let naive_eps = results[1].2;
    let avg_eps = results[4].2;
    assert!((naive_eps - avg_eps).abs() < 1e-9);
    // GROUP pays a much larger privacy bound than AVG for the same number of rounds.
    let group_eps = results[2].2;
    assert!(group_eps > avg_eps, "GROUP {group_eps} should exceed AVG {avg_eps}");
}

#[test]
fn default_beats_naive_in_utility_on_creditcard() {
    // The paper's headline qualitative result at small scale: the non-private baseline has
    // the best utility and ULDP-NAIVE the worst (noise scaled by |S|).
    let dataset = small_creditcard(Allocation::Uniform);
    let default_cfg = config_for(Method::Default, dataset.num_silos, 6);
    let naive_cfg = config_for(Method::UldpNaive, dataset.num_silos, 6);
    let default_acc = Trainer::new(
        default_cfg,
        dataset.clone(),
        Box::new(LinearClassifier::new(dataset.feature_dim(), 2)),
    )
    .run()
    .final_accuracy()
    .unwrap();
    let naive_acc = Trainer::new(
        naive_cfg,
        dataset.clone(),
        Box::new(LinearClassifier::new(dataset.feature_dim(), 2)),
    )
    .run()
    .final_accuracy()
    .unwrap();
    assert!(
        default_acc >= naive_acc,
        "DEFAULT ({default_acc}) should not lose to ULDP-NAIVE ({naive_acc})"
    );
    assert!(default_acc > 0.8, "DEFAULT should learn the separable task ({default_acc})");
}

#[test]
fn uldp_avg_learns_on_heart_disease() {
    let mut rng = StdRng::seed_from_u64(5);
    let dataset = heart_disease::generate(
        &mut rng,
        &HeartDiseaseConfig { num_users: 50, ..Default::default() },
    );
    let method = Method::UldpAvg { weighting: WeightingStrategy::Uniform };
    let mut cfg = config_for(method, dataset.num_silos, 8);
    cfg.sigma = 1.0; // modest noise so the tiny run shows learning
    cfg.eval_every = 8;
    let model = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
    let history = Trainer::new(cfg, dataset, model).run();
    let acc = history.final_accuracy().unwrap();
    assert!(acc > 0.6, "ULDP-AVG should beat chance on HeartDisease (acc = {acc})");
    assert!(history.final_epsilon().is_finite());
}

#[test]
fn uldp_avg_trains_cox_model_on_tcga_brca() {
    let mut rng = StdRng::seed_from_u64(6);
    let dataset = tcga_brca::generate(
        &mut rng,
        &TcgaBrcaConfig { num_users: 50, allocation: Allocation::Uniform, ..Default::default() },
    );
    let method = Method::UldpAvg { weighting: WeightingStrategy::RecordProportional };
    let mut cfg = config_for(method, dataset.num_silos, 8);
    cfg.sigma = 1.0;
    cfg.clip_bound = 0.5;
    cfg.local_lr = 0.2;
    cfg.eval_every = 8;
    let model = Box::new(CoxRegression::new(dataset.feature_dim()));
    let history = Trainer::new(cfg, dataset, model).run();
    let ci = history.final_c_index().expect("survival task reports a C-index");
    assert!(ci > 0.55, "C-index should beat 0.5 (got {ci})");
}

#[test]
fn user_level_subsampling_trades_utility_for_privacy() {
    let dataset = small_creditcard(Allocation::Uniform);
    let method = Method::UldpAvg { weighting: WeightingStrategy::Uniform };
    let mut full_cfg = config_for(method, dataset.num_silos, 4);
    full_cfg.eval_every = 4;
    let mut sub_cfg = full_cfg.clone();
    sub_cfg.user_sampling = 0.3;
    let full = Trainer::new(
        full_cfg,
        dataset.clone(),
        Box::new(LinearClassifier::new(dataset.feature_dim(), 2)),
    )
    .run();
    let sub = Trainer::new(
        sub_cfg,
        dataset.clone(),
        Box::new(LinearClassifier::new(dataset.feature_dim(), 2)),
    )
    .run();
    assert!(
        sub.final_epsilon() < full.final_epsilon(),
        "sub-sampling must tighten the privacy bound ({} !< {})",
        sub.final_epsilon(),
        full.final_epsilon()
    );
}

#[test]
fn enhanced_weighting_helps_under_skew() {
    // Figure 8's qualitative claim: under a zipf allocation ULDP-AVG-w converges at least
    // as well as uniform ULDP-AVG (compare noiseless losses to isolate the weighting bias).
    let dataset = small_creditcard(Allocation::zipf_default());
    let mut uniform_cfg =
        config_for(Method::UldpAvg { weighting: WeightingStrategy::Uniform }, dataset.num_silos, 6);
    uniform_cfg.sigma = 0.0;
    uniform_cfg.eval_every = 6;
    let mut weighted_cfg = config_for(
        Method::UldpAvg { weighting: WeightingStrategy::RecordProportional },
        dataset.num_silos,
        6,
    );
    weighted_cfg.sigma = 0.0;
    weighted_cfg.eval_every = 6;
    let uniform_loss = Trainer::new(
        uniform_cfg,
        dataset.clone(),
        Box::new(LinearClassifier::new(dataset.feature_dim(), 2)),
    )
    .run()
    .final_loss()
    .unwrap();
    let weighted_loss = Trainer::new(
        weighted_cfg,
        dataset.clone(),
        Box::new(LinearClassifier::new(dataset.feature_dim(), 2)),
    )
    .run()
    .final_loss()
    .unwrap();
    assert!(
        weighted_loss <= uniform_loss * 1.10,
        "ULDP-AVG-w loss {weighted_loss} should not be materially worse than uniform {uniform_loss}"
    );
}
