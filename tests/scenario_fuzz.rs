//! Scenario × runtime-grid fuzzing with the determinism oracle.
//!
//! Every [`Scenario`] in the catalogue — dropouts, byzantine silos, Zipf skew, and
//! their worst-case mix — must keep the streaming round engine's core
//! guarantee: training is **bitwise identical** across every `(threads, shards)` grid
//! point. Because all fault decisions are pure functions of
//! `(plan seed, round seed, silo[, user])`, a faulted round has no more scheduling
//! freedom than a clean one; any hidden shared state in the fault injection shows up
//! here as a bit difference. The grid sweep samples ≥ 32 (scenario × structure) cases,
//! and a property test adds random grid points on top.
//!
//! The degradation semantics themselves are asserted quantitatively:
//!
//! * a dropout round equals a plan-less round over the surviving silos with the global
//!   learning rate compensated by `|S| / |S_surviving|`;
//! * byzantine influence — even a `1e6`-scaled gradient — is bounded by the clipping
//!   norm: `‖p_byz − p_honest‖ ≤ global_lr · scale · 2·C·Σ_{corrupted (s,u)} w_{s,u}`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_fl::core::algorithms::uldp;
use uldp_fl::core::{
    ByzantineStrategy, FaultPlan, FlConfig, Method, SampleMask, Scenario, Trainer, TrainingHistory,
    WeightMatrix, WeightingStrategy,
};
use uldp_fl::datasets::creditcard::{self, CreditcardConfig};
use uldp_fl::ml::{LinearClassifier, Model};
use uldp_fl::runtime::Runtime;

/// Collapses a history into a bit-exact fingerprint (parameters and metrics as raw bits).
fn history_bits(h: &TrainingHistory) -> Vec<u64> {
    let mut bits: Vec<u64> = h.final_parameters.iter().map(|p| p.to_bits()).collect();
    for r in &h.rounds {
        bits.push(r.round);
        bits.push(r.epsilon.to_bits());
        bits.push(r.test_accuracy.map(|v| v.to_bits()).unwrap_or(u64::MAX));
        bits.push(r.test_loss.map(|v| v.to_bits()).unwrap_or(u64::MAX));
        bits.push(r.c_index.map(|v| v.to_bits()).unwrap_or(u64::MAX));
    }
    bits
}

/// Two private ULDP-AVG rounds under the scenario's fault plan and allocation, at the
/// given runtime structure. Same dataset seed everywhere so only (scenario, structure)
/// varies.
fn train_scenario(scenario: &Scenario, threads: usize, shards: usize) -> TrainingHistory {
    let mut rng = StdRng::seed_from_u64(7);
    let dataset = creditcard::generate(
        &mut rng,
        &CreditcardConfig {
            train_records: 240,
            test_records: 40,
            allocation: scenario.allocation(),
            ..Default::default()
        },
    );
    let method = Method::UldpAvg { weighting: WeightingStrategy::RecordProportional };
    let mut config = FlConfig::recommended(method, dataset.num_silos);
    config.rounds = 2;
    config.local_epochs = 2;
    config.sigma = 1.0;
    config.user_sampling = 0.7;
    config.threads = threads;
    config.shards = shards;
    config.fault_plan = scenario.plan;
    let model = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
    Trainer::new(config, dataset, model).run()
}

#[test]
fn every_catalogue_scenario_is_bitwise_identical_across_the_runtime_grid() {
    // 8 scenarios × 4 structure points = 32 sampled cases, each checked against the
    // scenario's own sequential single-shard reference.
    let structures = [(2usize, 2usize), (4, 1), (2, 3), (4, 16)];
    let scenarios = Scenario::catalogue();
    let mut cases = 0usize;
    for scenario in &scenarios {
        let reference = history_bits(&train_scenario(scenario, 1, 1));
        for &(threads, shards) in &structures {
            let run = history_bits(&train_scenario(scenario, threads, shards));
            assert_eq!(
                run, reference,
                "scenario {} diverged at threads={threads} shards={shards}",
                scenario.name
            );
            cases += 1;
        }
    }
    assert!(cases >= 32, "grid sweep must sample at least 32 cases, got {cases}");
}

#[test]
fn mask_rounds_train_identically_across_the_scenario_catalogue() {
    // The mask-round oracle on the training side: a round under a sub-sampling mask of
    // 3 of 20 users must be a function of the selection alone. Every catalogue scenario
    // (dropouts, byzantine corruption, skewed allocations) must produce
    // bitwise-identical parameters on pooled structure points and the sequential
    // reference.
    let mask = SampleMask::from_sorted_indices(20, vec![3, 11, 17]);
    for scenario in &Scenario::catalogue() {
        let run = |threads: usize, shards: usize| {
            let mut rng = StdRng::seed_from_u64(29);
            let dataset = creditcard::generate(
                &mut rng,
                &CreditcardConfig {
                    train_records: 200,
                    test_records: 40,
                    num_users: 20,
                    allocation: scenario.allocation(),
                    ..Default::default()
                },
            );
            let mut cfg = FlConfig {
                method: Method::UldpAvg { weighting: WeightingStrategy::RecordProportional },
                sigma: 1.0,
                clip_bound: 1.0,
                local_lr: 0.2,
                local_epochs: 2,
                global_lr: 2.0,
                ..Default::default()
            };
            cfg.fault_plan = scenario.plan;
            let weights = WeightMatrix::from_histogram(
                WeightingStrategy::RecordProportional,
                &dataset.histogram(),
            );
            let rt = Runtime::new(threads);
            let mut cfg2 = cfg.clone();
            cfg2.shards = shards;
            let mut model: Box<dyn Model> =
                Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
            uldp::run_round(&rt, &mut model, &dataset, &cfg2, &weights, Some(&mask), 0.15, 3);
            model.parameters().iter().map(|p| p.to_bits()).collect::<Vec<u64>>()
        };
        let reference = run(1, 1);
        for &(threads, shards) in &[(2usize, 2usize), (4, 3)] {
            assert_eq!(
                reference,
                run(threads, shards),
                "scenario {}: mask round diverged at threads={threads} shards={shards}",
                scenario.name
            );
        }
    }
}

#[test]
fn faulted_rounds_differ_from_clean_rounds() {
    // The oracle would be vacuous if the fault injection were a no-op: dropout and
    // byzantine scenarios must actually change the trajectory relative to baseline.
    let scenarios = Scenario::catalogue();
    let baseline = history_bits(&train_scenario(&scenarios[0], 1, 1));
    for name in ["dropout_heavy", "byz_sign_flip", "mixed_worst_case"] {
        let scenario = scenarios.iter().find(|s| s.name == name).unwrap();
        let run = history_bits(&train_scenario(scenario, 1, 1));
        assert_ne!(run, baseline, "scenario {name} did not perturb training");
    }
}

#[test]
fn dropout_round_equals_reweighted_round_over_survivors() {
    // Degradation semantics, asserted exactly: dropping silos under the plan is the
    // same as zeroing their weights in a plan-less round and compensating the global
    // learning rate by |S| / |S_surviving|. Zero noise isolates the deterministic part.
    let mut rng = StdRng::seed_from_u64(11);
    let dataset = creditcard::generate(
        &mut rng,
        &CreditcardConfig { train_records: 240, test_records: 40, ..Default::default() },
    );
    let n = dataset.num_silos;
    let plan = FaultPlan { dropout_fraction: 0.4, seed: 33, ..FaultPlan::none() };
    let round_seed = 5u64;
    let dropped = plan.dropped_silos(round_seed, n);
    let surviving = dropped.iter().filter(|&&d| !d).count();
    assert!(surviving < n, "plan must actually drop a silo for this test to bite");

    let base_cfg = FlConfig {
        method: Method::UldpAvg { weighting: WeightingStrategy::Uniform },
        sigma: 0.0,
        clip_bound: 1.0,
        local_lr: 0.1,
        local_epochs: 2,
        global_lr: 2.0,
        ..Default::default()
    };
    let weights = WeightMatrix::uniform(n, dataset.num_users);
    let rt = Runtime::new(2);

    let mut faulted_cfg = base_cfg.clone();
    faulted_cfg.fault_plan = plan;
    let mut faulted: Box<dyn Model> = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
    uldp::run_round(&rt, &mut faulted, &dataset, &faulted_cfg, &weights, None, 1.0, round_seed);

    let mut reference_cfg = base_cfg;
    reference_cfg.global_lr *= n as f64 / surviving as f64;
    let mut zeroed = WeightMatrix::uniform(n, dataset.num_users);
    for (silo, &d) in dropped.iter().enumerate() {
        if d {
            for user in 0..dataset.num_users {
                zeroed.set(silo, user, 0.0);
            }
        }
    }
    let mut reference: Box<dyn Model> = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
    uldp::run_round(&rt, &mut reference, &dataset, &reference_cfg, &zeroed, None, 1.0, round_seed);

    for (a, b) in faulted.parameters().iter().zip(reference.parameters().iter()) {
        assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0),
            "faulted {a} vs reweighted reference {b}"
        );
    }
    // And the round actually moved the model (the equivalence is not vacuous).
    assert!(faulted.parameters().iter().any(|p| *p != 0.0));
}

#[test]
fn byzantine_influence_is_bounded_by_the_clipping_norm() {
    // Even a 1e6-scaled gradient attack moves the model by at most
    // global_lr · scale · 2·C·Σ_{corrupted tasks} w — the per-user clipping defense.
    let mut rng = StdRng::seed_from_u64(13);
    let dataset = creditcard::generate(
        &mut rng,
        &CreditcardConfig { train_records: 200, test_records: 40, ..Default::default() },
    );
    let n = dataset.num_silos;
    let clip = 0.5;
    let base_cfg = FlConfig {
        method: Method::UldpAvg { weighting: WeightingStrategy::Uniform },
        sigma: 0.0,
        clip_bound: clip,
        local_lr: 0.2,
        local_epochs: 2,
        global_lr: 1.5,
        ..Default::default()
    };
    let weights = WeightMatrix::uniform(n, dataset.num_users);
    let rt = Runtime::new(2);
    let round_seed = 9u64;

    let run = |plan: FaultPlan| {
        let mut cfg = base_cfg.clone();
        cfg.fault_plan = plan;
        let mut model: Box<dyn Model> = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
        uldp::run_round(&rt, &mut model, &dataset, &cfg, &weights, None, 1.0, round_seed);
        model.parameters().to_vec()
    };
    let honest = run(FaultPlan::none());
    for strategy in [
        ByzantineStrategy::SignFlip,
        ByzantineStrategy::ScaledGradient { factor: 1e6 },
        ByzantineStrategy::RandomNoise { std: 100.0 },
    ] {
        let plan = FaultPlan {
            byzantine_fraction: 0.5,
            byzantine: strategy,
            seed: 21,
            ..FaultPlan::none()
        };
        let byz = plan.byzantine_silos(round_seed, n);
        assert!(byz.iter().any(|&b| b), "plan must corrupt at least one silo");
        let attacked = run(plan);

        // Corrupted weight mass: every (byzantine silo, user-present-in-silo) task.
        let corrupted_weight: f64 = (0..n)
            .filter(|&s| byz[s])
            .flat_map(|s| dataset.users_in_silo(s).into_iter().map(move |u| (s, u)))
            .map(|(s, u)| weights.get(s, u))
            .sum();
        let scale = 1.0 / (dataset.num_users as f64 * n as f64);
        let bound = base_cfg.global_lr * scale * 2.0 * clip * corrupted_weight;
        let moved: f64 =
            attacked.iter().zip(honest.iter()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        assert!(
            moved <= bound + 1e-9,
            "{}: influence {moved} exceeds clipping bound {bound}",
            plan.byzantine.label()
        );
        assert!(moved > 0.0, "{}: corruption was a no-op", plan.byzantine.label());
    }
}

// Property test: random (scenario, threads, shards) grid points must reproduce
// the scenario's sequential reference bit for bit — the fuzz oracle on random samples
// beyond the fixed sweep above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_scenario_grid_points_reproduce_training_bitwise(
        scenario_pick in 0usize..9,
        threads in 1usize..5,
        shards in 1usize..24,
    ) {
        let scenarios = Scenario::catalogue();
        let scenario = &scenarios[scenario_pick % scenarios.len()];
        let reference = history_bits(&train_scenario(scenario, 1, 1));
        let run = history_bits(&train_scenario(scenario, threads, shards));
        prop_assert_eq!(run, reference);
    }
}
