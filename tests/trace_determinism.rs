//! Tracing must observe, never perturb: a traced training run and a traced Protocol 1
//! round have to be bitwise-identical to untraced ones, because telemetry timestamps
//! live only in timing fields — never in control flow or RNG streams.
//!
//! A single test function owns the whole file: `uldp_fl::telemetry::set_enabled`
//! toggles process-global state, so concurrent test functions in this binary would
//! race on the flag.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::core::{
    ByzantineStrategy, FaultPlan, FlConfig, Method, PrivateWeightingProtocol, ProtocolConfig,
    Trainer, TrainingHistory, WeightingStrategy,
};
use uldp_fl::datasets::creditcard::{self, CreditcardConfig};
use uldp_fl::ml::{LinearClassifier, Model};

/// Collapses a history into its bit-exact content for comparison.
fn bits(h: &TrainingHistory) -> Vec<u64> {
    let mut out: Vec<u64> = h.final_parameters.iter().map(|p| p.to_bits()).collect();
    for r in &h.rounds {
        out.push(r.round);
        out.push(r.epsilon.to_bits());
        out.push(r.test_accuracy.map(|v| v.to_bits()).unwrap_or(u64::MAX));
        out.push(r.test_loss.map(|v| v.to_bits()).unwrap_or(u64::MAX));
    }
    out
}

/// One faulted ULDP-AVG run with the given runtime structure.
fn train(threads: usize, shards: usize) -> TrainingHistory {
    let mut rng = StdRng::seed_from_u64(41);
    let dataset = creditcard::generate(
        &mut rng,
        &CreditcardConfig {
            train_records: 150,
            test_records: 30,
            num_silos: 4,
            num_users: 20,
            ..Default::default()
        },
    );
    let method = Method::UldpAvg { weighting: WeightingStrategy::RecordProportional };
    let mut config = FlConfig::recommended(method, dataset.num_silos);
    config.rounds = 2;
    config.local_epochs = 1;
    config.sigma = 1.0;
    config.user_sampling = 0.7;
    config.threads = threads;
    config.shards = shards;
    // Faults on, so the traced run also walks the fault-event emission paths.
    config.fault_plan = FaultPlan {
        dropout_fraction: 0.5,
        byzantine_fraction: 0.5,
        byzantine: ByzantineStrategy::SignFlip,
        seed: 7,
    };
    let model: Box<dyn Model> = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
    Trainer::new(config, dataset, model).run()
}

/// Two Protocol 1 rounds (fresh, then cached) on a 4-thread pool; returns the bits of
/// both decrypted aggregates.
fn protocol_rounds() -> Vec<u64> {
    let histogram: Vec<Vec<usize>> =
        vec![vec![2, 0, 1, 3, 1], vec![1, 4, 0, 1, 2], vec![0, 2, 2, 0, 1]];
    let dim = 4;
    let mut rng = StdRng::seed_from_u64(43);
    let config = ProtocolConfig {
        paillier_bits: 256,
        dh_bits: 128,
        n_max: 16,
        threads: 4,
        ..Default::default()
    };
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
    let mut out = Vec::new();
    for _ in 0..2 {
        let deltas: Vec<Vec<Vec<f64>>> = histogram
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&c| {
                        (0..dim * (c > 0) as usize).map(|_| rng.gen_range(-1.0..1.0)).collect()
                    })
                    .collect()
            })
            .collect();
        let noises: Vec<Vec<f64>> = (0..histogram.len())
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect())
            .collect();
        let (aggregate, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
        out.extend(aggregate.iter().map(|v| v.to_bits()));
    }
    out
}

#[test]
fn traced_and_untraced_histories_are_bitwise_identical() {
    uldp_fl::telemetry::set_enabled(false);
    let protocol_reference = protocol_rounds();
    uldp_fl::telemetry::set_enabled(true);
    assert_eq!(protocol_rounds(), protocol_reference, "traced protocol rounds diverged");

    uldp_fl::telemetry::set_enabled(false);
    let reference = bits(&train(1, 1));

    uldp_fl::telemetry::set_enabled(true);
    // Tracing on, across a small (threads × shards) grid: every cell must land on the
    // untraced sequential reference bit for bit.
    for (threads, shards) in [(1, 1), (2, 2), (4, 3), (4, 12)] {
        let traced = bits(&train(threads, shards));
        assert_eq!(traced, reference, "traced run diverged at threads={threads} shards={shards}");
    }
    // The traced runs actually recorded something (the flag was honoured)...
    assert!(
        !uldp_fl::telemetry::trace::snapshot_records().is_empty(),
        "tracing was enabled but no records were captured"
    );
    assert!(uldp_fl::telemetry::metrics::FAULT_EVENTS.get() > 0, "fault events not emitted");
    assert!(uldp_fl::telemetry::metrics::LEDGER_ENTRIES.get() > 0, "ledger entries not emitted");

    // ...and an untraced re-run still matches after tracing is switched back off.
    uldp_fl::telemetry::set_enabled(false);
    uldp_fl::telemetry::reset();
    assert_eq!(bits(&train(2, 2)), reference);
    assert!(
        uldp_fl::telemetry::trace::snapshot_records().is_empty(),
        "disabled tracing must record nothing"
    );
}
