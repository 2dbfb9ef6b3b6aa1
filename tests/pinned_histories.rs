//! Absolute-value pins for every training method.
//!
//! The determinism oracles elsewhere compare runs against each other (threads, shards,
//! traced vs untraced), so a change that shifts every run the same way passes them all.
//! This test pins the raw `f64` bits of a two-round run's final parameters and per-round
//! ε for each method the figures train, plus one faulted ULDP-AVG-w run (dropout,
//! byzantine corruption, user-level sub-sampling). A refactor of the round code must
//! leave every value here unchanged.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_fl::core::{
    ByzantineStrategy, FaultPlan, FlConfig, GroupSize, Method, Trainer, WeightingStrategy,
};
use uldp_fl::datasets::heart_disease::{self, HeartDiseaseConfig};
use uldp_fl::ml::LinearClassifier;

/// `(label, final parameter bits, per-round ε bits)` of one pinned run.
type Pin = (&'static str, [u64; 10], [u64; 2]);

/// A two-round run of `method` on a small four-hospital HeartDisease federation.
fn run(method: Method, faults: bool) -> (String, Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(2024);
    let dataset = heart_disease::generate(
        &mut rng,
        &HeartDiseaseConfig {
            silo_sizes: vec![30, 26, 10, 14],
            test_records: 40,
            dim: 4,
            num_users: 12,
            ..Default::default()
        },
    );
    let mut config = FlConfig::recommended(method, dataset.num_silos);
    config.rounds = 2;
    // ULDP-SGD takes one local gradient step and keeps its recommended one epoch.
    if !matches!(method, Method::UldpSgd { .. }) {
        config.local_epochs = 2;
    }
    config.local_lr = 0.3;
    config.sigma = 1.0;
    config.seed = 5;
    if faults {
        config.user_sampling = 0.7;
        config.fault_plan = FaultPlan {
            dropout_fraction: 0.25,
            byzantine_fraction: 0.25,
            byzantine: ByzantineStrategy::SignFlip,
            seed: 17,
        };
    }
    let model = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
    let history = Trainer::new(config, dataset, model).run();
    let params = history.final_parameters.iter().map(|p| p.to_bits()).collect();
    let eps = history.rounds.iter().map(|r| r.epsilon.to_bits()).collect();
    (history.method, params, eps)
}

const PINS: [Pin; 7] = [
    (
        "DEFAULT",
        [
            0xbfcf1e5cb54c54c4,
            0x3fcff9ba6f97584e,
            0xbfd4d95258f3b168,
            0x3fca5780b2a2ef60,
            0x3fcf1e5cb54c54c2,
            0xbfcff9ba6f97584d,
            0x3fd4d95258f3b168,
            0xbfca5780b2a2ef60,
            0x3f9bbd98358fe736,
            0xbf9bbd98358fe736,
        ],
        [0x7ff0000000000000, 0x7ff0000000000000],
    ),
    (
        "ULDP-NAIVE",
        [
            0xbfcc5ea7a8719b00,
            0x3ff9d1a8e9e4c756,
            0x3f97e12d8aeb11e0,
            0x3ff7eaffe1ebcf2a,
            0xbfeb69efa6292694,
            0xbfbd590f0699d8c8,
            0x3ff25e43da8ba9f7,
            0xbf55f576a6947800,
            0x3ff96a25d8a0ad64,
            0xc00053e1d102a5ba,
        ],
        [0x401302cb3795a78a, 0x401c59f866199f05],
    ),
    (
        "ULDP-GROUP-max",
        [
            0xbfcf3d0b4bc6c0fa,
            0x3fd08616a0ce84d6,
            0xbfd2e6f367b9af6e,
            0x3fca31707b0733ce,
            0x3fd1d19267ecbe09,
            0xbfcb50ee2a858792,
            0x3fd3e5ad2716ff47,
            0xbfcb9b48ec480132,
            0x3fabfe3399d7abbd,
            0xbfbb057979d2e06f,
        ],
        [0x40792338d0ed6623, 0x4088d23579c25897],
    ),
    (
        "ULDP-SGD",
        [
            0xbfc20e9868cc974b,
            0x3fb204b752f82c4e,
            0xbfbfc15275b0c232,
            0x3fa0c0ad364ff4dc,
            0x3f90a814cbe621c7,
            0xbfb9f88700e38efa,
            0x3fc47cc89aa68a61,
            0xbfb159357d17be6e,
            0xbf80e9a605173915,
            0xbf8e0f8eb8daf21e,
        ],
        [0x401302cb3795a78a, 0x401c59f866199f05],
    ),
    (
        "ULDP-AVG",
        [
            0xbf8a6f49afd7864b,
            0x3fcae8a9e0a81add,
            0xbfd211ca3d13af46,
            0x3fce8690b5762310,
            0x3fdb7373fc591bfc,
            0xbfbb4f4a283f977c,
            0x3fc4c5d69022d4ee,
            0xbfbf24e52477b8cb,
            0x3fc167fe7488b54f,
            0xbfae7af8892e5bea,
        ],
        [0x401302cb3795a78a, 0x401c59f866199f05],
    ),
    (
        "ULDP-AVG-w",
        [
            0xbfb1cf35c6f71e8d,
            0x3fd2cdfc9b502101,
            0xbfd556751fc1796e,
            0x3fd00a105538a537,
            0x3fdf13c72098276e,
            0xbfc85af46a17f2e5,
            0x3fcb4f2c557e693f,
            0xbfc12002873703c3,
            0x3fc232f3ef09acc1,
            0xbfb0d36739991cd6,
        ],
        [0x401302cb3795a78a, 0x401c59f866199f05],
    ),
    (
        "ULDP-AVG-w",
        [
            0x3f94f2ddd1d9acf2,
            0x3fb546ca16400e9b,
            0xbfb789acefa64221,
            0x3fb62fb359241c93,
            0x3fd536f1ca193850,
            0xbf5b6c1d317d9e28,
            0x3fab00675dba10ee,
            0x3fa13cc18346b3e4,
            0x3f92dc69b7ae6072,
            0x3f9800ed02852643,
        ],
        [0x4011448b18cf9c04, 0x4018c91da447118a],
    ),
];

#[test]
fn every_method_reproduces_its_pinned_bits() {
    let runs = [
        (Method::Default, false),
        (Method::UldpNaive, false),
        (Method::UldpGroup { group_size: GroupSize::Max, sampling_rate: 0.5 }, false),
        (Method::UldpSgd { weighting: WeightingStrategy::Uniform }, false),
        (Method::UldpAvg { weighting: WeightingStrategy::Uniform }, false),
        (Method::UldpAvg { weighting: WeightingStrategy::RecordProportional }, false),
        (Method::UldpAvg { weighting: WeightingStrategy::RecordProportional }, true),
    ];
    let actual: Vec<_> = runs.iter().map(|&(method, faults)| run(method, faults)).collect();
    let table: String = actual
        .iter()
        .map(|(label, params, eps)| {
            let hex = |v: &[u64]| v.iter().map(|b| format!("{b:#018x}")).collect::<Vec<_>>();
            format!("({label:?}, [{}], [{}]),\n", hex(params).join(", "), hex(eps).join(", "))
        })
        .collect();
    for ((label, params, eps), pin) in actual.iter().zip(&PINS) {
        assert_eq!(label, pin.0, "run order changed");
        assert!(
            params[..] == pin.1[..] && eps[..] == pin.2[..],
            "{label} drifted from its pinned bits; this run produced:\n{table}"
        );
    }
}
