//! The measured memory claim of the streaming sharded round engine: transient
//! delta-buffer bytes per round scale with the number of fold spans (shards × chunks of
//! 16 tasks), not with one dim-length delta per participating `(silo, user)` task.
//!
//! The fold sites report their live accumulator bytes to the runtime's
//! [`uldp_fl::runtime::MemoryGauge`]; these tests pin the reported peak against the
//! span-grid arithmetic and against the O(tasks × dim) of materialising every delta.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_fl::core::{FlConfig, Method, Trainer, WeightingStrategy};
use uldp_fl::datasets::creditcard::{self, CreditcardConfig};
use uldp_fl::ml::{LinearClassifier, Model};

/// Size of one exact fixed-point accumulator coordinate (`i128`).
const ACC_COORD_BYTES: usize = 16;

/// Tasks per fold chunk of the training round engine.
const CHUNK_TASKS: usize = 16;

/// Runs one noiseless ULDP-AVG round with the given structure and returns
/// `(peak fold bytes, participating tasks, per-silo task counts, model dim)`.
fn round_peak(num_users: usize, shards: usize) -> (usize, usize, Vec<usize>, usize) {
    let mut rng = StdRng::seed_from_u64(123);
    let dataset = creditcard::generate(
        &mut rng,
        &CreditcardConfig {
            train_records: 12 * num_users,
            test_records: 20,
            num_users,
            ..Default::default()
        },
    );
    let method = Method::UldpAvg { weighting: WeightingStrategy::Uniform };
    let mut config = FlConfig::recommended(method, dataset.num_silos);
    config.rounds = 1;
    config.local_epochs = 1;
    config.sigma = 0.0;
    config.threads = 2; // dedicated pool, so the gauge is isolated from other tests
    config.shards = shards;
    // Uniform weights and no sub-sampling: every (silo, user) pair with records is one
    // task of the round.
    let per_silo_tasks: Vec<usize> = (0..dataset.num_silos)
        .map(|s| {
            dataset
                .users_in_silo(s)
                .into_iter()
                .filter(|&u| !dataset.silo_user_records(s, u).is_empty())
                .count()
        })
        .collect();
    let tasks = per_silo_tasks.iter().sum();
    let model: Box<dyn Model> = Box::new(LinearClassifier::new(dataset.feature_dim(), 2));
    let dim = model.num_parameters();
    let mut trainer = Trainer::new(config, dataset, model);
    trainer.runtime().fold_gauge().reset();
    trainer.step(0);
    (trainer.runtime().fold_gauge().peak(), tasks, per_silo_tasks, dim)
}

/// Expected span count of one round: per silo, tasks split into `shards` near-equal
/// shards (empty ones dropped), each split into chunks of [`CHUNK_TASKS`] tasks.
fn expected_spans(per_silo_tasks: &[usize], shards: usize) -> usize {
    per_silo_tasks
        .iter()
        .map(|&len| {
            let base = len / shards;
            let extra = len % shards;
            (0..shards)
                .map(|s| {
                    let shard_len = base + usize::from(s < extra);
                    shard_len.div_ceil(CHUNK_TASKS)
                })
                .sum::<usize>()
        })
        .sum()
}

#[test]
fn peak_bytes_scale_with_span_count_not_user_count() {
    // Fixed span structure (8 shards per silo, each within one chunk at both sizes):
    // doubling the user population must not change the transient footprint at all.
    let (peak_small, tasks_small, per_silo_small, dim) = round_peak(40, 8);
    let (peak_large, tasks_large, per_silo_large, dim_large) = round_peak(80, 8);
    assert_eq!(dim, dim_large);
    assert!(tasks_large > tasks_small, "doubling users must add tasks");
    for per_silo in [&per_silo_small, &per_silo_large] {
        assert!(
            per_silo.iter().all(|&t| (8..=8 * CHUNK_TASKS).contains(&t)),
            "every silo must fill 8 shards of at most one chunk: {per_silo:?}"
        );
    }
    assert_eq!(
        peak_small,
        expected_spans(&per_silo_small, 8) * dim * ACC_COORD_BYTES,
        "peak must equal spans × accumulator bytes"
    );
    assert_eq!(
        peak_small, peak_large,
        "fixed span structure: the footprint may not grow with the user count"
    );
    // And it beats the O(tasks × dim) materialisation by a growing margin.
    let materialised = tasks_large * dim * std::mem::size_of::<f64>();
    assert!(
        peak_large < materialised,
        "streamed peak {peak_large} should undercut the materialised {materialised}"
    );
}

#[test]
fn per_section_reset_prevents_peak_inheritance() {
    // A caller measuring several sections back-to-back on one shared runtime must reset
    // the gauge per section: `peak()` is a high-water mark, so a section that folds less
    // than its predecessor otherwise inherits the old peak.
    let rt = uldp_fl::runtime::Runtime::new(1);
    let gauge = rt.fold_gauge();
    gauge.record(4096); // section 1: a large round
    gauge.record(512); // section 2 without a reset: stale peak
    assert_eq!(gauge.peak(), 4096, "high-water mark survives smaller recordings");
    gauge.reset();
    assert_eq!((gauge.last(), gauge.peak()), (0, 0));
    gauge.record(512); // section 2 measured after a per-section reset
    assert_eq!(gauge.peak(), 512, "post-reset peak reflects only the new section");
}

#[test]
fn peak_bytes_grow_with_the_chunk_count() {
    // One shard per silo: each silo's tasks fold in ⌈tasks / 16⌉ chunks, so quadrupling
    // the population adds chunks, and the gauge must report exactly their partials —
    // fewer than one per task.
    let (peak_small, tasks_small, per_silo_small, dim) = round_peak(40, 1);
    let (peak_large, tasks_large, per_silo_large, _) = round_peak(160, 1);
    assert_eq!(peak_small, expected_spans(&per_silo_small, 1) * dim * ACC_COORD_BYTES);
    assert_eq!(peak_large, expected_spans(&per_silo_large, 1) * dim * ACC_COORD_BYTES);
    assert!(
        peak_large > peak_small,
        "more chunks ({peak_large}) must hold more live partials than fewer ({peak_small})"
    );
    for (peak, tasks) in [(peak_small, tasks_small), (peak_large, tasks_large)] {
        assert!(peak < tasks * dim * ACC_COORD_BYTES, "one partial per task is the ceiling");
    }
}
