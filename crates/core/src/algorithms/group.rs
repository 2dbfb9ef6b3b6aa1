//! ULDP-GROUP-k (Algorithm 2): per-silo DP-SGD plus group-privacy conversion.
//!
//! Contribution-bounding flags `B` restrict every user to at most `k` records across all
//! silos; each silo then runs record-level DP-SGD on its surviving records. Group privacy
//! (Lemma 6) lifts the record-level guarantee to `(k, ε, δ)`-GDP which, by Proposition 1,
//! implies `(ε, δ)`-ULDP — at the cost of the super-linear privacy-bound blow-up shown in
//! Figure 2 and of dropping records for users above the cap.
//!
//! Following the paper's experimental setup, the flags are generated *for existing
//! records* (greedily keeping the first `k` records of each user) to minimise waste,
//! ignoring the privacy cost of computing the flags themselves (a stated limitation of
//! this baseline).

use crate::algorithms::apply_update;
use crate::algorithms::stream::DeltaAccumulator;
use crate::config::{FlConfig, GroupSize};
use crate::silo;
use uldp_datasets::FederatedDataset;
use uldp_ml::Model;
use uldp_runtime::Runtime;

/// Resolves the configured [`GroupSize`] to a concrete `k` for a dataset.
pub fn resolve_group_size(dataset: &FederatedDataset, group_size: GroupSize) -> u64 {
    match group_size {
        GroupSize::Max => dataset.max_records_per_user().max(1) as u64,
        GroupSize::Median => dataset.median_records_per_user().max(1) as u64,
        GroupSize::Fixed(k) => k.max(1),
    }
}

/// The accounting group size: the largest power of two that is `≤ k`.
///
/// Lemma 6 needs a power-of-two group size; the paper reports ε computed at the largest
/// power of two below `k` as a lower bound when `k` itself is not a power of two.
pub fn accounting_group_size(k: u64) -> u64 {
    let k = k.max(1);
    let mut p = 1u64;
    while p * 2 <= k {
        p *= 2;
    }
    p
}

/// Builds the contribution-bounding flags `B`: `flags[i]` is `true` iff record `i` of the
/// dataset participates in training. Each user keeps at most `k` records (in record
/// order across all silos).
pub fn build_contribution_flags(dataset: &FederatedDataset, k: u64) -> Vec<bool> {
    let mut kept_per_user = vec![0u64; dataset.num_users];
    dataset
        .records()
        .iter()
        .map(|r| {
            if kept_per_user[r.user] < k {
                kept_per_user[r.user] += 1;
                true
            } else {
                false
            }
        })
        .collect()
}

/// Runs one ULDP-GROUP-k round on the worker pool, updating `model` in place.
///
/// `flags` must come from [`build_contribution_flags`] and stay constant across rounds.
/// The silo-level DP-SGD loops (inherently sequential per silo: every step depends on
/// the previous one) run as one pooled task per silo, each folding its noisy delta into
/// an exact accumulator (O(silos × dim) transient memory); the accumulators merge
/// exactly. Each silo's RNG is derived from `(round_seed, silo)`, so the round is
/// bitwise-identical at any thread count. [`FlConfig::shards`] does not apply here — a
/// silo's DP-SGD loop cannot be split.
pub fn run_round(
    rt: &Runtime,
    model: &mut Box<dyn Model>,
    dataset: &FederatedDataset,
    config: &FlConfig,
    flags: &[bool],
    round_seed: u64,
) {
    assert_eq!(flags.len(), dataset.num_records(), "flag vector length mismatch");
    let sampling_rate = match config.method {
        crate::config::Method::UldpGroup { sampling_rate, .. } => sampling_rate,
        _ => panic!("run_round called with a non-GROUP method"),
    };
    let global = model.parameters().to_vec();
    let dim = global.len();
    let template = model.clone_model();
    rt.fold_gauge().record(dataset.num_silos * DeltaAccumulator::bytes(dim));
    let per_silo = rt.par_map_seeded(dataset.num_silos, round_seed, |silo_id, rng| {
        let mut scratch = template.clone_model();
        // D'_s: this silo's records that survive the contribution bound.
        let records: Vec<&uldp_ml::Sample> = dataset
            .records()
            .iter()
            .zip(flags.iter())
            .filter(|(r, &keep)| keep && r.silo == silo_id)
            .map(|(r, _)| &r.sample)
            .collect();
        let delta = silo::dp_sgd(
            scratch.as_mut(),
            &global,
            &records,
            config.local_epochs,
            config.local_lr,
            config.clip_bound,
            config.sigma,
            sampling_rate,
            rng,
        );
        let mut acc = DeltaAccumulator::new(dim);
        acc.add(&delta);
        acc
    });
    let mut total = DeltaAccumulator::new(dim);
    for acc in per_silo {
        total.merge(acc);
    }
    let aggregate = total.finish();
    apply_update(model.as_mut(), &aggregate, config.global_lr, 1.0 / dataset.num_silos as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_util::{tiny_federation, tiny_model};
    use crate::config::{FlConfig, GroupSize, Method};

    fn rt() -> Runtime {
        Runtime::new(2)
    }

    #[test]
    fn flags_limit_records_per_user() {
        let dataset = tiny_federation(3, 5, 200);
        let k = 4;
        let flags = build_contribution_flags(&dataset, k);
        let mut per_user = vec![0u64; dataset.num_users];
        for (r, &keep) in dataset.records().iter().zip(flags.iter()) {
            if keep {
                per_user[r.user] += 1;
            }
        }
        assert!(per_user.iter().all(|&c| c <= k));
        // something survives
        assert!(flags.iter().any(|&f| f));
    }

    #[test]
    fn group_max_keeps_everything() {
        let dataset = tiny_federation(3, 5, 100);
        let k = resolve_group_size(&dataset, GroupSize::Max);
        let flags = build_contribution_flags(&dataset, k);
        assert!(flags.iter().all(|&f| f));
    }

    #[test]
    fn group_size_resolution() {
        let dataset = tiny_federation(2, 4, 50);
        assert_eq!(
            resolve_group_size(&dataset, GroupSize::Max),
            dataset.max_records_per_user() as u64
        );
        assert_eq!(
            resolve_group_size(&dataset, GroupSize::Median),
            dataset.median_records_per_user() as u64
        );
        assert_eq!(resolve_group_size(&dataset, GroupSize::Fixed(7)), 7);
    }

    #[test]
    fn accounting_size_rounds_down_to_power_of_two() {
        assert_eq!(accounting_group_size(1), 1);
        assert_eq!(accounting_group_size(2), 2);
        assert_eq!(accounting_group_size(3), 2);
        assert_eq!(accounting_group_size(7), 4);
        assert_eq!(accounting_group_size(8), 8);
        assert_eq!(accounting_group_size(100), 64);
    }

    #[test]
    fn group_round_learns_without_noise() {
        let dataset = tiny_federation(3, 10, 150);
        let mut model = tiny_model();
        let config = FlConfig {
            method: Method::UldpGroup { group_size: GroupSize::Max, sampling_rate: 1.0 },
            sigma: 0.0,
            clip_bound: 5.0,
            local_lr: 0.3,
            local_epochs: 5,
            ..Default::default()
        };
        let flags =
            build_contribution_flags(&dataset, resolve_group_size(&dataset, GroupSize::Max));
        for t in 0..5 {
            run_round(&rt(), &mut model, &dataset, &config, &flags, t);
        }
        let acc = uldp_ml::metrics::accuracy(model.as_ref(), &dataset.test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn default_chunking_keeps_one_fold_task_per_silo() {
        // One pooled task per silo: the gauge must see one accumulator per silo.
        let dataset = tiny_federation(3, 5, 60);
        let mut model = tiny_model();
        let config = FlConfig {
            method: Method::UldpGroup { group_size: GroupSize::Max, sampling_rate: 1.0 },
            sigma: 0.0,
            ..Default::default()
        };
        let flags =
            build_contribution_flags(&dataset, resolve_group_size(&dataset, GroupSize::Max));
        let rt = rt();
        rt.fold_gauge().reset();
        run_round(&rt, &mut model, &dataset, &config, &flags, 0);
        let dim = model.num_parameters();
        assert_eq!(rt.fold_gauge().last(), 3 * DeltaAccumulator::bytes(dim));
    }

    #[test]
    #[should_panic(expected = "flag vector length mismatch")]
    fn wrong_flag_length_rejected() {
        let dataset = tiny_federation(2, 4, 20);
        let mut model = tiny_model();
        let config = FlConfig {
            method: Method::UldpGroup { group_size: GroupSize::Fixed(2), sampling_rate: 0.5 },
            ..Default::default()
        };
        run_round(&rt(), &mut model, &dataset, &config, &[true, false], 0);
    }
}
