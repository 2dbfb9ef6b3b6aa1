use super::setup::rfc_group;
use super::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_bigint::modular::{mod_add, mod_mul};
use uldp_crypto::dh::DhGroup;

fn small_histogram() -> Vec<Vec<usize>> {
    // 3 silos, 4 users
    vec![vec![2, 0, 1, 3], vec![1, 4, 0, 1], vec![0, 2, 2, 0]]
}

fn test_config() -> ProtocolConfig {
    ProtocolConfig { paillier_bits: 256, dh_bits: 128, n_max: 16, ..Default::default() }
}

fn deltas_and_noise(
    histogram: &[Vec<usize>],
    dim: usize,
    seed: u64,
) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let deltas: Vec<Vec<Vec<f64>>> = histogram
        .iter()
        .map(|row| {
            row.iter()
                .map(|&c| {
                    if c == 0 {
                        Vec::new()
                    } else {
                        (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
                    }
                })
                .collect()
        })
        .collect();
    let noises: Vec<Vec<f64>> =
        histogram.iter().map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect()).collect();
    (deltas, noises)
}

/// The exact value a round decrypts to, computed in `BigUint` arithmetic from the
/// round's plaintext inputs alone: per coordinate `j`,
/// `Σ_s [Σ_u Encode(δ_suj)·n_su·(C_LCM/N_u) + Encode(z_sj)·C_LCM] mod n` over the
/// surviving silos and the sampled users holding a delta, decoded with the
/// protocol's codec and re-weighted by `|S| / |S_surviving|` as the round does.
/// No ciphertext or engine path is involved, so a round whose aggregate
/// matches it bit for bit computed exactly what the ciphertexts encode.
fn exact_aggregate(
    protocol: &PrivateWeightingProtocol,
    deltas: &[Vec<Vec<f64>>],
    noises: &[Vec<f64>],
    sampled: Option<&SampleMask>,
    dropped: &[bool],
) -> Vec<f64> {
    let Public { key, codec, c_lcm } = &*protocol.server.public;
    let n = &key.n;
    let surviving = dropped.iter().filter(|&&d| !d).count();
    let factor = protocol.num_silos() as f64 / surviving as f64;
    (0..noises[0].len())
        .map(|j| {
            let mut total = BigUint::zero();
            for silo in (0..protocol.num_silos()).filter(|&s| !dropped[s]) {
                for (u, delta) in deltas[silo].iter().enumerate() {
                    let n_su = protocol.silos[silo].histogram[u];
                    if delta.is_empty() || n_su == 0 || sampled.is_some_and(|m| !m.contains(u)) {
                        continue;
                    }
                    let weight = c_lcm.div(&BigUint::from_u64(protocol.user_totals[u]));
                    let term = codec.encode(delta[j]).mul(&BigUint::from_u64(n_su)).mul(&weight);
                    total = total.add(&term).rem(n);
                }
                total = total.add(&codec.encode(noises[silo][j]).mul(c_lcm)).rem(n);
            }
            codec.decode(&total, c_lcm) * factor
        })
        .collect()
}

fn assert_exact(out: &[f64], expected: &[f64], what: &str) {
    assert_eq!(
        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{what}: aggregate differs from the exact BigUint reference"
    );
}

#[test]
fn protocol_matches_plaintext_aggregation() {
    let mut rng = StdRng::seed_from_u64(1);
    let histogram = small_histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let (deltas, noises) = deltas_and_noise(&histogram, 4, 2);
    let (secure, timings) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    let reference = protocol.plaintext_reference(&deltas, &noises, None);
    for (a, b) in secure.iter().zip(reference.iter()) {
        assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
    }
    assert_exact(
        &secure,
        &exact_aggregate(&protocol, &deltas, &noises, None, &[false; 3]),
        "plain",
    );
    assert!(timings.total() > Duration::ZERO);
}

#[test]
fn subsampling_removes_unsampled_users_exactly() {
    let mut rng = StdRng::seed_from_u64(3);
    let histogram = small_histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let (deltas, noises) = deltas_and_noise(&histogram, 3, 4);
    let sampled = SampleMask::from_dense(vec![true, false, true, false]);
    let (secure, _) = protocol.weighting_round(&deltas, &noises, Some(&sampled), &mut rng);
    let reference = protocol.plaintext_reference(&deltas, &noises, Some(&sampled));
    for (a, b) in secure.iter().zip(reference.iter()) {
        assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
    }
    // and it differs from the un-sampled aggregate
    let full_reference = protocol.plaintext_reference(&deltas, &noises, None);
    let diff: f64 = reference.iter().zip(full_reference.iter()).map(|(a, b)| (a - b).abs()).sum();
    assert!(diff > 1e-3);
}

#[test]
fn reference_weights_match_record_proportional_strategy() {
    let mut rng = StdRng::seed_from_u64(5);
    let histogram = small_histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let weights = protocol.reference_weights();
    assert!((weights.get(0, 0) - 2.0 / 3.0).abs() < 1e-12);
    assert!((weights.get(1, 1) - 4.0 / 6.0).abs() < 1e-12);
    assert!(weights.satisfies_sensitivity_constraint(1e-9));
}

#[test]
fn setup_reports_timings_and_key_size() {
    let mut rng = StdRng::seed_from_u64(6);
    let protocol = PrivateWeightingProtocol::setup(&small_histogram(), &test_config(), &mut rng);
    assert!(protocol.setup_timings().total() > Duration::ZERO);
    assert!(protocol.modulus_bits() >= 255);
    assert_eq!(protocol.dh_group_bits(), test_config().dh_bits, "the custom DH group");
    assert_eq!(protocol.num_silos(), 3);
    assert_eq!(protocol.num_users(), 4);
    assert_eq!(protocol.pair_seeds(0).len(), 3);
    assert_eq!(protocol.pair_seeds(0)[2], protocol.pair_seeds(2)[0]);
}

#[test]
fn oblivious_subsampling_always_selected_matches_full_round() {
    // numerator == denominator: every user is selected, so the result must equal the
    // plaintext reference with no mask.
    let mut rng = StdRng::seed_from_u64(31);
    let histogram = small_histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let (deltas, noises) = deltas_and_noise(&histogram, 3, 32);
    let sampling = ObliviousSubsampling::new(4, 4);
    let (secure, report) = protocol.weighting_round(&deltas, &noises, sampling, &mut rng);
    assert!(report.selected.expect("oblivious rounds report the selection").iter().all(|&f| f));
    let reference = protocol.plaintext_reference(&deltas, &noises, None);
    for (a, b) in secure.iter().zip(reference.iter()) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
    let exact = exact_aggregate(&protocol, &deltas, &noises, None, &[false; 3]);
    assert_exact(&secure, &exact, "oblivious, all selected");
}

#[test]
fn oblivious_subsampling_never_selected_leaves_only_noise() {
    let mut rng = StdRng::seed_from_u64(33);
    let histogram = small_histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let (deltas, noises) = deltas_and_noise(&histogram, 3, 34);
    let sampling = ObliviousSubsampling::new(0, 4);
    let (secure, report) = protocol.weighting_round(&deltas, &noises, sampling, &mut rng);
    let selected = report.selected.expect("oblivious rounds report the selection");
    assert!(selected.iter().all(|&f| !f));
    // Only the per-silo noise survives.
    let no_deltas = vec![vec![Vec::new(); protocol.num_users()]; protocol.num_silos()];
    let noise_only = protocol.plaintext_reference(&no_deltas, &noises, None);
    for (a, b) in secure.iter().zip(noise_only.iter()) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
    let none = SampleMask::from_dense(selected);
    let exact = exact_aggregate(&protocol, &deltas, &noises, Some(&none), &[false; 3]);
    assert_exact(&secure, &exact, "oblivious, none selected");
}

#[test]
fn oblivious_subsampling_matches_plaintext_for_realised_selection() {
    let mut rng = StdRng::seed_from_u64(35);
    let histogram = small_histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let (deltas, noises) = deltas_and_noise(&histogram, 3, 36);
    let sampling = ObliviousSubsampling::new(1, 2);
    assert!((sampling.probability() - 0.5).abs() < 1e-12);
    let (secure, report) = protocol.weighting_round(&deltas, &noises, sampling, &mut rng);
    let mask = SampleMask::from_dense(report.selected.expect("oblivious selection"));
    let reference = protocol.plaintext_reference(&deltas, &noises, Some(&mask));
    for (a, b) in secure.iter().zip(reference.iter()) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
    let exact = exact_aggregate(&protocol, &deltas, &noises, Some(&mask), &[false; 3]);
    assert_exact(&secure, &exact, "oblivious, realised selection");
}

#[test]
fn weighting_round_is_bitwise_identical_across_thread_counts() {
    let histogram = small_histogram();
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = ProtocolConfig { threads, ..test_config() };
        let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 42);
        let (out, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
        out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    };
    let sequential = run(1);
    assert_eq!(sequential, run(2));
    assert_eq!(sequential, run(4));
}

#[test]
fn oblivious_round_is_bitwise_identical_across_thread_counts() {
    let histogram = small_histogram();
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(13);
        let cfg = ProtocolConfig { threads, ..test_config() };
        let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 14);
        let sampling = ObliviousSubsampling::new(1, 2);
        let (out, report) = protocol.weighting_round(&deltas, &noises, sampling, &mut rng);
        (out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(), report.selected)
    };
    let sequential = run(1);
    assert_eq!(sequential, run(2));
    assert_eq!(sequential, run(4));
}

#[test]
#[should_panic(expected = "numerator must not exceed denominator")]
fn oblivious_subsampling_rejects_invalid_fraction() {
    let _ = ObliviousSubsampling::new(3, 2);
}

#[test]
fn oblivious_slot_layout_is_exactly_uniform() {
    // A uniform rotation makes every choice real with probability numerator / P,
    // and a uniform choice does so for every rotation: neither half alone decides.
    for p in [1u64, 2, 7] {
        for numerator in 0..=p {
            let ot = ObliviousSubsampling::new(numerator, p);
            for fixed in 0..p {
                let rotations = (0..p).filter(|&o| ot.is_real(fixed, o)).count() as u64;
                let choices = (0..p).filter(|&c| ot.is_real(c, fixed)).count() as u64;
                assert_eq!(rotations, numerator, "P = {p}, choice {fixed}");
                assert_eq!(choices, numerator, "P = {p}, rotation {fixed}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "exceeds N_max")]
fn rejects_user_totals_above_n_max() {
    let mut rng = StdRng::seed_from_u64(7);
    let histogram = vec![vec![20usize], vec![20usize]];
    let cfg = ProtocolConfig { n_max: 8, paillier_bits: 128, dh_bits: 64, ..Default::default() };
    let _ = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
}

#[test]
#[should_panic(expected = "C_LCM·⌈1/P⌉ must stay below n/2")]
fn rejects_an_n_max_the_key_cannot_hold() {
    // C_LCM(200) has 298 bits, more than a 256-bit modulus holds.
    let mut rng = StdRng::seed_from_u64(9);
    let cfg = ProtocolConfig { n_max: 200, paillier_bits: 256, dh_bits: 64, ..Default::default() };
    let _ = PrivateWeightingProtocol::setup(&[vec![1], vec![1]], &cfg, &mut rng);
}

#[test]
#[should_panic(expected = "dh_bits = 512 would be ignored")]
fn rejects_dh_bits_with_the_rfc_group() {
    let cfg = ProtocolConfig { use_rfc_group: true, dh_bits: 512, ..test_config() };
    let mut rng = StdRng::seed_from_u64(10);
    let _ = PrivateWeightingProtocol::setup(&small_histogram(), &cfg, &mut rng);
}

#[test]
fn rfc_group_matches_the_paillier_key() {
    assert_eq!(rfc_group(512), DhGroup::rfc3526_2048());
    assert_eq!(rfc_group(2048), DhGroup::rfc3526_2048());
    assert_eq!(rfc_group(2049), DhGroup::rfc3526_3072());
    assert_eq!(rfc_group(3072), DhGroup::rfc3526_3072());
}

#[test]
#[should_panic(expected = "dh_bits = 32 is below the 64-bit minimum")]
fn rejects_a_custom_dh_group_below_64_bits() {
    let cfg = ProtocolConfig { dh_bits: 32, ..test_config() };
    let mut rng = StdRng::seed_from_u64(11);
    let _ = PrivateWeightingProtocol::setup(&small_histogram(), &cfg, &mut rng);
}

#[test]
#[should_panic(expected = "at least two silos")]
fn rejects_single_silo() {
    let mut rng = StdRng::seed_from_u64(8);
    let _ = PrivateWeightingProtocol::setup(&[vec![1, 2]], &test_config(), &mut rng);
}

fn faulted_config(plan: FaultPlan) -> ProtocolConfig {
    ProtocolConfig { fault_plan: plan, ..test_config() }
}

#[test]
#[should_panic(expected = "must have byzantine_fraction 0")]
fn setup_rejects_a_byzantine_fault_plan() {
    // Protocol 1 receives already-clipped deltas, so it cannot corrupt them before
    // clipping; a plan asking for it is rejected rather than silently ignored.
    let plan = FaultPlan { byzantine_fraction: 0.5, ..FaultPlan::none() };
    let mut rng = StdRng::seed_from_u64(59);
    let _ = PrivateWeightingProtocol::setup(&small_histogram(), &faulted_config(plan), &mut rng);
}

#[test]
fn fault_plan_applies_under_every_sampling_mode() {
    // One protocol, rounds 0..6 cycling through oblivious, mask and
    // unsampled rounds: round t drops exactly the plan's round-t silo whatever the
    // sampling, and every aggregate is the exact surviving-silo reference.
    let histogram = wide_histogram();
    let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
    let mut rng = StdRng::seed_from_u64(61);
    let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
    let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
    for round in 0..6u64 {
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 62 + round);
        let (out, report) = match round % 3 {
            0 => protocol.weighting_round(
                &deltas,
                &noises,
                ObliviousSubsampling::new(1, 2),
                &mut rng,
            ),
            1 => protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng),
            _ => protocol.weighting_round(&deltas, &noises, None, &mut rng),
        };
        assert_eq!(report.dropped, plan.dropped_silos(round, 2), "round {round}");
        assert_eq!(report.dropped.iter().filter(|&&d| d).count(), 1, "round {round}");
        let sampled = match report.selected {
            Some(selected) => Some(SampleMask::from_dense(selected)),
            None => (round % 3 == 1).then(|| mask.clone()),
        };
        let exact = exact_aggregate(&protocol, &deltas, &noises, sampled.as_ref(), &report.dropped);
        assert_exact(&out, &exact, &format!("faulted round {round}"));
    }
}

#[test]
fn dropout_reweights_surviving_homomorphic_sum_exactly() {
    // A dropped silo's cells are excluded from the homomorphic fold; the decrypted
    // aggregate must equal the surviving-silo plaintext reference (re-weighted by
    // |S|/|S_surviving|) and — before the common re-weighting factor — be bitwise
    // identical to a plain round where the dropped silo's inputs are explicit zeros,
    // run on a fault-free twin set up from the same seed.
    let histogram = small_histogram();
    let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
    let mut rng = StdRng::seed_from_u64(53);
    let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
    let twin =
        PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut StdRng::seed_from_u64(53));
    let (deltas, noises) = deltas_and_noise(&histogram, 4, 54);
    for _ in 0..3 {
        let _ = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    }
    let round_rng = rng.clone();
    let (faulted, report) =
        protocol.weighting_round(&deltas, &noises, None, &mut round_rng.clone());
    let dropped = report.dropped;
    assert_eq!(dropped.iter().filter(|&&d| d).count(), 1, "0.4 of 3 silos rounds to one");

    let reference = protocol.plaintext_reference_faulted(&deltas, &noises, None, &dropped);
    for (a, b) in faulted.iter().zip(reference.iter()) {
        assert!((a - b).abs() < 1e-6, "faulted {a} vs surviving reference {b}");
    }
    // And the re-weighted aggregate genuinely differs from the full-participation one.
    let full = protocol.plaintext_reference(&deltas, &noises, None);
    let diff: f64 = reference.iter().zip(full.iter()).map(|(a, b)| (a - b).abs()).sum();
    assert!(diff > 1e-3, "dropout must change the aggregate");

    // Bitwise exactness of the fold: dropping silo s equals zeroing silo s's inputs.
    let mut zeroed_deltas = deltas.clone();
    let mut zeroed_noises = noises.clone();
    for (silo, &gone) in dropped.iter().enumerate() {
        if gone {
            zeroed_deltas[silo] = vec![Vec::new(); protocol.num_users()];
            zeroed_noises[silo] = vec![0.0; 4];
        }
    }
    let (zeroed, _) =
        twin.weighting_round(&zeroed_deltas, &zeroed_noises, None, &mut round_rng.clone());
    let surviving = dropped.iter().filter(|&&d| !d).count();
    let factor = protocol.num_silos() as f64 / surviving as f64;
    let rescaled: Vec<u64> = zeroed.iter().map(|v| (v * factor).to_bits()).collect();
    assert_eq!(faulted.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), rescaled);
}

#[test]
fn faulted_round_is_bitwise_identical_across_threads_and_chunks() {
    let histogram = small_histogram();
    let plan = FaultPlan { dropout_fraction: 0.4, seed: 5, ..FaultPlan::none() };
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(55);
        let cfg = ProtocolConfig { threads, ..faulted_config(plan) };
        let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 56);
        (0..2)
            .map(|_| {
                let (out, report) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
                (out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(), report.dropped)
            })
            .collect::<Vec<_>>()
    };
    let sequential = run(1);
    for threads in [2, 4] {
        assert_eq!(sequential, run(threads), "threads={threads}");
    }
}

#[test]
fn cached_rounds_match_fresh_encryption_rounds_bitwise() {
    // Eight rounds of the same setup, identical caller RNG streams: the default
    // protocol sends nothing in rounds 2..8, whose silos weigh from the pairs held
    // since round 1, while the `fresh_encrypt` instance encrypts every round. At 1
    // and 4 threads, every aggregate must hit the exact reference, so both agree bit
    // for bit.
    let histogram = small_histogram();
    let mut runs = Vec::new();
    for (threads, fresh_encrypt) in [(1, false), (1, true), (4, false), (4, true)] {
        let mut rng = StdRng::seed_from_u64(91);
        let cfg = ProtocolConfig { threads, fresh_encrypt, ..test_config() };
        let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
        let mut rounds = Vec::new();
        for round in 0..8u64 {
            let (deltas, noises) = deltas_and_noise(&histogram, 4, 92 + round);
            let (out, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
            let what = format!("threads {threads} fresh {fresh_encrypt} round {round}");
            let reference = protocol.plaintext_reference(&deltas, &noises, None);
            for (a, b) in out.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-6, "{what}: secure {a} vs plaintext {b}");
            }
            let exact = exact_aggregate(&protocol, &deltas, &noises, None, &[false; 3]);
            assert_exact(&out, &exact, &what);
            // Default: round 1 encrypts all 4 users, later rounds weigh all 4 from
            // held pairs. `fresh_encrypt`: every round encrypts everything.
            let stats = if round == 0 || fresh_encrypt { (4, 0) } else { (0, 4) };
            assert_eq!(protocol.round_cache_stats(), stats, "{what}");
            rounds.push(out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
        }
        runs.push(rounds);
    }
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "aggregates must not depend on holding");
}

#[test]
fn round_report_phases_are_measured_time() {
    // The reported phases are timed spans inside the call, so together they can
    // never exceed the call's own wall-clock time, with or without dropouts.
    let histogram = small_histogram();
    let (deltas, noises) = deltas_and_noise(&histogram, 3, 58);
    let plan = FaultPlan { dropout_fraction: 0.4, seed: 5, ..FaultPlan::none() };
    for (cfg, drops) in [(test_config(), 0), (faulted_config(plan), 1)] {
        let mut rng = StdRng::seed_from_u64(57);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
        for _ in 0..2 {
            let start = std::time::Instant::now();
            let (_, report) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
            let wall = start.elapsed();
            assert_eq!(report.dropped.iter().filter(|&&d| d).count(), drops);
            assert!(report.total() <= wall, "{:?} reported > {wall:?} measured", report);
        }
    }
}

fn wide_histogram() -> Vec<Vec<usize>> {
    // 2 silos, 13 users; user 11 holds no records anywhere.
    vec![vec![1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1], vec![2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 1]]
}

#[test]
fn mask_rounds_match_the_exact_reference_across_rounds() {
    // Three rounds under one mask, whose sampled user 11 holds no records: every
    // aggregate equals the exact reference bit for bit and the plaintext one to 1e-6.
    let histogram = wide_histogram();
    let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
    let mut rng = StdRng::seed_from_u64(61);
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    for round in 0..3u64 {
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 62 + round);
        let (out, _) = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&mask));
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "round {round}: secure {a} vs plaintext {b}");
        }
        let exact = exact_aggregate(&protocol, &deltas, &noises, Some(&mask), &[false; 2]);
        assert_exact(&out, &exact, &format!("mask round {round}"));
    }
}

#[test]
fn mask_rounds_send_the_sample_whoever_holds_records() {
    // Theorem 5: a silo learns nothing of the other silos' histograms. Two federations
    // differ only in silo 1's entry for the sampled user 11, who has no records in
    // silo 0. Step 2.(a) sends both exactly the sampled ids, so silo 0 cannot tell
    // whether silo 1 holds user 11.
    let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
    for records in [0, 3] {
        let mut histogram = wide_histogram();
        histogram[1][11] = records;
        let mut rng = StdRng::seed_from_u64(67);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 2, 68);
        let (out, _) = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
        let what = format!("silo 1 holds {records} records of user 11");
        assert_eq!(protocol.round_cache_stats(), (mask.sampled_count(), 0), "{what}");
        let exact = exact_aggregate(&protocol, &deltas, &noises, Some(&mask), &[false; 2]);
        assert_exact(&out, &exact, &what);
    }
}

#[test]
fn mask_round_sends_the_public_encryption_of_each_users_stream() {
    // The server encrypts by CRT with its factors. What step 2.(a) sends is bit for
    // bit the public `key.encrypt` on each sampled user's `(batch seed, u)` stream,
    // `Enc(0)` for user 11, who holds no records, and the round takes that one batch
    // seed from the caller's RNG.
    let histogram = wide_histogram();
    let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
    let mut rng = StdRng::seed_from_u64(71);
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let server = &protocol.server;
    let mut round_rng = rng.clone();
    let batch_seed = seeding::wide_seed_from_rng(&mut rng);
    let sent = server.send_inverses(protocol.runtime(), Sampling::Mask(&mask), batch_seed);
    assert_eq!(sent.users, [2, 7, 11]);
    let (deltas, noises) = deltas_and_noise(&histogram, 2, 72);
    let _ = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut round_rng);
    assert_eq!(rng.gen::<u64>(), round_rng.gen::<u64>(), "a round draws one batch seed");
    assert!(server.blinded_inverses[11].is_none(), "user 11 holds no records");
    for (&u, sent) in sent.users.iter().zip(&sent.ciphertexts) {
        let mut user_rng = StdRng::from_seed(seeding::index_seed_wide(batch_seed, u as u64));
        let inverse = server.blinded_inverses[u as usize].clone().unwrap_or_default();
        assert_eq!(*sent, server.public.key.encrypt(&mut user_rng, &inverse), "user {u}");
    }
}

#[test]
#[should_panic(expected = "mask over another population")]
fn mask_over_another_population_is_rejected() {
    // A 10-user mask on the 13-user federation would silently leave users 10–12 out.
    let histogram = wide_histogram();
    let mut rng = StdRng::seed_from_u64(69);
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let (deltas, noises) = deltas_and_noise(&histogram, 2, 70);
    let mask = SampleMask::from_sorted_indices(10, vec![2, 7]);
    let _ = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
}

#[test]
fn q1_rounds_encrypt_once_and_mask_rounds_encrypt_afresh() {
    // One protocol whose plan drops one of its two silos every round, and a
    // `fresh_encrypt` twin set up and driven from identical RNG streams. Mask rounds
    // encrypt exactly their sampled users afresh and leave nothing held. The
    // first q = 1 round encrypts every user, and the silos derive `[b_u, b_u⁻¹]` for
    // every user holding records: also for those only the dropped silo holds and for
    // user 0, who sends no delta that round. Every later q = 1 round sends nothing
    // and derives nothing, although each follows a dropout round, and a mask round
    // in between still encrypts afresh. The twin encrypts and derives afresh every
    // round. Every aggregate of both is exact, so they agree bit for bit.
    let histogram = wide_histogram();
    let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
    let mut rng = StdRng::seed_from_u64(97);
    let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
    let mut twin_rng = StdRng::seed_from_u64(97);
    let fresh_config = ProtocolConfig { fresh_encrypt: true, ..faulted_config(plan) };
    let twin = PrivateWeightingProtocol::setup(&histogram, &fresh_config, &mut twin_rng);
    let few = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
    let most = SampleMask::from_dense((0..13).map(|u| u % 3 != 0).collect());
    let ct_bytes = (2 * protocol.modulus_bits()).div_ceil(64) * 8;
    // (sampling, (encrypted, held), entries held after the round, held bytes in
    // units of ct_bytes). A mask round sends its sampled users, user 11 included
    // although nobody holds records of it, and the held set is the silos' 12 pairs of
    // two values each; the server holds nothing.
    let schedule = [
        (Some(&few), (3, 0), 0, 0),
        (Some(&most), (8, 0), 0, 0),
        (None, (13, 0), 12, 2 * 12),
        (None, (0, 13), 12, 24),
        (Some(&few), (3, 0), 12, 24),
        (None, (0, 13), 12, 24),
    ];
    let (mut filling_drop, mut orphans_weighed) = (None, false);
    for (round, (sampled, sent, entries, widths)) in schedule.into_iter().enumerate() {
        let (mut deltas, noises) = deltas_and_noise(&histogram, 3, 98 + round as u64);
        if round == 2 {
            for silo in &mut deltas {
                silo[0].clear();
            }
        }
        let (out, report) = protocol.weighting_round(&deltas, &noises, sampled, &mut rng);
        let (fresh, fresh_report) = twin.weighting_round(&deltas, &noises, sampled, &mut twin_rng);
        let what = format!("round {round}");
        assert_eq!(report.dropped, fresh_report.dropped, "{what}");
        let dropped = report.dropped.iter().position(|&d| d).expect("one silo drops");
        assert_eq!(report.dropped.iter().filter(|&&d| d).count(), 1, "{what}");
        assert_eq!(protocol.round_cache_stats(), sent, "{what}");
        assert_eq!(protocol.cached_entry_count(), entries, "{what}");
        assert_eq!(protocol.cached_state_bytes(), widths * ct_bytes, "{what}");
        assert_eq!(twin.round_cache_stats(), (sent.0 + sent.1, 0), "{what}: twin");
        assert_eq!((twin.cached_entry_count(), twin.cached_state_bytes()), (0, 0), "{what}");
        match (round, filling_drop) {
            (2, _) => filling_drop = Some(dropped),
            (3 | 5, Some(filled)) => orphans_weighed |= dropped != filled,
            _ => {}
        }
        let exact = exact_aggregate(&protocol, &deltas, &noises, sampled, &report.dropped);
        assert_exact(&out, &exact, &what);
        assert_exact(&fresh, &out, &format!("{what}: fresh_encrypt twin"));
    }
    // Users 1, 4, 7 and 10 hold records only in silo 0, users 2, 5 and 8 only in
    // silo 1: a later q = 1 round in which the filling round's dropped silo survives
    // weighs users the filling round weighed nobody for.
    assert!(orphans_weighed, "a later q = 1 round weighs the filling round's dropped silo");
}

/// Steps 1.(d)–(e) as the paper states them: each silo blinds each of its counts
/// with its own `blind` call (one factor expansion and one `gcd` each), and the
/// server sums the blinded values mod `n`.
fn schoolbook_blinded_totals(protocol: &PrivateWeightingProtocol) -> Vec<BigUint> {
    let n = &protocol.server.public.key.n;
    (0..protocol.num_users())
        .map(|u| {
            protocol.silos.iter().fold(BigUint::zero(), |total, silo| {
                let count = BigUint::from_u64(silo.histogram[u]);
                mod_add(&total, &protocol.common.blinder.blind(u as u64, &count), n)
            })
        })
        .collect()
}

#[test]
fn setup_blinds_exactly_as_the_schoolbook_per_silo_blinding() {
    // Two full blocks, a ragged third and users without records; the server's
    // blinded inverses are those of the schoolbook totals, bit for bit.
    use uldp_bigint::modular::mod_inv;
    let users = 2 * SETUP_BLOCK + 37;
    let records = |s: usize, u: usize| if u.is_multiple_of(10) { 0 } else { (u + s) % 3 };
    let histogram: Vec<Vec<usize>> =
        (0..3).map(|s| (0..users).map(|u| records(s, u)).collect()).collect();
    for threads in [1, 3] {
        let config = ProtocolConfig { threads, ..test_config() };
        let protocol =
            PrivateWeightingProtocol::setup(&histogram, &config, &mut StdRng::seed_from_u64(9));
        let n = &protocol.server.public.key.n;
        let expected: Vec<Option<BigUint>> =
            schoolbook_blinded_totals(&protocol).iter().map(|t| mod_inv(t, n)).collect();
        assert!(expected.iter().any(Option::is_none), "some user holds no records");
        assert_eq!(protocol.server.blinded_inverses, expected, "{threads} threads");
    }
}

#[test]
fn sent_cells_are_rerandomised_beyond_what_the_server_can_rebuild() {
    // The bare cell ∏ b_u^{±n_su·x} · Enc(noise) is a function of what the server
    // sent, R and the silo's inputs: rebuilt here independently with the schoolbook
    // mod_pow/mod_inv, it matches bare_cell bit for bit. The cell a silo sends
    // decrypts to the same plaintext but carries fresh randomness from the silo's
    // private stream: deterministic per (round, coordinate), different across them.
    use uldp_bigint::modular::{mod_inv, mod_pow};
    let mut rng = StdRng::seed_from_u64(111);
    let histogram = small_histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let (mut deltas, noises) = deltas_and_noise(&histogram, 4, 112);
    // User 3 holds records but sends no delta: no table, yet a held pair.
    for silo in &mut deltas {
        silo[3].clear();
    }
    let (rt, common) = (protocol.runtime(), &protocol.common);
    let seed = seeding::wide_seed_from_rng(&mut rng);
    let sent = protocol.server.send_inverses(rt, Sampling::All, seed);
    let participants: Vec<Vec<(usize, usize)>> = protocol
        .silos
        .iter()
        .zip(&deltas)
        .map(|(silo, d)| silo.participants(&sent.users, d))
        .collect();
    let derive = |hold| common.receive(rt, &protocol.silos, &sent, &participants, &deltas, hold);
    let received = derive(false);
    let from_held = derive(true);
    let held = common.held_pairs.get().expect("the first held round fills the set");
    assert!(held.iter().all(Option::is_some), "every user of this histogram holds records");
    assert!(received.tables[3].is_none() && from_held.tables[3].is_none());
    let Public { key, codec, c_lcm } = &*protocol.server.public;
    let (n, n2) = (&key.n, &key.n_squared);
    let mut negative_terms = 0;
    for ((s, silo), participants) in protocol.silos.iter().enumerate().zip(&participants) {
        for j in 0..4 {
            let mut rebuilt = BigUint::one();
            for &(i, u) in participants {
                let f = mod_mul(&common.blinder.factor(u as u64), c_lcm, n);
                let b = mod_pow(&sent.ciphertexts[i].0, &f, n2);
                let n_su = BigUint::from_u64(silo.histogram[u]);
                let x = codec.encode(deltas[s][u][j]);
                let term = if x <= n.shr_bits(1) {
                    mod_pow(&b, &n_su.mul(&x), n2)
                } else {
                    negative_terms += 1;
                    let b_inv = mod_inv(&b, n2).expect("ciphertexts are units");
                    mod_pow(&b_inv, &n_su.mul(&n.sub(&x)), n2)
                };
                rebuilt = mod_mul(&rebuilt, &term, n2);
            }
            let noise = mod_mul(&codec.encode(noises[s][j]), c_lcm, n);
            let rebuilt = key.add_plain(&Ciphertext(rebuilt), &noise);
            let bare = silo.bare_cell(common, &received, participants, &deltas[s], noises[s][j], j);
            assert_eq!(bare, rebuilt, "silo {s} coordinate {j}: bare cell");
            let held_bare =
                silo.bare_cell(common, &from_held, participants, &deltas[s], noises[s][j], j);
            assert_eq!(held_bare, bare, "silo {s} coordinate {j}: from the held pairs");
            let sent =
                silo.weigh_cell(common, &received, participants, &deltas[s], noises[s][j], 0, j);
            assert_ne!(sent, bare, "silo {s} coordinate {j}: the sent cell is re-randomised");
            let secret = &protocol.server.secret;
            assert_eq!(secret.decrypt(&sent), secret.decrypt(&bare));
            let again =
                silo.weigh_cell(common, &received, participants, &deltas[s], noises[s][j], 0, j);
            assert_eq!(sent, again, "the output stream is deterministic");
            let next_round =
                silo.weigh_cell(common, &received, participants, &deltas[s], noises[s][j], 1, j);
            assert_ne!(sent, next_round, "every round draws fresh output randomness");
        }
    }
    assert!(negative_terms > 0, "some deltas must take the b_u⁻¹ form");
}

#[test]
fn sent_cell_signs_do_not_follow_the_bare_cell() {
    // The key holder can recover a cell's randomness mod n with p and q and read its
    // Legendre symbols mod each. Across rounds, one bare cell (fixed symbols) goes out
    // with all four symbol pairs: its symbols do not reach the key holder.
    use uldp_bigint::modular::{mod_inv, mod_pow};
    let mut rng = StdRng::seed_from_u64(113);
    let histogram = small_histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let (deltas, noises) = deltas_and_noise(&histogram, 1, 114);
    let (rt, common) = (protocol.runtime(), &protocol.common);
    let sent =
        protocol.server.send_inverses(rt, Sampling::All, seeding::wide_seed_from_rng(&mut rng));
    let silo = protocol.silos.first().expect("three silos");
    let participants = silo.participants(&sent.users, &deltas[0]);
    let all: Vec<_> = protocol.silos.iter().map(|_| participants.clone()).collect();
    let received = common.receive(rt, &protocol.silos, &sent, &all, &deltas, false);
    let (p, q) = protocol.server.secret.primes();
    let n = &protocol.server.public.key.n;
    let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
    let n_inv = mod_inv(n, &phi).expect("gcd(n, φ(n)) = 1");
    let signs = |c: &Ciphertext| {
        let r = mod_pow(&c.0.rem(n), &n_inv, n);
        let euler = |m: &BigUint| mod_pow(&r, &m.shr_bits(1), m).is_one();
        usize::from(euler(p)) << 1 | usize::from(euler(q))
    };
    let bare = silo.bare_cell(common, &received, &participants, &deltas[0], noises[0][0], 0);
    let mut seen = [0usize; 4];
    for round in 0..48 {
        let sent =
            silo.weigh_cell(common, &received, &participants, &deltas[0], noises[0][0], round, 0);
        seen[signs(&sent)] += 1;
    }
    assert!(seen.iter().all(|&k| k > 0), "bare {:02b}, sent {seen:?}", signs(&bare));
}

#[test]
fn server_steps_run_from_messages_alone() {
    // The trust boundary. A server rebuilt from its keys and the blinded totals of the
    // silos' schoolbook rows (step 1.(f)) holds the setup's blinded inverses bit for bit.
    // Driven by messages alone, the sampling and batch seed for step 2.(a) and the
    // coordinate totals of the cells that reached it for step 2.(c), it then returns
    // each round's aggregate bit for bit: under a mask, at q = 1 and obliviously, with
    // one of the two silos dropping every round.
    let histogram = wide_histogram();
    let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
    let mut rng = StdRng::seed_from_u64(121);
    let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
    let (rt, common, key) = (protocol.runtime(), &protocol.common, &protocol.common.public.key);
    let (public, secret) = (Arc::clone(&protocol.server.public), protocol.server.secret.clone());
    let server = Server::new(public, secret, &schoolbook_blinded_totals(&protocol));
    assert_eq!(server.blinded_inverses, protocol.server.blinded_inverses, "step 1.(f)");
    let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
    let ot = ObliviousSubsampling::new(1, 2);
    let samplings = [Sampling::Mask(&mask), Sampling::All, Sampling::Oblivious(ot)];
    for (round, sampling) in (0u64..).zip(samplings) {
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 122 + round);
        let batch_seed = seeding::wide_seed_from_rng(&mut rng.clone());
        let (expected, report) = protocol.weighting_round(&deltas, &noises, sampling, &mut rng);
        let sent = match sampling {
            Sampling::Oblivious(ot) => {
                let offers = server.offer_inverses(rt, ot, batch_seed);
                let choice = |u| common.ot_choice(round, u, ot.denominator);
                let (sent, selected) = ot.transfer(offers, choice);
                assert_eq!(Some(selected), report.selected, "round {round}");
                sent
            }
            _ => server.send_inverses(rt, sampling, batch_seed),
        };
        let dropped = &report.dropped;
        let participants: Vec<Vec<(usize, usize)>> = (protocol.silos.iter().zip(&deltas))
            .zip(dropped)
            .map(|((silo, d), &gone)| if gone { vec![] } else { silo.participants(&sent.users, d) })
            .collect();
        let received = common.receive(rt, &protocol.silos, &sent, &participants, &deltas, false);
        let totals: Vec<Ciphertext> = (0..3)
            .map(|j| {
                (0..2)
                    .filter(|&s| !dropped[s])
                    .map(|s| {
                        let (silo, parts, noise) =
                            (&protocol.silos[s], &participants[s], noises[s][j]);
                        silo.weigh_cell(common, &received, parts, &deltas[s], noise, round, j)
                    })
                    .reduce(|total, cell| key.add(&total, &cell))
                    .expect("one silo survives")
            })
            .collect();
        let out = server.aggregate(rt, &totals, dropped);
        assert_exact(&out, &expected, &format!("round {round}: steps 2.(a)–(c) from messages"));
    }
}

#[test]
#[should_panic(expected = "delta dimensionality mismatch")]
fn plaintext_reference_rejects_a_delta_of_the_wrong_length() {
    // `weighting_round` rejects these inputs; the reference must not truncate them.
    let mut rng = StdRng::seed_from_u64(131);
    let histogram = small_histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
    let (mut deltas, noises) = deltas_and_noise(&histogram, 3, 132);
    deltas[0][0].pop();
    let _ = protocol.plaintext_reference_faulted(&deltas, &noises, None, &[false; 3]);
}
