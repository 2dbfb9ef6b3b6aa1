//! Integration tests of the private weighting protocol against the rest of the framework:
//! Protocol 1 must compute exactly the aggregate that the plaintext ULDP-AVG-w path
//! computes, for realistic histograms produced by the dataset generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::core::WeightMatrix;
use uldp_fl::core::{PrivateWeightingProtocol, ProtocolConfig, SampleMask, WeightingStrategy};
use uldp_fl::datasets::heart_disease::{self, HeartDiseaseConfig};
use uldp_fl::datasets::Allocation;

fn protocol_config() -> ProtocolConfig {
    ProtocolConfig { paillier_bits: 384, dh_bits: 128, n_max: 128, ..Default::default() }
}

fn random_deltas(
    histogram: &[Vec<usize>],
    dim: usize,
    rng: &mut StdRng,
) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>) {
    let deltas = histogram
        .iter()
        .map(|row| {
            row.iter()
                .map(|&c| {
                    if c == 0 {
                        Vec::new()
                    } else {
                        (0..dim).map(|_| rng.gen_range(-0.5..0.5)).collect()
                    }
                })
                .collect()
        })
        .collect();
    let noises =
        histogram.iter().map(|_| (0..dim).map(|_| rng.gen_range(-0.05..0.05)).collect()).collect();
    (deltas, noises)
}

#[test]
fn protocol_agrees_with_plaintext_on_a_real_histogram() {
    // Use the HeartDisease generator's histogram (zipf allocation) so the protocol is
    // exercised with a realistic skewed user distribution.
    let mut rng = StdRng::seed_from_u64(21);
    let dataset = heart_disease::generate(
        &mut rng,
        &HeartDiseaseConfig {
            num_users: 12,
            silo_sizes: vec![40, 35, 10, 20],
            allocation: Allocation::zipf_default(),
            ..Default::default()
        },
    );
    let histogram = dataset.histogram();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &protocol_config(), &mut rng);
    let (deltas, noises) = random_deltas(&histogram, 6, &mut rng);
    let (secure, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    let plaintext = protocol.plaintext_reference(&deltas, &noises, None);
    for (a, b) in secure.iter().zip(plaintext.iter()) {
        assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
    }
}

#[test]
fn protocol_weights_match_record_proportional_weight_matrix() {
    let mut rng = StdRng::seed_from_u64(22);
    let histogram = vec![vec![3usize, 1, 0, 5], vec![1, 0, 2, 5], vec![0, 4, 2, 0]];
    let protocol = PrivateWeightingProtocol::setup(&histogram, &protocol_config(), &mut rng);
    let expected = WeightMatrix::from_histogram(WeightingStrategy::RecordProportional, &histogram);
    let actual = protocol.reference_weights();
    for s in 0..histogram.len() {
        for u in 0..histogram[0].len() {
            assert!((expected.get(s, u) - actual.get(s, u)).abs() < 1e-12);
        }
    }
}

#[test]
fn protocol_rounds_are_repeatable_across_rounds() {
    // The same setup must serve multiple rounds and still agree with the plaintext
    // reference each time — round 1 from fresh encryptions, later rounds from the
    // cross-round cache's re-randomised ciphertexts.
    let mut rng = StdRng::seed_from_u64(23);
    let histogram = vec![vec![2usize, 3, 1], vec![1, 0, 4]];
    let protocol = PrivateWeightingProtocol::setup(&histogram, &protocol_config(), &mut rng);
    for round in 0..3 {
        let (deltas, noises) = random_deltas(&histogram, 4, &mut rng);
        let (secure, timings) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
        let plaintext = protocol.plaintext_reference(&deltas, &noises, None);
        for (a, b) in secure.iter().zip(plaintext.iter()) {
            assert!((a - b).abs() < 1e-6, "round {round}: {a} vs {b}");
        }
        assert!(timings.silo_weighting >= std::time::Duration::ZERO);
    }
}

#[test]
fn protocol_handles_users_with_no_records() {
    // A user with zero records everywhere has no blinded inverse; their slot must simply
    // contribute nothing rather than corrupting the aggregate.
    let mut rng = StdRng::seed_from_u64(24);
    let histogram = vec![vec![2usize, 0, 3], vec![1, 0, 1]];
    let protocol = PrivateWeightingProtocol::setup(&histogram, &protocol_config(), &mut rng);
    let (deltas, noises) = random_deltas(&histogram, 3, &mut rng);
    let (secure, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    let plaintext = protocol.plaintext_reference(&deltas, &noises, None);
    for (a, b) in secure.iter().zip(plaintext.iter()) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn subsampled_protocol_round_matches_masked_plaintext() {
    let mut rng = StdRng::seed_from_u64(25);
    let histogram = vec![vec![2usize, 3, 1, 2], vec![1, 2, 4, 0]];
    let protocol = PrivateWeightingProtocol::setup(&histogram, &protocol_config(), &mut rng);
    let (deltas, noises) = random_deltas(&histogram, 5, &mut rng);
    let sampled = SampleMask::from_dense(vec![true, false, false, true]);
    let (secure, _) = protocol.weighting_round(&deltas, &noises, Some(&sampled), &mut rng);
    let plaintext = protocol.plaintext_reference(&deltas, &noises, Some(&sampled));
    for (a, b) in secure.iter().zip(plaintext.iter()) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
#[ignore = "3072-bit key generation is too slow for a debug build; CI runs it with --release"]
fn paper_scale_rounds_match_plaintext() {
    // `ProtocolConfig::paper_scale()`: a 3072-bit n, so the runtime-width kernel runs at
    // 48 limbs (n, p², q²) and 96 limbs (n², the silos' comb tables), C_LCM =
    // lcm(1..2000) of 2,878 bits, and RFC 3526 group 15 (3072 bits, 320-bit DH secrets),
    // the group `use_rfc_group` picks for a key above 2048 bits. User 0 holds N_max = 2000
    // records, user 7 none. Round 1 encrypts and derives every b_u; round 2 sends nothing
    // and runs on the held pairs.
    let mut rng = StdRng::seed_from_u64(26);
    let records = |s: usize, u: usize| match u {
        0 => [1000, 600, 400][s],
        7 => 0,
        _ => (u * 3 + s) % 5,
    };
    let histogram: Vec<Vec<usize>> =
        (0..3).map(|s| (0..20).map(|u| records(s, u)).collect()).collect();
    let config = ProtocolConfig::paper_scale();
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
    assert!(protocol.modulus_bits() >= 3071);
    assert_eq!(protocol.dh_group_bits(), 3072, "RFC 3526 group 15");
    for round in 0..2 {
        let (deltas, noises) = random_deltas(&histogram, 4, &mut rng);
        let (secure, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
        let plaintext = protocol.plaintext_reference(&deltas, &noises, None);
        for (a, b) in secure.iter().zip(plaintext.iter()) {
            assert!((a - b).abs() < 1e-6, "round {round}: secure {a} vs plaintext {b}");
        }
    }
    assert_eq!(protocol.round_cache_stats(), (0, 20), "round 2 weighs from the held pairs");
}
