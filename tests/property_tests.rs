//! Property-based tests (proptest) of the core invariants the Uldp-FL analysis relies on:
//! big-integer ring axioms, Paillier homomorphism, fixed-point round-trips, mask
//! cancellation, clipping bounds, weight-matrix sensitivity, and accountant monotonicity.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_fl::accounting::{rdp_to_dp, subsampled_gaussian_rdp, RdpCurve};
use uldp_fl::bigint::modular::{mod_add, mod_inv, mod_mul, mod_pow};
use uldp_fl::bigint::BigUint;
use uldp_fl::core::{WeightMatrix, WeightingStrategy};
use uldp_fl::crypto::masking::{apply_pairwise_masks, MaskGenerator, MaskSeed};
use uldp_fl::crypto::paillier::PaillierKeyPair;
use uldp_fl::crypto::FixedPointCodec;
use uldp_fl::ml::{clip_to_norm, clipped, l2_norm};

fn big(v: u128) -> BigUint {
    BigUint::from_u128(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- big-integer arithmetic ----------

    #[test]
    fn biguint_add_commutes(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(big(a).add(&big(b)), big(b).add(&big(a)));
    }

    #[test]
    fn biguint_mul_distributes_over_add(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (big(a as u128), big(b as u128), big(c as u128));
        let lhs = a.mul(&b.add(&c));
        let rhs = a.mul(&b).add(&a.mul(&c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn biguint_div_rem_invariant(a in any::<u128>(), b in 1u128..) {
        let (q, r) = big(a).div_rem(&big(b));
        prop_assert!(r < big(b));
        prop_assert_eq!(q.mul(&big(b)).add(&r), big(a));
    }

    #[test]
    fn biguint_shift_roundtrip(a in any::<u128>(), s in 0usize..200) {
        prop_assert_eq!(big(a).shl_bits(s).shr_bits(s), big(a));
    }

    #[test]
    fn modular_inverse_is_inverse(a in 1u64.., ) {
        // modulus: a fixed prime
        let p = BigUint::from_u64(2_147_483_647);
        let a = BigUint::from_u64(a).rem(&p);
        if !a.is_zero() {
            let inv = mod_inv(&a, &p).unwrap();
            prop_assert_eq!(mod_mul(&a, &inv, &p), BigUint::one());
        }
    }

    #[test]
    fn modpow_adds_exponents(base in 2u64..1000, e1 in 0u64..50, e2 in 0u64..50) {
        let p = BigUint::from_u64(1_000_003);
        let b = BigUint::from_u64(base);
        let lhs = mod_pow(&b, &BigUint::from_u64(e1 + e2), &p);
        let rhs = mod_mul(
            &mod_pow(&b, &BigUint::from_u64(e1), &p),
            &mod_pow(&b, &BigUint::from_u64(e2), &p),
            &p,
        );
        prop_assert_eq!(lhs, rhs);
    }

    // ---------- clipping ----------

    #[test]
    fn clipping_never_exceeds_bound(v in prop::collection::vec(-1e6f64..1e6, 1..32), c in 0.01f64..100.0) {
        let out = clipped(&v, c);
        prop_assert!(l2_norm(&out) <= c * (1.0 + 1e-9));
    }

    #[test]
    fn clipping_is_idempotent(v in prop::collection::vec(-1e3f64..1e3, 1..16), c in 0.1f64..10.0) {
        // Idempotent up to floating-point rounding: a second clip may rescale by a factor
        // within a few ulps of 1 when the first clip lands exactly on the boundary.
        let mut once = v.clone();
        clip_to_norm(&mut once, c);
        let mut twice = once.clone();
        clip_to_norm(&mut twice, c);
        for (a, b) in once.iter().zip(twice.iter()) {
            prop_assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn clipping_preserves_vectors_inside_ball(v in prop::collection::vec(-1.0f64..1.0, 1..8)) {
        let norm = l2_norm(&v);
        let c = norm + 1.0;
        prop_assert_eq!(clipped(&v, c), v);
    }

    // ---------- fixed-point codec ----------

    #[test]
    fn fixed_point_roundtrip(x in -1e6f64..1e6) {
        let codec = FixedPointCodec::new(1e-9, BigUint::one().shl_bits(128));
        let decoded = codec.decode_plain(&codec.encode(x));
        prop_assert!((decoded - x).abs() <= 1e-9 * (1.0 + x.abs()));
    }

    #[test]
    fn fixed_point_addition_homomorphic(a in -1e4f64..1e4, b in -1e4f64..1e4) {
        let codec = FixedPointCodec::new(1e-9, BigUint::one().shl_bits(128));
        let m = codec.modulus().clone();
        let sum = mod_add(&codec.encode(a), &codec.encode(b), &m);
        prop_assert!((codec.decode_plain(&sum) - (a + b)).abs() <= 2e-9 * (1.0 + a.abs() + b.abs()));
    }

    // ---------- weight matrices ----------

    #[test]
    fn weight_matrices_satisfy_sensitivity_constraint(
        histogram in prop::collection::vec(prop::collection::vec(0usize..20, 8), 2..6)
    ) {
        for strategy in [WeightingStrategy::Uniform, WeightingStrategy::RecordProportional] {
            let w = WeightMatrix::from_histogram(strategy, &histogram);
            prop_assert!(w.satisfies_sensitivity_constraint(1e-9));
            // Every present user's weights sum to exactly one.
            for (u, total) in w.user_sums().into_iter().enumerate() {
                let records: usize = histogram.iter().map(|row| row[u]).sum();
                if records > 0 {
                    prop_assert!((total - 1.0).abs() < 1e-9);
                } else {
                    prop_assert_eq!(total, 0.0);
                }
            }
        }
    }

    // ---------- secure-aggregation masks ----------

    #[test]
    fn pairwise_masks_cancel(num_silos in 2usize..6, round in 0u64..100, index in 0u64..100) {
        let modulus = BigUint::one().shl_bits(120);
        let seed = |a: usize, b: usize| {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            let mut bytes = [0u8; 32];
            bytes[0] = lo as u8;
            bytes[1] = hi as u8;
            MaskSeed::new(bytes)
        };
        let values: Vec<BigUint> = (0..num_silos).map(|i| BigUint::from_u64(1000 + i as u64)).collect();
        let mut total = BigUint::zero();
        for (s, value) in values.iter().enumerate() {
            let masks: Vec<(usize, BigUint)> = (0..num_silos)
                .filter(|&o| o != s)
                .map(|o| (o, MaskGenerator::new(seed(s, o), modulus.clone()).mask(round, index)))
                .collect();
            let masked = apply_pairwise_masks(value, s, &masks, &modulus);
            total = mod_add(&total, &masked, &modulus);
        }
        let expected = values.iter().fold(BigUint::zero(), |acc, v| mod_add(&acc, v, &modulus));
        prop_assert_eq!(total, expected);
    }

    // ---------- accountant monotonicity ----------

    #[test]
    fn subsampled_rdp_monotone_in_q(alpha in 2u64..64, q1 in 0.01f64..0.5, dq in 0.01f64..0.49) {
        let q2 = (q1 + dq).min(1.0);
        let lo = subsampled_gaussian_rdp(alpha, q1, 5.0);
        let hi = subsampled_gaussian_rdp(alpha, q2, 5.0);
        prop_assert!(lo <= hi + 1e-12);
    }

    #[test]
    fn epsilon_monotone_in_steps(steps in 1u64..500) {
        let orders: Vec<u64> = (2..=64).collect();
        let one = RdpCurve::from_fn(orders.clone(), |a| a as f64 / 50.0);
        let eps_small = rdp_to_dp(&one.scaled(steps as f64), 1e-5).0;
        let eps_large = rdp_to_dp(&one.scaled((steps + 1) as f64), 1e-5).0;
        prop_assert!(eps_small <= eps_large + 1e-12);
    }
}

// Paillier homomorphism is tested outside the proptest macro with a shared key pair,
// because key generation is too slow to repeat per case.
#[test]
fn paillier_homomorphism_random_values() {
    let mut keygen_rng = StdRng::seed_from_u64(77);
    let kp = PaillierKeyPair::generate(&mut keygen_rng, 256);
    let mut runner = proptest::test_runner::TestRunner::default();
    runner
        .run(&(any::<u64>(), any::<u64>(), 1u64..10_000), |(a, b, k)| {
            // Fresh encryption randomness derived from the case inputs (the closure is Fn,
            // so it cannot mutably capture an outer RNG).
            let mut rng = StdRng::seed_from_u64(a ^ b.rotate_left(17) ^ k);
            let ca = kp.public.encrypt(&mut rng, &BigUint::from_u64(a));
            let cb = kp.public.encrypt(&mut rng, &BigUint::from_u64(b));
            let sum = kp.secret.decrypt(&kp.public.add(&ca, &cb));
            let expected_sum = BigUint::from_u128(a as u128 + b as u128).rem(&kp.public.n);
            prop_assert_eq!(sum, expected_sum);
            let scaled = kp.secret.decrypt(&kp.public.scalar_mul(&ca, &BigUint::from_u64(k)));
            let expected_scaled = BigUint::from_u128(a as u128 * k as u128).rem(&kp.public.n);
            prop_assert_eq!(scaled, expected_scaled);
            Ok(())
        })
        .unwrap();
}

// Same shared-key-pair shape for the re-randomisation invariant: `rerandomise` must
// decrypt to the original plaintext while never reproducing the input ciphertext bits
// (the fresh n-th power is 1 only with probability ~1/n ≈ 2⁻²⁵⁶).
#[test]
fn paillier_rerandomise_preserves_plaintext_never_bits() {
    let mut keygen_rng = StdRng::seed_from_u64(78);
    let kp = PaillierKeyPair::generate(&mut keygen_rng, 256);
    let mut runner = proptest::test_runner::TestRunner::default();
    runner
        .run(&(any::<u64>(), any::<u64>()), |(m, r)| {
            let mut rng = StdRng::seed_from_u64(m ^ r.rotate_left(29));
            let m = BigUint::from_u64(m);
            let c = kp.public.encrypt(&mut rng, &m);
            let fresh = kp.public.rerandomise(&mut rng, &c);
            prop_assert_eq!(kp.secret.decrypt(&fresh), m);
            prop_assert_ne!(&fresh, &c);
            Ok(())
        })
        .unwrap();
}
