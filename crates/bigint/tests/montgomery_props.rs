//! Property tests pinning the Montgomery engine to the schoolbook reference.
//!
//! Over random odd moduli up to 2048 bits, `ModulusCtx::pow` and the shared
//! multi-exponentiation ladder (`ModulusCtx::multi_exp`, and
//! `ModulusCtx::multi_exp_tables` over reused `WindowTable`s) must agree bit for bit
//! with `modular::mod_pow` and its unfused `mod_mul` chain — this is the
//! invariant that makes the engine a drop-in for the Paillier/DH/Miller–Rabin call
//! sites without perturbing any ciphertext or key. Edge cases (exponent zero, base
//! larger than the modulus, modulus-one rejection) ride along as unit tests.

use proptest::prelude::*;
use uldp_bigint::modular::mod_pow;
use uldp_bigint::montgomery::{ModulusCtx, WindowTable};
use uldp_bigint::BigUint;

/// Builds an odd modulus `> 1` from arbitrary limbs (up to 2048 bits).
fn odd_modulus(limbs: &[u64]) -> BigUint {
    let mut n = BigUint::from_limbs(limbs.to_vec());
    if n.is_even() {
        n = n.add(&BigUint::one());
    }
    if n.is_one() || n.is_zero() {
        n = BigUint::from_u64(3);
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pow_matches_schoolbook_mod_pow(
        mod_limbs in prop::collection::vec(any::<u64>(), 1..32),
        base_limbs in prop::collection::vec(any::<u64>(), 1..33),
        exp_limbs in prop::collection::vec(any::<u64>(), 1..32),
    ) {
        let n = odd_modulus(&mod_limbs);
        // base may exceed the modulus: the engine must reduce it like mod_pow does
        let base = BigUint::from_limbs(base_limbs);
        let exp = BigUint::from_limbs(exp_limbs);
        let ctx = ModulusCtx::new(&n);
        prop_assert_eq!(ctx.pow(&base, &exp), mod_pow(&base, &exp, &n));
    }

    #[test]
    fn multi_exp_matches_unfused_chain(
        mod_limbs in prop::collection::vec(any::<u64>(), 1..32),
        pair_limbs in prop::collection::vec(
            (prop::collection::vec(any::<u64>(), 1..33), prop::collection::vec(any::<u64>(), 0..16)),
            1..6,
        ),
    ) {
        // The interleaved ladder must agree bit for bit with the unfused
        // pow-then-mod_mul product at every k ≥ 1 (k = 1 degenerates to a plain pow;
        // empty exponent limb vectors exercise the exp = 0 edge) up to 2048-bit moduli.
        let n = odd_modulus(&mod_limbs);
        let ctx = ModulusCtx::new(&n);
        let pairs: Vec<(BigUint, BigUint)> = pair_limbs
            .iter()
            .map(|(b, e)| (BigUint::from_limbs(b.clone()), BigUint::from_limbs(e.clone())))
            .collect();
        let mut unfused = BigUint::one().rem(&n);
        for (base, exp) in &pairs {
            unfused = uldp_bigint::modular::mod_mul(&unfused, &mod_pow(base, exp, &n), &n);
        }
        prop_assert_eq!(ctx.multi_exp(&pairs), unfused);
    }

    #[test]
    fn shared_tables_match_unfused_chain(
        mod_limbs in prop::collection::vec(any::<u64>(), 1..=32),
        base_limbs in prop::collection::vec(prop::collection::vec(any::<u64>(), 1..=33), 1..5),
        windows in prop::collection::vec(1usize..=6, 4),
        exp_rows in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(any::<u64>(), 0..4), 4),
            1..4,
        ),
    ) {
        // One table set, built once (window widths 1..=6, mixed across bases), serves
        // several exponent vectors. Each row gives every base an exponent of 0 to 3 limbs:
        // zero exponents and unequal lengths ride along, and one base is the plain pow.
        let n = odd_modulus(&mod_limbs);
        let ctx = ModulusCtx::new(&n);
        let bases: Vec<BigUint> = base_limbs.into_iter().map(BigUint::from_limbs).collect();
        let tables: Vec<WindowTable> =
            bases.iter().zip(&windows).map(|(b, &w)| ctx.window_table(b, w)).collect();
        for row in &exp_rows {
            let exps: Vec<BigUint> =
                row.iter().take(bases.len()).map(|e| BigUint::from_limbs(e.clone())).collect();
            let mut unfused = BigUint::one().rem(&n);
            for (base, exp) in bases.iter().zip(&exps) {
                unfused = uldp_bigint::modular::mod_mul(&unfused, &mod_pow(base, exp, &n), &n);
            }
            let terms: Vec<(&WindowTable, &BigUint)> = tables.iter().zip(&exps).collect();
            prop_assert_eq!(ctx.multi_exp_tables(&terms), unfused);
        }
    }

    #[test]
    fn mont_sqr_is_pinned_to_mont_mul_of_self(
        mod_limbs in prop::collection::vec(any::<u64>(), 1..32),
        value_limbs in prop::collection::vec(any::<u64>(), 1..33),
    ) {
        // The dedicated squaring (halved cross products + separated reduction) must be a
        // bit-exact drop-in for the generic CIOS product of a value with itself — this is
        // what lets the sliding-window pow ladder use it without perturbing any
        // ciphertext.
        let n = odd_modulus(&mod_limbs);
        let v = BigUint::from_limbs(value_limbs);
        let ctx = ModulusCtx::new(&n);
        let m = ctx.to_mont(&v);
        prop_assert_eq!(ctx.mont_sqr(&m), ctx.mont_mul(&m, &m));
        prop_assert_eq!(ctx.sqr(&v), uldp_bigint::modular::mod_mul(&v.rem(&n), &v.rem(&n), &n));
    }

    #[test]
    fn mont_roundtrip_is_identity(
        mod_limbs in prop::collection::vec(any::<u64>(), 1..32),
        value_limbs in prop::collection::vec(any::<u64>(), 1..32),
    ) {
        let n = odd_modulus(&mod_limbs);
        let v = BigUint::from_limbs(value_limbs);
        let ctx = ModulusCtx::new(&n);
        prop_assert_eq!(ctx.from_mont(&ctx.to_mont(&v)), v.rem(&n));
    }
}

#[test]
fn exponent_zero_yields_one() {
    let n = BigUint::from_u64(1_000_003);
    let ctx = ModulusCtx::new(&n);
    assert_eq!(ctx.pow(&BigUint::from_u64(12345), &BigUint::zero()), BigUint::one());
    // 0^0 = 1, matching mod_pow's convention.
    assert_eq!(ctx.pow(&BigUint::zero(), &BigUint::zero()), BigUint::one());
}

#[test]
fn base_larger_than_modulus_is_reduced() {
    let n = BigUint::from_u64(1_000_003);
    let ctx = ModulusCtx::new(&n);
    let base = BigUint::from_u128(u128::MAX);
    let exp = BigUint::from_u64(17);
    assert_eq!(ctx.pow(&base, &exp), mod_pow(&base, &exp, &n));
}

#[test]
fn modulus_one_and_even_moduli_are_rejected() {
    assert!(ModulusCtx::try_new(&BigUint::one()).is_none());
    assert!(ModulusCtx::try_new(&BigUint::zero()).is_none());
    assert!(ModulusCtx::try_new(&BigUint::from_u64(2)).is_none());
    assert!(ModulusCtx::try_new(&BigUint::from_u64(1 << 20)).is_none());
    assert!(ModulusCtx::try_new(&BigUint::from_u64(3)).is_some());
}
