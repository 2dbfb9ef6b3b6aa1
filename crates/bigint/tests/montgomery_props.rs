//! Property tests pinning the Montgomery engine to the schoolbook reference.
//!
//! Over random odd moduli up to 2048 bits (32 limbs, the widest exact-width instance of
//! the kernel), `ModulusCtx::pow` and the shared multi-exponentiation ladder
//! (`ModulusCtx::multi_exp_tables` over `WindowTable`s built per product or reused
//! across products) must agree bit for bit with `modular::mod_pow` and its unfused
//! `mod_mul` chain — this is the invariant that makes the engine a drop-in for the
//! Paillier/DH/Miller–Rabin call sites without perturbing any ciphertext or key.
//!
//! The fixed-base comb (`ModulusCtx::pow_fixed_base` over a `FixedBaseTable`) must
//! agree with `mod_pow` likewise, at every exponent length up to its table's.
//!
//! Random moduli of exactly 8, 16 and 32 limbs drive the `mulx`/`adcx`/`adox` body of
//! the kernel where the CPU has BMI2 and ADX (the portable one elsewhere).
//!
//! Deterministic cases then drive the kernel at every exact-width instance (4, 8, 16
//! and 32 limbs) and at runtime widths (1, 12 and 48 limbs) over adversarial moduli and
//! kernel operands, hitting both outcomes of its final conditional subtraction, and the
//! comb over the same moduli at the widths up to 96 limbs (`n²` of a 3072-bit key). Edge
//! cases (exponent zero, base larger than the modulus, modulus-one rejection) ride
//! along as unit tests.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use uldp_bigint::modular::{mod_inv, mod_mul, mod_pow};
use uldp_bigint::montgomery::{
    multi_exp_window, FixedBaseTable, ModulusCtx, MontElem, WindowTable,
};
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
        mod_limbs in prop::collection::vec(any::<u64>(), 1..=32),
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
        mod_limbs in prop::collection::vec(any::<u64>(), 1..=32),
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
        let max_bits = pairs.iter().map(|(_, exp)| exp.bit_length()).max().unwrap_or(0);
        let window = multi_exp_window(max_bits);
        let tables: Vec<WindowTable> =
            pairs.iter().map(|(base, _)| ctx.window_table(base, window)).collect();
        let terms: Vec<(&WindowTable, &BigUint)> =
            tables.iter().zip(&pairs).map(|(table, (_, exp))| (table, exp)).collect();
        prop_assert_eq!(ctx.multi_exp_tables(&terms), unfused);
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
    fn fixed_base_pow_matches_schoolbook_mod_pow(
        mod_limbs in prop::collection::vec(any::<u64>(), 1..=32),
        base_limbs in prop::collection::vec(any::<u64>(), 1..33),
        max_bits in 1usize..=320,
        exp_limbs in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..6), 1..4),
    ) {
        // One comb table, built once for `max_bits`-bit exponents, serves several
        // exponents: each is cut to `max_bits` bits, so lengths below, at and across
        // every column count ride along, and empty limb vectors give the exponent 0.
        let n = odd_modulus(&mod_limbs);
        let ctx = ModulusCtx::new(&n);
        let base = BigUint::from_limbs(base_limbs);
        let table = ctx.fixed_base_table(&base, max_bits);
        let bound = BigUint::one().shl_bits(max_bits);
        for limbs in exp_limbs {
            let exp = BigUint::from_limbs(limbs).rem(&bound);
            prop_assert_eq!(ctx.pow_fixed_base(&table, &exp), mod_pow(&base, &exp, &n));
        }
    }

    #[test]
    fn mont_sqr_is_pinned_to_mont_mul_of_self(
        mod_limbs in prop::collection::vec(any::<u64>(), 1..=32),
        value_limbs in prop::collection::vec(any::<u64>(), 1..33),
    ) {
        // mont_sqr is counted apart from mont_mul but must run the same kernel: the
        // squarings of the pow ladders may not perturb any ciphertext.
        let n = odd_modulus(&mod_limbs);
        let v = BigUint::from_limbs(value_limbs);
        let ctx = ModulusCtx::new(&n);
        let m = ctx.to_mont(&v);
        prop_assert_eq!(ctx.mont_sqr(&m), ctx.mont_mul(&m, &m));
        prop_assert_eq!(ctx.sqr(&v), uldp_bigint::modular::mod_mul(&v.rem(&n), &v.rem(&n), &n));
    }

    #[test]
    fn adx_widths_match_schoolbook_product(
        width in 0usize..3,
        mod_limbs in prop::collection::vec(any::<u64>(), 32),
        a_limbs in prop::collection::vec(any::<u64>(), 1..=32),
        b_limbs in prop::collection::vec(any::<u64>(), 1..=32),
    ) {
        // Random moduli of exactly 8, 16 or 32 limbs, the widths the ADX body serves
        // where the CPU has BMI2 and ADX (`body: "adx"` in the context's Debug):
        // products and squarings must equal the schoolbook ones.
        let s = [8, 16, 32][width];
        let mut limbs = mod_limbs[..s].to_vec();
        limbs[s - 1] = limbs[s - 1].max(1);
        let n = odd_modulus(&limbs);
        prop_assert_eq!(n.limbs().len(), s);
        let ctx = ModulusCtx::new(&n);
        let a = BigUint::from_limbs(a_limbs).rem(&n);
        let b = BigUint::from_limbs(b_limbs).rem(&n);
        prop_assert_eq!(ctx.mod_mul(&a, &b), mod_mul(&a, &b, &n));
        prop_assert_eq!(ctx.sqr(&a), mod_mul(&a, &a, &n));
        let m = ctx.to_mont(&a);
        prop_assert_eq!(ctx.mont_sqr(&m), ctx.mont_mul(&m, &m));
    }

    #[test]
    fn mont_roundtrip_is_identity(
        mod_limbs in prop::collection::vec(any::<u64>(), 1..=32),
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

/// Limb widths of the deterministic kernel cases: every exact-width instance (4, 8, 16,
/// 32) and runtime widths below, between and above them (1, 12, 48).
const KERNEL_WIDTHS: [usize; 7] = [1, 4, 8, 12, 16, 32, 48];

/// Adversarial odd moduli of exactly `s` limbs: top limb `u64::MAX` or `2^63 + 1` over
/// random lower limbs, `2^(64s) − 1`, `2^(64s) − 2^32 − 1` and (for `s > 1`) top limb
/// `1`. Near `R = 2^(64s)` the kernel's carry word decides its final subtraction,
/// between `R/2` and `R` the comparison with `n` decides it.
fn adversarial_moduli(rng: &mut StdRng, s: usize) -> Vec<BigUint> {
    let random_low = |rng: &mut StdRng, top: u64| {
        let mut limbs: Vec<u64> = (0..s).map(|_| rng.next_u64()).collect();
        limbs[s - 1] = top;
        limbs[0] |= 1;
        BigUint::from_limbs(limbs)
    };
    let r = BigUint::one().shl_bits(64 * s);
    let mut moduli = vec![
        random_low(rng, u64::MAX),
        random_low(rng, (1 << 63) | 1),
        r.sub(&BigUint::one()),
        r.sub(&BigUint::from_u64((1 << 32) + 1)),
    ];
    if s > 1 {
        moduli.push(random_low(rng, 1));
    }
    for n in &moduli {
        assert_eq!(n.limbs().len(), s);
    }
    moduli
}

/// Whether the kernel's product of the Montgomery-form limbs `a` and `b` takes the
/// final subtraction: the pre-subtraction value `(a·b + m·n)/R`, with
/// `m = a·b·(−n⁻¹) mod R`, is at least `n`.
fn kernel_subtracts(a: &BigUint, b: &BigUint, n: &BigUint, r: &BigUint) -> bool {
    let n_prime = r.sub(&mod_inv(n, r).expect("n is odd"));
    let ab = a.mul(b);
    let m = ab.rem(r).mul(&n_prime).rem(r);
    let t = ab.add(&m.mul(n));
    assert!(t.rem(r).is_zero(), "m·n cancels the low words");
    &t.div(r) >= n
}

#[test]
fn kernel_matches_schoolbook_at_every_width_on_adversarial_operands() {
    let mut rng = StdRng::seed_from_u64(24);
    for s in KERNEL_WIDTHS {
        let (mut subtracted, mut kept) = (0usize, 0usize);
        for n in adversarial_moduli(&mut rng, s) {
            let ctx = ModulusCtx::new(&n);
            let r = BigUint::one().shl_bits(64 * s);
            let r_mod_n = r.rem(&n);
            let r_inv = mod_inv(&r_mod_n, &n).expect("R is a unit modulo an odd n");
            // Kernel operands 0, 1, n − 1, R mod n and two random values: x = v·R⁻¹
            // enters the kernel as the limbs of v, since to_mont(x) = x·R mod n = v.
            let mut limbs =
                vec![BigUint::zero(), BigUint::one(), n.sub(&BigUint::one()), r_mod_n.clone()];
            limbs.extend((0..2).map(|_| BigUint::random_below(&mut rng, &n)));
            let values: Vec<BigUint> = limbs.iter().map(|v| mod_mul(v, &r_inv, &n)).collect();
            let mont: Vec<MontElem> = values.iter().map(|x| ctx.to_mont(x)).collect();
            for ((va, x), a) in limbs.iter().zip(&values).zip(&mont) {
                assert_eq!(ctx.from_mont(a), *x, "s={s}: round trip");
                assert_eq!(ctx.mont_sqr(a), ctx.mont_mul(a, a), "s={s}: mont_sqr = mont_mul(a, a)");
                assert_eq!(ctx.sqr(x), mod_mul(x, x, &n), "s={s}: sqr");
                for ((vb, y), b) in limbs.iter().zip(&values).zip(&mont) {
                    let expected = mod_mul(x, y, &n);
                    let out = ctx.mont_mul(a, b);
                    assert_eq!(out, ctx.to_mont(&expected), "s={s}: mont_mul limbs");
                    let product = ctx.from_mont(&out);
                    assert_eq!(product, expected, "s={s}: mont_mul");
                    assert_eq!(ctx.mod_mul(x, y), product, "s={s}: mod_mul");
                    if kernel_subtracts(va, vb, &n, &r) {
                        subtracted += 1;
                    } else {
                        kept += 1;
                    }
                }
                let exp = BigUint::random_with_bits(&mut rng, 130);
                let expected = mod_pow(x, &exp, &n);
                assert_eq!(ctx.pow(x, &exp), expected, "s={s}: pow");
                assert_eq!(ctx.pow_mont(a, &exp), ctx.to_mont(&expected), "s={s}: pow_mont");
            }
        }
        assert!(subtracted > 0 && kept > 0, "s={s}: both subtraction outcomes hit");
    }
}

/// Limb widths of the deterministic comb cases: every exact-width kernel instance and
/// the runtime widths of a 3072-bit key's `p²`/`n` (48 limbs) and `n²` (96 limbs).
const COMB_WIDTHS: [usize; 7] = [1, 4, 8, 16, 32, 48, 96];

#[test]
fn fixed_base_pow_matches_schoolbook_at_every_width_on_adversarial_moduli() {
    // Exponents 0, 1, 2^t − 1, 2^(t−1) alone and a random one, for t = 70 (12 columns,
    // a partial last row) and t = 6 (one column), over the kernel's adversarial moduli,
    // with a random base, the zero base and a base ≥ n, as mod_pow takes them.
    let mut rng = StdRng::seed_from_u64(25);
    for s in COMB_WIDTHS {
        for n in adversarial_moduli(&mut rng, s) {
            let ctx = ModulusCtx::new(&n);
            let bases =
                [BigUint::random_below(&mut rng, &n), BigUint::zero(), n.add(&BigUint::two())];
            for (base, t) in bases.iter().flat_map(|b| [(b, 6usize), (b, 70)]) {
                let table: FixedBaseTable = ctx.fixed_base_table(base, t);
                let bound = BigUint::one().shl_bits(t);
                let exps = [
                    BigUint::zero(),
                    BigUint::one(),
                    bound.sub(&BigUint::one()),
                    bound.shr_bits(1),
                    BigUint::random_below(&mut rng, &bound),
                ];
                for exp in &exps {
                    let expected = mod_pow(base, exp, &n);
                    assert_eq!(ctx.pow_fixed_base(&table, exp), expected, "s={s} t={t} {base:?}");
                }
            }
        }
    }
}
