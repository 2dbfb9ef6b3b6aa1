//! Exact Montgomery operation counts of the fixed-base comb.
//!
//! A `FixedBaseTable` for `t`-bit exponents has `a = ⌈t/6⌉` columns. Its build costs
//! `5·a` squarings (the row bases `H^{2^{i·a}}`) and `64 − 6 − 1` multiplications (the
//! other entries). One `pow_fixed_base` costs `a − 1` squarings and `a − 1`
//! multiplications whatever the exponent, zero included, and counts one
//! `bigint.mod_pow_fixed_base` and no `bigint.mod_pow_window`. Counts are deterministic,
//! so the gates are equalities.
//!
//! A single test function owns the whole file: the telemetry flag and counters are
//! process-global, so concurrent test functions in this binary would race on them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_bigint::montgomery::ModulusCtx;
use uldp_bigint::BigUint;
use uldp_telemetry::metrics;

/// `(mont_mul, mont_sqr)` counted since the last reset.
fn mont_ops() -> (u64, u64) {
    (metrics::MONT_MUL.get(), metrics::MONT_SQR.get())
}

#[test]
fn comb_costs_depend_only_on_the_table_length() {
    let mut rng = StdRng::seed_from_u64(41);
    uldp_telemetry::set_enabled(true);
    // (modulus bits, t): n² of a 512-bit key with its 256-bit α; a 70-bit exponent whose
    // last row is partial; a single column.
    for (bits, t) in [(1024usize, 256usize), (192, 70), (64, 5)] {
        let mut modulus = BigUint::random_with_bits(&mut rng, bits);
        if modulus.is_even() {
            modulus = modulus.add(&BigUint::one());
        }
        let ctx = ModulusCtx::new(&modulus);
        let base = BigUint::random_below(&mut rng, &modulus);
        let a = t.div_ceil(6) as u64;
        uldp_telemetry::reset();
        let table = ctx.fixed_base_table(&base, t);
        assert_eq!(mont_ops(), (64 - 6 - 1, 5 * a), "t={t}: table build");
        let bound = BigUint::one().shl_bits(t);
        let exps = [
            BigUint::zero(),
            BigUint::one(),
            bound.sub(&BigUint::one()),
            bound.shr_bits(1),
            BigUint::random_below(&mut rng, &bound),
        ];
        for exp in &exps {
            uldp_telemetry::reset();
            let _ = ctx.pow_fixed_base(&table, exp);
            assert_eq!(mont_ops(), (a - 1, a - 1), "t={t} exp={exp:?}: one evaluation");
            assert_eq!(metrics::MODPOW_FIXED_BASE.get(), 1, "t={t}");
            assert_eq!(metrics::MODPOW_WINDOW.get(), 0, "t={t}");
        }
        if t == 256 {
            // The Paillier `Enc(0)` this replaces, ρ^n for a 512-bit n: a full-width
            // sliding-window power over n², ≈|n| squarings.
            let n = BigUint::random_with_bits(&mut rng, 512);
            uldp_telemetry::reset();
            let _ = ctx.pow(&base, &n);
            let (mul, sqr) = mont_ops();
            assert!(sqr >= 500 && mul + sqr > 6 * 2 * (a - 1), "{mul} + {sqr} ops");
        }
    }
    uldp_telemetry::set_enabled(false);
}
