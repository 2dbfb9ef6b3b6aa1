//! Modular arithmetic over [`BigUint`] values.
//!
//! All functions treat the modulus as defining the ring `Z_n`; results are always
//! reduced. Most functions accept unreduced inputs and reduce as a side effect of their
//! computation; [`mod_sub`] is the exception — it **requires** both operands already in
//! `[0, n)` (debug-asserted) so the hot paths that only ever hold reduced field elements
//! do not pay two redundant divisions per subtraction.
//!
//! For repeated exponentiation over one modulus, prefer the Montgomery engine in
//! [`crate::montgomery`]; [`mod_pow`] here is the schoolbook reference path.

use crate::biguint::BigUint;

/// `(a + b) mod n`.
pub fn mod_add(a: &BigUint, b: &BigUint, n: &BigUint) -> BigUint {
    a.add(b).rem(n)
}

/// `(a - b) mod n`, wrapping into `[0, n)`.
///
/// Both operands must already be reduced (`a, b < n`, debug-asserted): every caller
/// holds field elements, so reducing again here would double-reduce on the hot path.
/// With `a, b < n` the wrapped difference `n − b + a` is itself `< n`, so no trailing
/// reduction is needed either.
pub fn mod_sub(a: &BigUint, b: &BigUint, n: &BigUint) -> BigUint {
    debug_assert!(a < n && b < n, "mod_sub requires reduced operands");
    if a >= b {
        a.sub(b)
    } else {
        n.sub(b).add(a)
    }
}

/// `(a * b) mod n`.
pub fn mod_mul(a: &BigUint, b: &BigUint, n: &BigUint) -> BigUint {
    a.mul(b).rem(n)
}

/// `(-a) mod n`.
pub fn mod_neg(a: &BigUint, n: &BigUint) -> BigUint {
    let a = a.rem(n);
    if a.is_zero() {
        a
    } else {
        n.sub(&a)
    }
}

/// Modular exponentiation `base^exp mod n` by square-and-multiply.
///
/// `0^0 mod n` is defined as `1 mod n`.
pub fn mod_pow(base: &BigUint, exp: &BigUint, n: &BigUint) -> BigUint {
    assert!(!n.is_zero(), "modulus must be positive");
    uldp_telemetry::metrics::MODPOW_GENERIC.inc();
    if n.is_one() {
        return BigUint::zero();
    }
    let mut result = BigUint::one();
    let mut base = base.rem(n);
    let bits = exp.bit_length();
    for i in 0..bits {
        if exp.bit(i) {
            result = mod_mul(&result, &base, n);
        }
        if i + 1 < bits {
            base = mod_mul(&base, &base, n);
        }
    }
    result
}

/// Modular multiplicative inverse of `a` modulo `n`.
///
/// Returns `None` when `gcd(a, n) != 1`. Computed with the extended Euclidean algorithm
/// (the method used by the server in Protocol 1 step 1.(f)), which tracks only the
/// coefficient of `a`, reduced mod `n`, so every value stays unsigned.
pub fn mod_inv(a: &BigUint, n: &BigUint) -> Option<BigUint> {
    assert!(!n.is_zero(), "modulus must be positive");
    let a = a.rem(n);
    if a.is_zero() {
        return None;
    }
    // Invariant: r ≡ t·a and old_r ≡ old_t·a (mod n).
    let (mut old_r, mut r) = (n.clone(), a);
    let (mut old_t, mut t) = (BigUint::zero(), BigUint::one());
    while !r.is_zero() {
        let (q, rem) = old_r.div_rem(&r);
        old_r = std::mem::replace(&mut r, rem);
        let new_t = mod_sub(&old_t, &mod_mul(&q, &t, n), n);
        old_t = std::mem::replace(&mut t, new_t);
    }
    old_r.is_one().then_some(old_t)
}

/// The Jacobi symbol `(a/n)` for an odd `n`: `1`, `−1`, or `0` when `gcd(a, n) ≠ 1`.
///
/// For `n = p·q` it is the product of the Legendre symbols mod `p` and mod `q`, yet
/// needs no factorisation: the binary algorithm strips factors of two (each flips the
/// sign when `n ≡ ±3 mod 8`) and swaps `a` and `n` by quadratic reciprocity (a flip
/// when both are `3 mod 4`).
///
/// # Panics
/// Panics if `n` is even.
pub fn jacobi(a: &BigUint, n: &BigUint) -> i8 {
    assert!(!n.is_even(), "the Jacobi symbol needs an odd modulus");
    let low = |x: &BigUint| x.limbs().first().copied().unwrap_or(0);
    let (mut a, mut n) = (a.rem(n), n.clone());
    let mut sign = 1;
    while !a.is_zero() {
        let twos = (0..a.bit_length()).take_while(|&i| !a.bit(i)).count();
        a = a.shr_bits(twos);
        if twos % 2 == 1 && matches!(low(&n) & 7, 3 | 5) {
            sign = -sign;
        }
        if low(&a) & 3 == 3 && low(&n) & 3 == 3 {
            sign = -sign;
        }
        (a, n) = (n.rem(&a), a);
    }
    if n.is_one() {
        sign
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn add_sub_mul_small() {
        let m = n(17);
        assert_eq!(mod_add(&n(10), &n(12), &m), n(5));
        assert_eq!(mod_sub(&n(3), &n(10), &m), n(10));
        assert_eq!(mod_mul(&n(5), &n(7), &m), n(1));
        assert_eq!(mod_neg(&n(4), &m), n(13));
        assert_eq!(mod_neg(&n(0), &m), n(0));
    }

    #[test]
    fn jacobi_is_the_product_of_the_legendre_symbols() {
        // Euler's criterion gives each Legendre symbol: a^((p−1)/2) is 1 or p − 1.
        let legendre = |a: &BigUint, p: &BigUint| {
            let e = mod_pow(a, &p.sub(&BigUint::one()).shr_bits(1), p);
            if e.is_zero() {
                0
            } else if e.is_one() {
                1
            } else {
                -1
            }
        };
        let mut rng = StdRng::seed_from_u64(12);
        let p = crate::prime::generate_prime(&mut rng, 80);
        let q = crate::prime::generate_prime(&mut rng, 72);
        let pq = p.mul(&q);
        let mut seen = [0usize; 3];
        for i in 0..64 {
            let a = if i == 0 { p.clone() } else { BigUint::random_with_bits(&mut rng, 200) };
            let expected = legendre(&a, &p) * legendre(&a, &q);
            assert_eq!(jacobi(&a, &pq), expected, "({a:?}/pq)");
            assert_eq!(jacobi(&a, &p), legendre(&a, &p), "({a:?}/p)");
            seen[(expected + 1) as usize] += 1;
        }
        assert!(seen.iter().all(|&k| k > 0), "all of 0, −1 and 1 occur: {seen:?}");
        // Small cases by hand: (2/7) = 1, (3/7) = −1, (1/1) = 1, (0/9) = 0.
        assert_eq!([jacobi(&n(2), &n(7)), jacobi(&n(3), &n(7))], [1, -1]);
        assert_eq!([jacobi(&n(5), &n(1)), jacobi(&n(0), &n(9))], [1, 0]);
    }

    #[test]
    #[should_panic(expected = "the Jacobi symbol needs an odd modulus")]
    fn jacobi_rejects_an_even_modulus() {
        let _ = jacobi(&n(3), &n(8));
    }

    #[test]
    fn pow_small() {
        let m = n(1000);
        assert_eq!(mod_pow(&n(2), &n(10), &m), n(24));
        assert_eq!(mod_pow(&n(7), &n(0), &m), n(1));
        assert_eq!(mod_pow(&n(0), &n(5), &m), n(0));
        assert_eq!(mod_pow(&n(3), &n(4), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) = 1 mod p for prime p and a not divisible by p
        let p = n(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(mod_pow(&n(a), &p.sub(&BigUint::one()), &p), BigUint::one());
        }
    }

    #[test]
    fn inverse_small() {
        let m = n(17);
        for a in 1..17u64 {
            let inv = mod_inv(&n(a), &m).unwrap();
            assert_eq!(mod_mul(&n(a), &inv, &m), BigUint::one());
        }
        // no inverse when not coprime
        assert!(mod_inv(&n(6), &n(9)).is_none());
        assert!(mod_inv(&n(0), &n(9)).is_none());
    }

    #[test]
    fn inverse_large_random() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = crate::prime::generate_prime(&mut rng, 128);
        for _ in 0..10 {
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() {
                continue;
            }
            let inv = mod_inv(&a, &m).unwrap();
            assert_eq!(mod_mul(&a, &inv, &m), BigUint::one());
        }
    }

    #[test]
    fn pow_matches_naive_for_random_inputs() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = n(10007);
        for _ in 0..20 {
            let base = BigUint::random_below(&mut rng, &m);
            let exp: u64 = rand::Rng::gen_range(&mut rng, 0..50);
            let mut naive = BigUint::one();
            for _ in 0..exp {
                naive = mod_mul(&naive, &base, &m);
            }
            assert_eq!(mod_pow(&base, &BigUint::from_u64(exp), &m), naive);
        }
    }
}
