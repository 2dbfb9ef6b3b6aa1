//! # uldp-bigint
//!
//! Arbitrary-precision integer arithmetic used by the cryptographic substrate of the
//! Uldp-FL reproduction (Paillier cryptosystem, Diffie–Hellman key agreement, finite-field
//! masking and the fixed-point encoding of Protocol 1).
//!
//! The crate provides:
//!
//! * [`BigUint`] — an unsigned, little-endian, 64-bit-limb big integer with the full set of
//!   ring operations (add, sub, schoolbook mul, Knuth-D division, shifts, bit access).
//! * [`modular`] — modular add/sub/mul/pow/inverse and the Jacobi symbol on [`BigUint`].
//! * [`montgomery`] — the batched-exponentiation engine: [`montgomery::ModulusCtx`]
//!   (CIOS Montgomery multiplication with cached per-modulus constants, on a
//!   `mulx`/`adcx`/`adox` body at 8, 16 and 32 limbs where the x86-64 CPU has BMI2 and
//!   ADX and on a portable `u128` body everywhere else; one sliding-window ladder behind
//!   `pow` and the interleaved `multi_exp_tables` over reusable odd-power
//!   [`montgomery::WindowTable`]s, simultaneous `batch_inv`, and a
//!   fixed-base comb over a [`montgomery::FixedBaseTable`]). Bitwise-identical to the
//!   schoolbook path.
//! * [`prime`] — Miller–Rabin primality testing (sharing one Montgomery context across
//!   all witness bases) and random prime generation, safe primes by a sieve of `q` and
//!   `2q + 1` together.
//! * Utility functions [`gcd`], [`lcm`], and [`lcm_up_to`] (the `C_LCM` constant of the
//!   paper's Protocol 1).
//!
//! Modular exponentiation has two paths: the plain square-and-multiply [`modular::mod_pow`]
//! (the reference the engine is verified against) and the Montgomery engine in
//! [`montgomery`], which every Paillier/Diffie–Hellman call site in `uldp-crypto` uses.

pub mod biguint;
pub mod modular;
pub mod montgomery;
pub mod prime;

pub use biguint::BigUint;

/// Greatest common divisor of two big unsigned integers (binary-free Euclid).
pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let r = a.rem(&b);
        a = b;
        b = r;
    }
    a
}

/// Least common multiple of two big unsigned integers.
///
/// Returns zero if either input is zero.
pub fn lcm(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let g = gcd(a, b);
    a.div(&g).mul(b)
}

/// Least common multiple of all integers in `1..=n`.
///
/// This is the `C_LCM` constant of Protocol 1 in the paper: with `N_max` the upper bound
/// on the number of records a single user may hold, `C_LCM = lcm(1, 2, ..., N_max)` makes
/// `C_LCM / N_u` an exact integer for every admissible per-user record count `N_u`.
pub fn lcm_up_to(n: u64) -> BigUint {
    let mut acc = BigUint::one();
    for i in 2..=n {
        acc = lcm(&acc, &BigUint::from_u64(i));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_small() {
        assert_eq!(gcd(&BigUint::from_u64(54), &BigUint::from_u64(24)), BigUint::from_u64(6));
        assert_eq!(gcd(&BigUint::from_u64(17), &BigUint::from_u64(5)), BigUint::from_u64(1));
        assert_eq!(gcd(&BigUint::zero(), &BigUint::from_u64(7)), BigUint::from_u64(7));
    }

    #[test]
    fn lcm_small() {
        assert_eq!(lcm(&BigUint::from_u64(4), &BigUint::from_u64(6)), BigUint::from_u64(12));
        assert_eq!(lcm(&BigUint::zero(), &BigUint::from_u64(6)), BigUint::zero());
    }

    #[test]
    fn lcm_up_to_ten() {
        // lcm(1..=10) = 2520
        assert_eq!(lcm_up_to(10), BigUint::from_u64(2520));
        assert_eq!(lcm_up_to(1), BigUint::one());
    }

    #[test]
    fn lcm_up_to_grows() {
        let a = lcm_up_to(20);
        let b = lcm_up_to(30);
        assert!(a < b);
        // lcm(1..=20) = 232792560
        assert_eq!(a, BigUint::from_u64(232_792_560));
    }
}
