//! Multiplicative blinding in the finite field `F_n`.
//!
//! In Protocol 1 the silos share a random seed `R` (unknown to the server) from which they
//! expand a blinding factor `r_u ∈ F_n` per user. Each silo sends the server only the
//! blinded histogram value `B(n_{s,u}) = r_u · n_{s,u} mod n`; the server can aggregate and
//! invert the blinded totals (`B_inv(N_u) = (r_u · N_u)^{-1}`) but, because multiplication
//! by a uniformly random unit is a bijection of `F_n`, learns nothing about `N_u` itself
//! (Theorem 5). The silos later cancel `r_u` by multiplying with it once more inside the
//! Paillier ciphertext.

use crate::sha256::hash_parts;
use uldp_bigint::modular::mod_mul;
use uldp_bigint::BigUint;
use uldp_telemetry::metrics;

/// Expands per-user multiplicative blinding factors from the silo-shared seed `R`.
#[derive(Clone, Debug)]
pub struct MultiplicativeBlinder {
    seed: [u8; 32],
    modulus: BigUint,
}

impl MultiplicativeBlinder {
    /// Creates a blinder over `F_modulus` from the shared random seed `R`.
    pub fn new(seed: [u8; 32], modulus: BigUint) -> Self {
        assert!(!modulus.is_zero());
        MultiplicativeBlinder { seed, modulus }
    }

    /// The blinding factor `r_u` for user index `u`.
    ///
    /// Factors are sampled to be invertible (coprime to the modulus); for a Paillier
    /// modulus `n = p·q` with large primes the rejection probability is negligible
    /// (Eq. (4) of the paper). Each candidate pays its own coprimality `gcd`; expand
    /// many users at once with [`MultiplicativeBlinder::factors`].
    pub fn factor(&self, user_index: u64) -> BigUint {
        let mut counter = 0u64;
        loop {
            let (candidate, at) = self.candidate(user_index, counter);
            metrics::BLIND_COPRIMALITY_CHECK.inc();
            if uldp_bigint::gcd(&candidate, &self.modulus).is_one() {
                return candidate;
            }
            counter = at + 1;
        }
    }

    /// The blinding factors of `users`, in order: equal to
    /// [`MultiplicativeBlinder::factor`] element for element, at one coprimality `gcd`
    /// for the whole slice.
    ///
    /// Each user's first nonzero in-range candidate is expanded once, and one `gcd` of
    /// their product mod `n` checks them all: `gcd(∏ r_u mod n, n) = 1` exactly when
    /// every `r_u` is coprime to `n`. Otherwise (probability about `1/p + 1/q` per user
    /// for a Paillier `n = p·q`, `2⁻²⁵⁵` at 512 bits) every user is re-derived through
    /// `factor`.
    pub fn factors(&self, users: &[u64]) -> Vec<BigUint> {
        let candidates: Vec<BigUint> = users.iter().map(|&u| self.candidate(u, 0).0).collect();
        let product =
            candidates.iter().fold(BigUint::one(), |acc, r| mod_mul(&acc, r, &self.modulus));
        metrics::BLIND_COPRIMALITY_CHECK.inc();
        if uldp_bigint::gcd(&product, &self.modulus).is_one() {
            candidates
        } else {
            users.iter().map(|&u| self.factor(u)).collect()
        }
    }

    /// The first nonzero candidate below the modulus from `counter` on, with the counter
    /// that produced it: the SHA-256 expansion of `(R, u, counter)`, cut to the
    /// modulus's bit length.
    fn candidate(&self, user_index: u64, mut counter: u64) -> (BigUint, u64) {
        metrics::BLIND_FACTOR.inc();
        let bits = self.modulus.bit_length();
        let bytes_needed = bits.div_ceil(8);
        loop {
            let mut material = Vec::with_capacity(bytes_needed + 32);
            while material.len() < bytes_needed {
                let block = hash_parts(
                    "uldp-fl/multiplicative-blind",
                    &[
                        &self.seed,
                        &user_index.to_be_bytes(),
                        &counter.to_be_bytes(),
                        &(material.len() as u64).to_be_bytes(),
                    ],
                );
                material.extend_from_slice(&block);
            }
            material.truncate(bytes_needed);
            let candidate = BigUint::from_bytes_be(&material).shr_bits(bytes_needed * 8 - bits);
            if !candidate.is_zero() && candidate < self.modulus {
                return (candidate, counter);
            }
            counter += 1;
        }
    }

    /// Blinds `value` for user `user_index`: `r_u · value mod n`.
    pub fn blind(&self, user_index: u64, value: &BigUint) -> BigUint {
        mod_mul(&self.factor(user_index), value, &self.modulus)
    }

    /// The field modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modulus() -> BigUint {
        // product of two primes, mimicking a tiny Paillier modulus
        BigUint::from_u64(1_000_003).mul(&BigUint::from_u64(999_983))
    }

    fn blinder(tag: u8) -> MultiplicativeBlinder {
        let mut seed = [0u8; 32];
        seed[0] = tag;
        MultiplicativeBlinder::new(seed, modulus())
    }

    #[test]
    fn blind_unblind_roundtrip() {
        let b = blinder(1);
        let inv = uldp_bigint::modular::mod_inv(&b.factor(7), b.modulus()).expect("a unit");
        for v in [1u64, 2, 57, 1999, 123_456] {
            let value = BigUint::from_u64(v);
            let blinded = b.blind(7, &value);
            assert_ne!(blinded, value);
            assert_eq!(mod_mul(&inv, &blinded, b.modulus()), value);
        }
    }

    #[test]
    fn batch_factors_match_per_user_factors() {
        // Every first candidate is coprime to the test modulus: the one-gcd path.
        let b = blinder(6);
        let users: Vec<u64> = (0..64).chain([1 << 40, u64::MAX]).collect();
        let expected: Vec<BigUint> = users.iter().map(|&u| b.factor(u)).collect();
        assert!(users.iter().zip(&expected).all(|(&u, f)| b.candidate(u, 0).0 == *f));
        assert_eq!(b.factors(&users), expected);
        assert_eq!(b.factors(&users[5..6]), expected[5..6]);
        assert!(b.factors(&[]).is_empty());
    }

    #[test]
    fn batch_factors_fall_back_when_a_candidate_shares_a_factor() {
        // Small prime factors make many first candidates non-units, so the product
        // check fails and every user goes through `factor`.
        let m = [3u64, 5, 7, 11, 13, 1_000_003]
            .iter()
            .fold(BigUint::one(), |acc, &p| acc.mul(&BigUint::from_u64(p)));
        let b = MultiplicativeBlinder::new([8; 32], m.clone());
        let users: Vec<u64> = (0..32).collect();
        let expected: Vec<BigUint> = users.iter().map(|&u| b.factor(u)).collect();
        assert!(users.iter().zip(&expected).any(|(&u, f)| b.candidate(u, 0).0 != *f));
        assert!(expected.iter().all(|f| uldp_bigint::gcd(f, &m).is_one()));
        assert_eq!(b.factors(&users), expected);
    }

    #[test]
    fn factors_are_deterministic_per_user() {
        let b = blinder(2);
        assert_eq!(b.factor(3), b.factor(3));
        assert_ne!(b.factor(3), b.factor(4));
    }

    #[test]
    fn same_seed_gives_same_factors_across_silos() {
        // All silos share the seed R, so they must expand identical factors.
        let a = blinder(5);
        let b = blinder(5);
        for u in 0..20 {
            assert_eq!(a.factor(u), b.factor(u));
        }
    }

    #[test]
    fn factors_are_invertible() {
        let b = blinder(3);
        for u in 0..50 {
            let f = b.factor(u);
            assert!(uldp_bigint::modular::mod_inv(&f, b.modulus()).is_some());
        }
    }

    #[test]
    fn blinding_is_homomorphic_for_sums_of_same_user() {
        // r_u * a + r_u * b = r_u * (a + b) mod n — the property that lets the server
        // aggregate blinded histograms across silos before inverting.
        let b = blinder(4);
        let m = modulus();
        let a_val = BigUint::from_u64(17);
        let b_val = BigUint::from_u64(25);
        let lhs = uldp_bigint::modular::mod_add(&b.blind(9, &a_val), &b.blind(9, &b_val), &m);
        let rhs = b.blind(9, &uldp_bigint::modular::mod_add(&a_val, &b_val, &m));
        assert_eq!(lhs, rhs);
    }
}
