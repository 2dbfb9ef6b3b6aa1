//! Fixed-point encoding of real values onto the finite field `F_n` (Algorithm 5).
//!
//! Model deltas and Gaussian noise are real-valued, but the Paillier plaintext space and
//! the secure-aggregation masks live in `F_n`. `Encode` divides by the precision parameter
//! `P` (e.g. `1e-10`), rounds to an integer, and maps negative values to the upper half of
//! the field. `Decode` reverses the mapping, removes the `C_LCM` factor introduced by the
//! private weighting protocol, and rescales by `P`.
//!
//! Correctness (Theorem 4) holds as long as the encoded magnitudes stay below `n / 2`,
//! which the codec checks with debug assertions.

use uldp_bigint::BigUint;

/// Encoder/decoder between `f64` values and elements of `F_n`.
///
/// ```
/// use uldp_bigint::BigUint;
/// use uldp_crypto::FixedPointCodec;
///
/// let codec = FixedPointCodec::new(1e-10, BigUint::one().shl_bits(256));
/// let encoded = codec.encode(-3.25);
/// assert!((codec.decode_plain(&encoded) - (-3.25)).abs() <= 1e-10);
/// ```
#[derive(Clone, Debug)]
pub struct FixedPointCodec {
    /// Precision parameter `P` of Algorithm 5 (the value of one least-significant unit).
    precision: f64,
    /// Field modulus `n` (the Paillier modulus in Protocol 1).
    modulus: BigUint,
}

impl FixedPointCodec {
    /// Creates a codec with precision `P` over `F_modulus`.
    ///
    /// # Panics
    /// Panics if `precision` is not strictly positive and finite, or the modulus is zero.
    pub fn new(precision: f64, modulus: BigUint) -> Self {
        assert!(precision.is_finite() && precision > 0.0, "precision must be positive");
        assert!(!modulus.is_zero(), "modulus must be positive");
        FixedPointCodec { precision, modulus }
    }

    /// The precision parameter `P`.
    pub fn precision(&self) -> f64 {
        self.precision
    }

    /// The field modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// `Encode(x, P, n)`: fixed-point quantisation of `x` into `F_n`.
    ///
    /// Negative values map to the upper half of the field (two's-complement-style), so
    /// that field addition corresponds to integer addition of the centred representatives.
    pub fn encode(&self, x: f64) -> BigUint {
        assert!(x.is_finite(), "cannot encode non-finite value {x}");
        let scaled = (x / self.precision).round();
        assert!(
            scaled.abs() < 1.7e38,
            "value {x} exceeds the fixed-point range at precision {}",
            self.precision
        );
        let magnitude = BigUint::from_u128(scaled.abs() as u128);
        debug_assert!(
            magnitude < self.modulus.div(&BigUint::two()),
            "encoded magnitude must stay below n/2 for unambiguous decoding"
        );
        if scaled < 0.0 {
            if magnitude.is_zero() {
                BigUint::zero()
            } else {
                self.modulus.sub(&magnitude.rem(&self.modulus))
            }
        } else {
            magnitude.rem(&self.modulus)
        }
    }

    /// `Decode(x, P, C_LCM, n)`: recovers a real value from a field element, removing the
    /// `C_LCM` factor used by the private weighting protocol.
    ///
    /// Pass `C_LCM = 1` (see [`FixedPointCodec::decode_plain`]) when no factor was applied.
    pub fn decode(&self, x: &BigUint, c_lcm: &BigUint) -> f64 {
        assert!(!c_lcm.is_zero(), "C_LCM must be positive");
        // The centred representative lies in (−n/2, n/2]: the upper half of the field
        // holds the negative values.
        let x = x.rem(&self.modulus);
        let (sign, magnitude) = if x > self.modulus.div(&BigUint::two()) {
            (-1.0, self.modulus.sub(&x))
        } else {
            (1.0, x)
        };
        // Split the division by C_LCM into an exact integer quotient plus a fractional
        // correction so that very large C_LCM values (which overflow f64) still decode
        // correctly: the quotient carries the signal, the remainder is < 1 unit.
        let (q, r) = magnitude.div_rem(c_lcm);
        let c_lcm_f = c_lcm.to_f64();
        let frac = if c_lcm_f.is_finite() && c_lcm_f > 0.0 { r.to_f64() / c_lcm_f } else { 0.0 };
        sign * (q.to_f64() + frac) * self.precision
    }

    /// Decodes a field element that carries no `C_LCM` factor.
    pub fn decode_plain(&self, x: &BigUint) -> f64 {
        self.decode(x, &BigUint::one())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> FixedPointCodec {
        // modulus comfortably larger than the encoded range
        let modulus = BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffff").unwrap();
        FixedPointCodec::new(1e-10, modulus)
    }

    #[test]
    fn roundtrip_positive_and_negative() {
        let c = codec();
        for v in [0.0, 1.0, -1.0, 0.5, -0.25, 123.456, -9876.54321, 1e-9, -1e-9] {
            let decoded = c.decode_plain(&c.encode(v));
            assert!((decoded - v).abs() <= c.precision(), "{v} -> {decoded}");
        }
    }

    #[test]
    fn zero_encodes_to_zero() {
        let c = codec();
        assert!(c.encode(0.0).is_zero());
        assert!(c.encode(-0.0).is_zero());
        assert_eq!(c.decode_plain(&BigUint::zero()), 0.0);
    }

    #[test]
    fn addition_in_field_matches_real_addition() {
        let c = codec();
        let m = c.modulus().clone();
        let pairs = [(1.5, 2.25), (-1.5, 2.25), (1.5, -2.25), (-1.5, -0.75)];
        for (a, b) in pairs {
            let sum_field = uldp_bigint::modular::mod_add(&c.encode(a), &c.encode(b), &m);
            let decoded = c.decode_plain(&sum_field);
            assert!((decoded - (a + b)).abs() <= 2.0 * c.precision(), "{a}+{b} -> {decoded}");
        }
    }

    #[test]
    fn decode_removes_c_lcm_factor() {
        let c = codec();
        let c_lcm = BigUint::from_u64(2520); // lcm(1..=10)
        let value = 3.75f64;
        // encode then scale by C_LCM in the field, as the protocol does for noise terms
        let scaled = uldp_bigint::modular::mod_mul(&c.encode(value), &c_lcm, c.modulus());
        let decoded = c.decode(&scaled, &c_lcm);
        assert!((decoded - value).abs() <= c.precision());
    }

    #[test]
    fn decode_handles_huge_c_lcm() {
        // C_LCM for large N_max has hundreds of digits and overflows f64; the decoder
        // must still recover values carried as multiples of C_LCM. Use a wide modulus so
        // the product stays below n/2.
        let c = FixedPointCodec::new(1e-10, BigUint::one().shl_bits(800));
        let c_lcm = uldp_bigint::lcm_up_to(200);
        let value = -42.5f64;
        let scaled = uldp_bigint::modular::mod_mul(&c.encode(value), &c_lcm, c.modulus());
        let decoded = c.decode(&scaled, &c_lcm);
        assert!((decoded - value).abs() <= c.precision(), "decoded {decoded}");
    }

    #[test]
    fn decode_centres_at_half_an_odd_modulus() {
        // n = 101: the centred representatives are −50..=50, so 50 decodes as itself and
        // 51 as 51 − 101 = −50.
        let c = FixedPointCodec::new(1.0, BigUint::from_u64(101));
        for (x, expected) in [(0, 0.0), (3, 3.0), (50, 50.0), (51, -50.0), (100, -1.0)] {
            assert_eq!(c.decode_plain(&BigUint::from_u64(x)), expected, "decode({x})");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn encode_rejects_nan() {
        codec().encode(f64::NAN);
    }
}
