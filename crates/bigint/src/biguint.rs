//! Unsigned arbitrary-precision integers.
//!
//! [`BigUint`] stores its magnitude as little-endian `u64` limbs with no trailing zero
//! limbs (the canonical form; zero is the empty limb vector). All arithmetic keeps the
//! representation canonical.

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// Number of bits per limb.
pub const LIMB_BITS: usize = 64;

/// An unsigned arbitrary-precision integer.
///
/// The representation is a little-endian vector of `u64` limbs with no trailing zeros.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// The value `2`.
    pub fn two() -> Self {
        BigUint { limbs: vec![2] }
    }

    /// Builds a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = BigUint { limbs: vec![lo, hi] };
        out.normalize();
        out
    }

    /// Builds a value from little-endian limbs (normalizing trailing zeros).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Returns the little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Builds a value from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serialises to big-endian bytes with no leading zero bytes (zero -> empty vec).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // skip leading zeros of the most significant limb
                let mut skipping = true;
                for &b in bytes.iter() {
                    if skipping && b == 0 {
                        continue;
                    }
                    skipping = false;
                    out.push(b);
                }
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        let mut value = Self::zero();
        for ch in s.chars() {
            let digit = ch.to_digit(16)? as u64;
            value = value.shl_bits(4).add(&BigUint::from_u64(digit));
        }
        Some(value)
    }

    /// Formats as lowercase hexadecimal (no prefix).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{:x}", limb));
            } else {
                s.push_str(&format!("{:016x}", limb));
            }
        }
        s
    }

    /// Parses a decimal string.
    pub fn from_decimal(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        let ten = BigUint::from_u64(10);
        let mut value = Self::zero();
        for ch in s.chars() {
            let digit = ch.to_digit(10)? as u64;
            value = value.mul(&ten).add(&BigUint::from_u64(digit));
        }
        Some(value)
    }

    /// Formats as a decimal string.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        let ten = BigUint::from_u64(10);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(&ten);
            digits.push(std::char::from_digit(r.to_u64().unwrap_or(0) as u32, 10).unwrap());
            cur = q;
        }
        digits.iter().rev().collect()
    }

    /// Attempts to convert to `u64`; returns `None` if the value does not fit.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Attempts to convert to `u128`; returns `None` if the value does not fit.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | ((self.limbs[1] as u128) << 64)),
            _ => None,
        }
    }

    /// Lossy conversion to `f64` (used only for diagnostics and encoding sanity checks).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            acc = acc * 2f64.powi(64) + limb as f64;
        }
        acc
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` iff the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns the number of significant bits (zero has zero bits).
    pub fn bit_length(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() - 1) * LIMB_BITS + (LIMB_BITS - top.leading_zeros() as usize)
            }
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / LIMB_BITS;
        let off = i % LIMB_BITS;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to one, growing the representation if needed.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / LIMB_BITS;
        let off = i % LIMB_BITS;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in longer.iter().enumerate() {
            let a = limb as u128;
            let b = *shorter.get(i).unwrap_or(&0) as u128;
            let sum = a + b + carry as u128;
            out.push(sum as u64);
            carry = (sum >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Subtraction; panics if `other > self`. Use [`BigUint::checked_sub`] otherwise.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other).expect("BigUint::sub would underflow (other > self)")
    }

    /// Subtraction returning `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i128;
            let b = *other.limbs.get(i).unwrap_or(&0) as i128;
            let mut diff = a - b - borrow;
            if diff < 0 {
                diff += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(diff as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// Schoolbook multiplication. Up to the 96 limbs of a 3072-bit key's `n²`, the widest
    /// operand a key makes, a Karatsuba split measured no faster.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Shift left by an arbitrary number of bits.
    pub fn shl_bits(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Shift right by an arbitrary number of bits.
    pub fn shr_bits(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() { src[i + 1] << (LIMB_BITS - bit_shift) } else { 0 };
                out.push(lo | hi);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Division returning the quotient only.
    pub fn div(&self, divisor: &BigUint) -> BigUint {
        self.div_rem(divisor).0
    }

    /// Division returning the remainder only.
    pub fn rem(&self, divisor: &BigUint) -> BigUint {
        self.div_rem(divisor).1
    }

    /// Long division (Knuth algorithm D). Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            return self.div_rem_small(divisor.limbs[0]);
        }
        // Knuth algorithm D.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl_bits(shift);
        let u = self.shl_bits(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut u_limbs = u.limbs.clone();
        u_limbs.push(0); // u has m+n+1 digits
        let v_limbs = &v.limbs;
        let mut q = vec![0u64; m + 1];
        let b = 1u128 << 64;
        for j in (0..=m).rev() {
            let top = ((u_limbs[j + n] as u128) << 64) | u_limbs[j + n - 1] as u128;
            let mut qhat = top / v_limbs[n - 1] as u128;
            let mut rhat = top % v_limbs[n - 1] as u128;
            while qhat >= b
                || qhat * v_limbs[n - 2] as u128 > (rhat << 64) + u_limbs[j + n - 2] as u128
            {
                qhat -= 1;
                rhat += v_limbs[n - 1] as u128;
                if rhat >= b {
                    break;
                }
            }
            // Multiply and subtract: u[j..j+n+1] -= qhat * v
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v_limbs[i] as u128 + carry;
                carry = p >> 64;
                let sub = (p as u64) as i128;
                let mut diff = u_limbs[j + i] as i128 - sub - borrow;
                if diff < 0 {
                    diff += 1i128 << 64;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                u_limbs[j + i] = diff as u64;
            }
            let mut diff = u_limbs[j + n] as i128 - carry as i128 - borrow;
            if diff < 0 {
                diff += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            u_limbs[j + n] = diff as u64;
            if borrow != 0 {
                // qhat was one too large: add back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let sum = u_limbs[j + i] as u128 + v_limbs[i] as u128 + carry;
                    u_limbs[j + i] = sum as u64;
                    carry = sum >> 64;
                }
                u_limbs[j + n] = (u_limbs[j + n] as u128 + carry) as u64;
            }
            q[j] = qhat as u64;
        }
        let quotient = BigUint::from_limbs(q);
        let remainder = BigUint::from_limbs(u_limbs[..n].to_vec()).shr_bits(shift);
        (quotient, remainder)
    }

    fn div_rem_small(&self, d: u64) -> (BigUint, BigUint) {
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u64;
        for i in (0..self.limbs.len()).rev() {
            let cur = ((rem as u128) << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = (cur % d as u128) as u64;
        }
        (BigUint::from_limbs(q), BigUint::from_u64(rem))
    }

    /// Uniform random value with exactly `bits` significant bits (top bit set).
    pub fn random_with_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0);
        let limbs = bits.div_ceil(LIMB_BITS);
        let mut out = Vec::with_capacity(limbs);
        for _ in 0..limbs {
            out.push(rng.gen::<u64>());
        }
        let mut v = BigUint::from_limbs(out);
        // Shift out the excess bits (the value is then below 2^bits), then force the top
        // bit.
        let excess = limbs * LIMB_BITS - bits;
        if excess > 0 {
            v = v.shr_bits(excess);
        }
        v.set_bit(bits - 1);
        v
    }

    /// Uniform random value in `[0, bound)`; panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below requires a positive bound");
        let bits = bound.bit_length();
        loop {
            let limbs = bits.div_ceil(LIMB_BITS);
            let mut out = Vec::with_capacity(limbs);
            for _ in 0..limbs {
                out.push(rng.gen::<u64>());
            }
            let excess = limbs * LIMB_BITS - bits;
            let candidate = BigUint::from_limbs(out).shr_bits(excess);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_construction() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::from_u64(42).to_u64(), Some(42));
        assert_eq!(BigUint::from_u128(1u128 << 100).bit_length(), 101);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_u128(u128::MAX);
        let b = BigUint::from_u64(12345);
        let c = a.add(&b);
        assert_eq!(c.sub(&b), a);
        assert_eq!(c.sub(&a), b);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::one();
        assert_eq!(a.add(&b), BigUint::from_u128(1u128 << 64));
    }

    #[test]
    fn checked_sub_underflow() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(7);
        assert!(a.checked_sub(&b).is_none());
        assert_eq!(b.checked_sub(&a), Some(BigUint::from_u64(2)));
    }

    #[test]
    fn mul_small() {
        let a = BigUint::from_u64(0xFFFF_FFFF_FFFF_FFFF);
        let b = BigUint::from_u64(0xFFFF_FFFF_FFFF_FFFF);
        let c = a.mul(&b);
        assert_eq!(c.to_u128(), Some(0xFFFF_FFFF_FFFF_FFFFu128 * 0xFFFF_FFFF_FFFF_FFFFu128));
    }

    #[test]
    fn mul_zero_and_one() {
        let a = BigUint::from_u64(99999);
        assert!(a.mul(&BigUint::zero()).is_zero());
        assert_eq!(a.mul(&BigUint::one()), a);
    }

    #[test]
    fn div_rem_small_divisor() {
        let a = BigUint::from_u128(123456789012345678901234567890u128);
        let (q, r) = a.div_rem(&BigUint::from_u64(97));
        assert_eq!(q.mul(&BigUint::from_u64(97)).add(&r), a);
        assert!(r < BigUint::from_u64(97));
    }

    #[test]
    fn div_rem_multi_limb() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let a = BigUint::random_with_bits(&mut rng, 512);
            let b = BigUint::random_with_bits(&mut rng, 200);
            let (q, r) = a.div_rem(&b);
            assert_eq!(q.mul(&b).add(&r), a);
            assert!(r < b);
        }
    }

    #[test]
    fn div_by_larger_is_zero() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u128(1u128 << 100);
        let (q, r) = a.div_rem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = BigUint::from_u64(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_u64(1);
        assert_eq!(a.shl_bits(64), BigUint::from_u128(1u128 << 64));
        assert_eq!(a.shl_bits(130).shr_bits(130), a);
        assert_eq!(BigUint::from_u64(0b1011).shr_bits(2), BigUint::from_u64(0b10));
    }

    #[test]
    fn bit_access() {
        let mut a = BigUint::zero();
        a.set_bit(100);
        assert!(a.bit(100));
        assert!(!a.bit(99));
        assert_eq!(a.bit_length(), 101);
    }

    #[test]
    fn hex_roundtrip() {
        let a = BigUint::from_hex("deadbeefcafebabe1234567890abcdef").unwrap();
        assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip() {
        let a = BigUint::from_decimal("123456789012345678901234567890123456789").unwrap();
        assert_eq!(BigUint::from_decimal(&a.to_decimal()).unwrap(), a);
        assert_eq!(BigUint::zero().to_decimal(), "0");
    }

    #[test]
    fn bytes_roundtrip() {
        let a = BigUint::from_hex("0102030405060708090a0b0c0d0e0f").unwrap();
        let bytes = a.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), a);
    }

    #[test]
    fn ordering() {
        assert!(BigUint::from_u64(5) < BigUint::from_u64(6));
        assert!(BigUint::from_u128(1u128 << 64) > BigUint::from_u64(u64::MAX));
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let bound = BigUint::from_u64(1000);
        for _ in 0..100 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_with_bits_has_exact_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [1usize, 5, 64, 65, 128, 257] {
            let v = BigUint::random_with_bits(&mut rng, bits);
            assert_eq!(v.bit_length(), bits);
        }
    }
}
