//! Primality testing and random prime generation.
//!
//! Used by the Paillier key generation of the private weighting protocol (Protocol 1).
//! The Miller–Rabin test with 40 random rounds gives an error probability below `2^-80`,
//! which is standard practice for cryptographic prime generation.

use crate::biguint::BigUint;
use crate::montgomery::ModulusCtx;
use rand::Rng;

/// Default number of Miller–Rabin rounds (error probability below `4^-40`).
pub const DEFAULT_MILLER_RABIN_ROUNDS: usize = 40;

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Probabilistic primality test (trial division + Miller–Rabin).
pub fn is_probably_prime<R: Rng + ?Sized>(rng: &mut R, n: &BigUint, rounds: usize) -> bool {
    if n < &BigUint::two() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let p_big = BigUint::from_u64(p);
        if n == &p_big {
            return true;
        }
        if n.rem(&p_big).is_zero() {
            return false;
        }
    }
    miller_rabin(rng, n, rounds)
}

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// Assumes `n` is odd and larger than the small-prime table. One Montgomery context
/// ([`ModulusCtx`]) is shared across all witness bases, and the `x ← x²` witness chain
/// stays in Montgomery form throughout (equality against `1` and `n − 1` is checked in
/// the Montgomery domain, which is a bijection), so key generation pays the per-modulus
/// precomputation once per candidate instead of once per exponentiation.
pub fn miller_rabin<R: Rng + ?Sized>(rng: &mut R, n: &BigUint, rounds: usize) -> bool {
    let one = BigUint::one();
    let n_minus_1 = n.sub(&one);
    // Write n-1 = d * 2^r with d odd.
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while d.is_even() {
        d = d.shr_bits(1);
        r += 1;
    }
    let ctx = ModulusCtx::new(n);
    let one_m = ctx.one();
    let n_minus_1_m = ctx.to_mont(&n_minus_1);
    'witness: for _ in 0..rounds {
        // base in [2, n-2]
        let bound = n.sub(&BigUint::from_u64(3));
        let a = BigUint::random_below(rng, &bound).add(&BigUint::two());
        let mut x = ctx.pow_mont(&ctx.to_mont(&a), &d);
        if x == one_m || x == n_minus_1_m {
            continue 'witness;
        }
        for _ in 0..r.saturating_sub(1) {
            x = ctx.mont_sqr(&x);
            if x == n_minus_1_m {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
pub fn generate_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 2, "a prime needs at least 2 bits");
    loop {
        let mut candidate = BigUint::random_with_bits(rng, bits);
        // Force odd.
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
            if candidate.bit_length() != bits {
                continue;
            }
        }
        if is_probably_prime(rng, &candidate, DEFAULT_MILLER_RABIN_ROUNDS) {
            return candidate;
        }
    }
}

/// Generates a safe prime `p = 2q + 1` (with `q` prime) with exactly `bits` bits.
///
/// Used for Paillier keys ([`generate_safe_prime_pair`]) and custom Diffie–Hellman
/// groups. From 32 bits on, the search draws a random start `q₀ ≡ 5 (mod 6)` (so that
/// neither `q` nor `p` is divisible by 2 or 3) and walks `q = q₀ + 6k` through a window
/// of `bits²/8` steps, striking out every `k` for which a prime below `bits²/4`
/// (clamped to `[2^10, 2^20]`) divides `q` or `2q + 1`. Both sizes grow like the gap
/// between safe primes: the window holds about two on average, and the bound keeps the
/// residues `q₀ mod l` cheap next to the Fermat tests the sieve saves (at 1536 bits it
/// leaves about 2000 candidates per safe prime, against about 3800 for primes below
/// `2^14`). Each survivor takes a base-2 Fermat test on `q`, then on `p`, then
/// [`DEFAULT_MILLER_RABIN_ROUNDS`] Miller–Rabin rounds on `q`.
/// For a prime `q`, `2^(p−1) ≡ 1 (mod p)` proves `p` prime (Pocklington's criterion
/// with `p − 1 = 2q`, `q > √p` and `gcd(2² − 1, p) = 1`), so `p` needs no further
/// rounds.
pub fn generate_safe_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 3, "a safe prime needs at least 3 bits");
    if bits < 32 {
        // Too short to sieve: a sieve prime could be q itself.
        loop {
            let q = generate_prime(rng, bits - 1);
            let p = q.shl_bits(1).add(&BigUint::one());
            if p.bit_length() == bits && is_probably_prime(rng, &p, DEFAULT_MILLER_RABIN_ROUNDS) {
                return p;
            }
        }
    }
    let primes = sieve_primes((bits * bits / 4).clamp(1 << 10, 1 << 20) as u64);
    let window = bits * bits / 8;
    let mut struck = vec![false; window];
    loop {
        let start = BigUint::random_with_bits(rng, bits - 1);
        let start = start.add(&BigUint::from_u64((11 - rem_small(&start, 6)) % 6));
        struck.fill(false);
        for &(l, inv6) in &primes {
            let r = rem_small(&start, l);
            // q₀ + 6k ≡ t (mod l) at k ≡ (t − q₀)·6⁻¹: t = 0 makes l | q and
            // t = (l − 1)/2 makes l | 2q + 1.
            for t in [0, (l - 1) / 2] {
                let first = ((t + l - r) % l * inv6 % l) as usize;
                for k in (first..window).step_by(l as usize) {
                    struck[k] = true;
                }
            }
        }
        for k in (0..window).filter(|&k| !struck[k]) {
            let q = start.add(&BigUint::from_u64(6 * k as u64));
            if q.bit_length() != bits - 1 {
                break;
            }
            let p = q.shl_bits(1).add(&BigUint::one());
            if fermat_base_2(&q)
                && fermat_base_2(&p)
                && miller_rabin(rng, &q, DEFAULT_MILLER_RABIN_ROUNDS)
            {
                return p;
            }
        }
    }
}

/// Generates two distinct safe primes of the given bit length (used by Paillier key
/// generation).
pub fn generate_safe_prime_pair<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> (BigUint, BigUint) {
    let p = generate_safe_prime(rng, bits);
    loop {
        let q = generate_safe_prime(rng, bits);
        if q != p {
            return (p, q);
        }
    }
}

/// The primes `5 ≤ l < bound`, each with `6⁻¹ mod l`, by the sieve of Eratosthenes.
fn sieve_primes(bound: u64) -> Vec<(u64, u64)> {
    let mut composite = vec![false; bound as usize];
    let mut out = Vec::new();
    for l in 2..bound {
        if composite[l as usize] {
            continue;
        }
        for m in (l * l..bound).step_by(l as usize) {
            composite[m as usize] = true;
        }
        if l >= 5 {
            // 6⁻¹ = (1 + t·l)/6 for the one t < 6 that makes the numerator divisible.
            let t = (0..6).find(|t| (1 + t * l) % 6 == 0).expect("l is coprime to 6");
            out.push((l, (1 + t * l) / 6));
        }
    }
    out
}

/// `x mod d` for a small `d`, limb by limb.
fn rem_small(x: &BigUint, d: u64) -> u64 {
    x.limbs()
        .iter()
        .rev()
        .fold(0, |r, &limb| ((u128::from(r) << 64 | u128::from(limb)) % u128::from(d)) as u64)
}

/// Whether `2^(m−1) ≡ 1 (mod m)` for an odd `m > 2`.
fn fermat_base_2(m: &BigUint) -> bool {
    let ctx = ModulusCtx::new(m);
    ctx.pow_mont(&ctx.to_mont(&BigUint::two()), &m.sub(&BigUint::one())) == ctx.one()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mod_pow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference witness loop over the schoolbook [`mod_pow`]: draws witnesses from `rng`
    /// in the same order as [`miller_rabin`], so both consume the RNG identically.
    fn miller_rabin_generic<R: Rng + ?Sized>(rng: &mut R, n: &BigUint, rounds: usize) -> bool {
        let n_minus_1 = n.sub(&BigUint::one());
        let mut d = n_minus_1.clone();
        let mut r = 0usize;
        while d.is_even() {
            d = d.shr_bits(1);
            r += 1;
        }
        'witness: for _ in 0..rounds {
            let bound = n.sub(&BigUint::from_u64(3));
            let a = BigUint::random_below(rng, &bound).add(&BigUint::two());
            let mut x = mod_pow(&a, &d, n);
            if x.is_one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..r.saturating_sub(1) {
                x = mod_pow(&x, &BigUint::two(), n);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    #[test]
    fn miller_rabin_matches_the_generic_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = generate_prime(&mut rng, 96);
        let q = generate_prime(&mut rng, 96);
        // Primes, a semiprime, Carmichael numbers and random odd candidates: both
        // verdicts must agree and leave the RNG in the same state.
        let mut candidates =
            vec![p.clone(), q.clone(), p.mul(&q), BigUint::from_u64(1_000_000_007)];
        candidates.extend([561u64, 62745, 162401].map(BigUint::from_u64));
        for _ in 0..16 {
            let c = BigUint::random_with_bits(&mut rng, 80);
            candidates.push(if c.is_even() { c.add(&BigUint::one()) } else { c });
        }
        for (i, n) in candidates.iter().enumerate() {
            let mut engine_rng = StdRng::seed_from_u64(100 + i as u64);
            let mut generic_rng = engine_rng.clone();
            assert_eq!(
                miller_rabin(&mut engine_rng, n, 20),
                miller_rabin_generic(&mut generic_rng, n, 20),
                "verdict for {n:?}"
            );
            assert_eq!(engine_rng.gen::<u64>(), generic_rng.gen::<u64>(), "RNG state for {n:?}");
        }
    }

    #[test]
    fn small_primes_detected() {
        let mut rng = StdRng::seed_from_u64(0);
        for p in [2u64, 3, 5, 7, 97, 251, 257, 65537, 1_000_000_007] {
            assert!(is_probably_prime(&mut rng, &BigUint::from_u64(p), 20), "{p} should be prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        for c in [0u64, 1, 4, 6, 9, 15, 21, 255, 561, 1105, 341, 1_000_000_008] {
            assert!(
                !is_probably_prime(&mut rng, &BigUint::from_u64(c), 20),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool the Fermat test but not Miller-Rabin.
        let mut rng = StdRng::seed_from_u64(1);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401] {
            assert!(!is_probably_prime(&mut rng, &BigUint::from_u64(c), 20));
        }
    }

    #[test]
    fn generated_primes_have_requested_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [16usize, 32, 64, 128] {
            let p = generate_prime(&mut rng, bits);
            assert_eq!(p.bit_length(), bits);
            assert!(is_probably_prime(&mut rng, &p, 20));
        }
    }

    #[test]
    fn generated_prime_pair_distinct() {
        let mut rng = StdRng::seed_from_u64(6);
        let (p, q) = generate_safe_prime_pair(&mut rng, 64);
        assert_ne!(p, q);
    }

    #[test]
    fn safe_prime_structure() {
        // Below the sieve (8, 31 bits), at its first size (32) and well above it.
        let mut rng = StdRng::seed_from_u64(7);
        for bits in [8usize, 31, 32, 64, 256] {
            let p = generate_safe_prime(&mut rng, bits);
            assert_eq!(p.bit_length(), bits);
            let q = p.sub(&BigUint::one()).shr_bits(1);
            assert!(is_probably_prime(&mut rng, &p, 20), "{bits} bits: p");
            assert!(is_probably_prime(&mut rng, &q, 20), "{bits} bits: (p − 1)/2");
        }
    }

    #[test]
    fn sieve_helpers_match_bigint_arithmetic() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = BigUint::random_with_bits(&mut rng, 300);
        let primes = sieve_primes(1 << 14);
        assert_eq!(primes.len(), 1900 - 2, "π(2^14) without 2 and 3");
        for &(l, inv6) in primes.iter().step_by(97) {
            assert_eq!(BigUint::from_u64(rem_small(&x, l)), x.rem(&BigUint::from_u64(l)));
            assert_eq!(6 * inv6 % l, 1, "6⁻¹ mod {l}");
        }
        assert_eq!(primes[..3].iter().map(|&(l, _)| l).collect::<Vec<_>>(), [5, 7, 11]);
        // Fermat base 2 accepts a prime and rejects a product of two.
        assert!(fermat_base_2(&BigUint::from_u64(1_000_000_007)));
        assert!(!fermat_base_2(&BigUint::from_u128(1_000_000_007 * 1_000_000_009)));
    }

    #[test]
    fn product_of_two_primes_is_composite() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = generate_prime(&mut rng, 48);
        let q = generate_prime(&mut rng, 48);
        assert!(!is_probably_prime(&mut rng, &p.mul(&q), 20));
    }
}
