//! Cheap, high-quality seed derivation.
//!
//! All parallel code in the workspace derives per-task RNGs from a base seed and a task
//! index through these functions, so results are a pure function of `(seed, index)` and
//! never of thread scheduling. The finalizer is SplitMix64 (Steele et al., "Fast
//! splittable pseudorandom number generators"), which is a bijection on `u64` with full
//! avalanche — two derived seeds collide only if their inputs collide.

/// The SplitMix64 finalizer: a bijective mix of all 64 bits.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from a base seed and a domain tag.
///
/// Use distinct tags for distinct purposes within one round (e.g. per-user training vs.
/// per-silo noise) so the streams never overlap.
#[inline]
pub fn mix(seed: u64, tag: u64) -> u64 {
    splitmix64(seed ^ splitmix64(tag))
}

/// The seed for task `index` of a parallel region seeded with `seed`:
/// `splitmix64(seed ^ hash(index))`.
///
/// Callers feed this to `StdRng::seed_from_u64`, which makes every index's RNG
/// bitwise-identical at any thread count.
#[inline]
pub fn index_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_mul(0xD1B5_4A32_D192_ED03)))
}

/// A 256-bit base seed for a parallel region, as four words drawn from the caller's RNG.
///
/// A [`WideSeed`] region preserves the full entropy of its source RNG, unlike a `u64`
/// base seed ([`index_seed`]), which caps a region at 64 bits — fine for simulation
/// noise, not for encryption randomness.
pub type WideSeed = [u64; 4];

/// Draws a [`WideSeed`] from `rng` (four sequential words).
#[inline]
pub fn wide_seed_from_rng<R: rand::Rng + ?Sized>(rng: &mut R) -> WideSeed {
    [rng.gen(), rng.gen(), rng.gen(), rng.gen()]
}

/// Derives the 256-bit RNG seed for task `index` of a region seeded with `seed`.
///
/// Each lane is mixed bijectively with a lane-tagged hash of the index, so for a fixed
/// index the map from `seed` to the derived seed is a bijection on 256 bits (entropy
/// preserving), and distinct indices yield unrelated seeds. Callers feed this to
/// `StdRng::from_seed`.
#[inline]
pub fn index_seed_wide(seed: WideSeed, index: u64) -> [u8; 32] {
    let h = splitmix64(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut out = [0u8; 32];
    for (lane, word) in seed.iter().enumerate() {
        let tag = splitmix64(h ^ (lane as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let mixed = splitmix64(word ^ tag);
        out[lane * 8..(lane + 1) * 8].copy_from_slice(&mixed.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_injective_on_a_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn index_seeds_differ_per_index_and_per_seed() {
        assert_ne!(index_seed(1, 0), index_seed(1, 1));
        assert_ne!(index_seed(1, 0), index_seed(2, 0));
        assert_eq!(index_seed(7, 3), index_seed(7, 3));
    }

    #[test]
    fn tags_separate_streams() {
        assert_ne!(mix(42, 0), mix(42, 1));
        assert_ne!(mix(42, 0), mix(43, 0));
    }

    #[test]
    fn wide_seeds_differ_per_index_per_lane_and_per_seed() {
        let base: WideSeed = [1, 2, 3, 4];
        assert_ne!(index_seed_wide(base, 0), index_seed_wide(base, 1));
        assert_ne!(index_seed_wide(base, 0), index_seed_wide([1, 2, 3, 5], 0));
        assert_eq!(index_seed_wide(base, 7), index_seed_wide(base, 7));
        // identical lane words must not produce identical lane outputs
        let out = index_seed_wide([9, 9, 9, 9], 0);
        assert_ne!(out[0..8], out[8..16]);
    }
}
