//! User-level Poisson sub-sampling with population-sub-linear draw cost.
//!
//! ULDP-FL sub-samples *users* per round: each user joins independently with
//! probability `q`. The naive draw is one Bernoulli trial per user — `O(|U|)` RNG
//! consumption and an `O(|U|)` dense mask even when `q·|U|` users participate. At the
//! ROADMAP's 10⁵–10⁶-user populations that per-round pass dominates everything the
//! sampled users actually cost.
//!
//! [`SampleMask::poisson`] replaces the pass with **inversion-based sampling over
//! sorted geometric gaps**: the gap between consecutive sampled indices under
//! independent Bernoulli(q) trials is geometrically distributed, and a geometric
//! variate is drawn by inverting one uniform — `gap = ⌊ln(1−u)/ln(1−q)⌋`. Walking the
//! population by gaps emits the sampled indices **already sorted** and consumes
//! exactly one `f64` draw per emitted index (plus the final overshoot draw):
//! `O(q·|U| + 1)` RNG consumption and `O(q·|U|)` memory.
//!
//! The result is held as a [`SampleMask`], which picks its representation by density:
//! sparse sorted `Vec<u32>` below a `DENSE_THRESHOLD_NUM / DENSE_THRESHOLD_DEN`
//! sampled fraction, dense `Vec<bool>` above (where a bitmap walk is cheaper and the
//! sparse path saves nothing). The two representations are semantically identical
//! ([`PartialEq`] compares the sampled *set*, not the layout) and every consumer must
//! produce bitwise-identical output under either; tests compare a sparse mask against
//! its [`SampleMask::densified`] copy.

use rand::Rng;

/// A sampled fraction of at least `NUM/DEN` switches the representation to dense.
///
/// At ≥ ¼ sampled, the sparse index list is within 4× of the population anyway and the
/// dense bitmap (1 byte/user vs 4 bytes/sampled-user) is both smaller and cheaper to
/// probe; the sub-linear win only exists for genuinely sparse rounds (q ≪ 1).
const DENSE_THRESHOLD_NUM: usize = 1;
const DENSE_THRESHOLD_DEN: usize = 4;

/// Which users of a round's population are sampled.
///
/// Two layouts, one meaning: `Dense` stores one bool per user, `Sparse` stores the
/// sorted indices of the sampled users only. Equality is semantic (same population
/// size, same sampled set), so a densified mask compares equal to its sparse original.
#[derive(Clone, Debug)]
pub struct SampleMask {
    num_users: usize,
    repr: MaskRepr,
}

#[derive(Clone, Debug)]
enum MaskRepr {
    /// One flag per user of the population.
    Dense(Vec<bool>),
    /// Strictly increasing indices of the sampled users.
    Sparse(Vec<u32>),
}

impl PartialEq for SampleMask {
    fn eq(&self, other: &Self) -> bool {
        if self.num_users != other.num_users || self.sampled_count() != other.sampled_count() {
            return false;
        }
        self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for SampleMask {}

impl SampleMask {
    /// Draws a Poisson (independent Bernoulli(q)) sample over `num_users` users by
    /// geometric-gap inversion: one uniform per sampled user, indices emitted sorted.
    ///
    /// `q ≥ 1` samples everyone (and consumes no randomness); `q ≤ 0` samples no one
    /// likewise. The RNG stream consumed is a deterministic function of `(q, the
    /// emitted indices)` — exactly `sampled_count() + 1` `f64` draws for `0 < q < 1` —
    /// so replaying a seeded RNG reproduces the mask bit for bit.
    pub fn poisson<R: Rng>(rng: &mut R, num_users: usize, q: f64) -> SampleMask {
        if q >= 1.0 {
            return SampleMask::all(num_users);
        }
        if q <= 0.0 || num_users == 0 {
            return SampleMask::from_sorted_indices(num_users, Vec::new());
        }
        let ln1mq = (1.0 - q).ln();
        let mut indices = Vec::new();
        let mut cursor = 0u64;
        loop {
            let u: f64 = rng.gen();
            // Geometric gap via inversion: P(gap = k) = q·(1−q)^k. `1 − u` is in
            // (0, 1], so the log is finite and ≤ 0; the ratio is ≥ 0.
            let gap = ((1.0 - u).ln() / ln1mq).floor();
            cursor =
                cursor.saturating_add(if gap >= u64::MAX as f64 { u64::MAX } else { gap as u64 });
            if cursor >= num_users as u64 {
                break;
            }
            indices.push(cursor as u32);
            cursor += 1;
        }
        SampleMask::from_sorted_indices(num_users, indices)
    }

    /// The everyone-sampled mask (dense; probing it is free and it gives the no-mask
    /// paths' results exactly).
    pub fn all(num_users: usize) -> SampleMask {
        SampleMask { num_users, repr: MaskRepr::Dense(vec![true; num_users]) }
    }

    /// Builds a mask from a dense flag vector, re-deciding the representation by
    /// density (so a sparse flag vector still gets the sparse layout).
    pub fn from_dense(flags: Vec<bool>) -> SampleMask {
        let num_users = flags.len();
        let indices: Vec<u32> =
            flags.iter().enumerate().filter(|(_, &f)| f).map(|(u, _)| u as u32).collect();
        SampleMask::from_sorted_indices(num_users, indices)
    }

    /// Builds a mask from strictly-increasing sampled indices, picking the
    /// representation by density (dense when at least a quarter of the population is
    /// sampled).
    pub fn from_sorted_indices(num_users: usize, indices: Vec<u32>) -> SampleMask {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "indices must be strictly sorted");
        debug_assert!(indices.last().is_none_or(|&u| (u as usize) < num_users));
        if indices.len() * DENSE_THRESHOLD_DEN >= num_users * DENSE_THRESHOLD_NUM {
            let mut flags = vec![false; num_users];
            for &u in &indices {
                flags[u as usize] = true;
            }
            SampleMask { num_users, repr: MaskRepr::Dense(flags) }
        } else {
            SampleMask { num_users, repr: MaskRepr::Sparse(indices) }
        }
    }

    /// Population size the mask is drawn over.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Whether user `u` is sampled this round.
    pub fn contains(&self, u: usize) -> bool {
        match &self.repr {
            MaskRepr::Dense(flags) => flags.get(u).copied().unwrap_or(false),
            MaskRepr::Sparse(indices) => indices.binary_search(&(u as u32)).is_ok(),
        }
    }

    /// Number of sampled users.
    pub fn sampled_count(&self) -> usize {
        match &self.repr {
            MaskRepr::Dense(flags) => flags.iter().filter(|&&f| f).count(),
            MaskRepr::Sparse(indices) => indices.len(),
        }
    }

    /// `true` when the mask stores the sparse index-list layout.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, MaskRepr::Sparse(_))
    }

    /// Iterates the sampled user indices in increasing order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match &self.repr {
            MaskRepr::Dense(flags) => {
                Box::new(flags.iter().enumerate().filter(|(_, &f)| f).map(|(u, _)| u))
            }
            MaskRepr::Sparse(indices) => Box::new(indices.iter().map(|&u| u as usize)),
        }
    }

    /// The mask as a dense flag vector (allocates `O(|U|)`; for tests and dense
    /// consumers only — hot paths should use [`SampleMask::iter`] /
    /// [`SampleMask::contains`]).
    pub fn to_dense_vec(&self) -> Vec<bool> {
        match &self.repr {
            MaskRepr::Dense(flags) => flags.clone(),
            MaskRepr::Sparse(indices) => {
                let mut flags = vec![false; self.num_users];
                for &u in indices {
                    flags[u as usize] = true;
                }
                flags
            }
        }
    }

    /// A copy of this mask in the dense representation (same sampled set, so it
    /// compares equal and every consumer must produce bitwise-identical output).
    pub fn densified(&self) -> SampleMask {
        SampleMask { num_users: self.num_users, repr: MaskRepr::Dense(self.to_dense_vec()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_draws_are_sorted_in_range_and_deterministic() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mask = SampleMask::poisson(&mut rng, 1000, 0.05);
            let indices: Vec<usize> = mask.iter().collect();
            assert!(indices.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            assert!(indices.iter().all(|&u| u < 1000));
            let mut rng2 = StdRng::seed_from_u64(seed);
            assert_eq!(mask, SampleMask::poisson(&mut rng2, 1000, 0.05), "same seed, same mask");
        }
    }

    #[test]
    fn poisson_consumes_exactly_count_plus_one_draws() {
        // The sub-linearity claim in RNG terms: the stream position after drawing a
        // mask is a function of the emitted index count alone, not the population.
        for (users, q) in [(1_000usize, 0.02f64), (10_000, 0.01), (500, 0.3)] {
            let mut rng = StdRng::seed_from_u64(42);
            let mask = SampleMask::poisson(&mut rng, users, q);
            let mut replay = StdRng::seed_from_u64(42);
            for _ in 0..mask.sampled_count() + 1 {
                let _: f64 = replay.gen();
            }
            // Both RNGs are now at the same stream position.
            assert_eq!(rng.gen::<u64>(), replay.gen::<u64>(), "users={users} q={q}");
        }
    }

    #[test]
    fn poisson_rate_is_roughly_q() {
        let mut rng = StdRng::seed_from_u64(7);
        let mask = SampleMask::poisson(&mut rng, 100_000, 0.1);
        let rate = mask.sampled_count() as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "empirical rate {rate} far from q=0.1");
    }

    #[test]
    fn extreme_rates_short_circuit() {
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.clone().gen::<u64>();
        let all = SampleMask::poisson(&mut rng, 10, 1.0);
        let none = SampleMask::poisson(&mut rng, 10, 0.0);
        assert_eq!(all.sampled_count(), 10);
        assert_eq!(none.sampled_count(), 0);
        // Neither consumed randomness.
        assert_eq!(rng.gen::<u64>(), before);
    }

    #[test]
    fn representation_follows_density() {
        let sparse = SampleMask::from_sorted_indices(100, vec![3, 17, 50]);
        let dense = SampleMask::from_sorted_indices(100, (0..50).collect());
        assert!(sparse.is_sparse());
        assert!(!dense.is_sparse());
        assert!(sparse.contains(17) && !sparse.contains(18));
        assert!(dense.contains(49) && !dense.contains(50));
    }

    #[test]
    fn densified_masks_compare_equal_and_roundtrip() {
        let mask = SampleMask::from_sorted_indices(64, vec![0, 9, 63]);
        let dense = mask.densified();
        assert_eq!(mask, dense);
        assert!(!dense.is_sparse());
        assert_eq!(SampleMask::from_dense(mask.to_dense_vec()), mask);
        assert_eq!(dense.iter().collect::<Vec<_>>(), vec![0, 9, 63]);
        // Different sets (or populations) are unequal.
        assert_ne!(mask, SampleMask::from_sorted_indices(64, vec![0, 9, 62]));
        assert_ne!(mask, SampleMask::from_sorted_indices(65, vec![0, 9, 63]));
    }
}
