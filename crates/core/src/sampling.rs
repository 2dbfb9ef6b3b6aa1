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
//! The result is held as a [`SampleMask`]: the population size and the sampled ids,
//! strictly increasing. A mask round of Protocol 1 sends exactly these ids, so the
//! sample is visible to the server and to every silo; which sampled users hold records
//! is not (see "Population scaling" in [`crate::protocol`]).

use rand::Rng;

/// Which users of a round's population are sampled: the population size and the
/// strictly increasing ids of the sampled users.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleMask {
    num_users: usize,
    ids: Vec<u32>,
}

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

    /// The everyone-sampled mask.
    pub fn all(num_users: usize) -> SampleMask {
        SampleMask::from_sorted_indices(num_users, (0..num_users as u32).collect())
    }

    /// Builds a mask from one flag per user of the population.
    pub fn from_dense(flags: Vec<bool>) -> SampleMask {
        let ids = flags.iter().enumerate().filter(|(_, &f)| f).map(|(u, _)| u as u32);
        SampleMask::from_sorted_indices(flags.len(), ids.collect())
    }

    /// Builds a mask from strictly increasing sampled ids below `num_users`; panics on
    /// any other id list.
    pub fn from_sorted_indices(num_users: usize, ids: Vec<u32>) -> SampleMask {
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "sampled ids must be strictly increasing");
        assert!(
            ids.last().is_none_or(|&u| (u as usize) < num_users),
            "sampled ids must lie below num_users = {num_users}"
        );
        SampleMask { num_users, ids }
    }

    /// Population size the mask is drawn over.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Whether user `u` is sampled this round.
    pub fn contains(&self, u: usize) -> bool {
        self.ids.binary_search(&(u as u32)).is_ok()
    }

    /// Number of sampled users.
    pub fn sampled_count(&self) -> usize {
        self.ids.len()
    }

    /// Iterates the sampled user ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ids.iter().map(|&u| u as usize)
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
        // One layout at every density: a sparse and a half-full mask answer
        // membership alike and equal their flag-built twins.
        let sparse = SampleMask::from_sorted_indices(100, vec![3, 17, 50]);
        let dense = SampleMask::from_sorted_indices(100, (0..50).collect());
        assert!(sparse.contains(17) && !sparse.contains(18));
        assert!(dense.contains(49) && !dense.contains(50));
        for mask in [&sparse, &dense] {
            let flags: Vec<bool> = (0..100).map(|u| mask.contains(u)).collect();
            assert_eq!(&SampleMask::from_dense(flags), mask);
        }
    }

    #[test]
    fn densified_masks_compare_equal_and_roundtrip() {
        let mask = SampleMask::from_sorted_indices(64, vec![0, 9, 63]);
        assert!(mask.contains(9) && !mask.contains(10) && !mask.contains(64));
        let flags: Vec<bool> = (0..64).map(|u| mask.contains(u)).collect();
        let dense = SampleMask::from_dense(flags);
        assert_eq!(mask, dense);
        assert_eq!(dense.iter().collect::<Vec<_>>(), vec![0, 9, 63]);
        assert_eq!(SampleMask::all(3), SampleMask::from_dense(vec![true; 3]));
        // Different sets (or populations) are unequal.
        assert_ne!(mask, SampleMask::from_sorted_indices(64, vec![0, 9, 62]));
        assert_ne!(mask, SampleMask::from_sorted_indices(65, vec![0, 9, 63]));
    }

    #[test]
    #[should_panic(expected = "sampled ids must be strictly increasing")]
    fn unsorted_ids_are_rejected() {
        let _ = SampleMask::from_sorted_indices(64, vec![9, 9]);
    }

    #[test]
    #[should_panic(expected = "sampled ids must lie below num_users = 64")]
    fn ids_outside_the_population_are_rejected() {
        let _ = SampleMask::from_sorted_indices(64, vec![0, 64]);
    }
}
