//! Server-side aggregation of silo contributions.
//!
//! The paper assumes every aggregation is performed with secure aggregation so that the
//! server only ever sees the *sum* of the silo contributions (plus the DP noise each silo
//! added locally). The trainer uses the plaintext sum, the numerically identical ideal
//! functionality. [`SecureAggregationSim::masked_sum`] implements the masked path over
//! the fixed-point field and is verified against the plaintext sum in its own tests; no
//! other code calls it. Protocol 1 ([`crate::protocol`]) masks nothing either: its
//! server sums the silos' values directly (ROADMAP.md, item G).

use rand::Rng;
use uldp_bigint::modular::mod_add;
use uldp_bigint::BigUint;
use uldp_crypto::masking::{apply_pairwise_masks, MaskGenerator, MaskSeed};
use uldp_crypto::FixedPointCodec;
use uldp_ml::rng::gaussian_vector;

/// Sums per-silo delta vectors element-wise.
///
/// Returns a zero vector of length `dim` when `deltas` is empty.
pub fn sum_deltas(deltas: &[Vec<f64>], dim: usize) -> Vec<f64> {
    let mut out = vec![0.0; dim];
    for d in deltas {
        assert_eq!(d.len(), dim, "delta dimensionality mismatch");
        for (o, v) in out.iter_mut().zip(d.iter()) {
            *o += v;
        }
    }
    out
}

/// Adds i.i.d. Gaussian noise with the given standard deviation to a delta in place.
pub fn add_gaussian_noise<R: Rng + ?Sized>(delta: &mut [f64], std_dev: f64, rng: &mut R) {
    if std_dev == 0.0 {
        return;
    }
    let noise = gaussian_vector(rng, std_dev, delta.len());
    for (d, n) in delta.iter_mut().zip(noise.iter()) {
        *d += n;
    }
}

/// Configuration of the simulated secure-aggregation path.
#[derive(Clone, Debug)]
pub struct SecureAggregationSim {
    codec: FixedPointCodec,
}

impl SecureAggregationSim {
    /// Creates a simulator with the given fixed-point precision. The field modulus is a
    /// fixed 256-bit value, comfortably larger than any encoded model delta.
    pub fn new(precision: f64) -> Self {
        let modulus = BigUint::one().shl_bits(256);
        SecureAggregationSim { codec: FixedPointCodec::new(precision, modulus) }
    }

    /// The fixed-point codec in use.
    pub fn codec(&self) -> &FixedPointCodec {
        &self.codec
    }

    /// Bonawitz-style masked aggregation of per-silo real-valued vectors.
    ///
    /// `pair_seeds[i][j]` must hold the symmetric seed shared by silos `i` and `j`
    /// (`pair_seeds[i][j] == pair_seeds[j][i]`, diagonal ignored). The server only ever
    /// receives the masked vectors; the returned value is their sum, which equals the
    /// plaintext sum up to fixed-point precision because the masks cancel.
    ///
    /// Cancellation requires the sum to range over **exactly** the silo set the masks
    /// were generated for (see `uldp_crypto::masking`); silos dropping between masking
    /// and summation would leave dangling masks, so the scenario engine only ever drops
    /// silos *before* this point. Seed symmetry — the matrix half of that precondition —
    /// is debug-asserted here.
    pub fn masked_sum(
        &self,
        silo_vectors: &[Vec<f64>],
        pair_seeds: &[Vec<MaskSeed>],
        round: u64,
    ) -> Vec<f64> {
        let num_silos = silo_vectors.len();
        assert!(num_silos > 0, "need at least one silo");
        assert_eq!(pair_seeds.len(), num_silos, "pair seed matrix shape mismatch");
        debug_assert!(
            (0..num_silos)
                .all(|i| (i + 1..num_silos).all(|j| pair_seeds[i][j] == pair_seeds[j][i])),
            "pair seeds must be symmetric — the mask-cancellation precondition"
        );
        let dim = silo_vectors[0].len();
        let modulus = self.codec.modulus().clone();

        // Each silo encodes and masks its vector; the server accumulates field elements.
        let mut accumulator = vec![BigUint::zero(); dim];
        for (silo, vector) in silo_vectors.iter().enumerate() {
            assert_eq!(vector.len(), dim, "silo vector dimensionality mismatch");
            let generators: Vec<(usize, MaskGenerator)> = (0..num_silos)
                .filter(|&other| other != silo)
                .map(|other| (other, MaskGenerator::new(pair_seeds[silo][other], modulus.clone())))
                .collect();
            for (coord, &value) in vector.iter().enumerate() {
                let encoded = self.codec.encode(value);
                let pair_masks: Vec<(usize, BigUint)> = generators
                    .iter()
                    .map(|(other, gen)| (*other, gen.mask(round, coord as u64)))
                    .collect();
                let masked = apply_pairwise_masks(&encoded, silo, &pair_masks, &modulus);
                accumulator[coord] = mod_add(&accumulator[coord], &masked, &modulus);
            }
        }
        accumulator.iter().map(|v| self.codec.decode_plain(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair_seeds(num_silos: usize) -> Vec<Vec<MaskSeed>> {
        let mut seeds = vec![vec![MaskSeed::new([0u8; 32]); num_silos]; num_silos];
        for (i, row) in seeds.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                let mut bytes = [0u8; 32];
                bytes[0] = lo as u8;
                bytes[1] = hi as u8;
                bytes[2] = 0xAB;
                *slot = MaskSeed::new(bytes);
            }
        }
        seeds
    }

    #[test]
    fn sum_deltas_basic() {
        let deltas = vec![vec![1.0, 2.0], vec![-0.5, 3.0]];
        assert_eq!(sum_deltas(&deltas, 2), vec![0.5, 5.0]);
        assert_eq!(sum_deltas(&[], 3), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn noise_changes_values_with_right_scale() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut delta = vec![0.0; 20_000];
        add_gaussian_noise(&mut delta, 2.0, &mut rng);
        let var = delta.iter().map(|x| x * x).sum::<f64>() / delta.len() as f64;
        assert!((var - 4.0).abs() < 0.3, "variance {var}");
        // zero std is a no-op
        let mut zero = vec![1.0, 2.0];
        add_gaussian_noise(&mut zero, 0.0, &mut rng);
        assert_eq!(zero, vec![1.0, 2.0]);
    }

    #[test]
    fn masked_sum_matches_plaintext_sum() {
        let sim = SecureAggregationSim::new(1e-9);
        let vectors = vec![
            vec![0.5, -1.25, 3.0, 0.0],
            vec![-0.25, 0.75, -2.0, 1.5],
            vec![1.0, 1.0, 1.0, -1.0],
        ];
        let plaintext = sum_deltas(&vectors, 4);
        let masked = sim.masked_sum(&vectors, &pair_seeds(3), 7);
        for (a, b) in plaintext.iter().zip(masked.iter()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn masked_sum_single_silo_is_identity() {
        let sim = SecureAggregationSim::new(1e-9);
        let vectors = vec![vec![0.125, -7.5]];
        let masked = sim.masked_sum(&vectors, &pair_seeds(1), 0);
        assert!((masked[0] - 0.125).abs() < 1e-8);
        assert!((masked[1] + 7.5).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    #[cfg(debug_assertions)]
    fn asymmetric_pair_seeds_are_rejected_in_debug() {
        let sim = SecureAggregationSim::new(1e-9);
        let mut seeds = pair_seeds(2);
        seeds[0][1] = MaskSeed::new([9u8; 32]);
        let _ = sim.masked_sum(&[vec![1.0], vec![2.0]], &seeds, 0);
    }

    #[test]
    fn individual_masked_vectors_are_hidden() {
        // Re-derive what silo 0 would send and check it differs from its plaintext.
        let sim = SecureAggregationSim::new(1e-9);
        let seeds = pair_seeds(2);
        let modulus = sim.codec().modulus().clone();
        let gen = MaskGenerator::new(seeds[0][1], modulus.clone());
        let value = 0.5f64;
        let encoded = sim.codec().encode(value);
        let masked = apply_pairwise_masks(&encoded, 0, &[(1, gen.mask(0, 0))], &modulus);
        assert_ne!(masked, encoded);
    }
}
