//! Server-side aggregation of silo contributions.
//!
//! The paper assumes every aggregation is performed with secure aggregation so that the
//! server only ever sees the *sum* of the silo contributions (plus the DP noise each silo
//! added locally). The trainer uses the plaintext sum, the numerically identical ideal
//! functionality. Protocol 1 ([`crate::protocol`]) masks nothing either: its server sums
//! the silos' values directly (ROADMAP.md, item G). Pairwise masks, once built, come
//! from `uldp_crypto::masking::MaskGenerator`.

use rand::Rng;
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
