//! Exact operation counts of a cached Protocol 1 round.
//!
//! Step 2.(b) is the silos' work and must be computed from the ciphertexts they
//! receive: one fixed-base exponentiation per `(silo, user, coordinate)` cell over a
//! table built from the received ciphertext. The server's step 2.(a) re-randomisation
//! adds one more fixed-base exponentiation per cached user. So on a cached round where
//! every participating user is used often enough to get a table,
//! `bigint.mod_pow_fixed_base = crypto.paillier_scalar_mul + crypto.paillier_rerandomise`
//! exactly. Counts are deterministic, so the gate is an equality, not a tolerance.
//!
//! A single test function owns the whole file: the telemetry flag and counters are
//! process-global, so concurrent test functions in this binary would race on them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::core::protocol::fresh_encrypt_forced;
use uldp_fl::core::{PrivateWeightingProtocol, ProtocolConfig};
use uldp_fl::telemetry::metrics;

#[test]
fn cached_round_costs_one_fixed_base_exponentiation_per_cell_and_refresh() {
    if uldp_fl::bigint::montgomery::engine_disabled() {
        return; // ULDP_GENERIC_MODPOW=1 replaces every fixed-base table by mod_pow
    }
    // 3 silos × 6 users, every user holding records somewhere; 8 coordinates give
    // every participating user at least 8 uses, enough for a fixed-base table.
    let histogram: Vec<Vec<usize>> =
        vec![vec![2, 0, 1, 3, 1, 0], vec![1, 4, 0, 1, 0, 2], vec![0, 2, 2, 0, 1, 1]];
    let dim = 8usize;
    let mut rng = StdRng::seed_from_u64(131);
    let deltas: Vec<Vec<Vec<f64>>> = histogram
        .iter()
        .map(|row| {
            row.iter()
                .map(|&c| {
                    if c == 0 {
                        Vec::new()
                    } else {
                        (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
                    }
                })
                .collect()
        })
        .collect();
    let noises: Vec<Vec<f64>> =
        histogram.iter().map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect()).collect();
    let config =
        ProtocolConfig { paillier_bits: 256, dh_bits: 128, n_max: 16, ..Default::default() };
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);

    uldp_fl::telemetry::set_enabled(true);
    // Round 1 encrypts fresh and builds the server's re-randomisation table.
    let _ = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    uldp_fl::telemetry::reset();
    // Round 2 is served from the cache.
    let (out, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    let fixed_base = metrics::MODPOW_FIXED_BASE.get();
    let scalar_mul = metrics::PAILLIER_SCALAR_MUL.get();
    let rerandomise = metrics::PAILLIER_RERANDOMISE.get();
    let multi_exp = metrics::MULTI_EXP.get();
    uldp_fl::telemetry::set_enabled(false);

    let users = histogram[0].len() as u64;
    let cells = histogram.iter().flatten().filter(|&&c| c > 0).count() as u64 * dim as u64;
    assert_eq!(scalar_mul, cells, "one scalar_mul per participating (silo, user, coordinate)");
    assert_eq!(multi_exp, 0, "every participating user gets a table, none is fused");
    let expected_rerandomise = if fresh_encrypt_forced() { 0 } else { users };
    assert_eq!(rerandomise, expected_rerandomise, "the cached round re-randomises every user");
    assert_eq!(
        fixed_base,
        scalar_mul + rerandomise,
        "step 2.(b) must cost one fixed-base exponentiation per cell"
    );

    let reference = protocol.plaintext_reference(&deltas, &noises, None);
    for (a, b) in out.iter().zip(reference.iter()) {
        assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
    }
}
