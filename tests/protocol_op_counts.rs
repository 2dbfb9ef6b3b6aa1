//! Exact operation counts of a fresh and a cached Protocol 1 round.
//!
//! Round 1 freshly encrypts every user's blinded inverse; the cached round after it
//! encrypts nothing and re-randomises every user from the server's cache, one
//! fixed-base exponentiation each.
//!
//! Step 2.(b) is the silos' work and is computed from the ciphertexts they receive.
//! Per round it raises each participating user's ciphertext once to its full-width
//! blinding exponent (`b_u`, one sliding-window exponentiation), evaluates each
//! `(silo, coordinate)` cell as one multi-exponentiation with one Paillier `scalar_mul`
//! term per `(silo, user, coordinate)`, and re-randomises each outgoing cell (one more
//! sliding-window exponentiation). Step 2.(c) decrypts one total per coordinate by CRT,
//! two half-width sliding-window exponentiations each. Counts are deterministic, so the
//! gates are equalities, not tolerances.
//!
//! A single test function owns the whole file: the telemetry flag and counters are
//! process-global, so concurrent test functions in this binary would race on them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::core::{PrivateWeightingProtocol, ProtocolConfig};
use uldp_fl::telemetry::metrics;

#[test]
fn cached_round_costs_one_multi_exponentiation_per_cell_and_refresh() {
    // 3 silos × 6 users, every user holding records somewhere, 8 coordinates.
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

    let users = histogram[0].len() as u64;
    // One multi-exponentiation and one output re-randomisation per surviving
    // (silo, coordinate) cell; no silo drops here.
    let cells = (histogram.len() * dim) as u64;
    // One scalar_mul term per participating (silo, user, coordinate).
    let terms = histogram.iter().flatten().filter(|&&c| c > 0).count() as u64 * dim as u64;
    // b_u powers, output re-randomisations and the p²/q² halves of CRT decryption.
    let window = users + cells + 2 * dim as u64;
    uldp_fl::telemetry::reset();
    uldp_fl::telemetry::set_enabled(true);
    // Round 1 encrypts fresh and builds the server's re-randomisation table.
    let _ = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    assert_eq!(metrics::PAILLIER_ENCRYPT.get(), users, "round 1 encrypts every user");
    assert_eq!(metrics::PAILLIER_RERANDOMISE.get(), cells, "round 1 re-randomises only cells");
    assert_eq!(metrics::MODPOW_FIXED_BASE.get(), 0, "round 1 refreshes nothing from cache");
    uldp_fl::telemetry::reset();
    // Round 2 is served from the cache.
    let (out, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    let encrypt = metrics::PAILLIER_ENCRYPT.get();
    let fixed_base = metrics::MODPOW_FIXED_BASE.get();
    let sliding_window = metrics::MODPOW_WINDOW.get();
    let scalar_mul = metrics::PAILLIER_SCALAR_MUL.get();
    let rerandomise = metrics::PAILLIER_RERANDOMISE.get();
    let multi_exp = metrics::MULTI_EXP.get();
    uldp_fl::telemetry::set_enabled(false);

    assert_eq!(scalar_mul, terms, "one scalar_mul per participating (silo, user, coordinate)");
    assert_eq!(multi_exp, cells, "one multi-exponentiation per (silo, coordinate) cell");
    assert_eq!(encrypt, 0, "the cached round encrypts nothing");
    assert_eq!(rerandomise, users + cells, "every cached user and every outgoing cell");
    assert_eq!(fixed_base, users, "only the server's cache refreshes use a fixed base");
    assert_eq!(sliding_window, window, "b_u powers, cell re-randomisations, decryption");

    let reference = protocol.plaintext_reference(&deltas, &noises, None);
    for (a, b) in out.iter().zip(reference.iter()) {
        assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
    }
}
