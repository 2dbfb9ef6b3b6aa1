//! Exact operation counts of first, steady and faulted Protocol 1 rounds.
//!
//! Round 1 encrypts every user's blinded inverse; every later q = 1 round sends nothing,
//! so it encrypts nothing and the server re-randomises nothing.
//! The server encrypts by CRT with its factors: four half-width sliding-window
//! exponentiations per ciphertext (mod `p`, `p²`, `q` and `q²`).
//! The only re-randomisations of a steady round are the silos' refreshes of their
//! outgoing cells. An oblivious round encrypts two ciphertexts per user, the real one
//! and a dummy `Enc(0)`, whatever its slot count `P`, and it too re-randomises only
//! its outgoing cells.
//!
//! Step 2.(b) is the silos' work and is computed from the ciphertexts they receive.
//! Round 1 raises each record holder's ciphertext once to its full-width blinding
//! exponent (`b_u`, one sliding-window exponentiation) and inverts all of them in one
//! batch; the silos keep these `[b_u, b_u⁻¹]` pairs, so a steady q = 1 round raises
//! nothing. Every round builds one odd-power window table for each of `b_u` and
//! `b_u⁻¹`, shared by every silo and cell. It then evaluates each `(silo, coordinate)`
//! cell as one pass of the shared ladder over those tables, with one Paillier
//! `scalar_mul` term per `(silo, user, coordinate)`, and re-randomises each outgoing
//! cell by an `Enc(0)` on the silo's fixed output bases (one fixed-base comb
//! exponentiation, whose Montgomery operations do not depend on `α`, and at most one
//! schoolbook multiplication). Step 2.(c) decrypts one total per coordinate by CRT,
//! two half-width sliding-window exponentiations each. A steady round's sliding-window
//! exponentiations are thus exactly `2·dim`, none of them for output randomness, and
//! its fixed-base ones exactly its cells. A dropped silo weighs nobody, so only users
//! that a surviving silo weighs get tables. Counts are deterministic, so the gates are
//! equalities, not tolerances.
//!
//! A single test function owns the whole file: the telemetry flag and counters are
//! process-global, so concurrent test functions in this binary would race on them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::bigint::montgomery::multi_exp_window;
use uldp_fl::core::{
    FaultPlan, ObliviousSubsampling, PrivateWeightingProtocol, ProtocolConfig, SampleMask,
};
use uldp_fl::telemetry::metrics;

type Deltas = Vec<Vec<Vec<f64>>>;

/// One delta vector per (silo, user) holding records, `value(silo, user, coordinate)`.
fn deltas_from(
    histogram: &[Vec<usize>],
    dim: usize,
    mut value: impl FnMut(usize, usize, usize) -> f64,
) -> Deltas {
    let mut deltas = vec![vec![Vec::new(); histogram[0].len()]; histogram.len()];
    for (s, row) in histogram.iter().enumerate() {
        for (u, _) in row.iter().enumerate().filter(|&(_, &c)| c > 0) {
            deltas[s][u] = (0..dim).map(|j| value(s, u, j)).collect();
        }
    }
    deltas
}

/// `(mont_mul, mont_sqr)` counted since the last reset.
fn mont_ops() -> (u64, u64) {
    (metrics::MONT_MUL.get(), metrics::MONT_SQR.get())
}

#[test]
fn cached_round_costs_one_multi_exponentiation_per_cell_and_refresh() {
    // 3 silos × 9 users, every user holding records somewhere and each of users 6–8 in
    // one silo only; every count is a power of two. 8 coordinates.
    let histogram: Vec<Vec<usize>> = vec![
        vec![2, 0, 1, 4, 1, 0, 1, 0, 0],
        vec![1, 4, 0, 1, 0, 2, 0, 2, 0],
        vec![0, 2, 2, 0, 1, 1, 0, 0, 4],
    ];
    let dim = 8usize;
    let mut rng = StdRng::seed_from_u64(131);
    let mut draws = StdRng::seed_from_u64(132);
    let deltas = deltas_from(&histogram, dim, |_, _, _| draws.gen_range(-1.0..1.0));
    let noises: Vec<Vec<f64>> =
        histogram.iter().map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect()).collect();
    let config =
        ProtocolConfig { paillier_bits: 256, dh_bits: 128, n_max: 16, ..Default::default() };
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);

    let users = histogram[0].len() as u64;
    // One multi-exponentiation and one fixed-base output re-randomisation per surviving
    // (silo, coordinate) cell; no silo drops here.
    let cells = (histogram.len() * dim) as u64;
    // One scalar_mul term per participating (silo, user, coordinate).
    let terms = histogram.iter().flatten().filter(|&&c| c > 0).count() as u64 * dim as u64;
    // The p²/q² halves of CRT decryption.
    let window = 2 * dim as u64;
    uldp_fl::telemetry::reset();
    uldp_fl::telemetry::set_enabled(true);
    // Round 1 encrypts every user's inverse once and derives every user's b_u.
    let _ = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    assert_eq!(metrics::PAILLIER_ENCRYPT.get(), users, "round 1 encrypts every user");
    assert_eq!(
        metrics::MODPOW_WINDOW.get(),
        5 * users + window,
        "round 1: four CRT powers per encryption, one b_u power per user, decryption"
    );
    assert_eq!(metrics::PAILLIER_RERANDOMISE.get(), cells, "round 1 re-randomises only cells");
    assert_eq!(metrics::MODPOW_FIXED_BASE.get(), cells, "one fixed-base Enc(0) per cell");
    assert_eq!(metrics::WINDOW_TABLE.get(), 2 * users, "tables of b_u and b_u⁻¹ per user");
    assert_eq!(protocol.round_cache_stats(), (users as usize, 0));
    assert_eq!(protocol.round_cache_stats().0 as u64, metrics::PAILLIER_ENCRYPT.get());
    uldp_fl::telemetry::reset();
    // Round 2 sends nothing: the silos weigh every user from the pairs they hold, and
    // the held state is their two n²-wide values per record holder.
    let (out, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    assert_eq!(protocol.round_cache_stats(), (0, users as usize));
    let holders = (0..users as usize).filter(|&u| histogram.iter().any(|row| row[u] > 0)).count();
    let ciphertext_bytes = (2 * protocol.modulus_bits()).div_ceil(64) * 8;
    assert_eq!(protocol.cached_entry_count(), holders, "one held pair per record holder");
    assert_eq!(protocol.cached_state_bytes(), 2 * holders * ciphertext_bytes, "pairs only");
    assert_eq!(protocol.round_cache_stats().0 as u64, metrics::PAILLIER_ENCRYPT.get());
    let encrypt = metrics::PAILLIER_ENCRYPT.get();
    let fixed_base = metrics::MODPOW_FIXED_BASE.get();
    let sliding_window = metrics::MODPOW_WINDOW.get();
    let scalar_mul = metrics::PAILLIER_SCALAR_MUL.get();
    let rerandomise = metrics::PAILLIER_RERANDOMISE.get();
    let multi_exp = metrics::MULTI_EXP.get();
    let tables = metrics::WINDOW_TABLE.get();

    assert_eq!(scalar_mul, terms, "one scalar_mul per participating (silo, user, coordinate)");
    assert_eq!(multi_exp, cells, "one multi-exponentiation per (silo, coordinate) cell");
    assert_eq!(tables, 2 * users, "tables are built per user and round, not per cell");
    assert_eq!(encrypt, 0, "a steady q = 1 round encrypts nothing");
    assert_eq!(rerandomise, cells, "only the outgoing cells are re-randomised");
    assert_eq!(fixed_base, cells, "one fixed-base Enc(0) per outgoing cell");
    assert_eq!(sliding_window, window, "no b_u power, no full-width Enc(0): decryption only");
    assert_eq!(window, 16);
    let reference = protocol.plaintext_reference(&deltas, &noises, None);
    for (a, b) in out.iter().zip(reference.iter()) {
        assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
    }

    // The tables' and the ladder's own Montgomery operations. Two steady rounds differ
    // only in their deltas, so every other operation count cancels between them. All
    // zero deltas give zero exponents: no ladder work, and `w = 1` tables that cost
    // nothing. Deltas of ±2^m·P give exponents n_su·2^m = 2^k, one window each, so a
    // cell costs (terms − 1) multiplications and max k squarings.
    let precision = config.precision;
    let bit = |s: usize, u: usize, j: usize| 30 + (s + u + j) % 4;
    let sign = |u: usize, j: usize| if (u + j).is_multiple_of(2) { 1.0 } else { -1.0 };
    let powers = deltas_from(&histogram, dim, |s, u, j| {
        sign(u, j) * (1u64 << bit(s, u, j)) as f64 * precision
    });
    let zeros = deltas_from(&histogram, dim, |_, _, _| 0.0);
    let fresh_round = |deltas: &Deltas, rng: &mut StdRng| {
        uldp_fl::telemetry::reset();
        let (out, _) = protocol.weighting_round(deltas, &noises, None, rng);
        let reference = protocol.plaintext_reference(deltas, &noises, None);
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
        }
        assert_eq!(metrics::WINDOW_TABLE.get(), 2 * users);
        assert_eq!(protocol.round_cache_stats().0 as u64, metrics::PAILLIER_ENCRYPT.get());
        mont_ops()
    };
    let (zero_mul, zero_sqr) = fresh_round(&zeros, &mut rng);
    let (power_mul, power_sqr) = fresh_round(&powers, &mut rng);
    let log2 = |c: usize| c.trailing_zeros() as usize;
    let exponent_bits = |s: usize, u: usize, j: usize| log2(histogram[s][u]) + bit(s, u, j) + 1;
    let longest = (0..histogram.len())
        .flat_map(|s| (0..users as usize).map(move |u| (s, u)))
        .filter(|&(s, u)| histogram[s][u] > 0)
        .flat_map(|(s, u)| (0..dim).map(move |j| exponent_bits(s, u, j)))
        .max()
        .unwrap();
    assert_eq!(longest, 36);
    let w = multi_exp_window(longest);
    assert_eq!(w, 4, "≈36-bit cell exponents take 8-entry odd-power tables");
    let (mut ladder_mul, mut ladder_sqr) = (0u64, 0u64);
    for (s, row) in histogram.iter().enumerate() {
        let holders: Vec<usize> = (0..row.len()).filter(|&u| row[u] > 0).collect();
        for j in 0..dim {
            ladder_mul += holders.len() as u64 - 1;
            ladder_sqr += holders.iter().map(|&u| exponent_bits(s, u, j) - 1).max().unwrap() as u64;
        }
    }
    let (table_mul, table_sqr) = (2 * users * ((1 << (w - 1)) - 1), 2 * users);
    assert_eq!(power_mul - zero_mul, table_mul + ladder_mul, "table and ladder multiplications");
    assert_eq!(power_sqr - zero_sqr, table_sqr + ladder_sqr, "table and ladder squarings");

    // Oblivious rounds: the server encrypts each user's inverse and one Enc(0), whatever
    // P, and only the outgoing cells are re-randomised. Every user is active and holds
    // records, so the silos raise one b_u power per user.
    for slots in [2, 10_000] {
        uldp_fl::telemetry::reset();
        let sampling = ObliviousSubsampling::new(1, slots);
        let (out, report) = protocol.weighting_round(&deltas, &noises, sampling, &mut rng);
        assert_eq!(metrics::PAILLIER_ENCRYPT.get(), 2 * users, "P = {slots}: two per user");
        assert_eq!(protocol.round_cache_stats(), (2 * users as usize, 0), "P = {slots}");
        assert_eq!(
            metrics::MODPOW_WINDOW.get(),
            8 * users + users + window,
            "P = {slots}: four CRT powers per encryption, one b_u power per user, decryption"
        );
        assert_eq!(metrics::PAILLIER_RERANDOMISE.get(), cells, "P = {slots}: cells only");
        let selected = SampleMask::from_dense(report.selected.expect("oblivious selection"));
        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&selected));
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "P = {slots}: secure {a} vs plaintext {b}");
        }
    }

    // A round in which one of the three silos drops: users that only the dropped silo
    // weighs get no tables, and its cells cost nothing.
    let plan = FaultPlan { dropout_fraction: 0.34, seed: 5, ..FaultPlan::none() };
    let faulted_config = ProtocolConfig { fault_plan: plan, ..config };
    let faulted = PrivateWeightingProtocol::setup(&histogram, &faulted_config, &mut rng);
    uldp_fl::telemetry::reset();
    let (out, report) = faulted.weighting_round(&deltas, &noises, None, &mut rng);
    let weighed = (0..users as usize)
        .filter(|&u| (0..histogram.len()).any(|s| !report.dropped[s] && histogram[s][u] > 0))
        .count() as u64;
    let survivors = report.dropped.iter().filter(|&&d| !d).count() as u64;
    assert_eq!(survivors, 2, "exactly one silo drops");
    assert_eq!(weighed, users - 1, "the dropped silo's own user is weighed by nobody");
    assert_eq!(metrics::WINDOW_TABLE.get(), 2 * weighed, "tables only for surviving weights");
    assert_eq!(metrics::MULTI_EXP.get(), survivors * dim as u64, "surviving cells only");
    assert_eq!(faulted.round_cache_stats(), (users as usize, 0), "the first round encrypts all");
    assert_eq!(faulted.round_cache_stats().0 as u64, metrics::PAILLIER_ENCRYPT.get());
    uldp_fl::telemetry::set_enabled(false);
    let reference = faulted.plaintext_reference_faulted(&deltas, &noises, None, &report.dropped);
    for (a, b) in out.iter().zip(reference.iter()) {
        assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
    }
}
