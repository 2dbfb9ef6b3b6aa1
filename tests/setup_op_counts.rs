//! Exact blinding-factor costs of Protocol 1 setup and of a round.
//!
//! Setup steps 1.(d)–(e) expand each user's blinding factor `r_u` once, shared by all
//! silos, and check a block of `SETUP_BLOCK` factors for coprimality with one `gcd`. A mask
//! round's step 2.(b) expands the factors of its participating users (those some silo
//! weighs) and checks them with one `gcd`. The first q = 1 round does so for every
//! record holder, and the silos keep the `b_u` derived from them, so a later q = 1
//! round expands nothing. Counts are deterministic, so the gates are equalities, not
//! tolerances.
//!
//! A single test function owns the whole file: the telemetry flag and counters are
//! process-global, so concurrent test functions in this binary would race on them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::core::protocol::SETUP_BLOCK;
use uldp_fl::core::{PrivateWeightingProtocol, ProtocolConfig, SampleMask};
use uldp_fl::telemetry::metrics;

const SILOS: usize = 3;
const DIM: usize = 2;

/// `(factor expansions, coprimality gcds)` counted since the last reset.
fn blinding_counts() -> (u64, u64) {
    (metrics::BLIND_FACTOR.get(), metrics::BLIND_COPRIMALITY_CHECK.get())
}

#[test]
fn setup_expands_each_user_once_and_checks_each_block_once() {
    // Two full blocks and a ragged third; every tenth user holds no records.
    let users = 2 * SETUP_BLOCK + 37;
    let records = |s: usize, u: usize| if u.is_multiple_of(10) { 0 } else { (u + s) % 3 };
    let histogram: Vec<Vec<usize>> =
        (0..SILOS).map(|s| (0..users).map(|u| records(s, u)).collect()).collect();
    let config = ProtocolConfig {
        paillier_bits: 256,
        dh_bits: 64,
        n_max: 8,
        threads: 1,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(171);

    uldp_fl::telemetry::reset();
    uldp_fl::telemetry::set_enabled(true);
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
    let setup = blinding_counts();

    // A mask round: the sampled users that hold records and a delta somewhere.
    let sampled: Vec<u32> = (0..users as u32).step_by(7).collect();
    let mut deltas = vec![vec![Vec::new(); users]; SILOS];
    for &u in &sampled {
        for (s, silo) in deltas.iter_mut().enumerate() {
            // User 14 is sampled and holds records, but sends no delta.
            if histogram[s][u as usize] > 0 && u != 14 {
                silo[u as usize] = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            }
        }
    }
    let noises = vec![vec![0.0; DIM]; SILOS];
    let participating = |deltas: &[Vec<Vec<f64>>]| {
        (0..users).filter(|&u| deltas.iter().any(|silo| !silo[u].is_empty())).count() as u64
    };
    let mask_users = participating(&deltas);
    assert_eq!(
        mask_users,
        (0..users).step_by(7).filter(|&u| !u.is_multiple_of(10) && u != 14).count() as u64
    );
    uldp_fl::telemetry::reset();
    let mask = SampleMask::from_sorted_indices(users, sampled);
    let _ = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
    let mask_round = blinding_counts();

    // A round over every user.
    for (s, silo) in deltas.iter_mut().enumerate() {
        for (u, delta) in silo.iter_mut().enumerate() {
            if histogram[s][u] > 0 {
                *delta = vec![0.5; DIM];
            }
        }
    }
    uldp_fl::telemetry::reset();
    let _ = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    let full_round = blinding_counts();
    uldp_fl::telemetry::reset();
    let _ = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    let second_full_round = blinding_counts();
    uldp_fl::telemetry::set_enabled(false);

    let blocks = users.div_ceil(SETUP_BLOCK) as u64;
    assert_eq!(blocks, 3);
    assert_eq!(setup, (users as u64, blocks), "setup: one expansion per user, one gcd per block");
    assert_eq!(mask_round, (mask_users, 1), "a mask round: its participants, one gcd");
    let holders = (0..users).filter(|&u| !u.is_multiple_of(10)).count() as u64;
    assert_eq!(participating(&deltas), holders);
    assert_eq!(full_round, (holders, 1), "a full round: every record holder, one gcd");
    assert_eq!(second_full_round, (0, 0), "a second full round uses the held b_u");
}
