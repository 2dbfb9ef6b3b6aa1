//! A Protocol 1 mask round costs the same at any population size.
//!
//! The same sampled users, holding the same histogram entries, run the same three
//! rounds over a federation of |U| = 10³ and of |U| = 10⁴ users. Everything the rounds
//! do after setup must be identical between the two: every `bigint.*` and `crypto.*`
//! operation count, the ciphertexts the server holds across rounds (none: every mask
//! round encrypts afresh), the peak fold-accumulator bytes, and the decrypted
//! aggregates bit for bit. Setup itself is
//! O(|U|) and is excluded. Counts are deterministic, so every gate is an equality.
//!
//! A single test function owns the whole file: the telemetry flag and counters are
//! process-global, so concurrent test functions in this binary would race on them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::core::{PrivateWeightingProtocol, ProtocolConfig, SampleMask};
use uldp_fl::telemetry::metrics;

const SILOS: usize = 2;
/// Coordinates of the three rounds.
const DIMS: [usize; 3] = [8, 8, 3];

/// Records user `u` holds in silo `s`: a pure function of `(s, u)`, so the two
/// populations agree on every user they share. Every user holds at least one record.
fn records(s: usize, u: usize) -> usize {
    (u * 7 + s * 3) % 4 + (s == 0) as usize
}

/// Everything a population's rounds produce after setup.
#[derive(Debug, PartialEq)]
struct RoundCosts {
    counters: Vec<(&'static str, u64)>,
    cached_entries: usize,
    cached_bytes: usize,
    peak_fold_bytes: usize,
    aggregates: Vec<Vec<u64>>,
}

fn run(population: usize, samples: &[Vec<u32>]) -> RoundCosts {
    let histogram: Vec<Vec<usize>> =
        (0..SILOS).map(|s| (0..population).map(|u| records(s, u)).collect()).collect();
    let config = ProtocolConfig {
        paillier_bits: 256,
        dh_bits: 64,
        n_max: 8,
        threads: 1,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(151);
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
    protocol.runtime().fold_gauge().reset();

    uldp_fl::telemetry::reset();
    uldp_fl::telemetry::set_enabled(true);
    let mut aggregates = Vec::new();
    // Rounds of 8, 8 and 3 coordinates: SILOS × 19 step 2.(b) cells in all.
    for (round, (sampled, dim)) in samples.iter().zip(DIMS).enumerate() {
        let mask = SampleMask::from_sorted_indices(population, sampled.clone());
        let mut deltas = vec![vec![Vec::new(); population]; SILOS];
        for &u in sampled {
            let mut user_rng = StdRng::seed_from_u64(1000 * round as u64 + u as u64);
            for row in deltas.iter_mut() {
                row[u as usize] = (0..dim).map(|_| user_rng.gen_range(-1.0..1.0)).collect();
            }
        }
        let noises: Vec<Vec<f64>> =
            (0..SILOS).map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect()).collect();
        let (out, _) = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
        aggregates.push(out.iter().map(|v| v.to_bits()).collect());
    }
    uldp_fl::telemetry::set_enabled(false);

    let counters = metrics::all_counters()
        .iter()
        .filter(|c| c.name().starts_with("bigint.") || c.name().starts_with("crypto."))
        .map(|c| (c.name(), c.get()))
        .collect();
    RoundCosts {
        counters,
        cached_entries: protocol.cached_entry_count(),
        cached_bytes: protocol.cached_state_bytes(),
        peak_fold_bytes: protocol.runtime().fold_gauge().peak(),
        aggregates,
    }
}

#[test]
fn sparse_round_costs_do_not_depend_on_the_population() {
    // Rounds 1 and 2 sample the same 20 users; round 3 swaps half of them for
    // newcomers. All ids lie below 10³, so both populations hold them.
    let first: Vec<u32> = (0..20).map(|i| 7 + 50 * i).collect();
    let mut third: Vec<u32> =
        first[..10].iter().copied().chain((0..10).map(|i| 31 + 50 * i)).collect();
    third.sort_unstable();
    let samples = [first.clone(), first, third];

    let small = run(1_000, &samples);
    let large = run(10_000, &samples);
    assert_eq!(small, large, "mask rounds must cost the same at |U| = 10^3 and 10^4");

    // The gates measured real work. Mask rounds hold no ciphertexts across rounds.
    assert_eq!((small.cached_entries, small.cached_bytes), (0, 0));
    assert!(small.peak_fold_bytes > 0);
    let count = |name: &str| small.counters.iter().find(|c| c.0 == name).map(|c| c.1);
    assert_eq!(count("crypto.paillier_encrypt"), Some(3 * 20), "every sampled user, every round");
    // Every silo re-randomises each cell it sends, on its fixed output base; the server
    // re-randomises nothing.
    let cells = (SILOS * DIMS.iter().sum::<usize>()) as u64;
    assert_eq!(count("crypto.paillier_rerandomise"), Some(cells), "outgoing cells only");
    assert_eq!(count("bigint.mod_pow_fixed_base"), Some(cells), "one fixed-base Enc(0) per cell");
    assert!(count("bigint.multi_exp").unwrap() > 0, "every cell is a multi-exponentiation");
}
