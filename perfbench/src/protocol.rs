//! The Protocol 1 workloads, driven through `PrivateWeightingProtocol::setup` and
//! `PrivateWeightingProtocol::weighting_round`:
//!
//! * `protocol_heart` — the HeartDisease federation of Fig. 10, every user active in
//!   every round, so every round after the first hits the cross-round ciphertext cache.
//! * `protocol_population` — a sparse 10⁴-user population with a fresh `q = 0.01`
//!   Poisson sample per round, so almost every active user is encrypted afresh.

use crate::episode::{cpu_seconds, guarded, ms, timed, us, Episode};
use crate::stats::median;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;
use uldp_bigint::modular::mod_inv;
use uldp_bigint::BigUint;
use uldp_core::{PrivateWeightingProtocol, ProtocolConfig, SampleMask};
use uldp_crypto::paillier::PaillierKeyPair;
use uldp_crypto::MultiplicativeBlinder;
use uldp_datasets::heart_disease::{self, HeartDiseaseConfig};
use uldp_datasets::Allocation;
use uldp_ml::{clip_to_norm, gaussian, gaussian_vector};
use uldp_telemetry::metrics;

const PAILLIER_BITS: usize = 512;
const SIGMA: f64 = 5.0;
const CLIP: f64 = 1.0;
/// Largest deviation of a decrypted coordinate from the plaintext reference. Each
/// fixed-point term carries at most `precision = 1e-10` of rounding.
const TOLERANCE: f64 = 1e-6;

struct Shape {
    /// Setups per episode; each starts from the same generator state, so each builds
    /// the same protocol, and the last one runs the rounds.
    setups: usize,
    rounds: u64,
    dim: usize,
    /// Poisson sampling rate of the users, redrawn every round; `None` keeps all users.
    sampling: Option<f64>,
}

const HEART: Shape = Shape { setups: 5, rounds: 7, dim: 28, sampling: None };
const POPULATION: Shape = Shape { setups: 1, rounds: 10, dim: 16, sampling: Some(0.01) };
const POPULATION_SILOS: usize = 3;
const POPULATION_USERS: usize = 10_000;

/// Seed of the HeartDisease federation itself. Fig. 10 runs on one fixed federation,
/// and the number of (silo, user) cells, which sets a round's work, moves by up to 10%
/// between allocations (209 to 233 over seeds 1 to 10); this one has 227, the median.
const HEART_FEDERATION_SEED: u64 = 10;
/// Seed of the population's histogram and of its sampling schedule. A round's work
/// follows the size of its Poisson sample, so one fixed schedule keeps the work equal
/// across runs.
const POPULATION_FEDERATION_SEED: u64 = 1;

/// Runs `protocol_heart`. The federation is fixed; `seed` drives keys, updates and
/// noise.
pub fn run_heart(seed: u64, ep: &mut Episode) {
    let config = HeartDiseaseConfig {
        num_users: 100,
        allocation: Allocation::zipf_default(),
        ..Default::default()
    };
    let mut federation = StdRng::seed_from_u64(HEART_FEDERATION_SEED);
    let (dataset, generate) = timed(|| heart_disease::generate(&mut federation, &config));
    ep.layer("datasets.generate_ms", ms(generate));
    run(&HEART, &dataset.histogram(), generate, federation, seed, ep);
}

/// Runs `protocol_population`. The histogram and the sampling schedule are fixed;
/// `seed` drives keys, updates and noise. The histogram is the benchmark's own input,
/// so generating it is not part of setup time.
pub fn run_population(seed: u64, ep: &mut Episode) {
    let mut federation = StdRng::seed_from_u64(POPULATION_FEDERATION_SEED);
    let histogram: Vec<Vec<usize>> = (0..POPULATION_SILOS)
        .map(|_| (0..POPULATION_USERS).map(|_| federation.gen_range(0..4usize)).collect())
        .collect();
    run(&POPULATION, &histogram, Duration::ZERO, federation, seed, ep);
}

/// Phase times and counts of one steady round, kept to relate counts to times.
struct SteadyRound {
    round: Duration,
    silo_weighting: Duration,
    scalar_muls: u64,
    mont_muls: u64,
    mont_sqrs: u64,
}

/// Sets the protocol up over `histogram` (`prior` is the set-up time already spent
/// building it) and runs the shape's rounds, drawing sampling masks from `schedule`
/// and every other input from `seed`.
fn run(
    shape: &Shape,
    histogram: &[Vec<usize>],
    prior: Duration,
    mut schedule: StdRng,
    seed: u64,
    ep: &mut Episode,
) {
    let silos = histogram.len();
    let users = histogram[0].len();
    let totals: Vec<usize> = (0..users).map(|u| histogram.iter().map(|row| row[u]).sum()).collect();
    let config = ProtocolConfig {
        paillier_bits: PAILLIER_BITS,
        dh_bits: 0,
        use_rfc_group: true,
        n_max: totals.iter().copied().max().unwrap_or(1).max(1) as u64,
        threads: 1,
        fresh_encrypt: false,
        ..Default::default()
    };
    let seeded = StdRng::seed_from_u64(seed);
    let mut built = None;
    for _ in 0..shape.setups {
        let mut rng = seeded.clone();
        let (protocol, took) =
            timed(|| guarded(|| PrivateWeightingProtocol::setup(histogram, &config, &mut rng)));
        ep.check(protocol.is_some(), || "setup panicked".to_string());
        let Some(protocol) = protocol else { return };
        ep.end_to_end("setup_s", (prior + took).as_secs_f64());
        let setup = *protocol.setup_timings();
        ep.layer("protocol.key_exchange_ms", ms(setup.key_exchange));
        ep.layer("protocol.histogram_blinding_ms", ms(setup.histogram_blinding));
        ep.layer("protocol.inverse_ms", ms(setup.inverse_computation));
        built = Some((protocol, prior + took, rng));
    }
    let Some((protocol, setup_time, mut rng)) = built else { return };
    ep.busy += setup_time;
    let setup = *protocol.setup_timings();

    let noise_std = SIGMA * CLIP / (silos as f64).sqrt();
    let mut steady = Vec::new();
    let (mut cpu, mut wall) = (0.0, 0.0);
    for t in 0..shape.rounds {
        let mask = shape.sampling.map(|q| {
            let (mask, took) = timed(|| SampleMask::poisson(&mut schedule, users, q));
            ep.layer("sampling.poisson_us", us(took));
            ep.layer("sampling.sampled_users", mask.sampled_count() as f64);
            mask
        });
        let deltas: Vec<Vec<Vec<f64>>> = histogram
            .iter()
            .map(|row| {
                (0..users)
                    .map(|u| {
                        if row[u] == 0 || mask.as_ref().is_some_and(|m| !m.contains(u)) {
                            return Vec::new();
                        }
                        let mut d: Vec<f64> = (0..shape.dim).map(|_| gaussian(&mut rng)).collect();
                        clip_to_norm(&mut d, CLIP);
                        d
                    })
                    .collect()
            })
            .collect();
        let noises: Vec<Vec<f64>> =
            (0..silos).map(|_| gaussian_vector(&mut rng, noise_std, shape.dim)).collect();

        ep.start_round();
        let cpu0 = cpu_seconds();
        let (out, took) = timed(|| {
            guarded(|| protocol.weighting_round(&deltas, &noises, mask.as_ref(), &mut rng))
        });
        cpu += cpu_seconds() - cpu0;
        wall += took.as_secs_f64();
        ep.busy += took;
        let Some((aggregate, timings)) = out else {
            ep.check(false, || format!("round {t}: weighting_round panicked"));
            return;
        };
        let reference = protocol.plaintext_reference(&deltas, &noises, mask.as_ref());
        let err = aggregate.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        ep.check(aggregate.len() == shape.dim && err <= TOLERANCE, || {
            format!("round {t}: aggregate deviates from the plaintext reference by {err:e}")
        });
        ep.digest(&aggregate);

        if t == 0 {
            ep.layer("protocol.first_round_ms", ms(took));
            ep.layer("protocol.first_silo_weighting_ms", ms(timings.silo_weighting));
            continue;
        }
        ep.end_to_end("round_ms", ms(took));
        ep.layer("protocol.server_encryption_ms", ms(timings.server_encryption));
        ep.layer("protocol.silo_weighting_ms", ms(timings.silo_weighting));
        ep.layer("protocol.aggregation_ms", ms(timings.aggregation));
        ep.layer(
            "protocol.decrypt_share",
            100.0 * timings.aggregation.as_secs_f64() / took.as_secs_f64(),
        );
        let (fresh, rerandomised) = protocol.round_cache_stats();
        ep.layer(
            "protocol.cache_hit_ratio",
            rerandomised as f64 / (fresh + rerandomised).max(1) as f64,
        );
        ep.layer("protocol.active_users", (fresh + rerandomised) as f64);
        ep.record_round_counters();
        steady.push(SteadyRound {
            round: took,
            silo_weighting: timings.silo_weighting,
            scalar_muls: metrics::PAILLIER_SCALAR_MUL.get(),
            mont_muls: metrics::MONT_MUL.get(),
            mont_sqrs: metrics::MONT_SQR.get(),
        });
    }
    ep.layer("runtime.parallelism", cpu / wall);
    ep.layer("runtime.fold_bytes_peak", protocol.runtime().fold_gauge().peak() as f64);
    ep.layer("protocol.cached_state_mb", protocol.cached_state_bytes() as f64 / (1024.0 * 1024.0));
    ep.layer("protocol.cached_entries", protocol.cached_entry_count() as f64);
    ep.finish();
    if !ep.traced() {
        return;
    }

    uldp_telemetry::set_enabled(false);
    // Setup draws the Paillier key first, so the same generator state reproduces it.
    let key = PaillierKeyPair::generate(&mut seeded.clone(), PAILLIER_BITS);
    let cost = OpCosts::measure(&key, &mut rng, ep);
    // Setup's blinding phase blinds every (silo, user) cell and its inversion phase
    // inverts every user total that is not zero.
    let blinds = (silos * users) as f64;
    let inverses = totals.iter().filter(|&&n| n > 0).count() as f64;
    let setup_work = us(setup.histogram_blinding + setup.inverse_computation);
    ep.layer(
        "protocol.setup_explained_pct",
        100.0 * (blinds * cost.blind_us + inverses * cost.mod_inv_us) / setup_work,
    );
    let weighting: Vec<f64> = steady
        .iter()
        .map(|r| 100.0 * r.scalar_muls as f64 * cost.scalar_mul_us / us(r.silo_weighting))
        .collect();
    let mont: Vec<f64> = steady
        .iter()
        .map(|r| {
            let ns = r.mont_muls as f64 * cost.mont_mul_ns + r.mont_sqrs as f64 * cost.mont_sqr_ns;
            100.0 * ns / (r.round.as_secs_f64() * 1e9)
        })
        .collect();
    if !steady.is_empty() {
        ep.layer("protocol.explained_pct", median(&weighting));
        ep.layer("protocol.mont_explained_pct", median(&mont));
    }
}

/// Median cost of each operation the protocol's phases are made of, timed on the
/// workload's own key outside any round.
struct OpCosts {
    mont_mul_ns: f64,
    mont_sqr_ns: f64,
    mod_inv_us: f64,
    scalar_mul_us: f64,
    blind_us: f64,
}

impl OpCosts {
    fn measure(key: &PaillierKeyPair, rng: &mut StdRng, ep: &mut Episode) -> OpCosts {
        const BATCHES: usize = 5;
        let pk = &key.public;
        let n2 = pk.ctx_n2();
        let mut acc = n2.to_mont(&BigUint::random_below(rng, &pk.n_squared));
        let y = n2.to_mont(&BigUint::random_below(rng, &pk.n_squared));
        let values: Vec<BigUint> = (0..64).map(|_| BigUint::random_below(rng, &pk.n)).collect();
        let cts: Vec<_> = values.iter().map(|m| pk.encrypt(rng, m)).collect();
        let blinder = MultiplicativeBlinder::new([7; 32], pk.n.clone());

        let mut rows = |name: &'static str, ops: usize, scale: f64, op: &mut dyn FnMut(usize)| {
            let per_op: Vec<f64> = (0..BATCHES)
                .map(|_| {
                    let ((), took) = timed(|| (0..ops).for_each(&mut *op));
                    took.as_secs_f64() * scale / ops as f64
                })
                .collect();
            for v in &per_op {
                ep.layer(name, *v);
            }
            median(&per_op)
        };
        let mont_mul_ns = rows("bigint.mont_mul_ns", 20_000, 1e9, &mut |_| {
            acc = n2.mont_mul(&acc, &y);
        });
        let mont_sqr_ns = rows("bigint.mont_sqr_ns", 20_000, 1e9, &mut |_| {
            acc = n2.mont_sqr(&acc);
        });
        black_box(&acc);
        let mod_inv_us = rows("bigint.mod_inv_us", 64, 1e6, &mut |i| {
            black_box(mod_inv(&values[i], &pk.n));
        });
        rows("crypto.encrypt_us", 64, 1e6, &mut |i| {
            black_box(pk.encrypt(rng, &values[i]));
        });
        rows("crypto.rerandomise_us", 64, 1e6, &mut |i| {
            black_box(pk.rerandomise(rng, &cts[i]));
        });
        let scalar_mul_us = rows("crypto.scalar_mul_us", 64, 1e6, &mut |i| {
            black_box(pk.scalar_mul(&cts[i], &values[63 - i]));
        });
        rows("crypto.decrypt_us", 64, 1e6, &mut |i| {
            black_box(key.secret.decrypt(&cts[i]));
        });
        let blind_us = rows("crypto.blind_us", 64, 1e6, &mut |i| {
            black_box(blinder.blind(i as u64, &BigUint::from_u64(3)));
        });
        OpCosts { mont_mul_ns, mont_sqr_ns, mod_inv_us, scalar_mul_us, blind_us }
    }
}
