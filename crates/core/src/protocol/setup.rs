//! Protocol 1 step 1, setup: keys and pairwise seeds (1.(a)–(c)), the silos' blinded
//! histograms (1.(d)–(e)) and the server's inversion of their totals (1.(f)).

use super::server::Server;
use super::silo::{SiloCommon, SiloView, OUTPUT_SEED_LABEL};
use super::{PrivateWeightingProtocol, ProtocolConfig, ProtocolTimings, Public, SETUP_BLOCK};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::{Arc, Mutex, OnceLock};
use uldp_bigint::{modular::mod_add, modular::mod_mul, BigUint};
use uldp_crypto::dh::{DhGroup, DhKeyPair};
use uldp_crypto::paillier::{FixedBaseEnc0, PaillierKeyPair};
use uldp_crypto::{masking::MaskSeed, sha256::hash_parts, FixedPointCodec, MultiplicativeBlinder};
use uldp_runtime::Runtime;
use uldp_telemetry::trace;

/// Domain label of the stream, keyed by a silo's output seed, that draws the silo's
/// fixed output bases `h_s` and `w_s` (see "Output randomness").
const OUTPUT_BASE_LABEL: &str = "uldp-fl/silo-output-base";

/// The RFC 3526 group setup runs under [`ProtocolConfig::use_rfc_group`]: group 14 for
/// Paillier keys up to 2048 bits, group 15, the paper's 3072-bit level, above.
pub fn rfc_group(paillier_bits: usize) -> DhGroup {
    if paillier_bits <= 2048 {
        DhGroup::rfc3526_2048()
    } else {
        DhGroup::rfc3526_3072()
    }
}

/// Setup steps 1.(d)–(e): user `u`'s blinded total `Σ_s r_u·n_su mod n`, the sum of the
/// silos' blinded histograms. Shared silo work: every silo derives the same `r_u` from
/// `R`, so each user's factor is expanded once for all silos. No pairwise mask is
/// applied: the sum is computed directly from the silos' blinded counts, an ideal secure
/// aggregation (ROADMAP.md, item G). Blocks of [`SETUP_BLOCK`] users run on the pool
/// (see "Setup cost"); the result is bitwise-identical at any thread count.
fn blinded_totals(
    rt: &Runtime,
    blinder: &MultiplicativeBlinder,
    histograms: &[Vec<u64>],
) -> Vec<BigUint> {
    let n = blinder.modulus();
    let blocks = uldp_runtime::fold_chunk_ranges(histograms[0].len(), SETUP_BLOCK);
    let per_block = rt.par_map(&blocks, |_, block| {
        let users: Vec<u64> = block.clone().map(|u| u as u64).collect();
        let factors = blinder.factors(&users);
        (block.clone().zip(&factors))
            .map(|(u, r)| {
                histograms.iter().fold(BigUint::zero(), |total, row| {
                    mod_add(&total, &mod_mul(r, &BigUint::from_u64(row[u]), n), n)
                })
            })
            .collect::<Vec<BigUint>>()
    });
    per_block.into_iter().flatten().collect()
}

impl PrivateWeightingProtocol {
    /// Runs the setup phase (Protocol 1, step 1) for the given per-silo histograms.
    ///
    /// `histogram[s][u]` is the number of records user `u` holds in silo `s`. Every user
    /// total must be at most `config.n_max` for the `C_LCM` divisibility argument of
    /// Theorem 4 to hold. Panics on a [`ProtocolConfig::fault_plan`] the rounds cannot
    /// apply (an invalid one, or one with byzantine corruption) and on a
    /// [`ProtocolConfig::dh_bits`] it would not honour: non-zero with the RFC group,
    /// below 64 without it.
    pub fn setup<R: Rng + ?Sized>(
        histogram: &[Vec<usize>],
        config: &ProtocolConfig,
        rng: &mut R,
    ) -> Self {
        let num_silos = histogram.len();
        assert!(num_silos >= 2, "the protocol needs at least two silos");
        let num_users = histogram[0].len();
        assert!(num_users >= 1, "the protocol needs at least one user");
        assert!(histogram.iter().all(|row| row.len() == num_users));
        config.fault_plan.validate();
        assert!(
            config.fault_plan.byzantine_fraction == 0.0,
            "Protocol 1 receives already-clipped deltas and cannot corrupt them before \
             clipping; ProtocolConfig::fault_plan must have byzantine_fraction 0"
        );
        if config.use_rfc_group {
            assert!(
                config.dh_bits == 0,
                "ProtocolConfig::dh_bits = {} would be ignored: use_rfc_group runs the RFC 3526 \
                 group that matches paillier_bits, so dh_bits must be 0",
                config.dh_bits
            );
        } else {
            assert!(
                config.dh_bits >= 64,
                "ProtocolConfig::dh_bits = {} is below the 64-bit minimum of a custom DH group",
                config.dh_bits
            );
        }
        let runtime = Runtime::handle(config.threads);

        // --- Step 1.(a)-(c): key generation and pairwise seed agreement. ---
        let key_span = trace::timed_span("protocol", "key_exchange");
        let PaillierKeyPair { public: key, secret } =
            PaillierKeyPair::generate(rng, config.paillier_bits);
        // Warm the ciphertext-modulus Montgomery context here, so that no round pays for
        // its construction.
        let _ = key.ctx_n2();
        let dh_group = if config.use_rfc_group {
            rfc_group(config.paillier_bits)
        } else {
            DhGroup::generate(rng, config.dh_bits)
        };
        let keypairs: Vec<DhKeyPair> =
            (0..num_silos).map(|_| DhKeyPair::generate(rng, &dh_group)).collect();
        let mut pair_seeds = vec![vec![MaskSeed::new([0u8; 32]); num_silos]; num_silos];
        for i in 0..num_silos {
            for j in 0..num_silos {
                if i != j {
                    pair_seeds[i][j] =
                        MaskSeed::new(keypairs[i].shared_seed(keypairs[j].public_key()));
                }
            }
        }
        // The silos' shared seed R, which the server never sees. The simulation draws it
        // from the caller's RNG here, after the DH keys: that draw order fixes every
        // seeded run.
        let mut blind_seed = [0u8; 32];
        rng.fill(&mut blind_seed);
        // Each silo's output seed, and its fixed output bases drawn from a stream of it.
        let outputs = runtime.par_map(&keypairs, |_, keypair| {
            let output_seed = keypair.private_seed(OUTPUT_SEED_LABEL);
            let base_seed = hash_parts(OUTPUT_BASE_LABEL, &[&output_seed]);
            (output_seed, FixedBaseEnc0::sample(&key, &mut StdRng::from_seed(base_seed)))
        });
        let key_exchange = key_span.finish();

        let modulus = key.n.clone();
        let codec = FixedPointCodec::new(config.precision, modulus.clone());
        let c_lcm = uldp_bigint::lcm_up_to(config.n_max);
        // Decoding (Theorem 4) needs the encoded range to fit in the centred half of the
        // field: a unit value carries the `C_LCM` factor at precision `P`, and from n/2
        // on it wraps and decodes to garbage. The cast saturates only past what
        // `FixedPointCodec::encode` accepts for any value.
        let unit = BigUint::from_u128((1.0 / config.precision).ceil() as u128);
        assert!(
            c_lcm.mul(&unit) < modulus.shr_bits(1),
            "C_LCM·⌈1/P⌉ must stay below n/2: N_max = {} needs a larger modulus than {} bits",
            config.n_max,
            modulus.bit_length()
        );
        let blinder = MultiplicativeBlinder::new(blind_seed, modulus);
        let public = Arc::new(Public { key, codec, c_lcm });

        // --- Step 1.(d)-(e): the silos' blinded histograms, summed unmasked. ---
        let hist_span = trace::timed_span("protocol", "histogram_blinding");
        let silo_histograms: Vec<Vec<u64>> =
            histogram.iter().map(|row| row.iter().map(|&c| c as u64).collect()).collect();
        let user_totals: Vec<u64> =
            (0..num_users).map(|u| silo_histograms.iter().map(|row| row[u]).sum()).collect();
        for &total in &user_totals {
            assert!(
                total <= config.n_max,
                "user total {total} exceeds N_max = {} (required by Theorem 4)",
                config.n_max
            );
        }
        let blinded_totals = blinded_totals(&runtime, &blinder, &silo_histograms);
        let histogram_blinding = hist_span.finish();

        // --- Step 1.(f): the server inverts the blinded totals it received. ---
        let inv_span = trace::timed_span("protocol", "inverse_computation");
        let server = Server::new(Arc::clone(&public), secret, &blinded_totals);
        let inverse_computation = inv_span.finish();

        let silos = silo_histograms
            .into_iter()
            .zip(pair_seeds)
            .zip(outputs)
            .map(|((histogram, pair_seeds), (output_seed, output))| SiloView {
                histogram,
                pair_seeds,
                output_seed,
                output,
            })
            .collect();
        PrivateWeightingProtocol {
            server,
            silos,
            common: SiloCommon { public, blinder, held_pairs: OnceLock::new() },
            fresh_encrypt: config.fresh_encrypt,
            last_sent: Mutex::new((0, 0)),
            dh_group_bits: dh_group.bits(),
            user_totals,
            setup_timings: ProtocolTimings {
                key_exchange,
                histogram_blinding,
                inverse_computation,
            },
            runtime,
            fault_plan: config.fault_plan,
        }
    }
}
