//! Protocol 1: the private weighting protocol.
//!
//! The enhanced weighting strategy `w_{s,u} = n_{s,u} / N_u` needs the cross-silo user
//! totals `N_u`, which no single party may learn. Protocol 1 combines three primitives so
//! that the weighted aggregation is computed without revealing any `n_{s,u}` (Theorem 5):
//!
//! 1. **Multiplicative blinding** — silos share a random seed `R` (unknown to the server)
//!    and blind their histograms as `B(n_{s,u}) = r_u · n_{s,u} mod n`; the server can sum
//!    and invert blinded totals but learns nothing about the underlying counts.
//! 2. **Secure aggregation** — pairwise additive masks derived from Diffie–Hellman shared
//!    seeds hide the individual blinded histograms (and later the per-silo encrypted model
//!    deltas) so the server only ever sees sums.
//! 3. **Paillier encryption** — the server returns `Enc_p(B_inv(N_u))` to the silos, which
//!    then compute the weighted, clipped model deltas *under encryption*
//!    (scalar-multiplying by `Encode(Δ̃) · n_{s,u} · r_u · C_LCM`), cancelling the blinding
//!    factor homomorphically; the server decrypts only the aggregate.
//!
//! The fixed-point `Encode`/`Decode` of Algorithm 5 and the `C_LCM` factor make the
//! per-user division by `N_u` exact on the finite field (Theorem 4).
//!
//! The implementation mirrors the message flow of the paper's Protocol 1 within a single
//! process and records wall-clock timings for each phase, which the benchmark harness uses
//! to regenerate Figures 10 and 11.
//!
//! ## Parallel execution
//!
//! The per-(silo, user) Paillier work — server-side encryption of the blinded inverses
//! (step 2.a), silo-side weighted `scalar_mul` of the clipped deltas (2.b) and the
//! homomorphic aggregation plus decryption (2.c) — runs on the deterministic
//! [`uldp_runtime::Runtime`] worker pool. Steps 2.(b)–(c) stream through one chunked
//! fold over the `(silo, coordinate)` cells in coordinate-major order
//! ([`uldp_runtime::Runtime::par_fold_reduce`]): each chunk folds its cells straight
//! into per-coordinate ciphertext totals, so no per-cell ciphertext collection is ever
//! materialised — O(dim + chunks) transient ciphertexts instead of O(silos × dim) —
//! and only the per-coordinate totals reach the decryption pass. All encryption
//! randomness is derived per user index from a single 256-bit seed drawn from the
//! caller's RNG, and ciphertext accumulation is exact modular arithmetic, so every
//! ciphertext and the decrypted aggregate are bitwise-identical at any thread count and
//! chunk size (`ProtocolConfig::threads` / `ULDP_THREADS`,
//! `ProtocolConfig::chunk_size` / `ULDP_CHUNK`); `RoundTimings` still reports each
//! phase's wall-clock separately (timings, being wall-clock, naturally vary).
//!
//! All exponentiations run on the Montgomery engine of `uldp-bigint` through contexts
//! cached in the Paillier keys (built once at setup, shared by every round): step 2.(a)
//! encrypts over the cached `n²` context, step 2.(b) hoists one fixed-base context per
//! encrypted inverse out of the (silo, coordinate) cell loop, and step 2.(c) decrypts by
//! CRT over cached `p²`/`q²` contexts. `ULDP_GENERIC_MODPOW=1` forces the schoolbook
//! square-and-multiply path instead; both paths produce bit-identical ciphertexts and
//! aggregates (CI diffs them).
//!
//! ## Multi-round ciphertext reuse
//!
//! Across rounds the server's step 2.(a) plaintexts — the blinded inverses — do not
//! change unless the sampling mask does, so a per-federation `RoundCryptoCache` holds
//! the server's most recently distributed ciphertext per user: round 1 encrypts and
//! populates it; later rounds under an unchanged mask *re-randomise* the cached
//! ciphertexts (`c · h^t` for a fresh `t`, one squaring-free fixed-base lookup per user)
//! instead of paying a full Paillier encryption each. Mask flips, silo dropouts and
//! `ULDP_FRESH_ENCRYPT=1` (or [`ProtocolConfig::fresh_encrypt`]) invalidate exactly the
//! affected users' entries. The cache is server state only: step 2.(b) is the silos'
//! work and is computed from nothing but the ciphertexts they received that round — a
//! fixed-base table over each heavily used received ciphertext (one exponentiation per
//! cell, rebuilt and dropped every round), or, for bases too lightly used for a table,
//! one interleaved multi-exponentiation per cell (`ModulusCtx::multi_exp`). The cached
//! and fresh-encryption paths therefore share one step 2.(b). Every step is exact group
//! arithmetic, so decrypted aggregates stay bitwise-identical to the fresh-encryption
//! path at every `(threads, shards, chunk)` point — CI diffs a cached against a
//! `ULDP_FRESH_ENCRYPT=1` smoke run to pin this.
//!
//! ## Population scaling
//!
//! Round cost tracks the *sampled* users, not the population. A round's user-level
//! Poisson sample arrives as a [`SampleMask`] — dense flags or sorted sampled indices
//! ([`crate::sampling`]). With a sparse mask, step 2.(a) encrypts (or re-randomises)
//! only the sampled users' inverses, the cross-round cache holds entries only for users
//! that have actually been sampled (a `BTreeMap` keyed by user id, not an `O(|U|)` slot
//! vector), and the step 2.(b) cell fold walks per-silo participant lists built from
//! the round's active users instead of scanning `0..|U|` per cell — so unsampled users
//! cost no ciphertext, no fixed-base table and no fold work. Omitting an unsampled
//! user's `Enc(0)` term subtracts exactly zero from every decrypted total, so sparse
//! and dense masks produce bitwise-identical aggregates at every `(threads, shards,
//! chunk)` point; `ULDP_DENSE_MASK=1` forces the dense representation everywhere so CI
//! can diff the two paths process against process.

use crate::config::WeightingStrategy;
use crate::sampling::SampleMask;
use crate::scenario::FaultPlan;
use crate::weighting::WeightMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use uldp_bigint::modular::{mod_inv, mod_mul, mod_pow};
use uldp_bigint::montgomery::{engine_disabled, FixedBaseCtx};
use uldp_bigint::BigUint;
use uldp_crypto::dh::{DhGroup, DhKeyPair};
use uldp_crypto::masking::MaskSeed;
use uldp_crypto::oblivious_transfer::OneOutOfP;
use uldp_crypto::paillier::{Ciphertext, PaillierKeyPair, PaillierPublicKey, RerandCtx};
use uldp_crypto::{FixedPointCodec, MultiplicativeBlinder};
use uldp_runtime::{seeding, CloseOnDrop, Handoff, Runtime};
use uldp_telemetry::{metrics, trace};

/// Cryptographic parameters of the protocol.
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// Paillier modulus size in bits (the paper's default security level is 3072; tests
    /// and quick demos use smaller moduli).
    pub paillier_bits: usize,
    /// Size of the custom Diffie–Hellman safe-prime group used for the silo key exchange.
    /// Ignored when [`ProtocolConfig::use_rfc_group`] is set.
    pub dh_bits: usize,
    /// Use the RFC 3526 2048-bit MODP group instead of generating a custom group.
    pub use_rfc_group: bool,
    /// Fixed-point precision parameter `P` of Algorithm 5.
    pub precision: f64,
    /// Upper bound `N_max` on the number of records a user may hold across silos;
    /// `C_LCM = lcm(1..=N_max)`.
    pub n_max: u64,
    /// Worker threads for the protocol's parallel phases: `0` uses the process-wide
    /// runtime (`ULDP_THREADS` / available parallelism), `1` forces sequential execution,
    /// any other value builds a dedicated pool. Results are bitwise-identical regardless.
    pub threads: usize,
    /// Fold chunk size (cells per chunk) for the streaming `(silo, coordinate)` cell
    /// fold of step 2.(b)–(c): `0` reads `ULDP_CHUNK`, falling back to a small default.
    /// Ciphertext accumulation is exact modular arithmetic, so results are
    /// bitwise-identical at any setting.
    pub chunk_size: usize,
    /// Deterministic fault injection for the protocol's rounds ([`crate::scenario`]):
    /// silos dropping or straggling between steps 2.(b) and 2.(c). Rounds run under it
    /// through [`PrivateWeightingProtocol::weighting_round_faulted`] or
    /// [`PrivateWeightingProtocol::run_rounds`] (inputs with `faulted: Some(round)`;
    /// `faulted: None` explicitly requests a fault-free round).
    /// [`PrivateWeightingProtocol::weighting_round`] and
    /// [`PrivateWeightingProtocol::weighting_round_with_oblivious_subsampling`] cannot
    /// honour it and panic when it is active. The default plan injects nothing.
    pub fault_plan: FaultPlan,
    /// Bypass the cross-round ciphertext cache: every round freshly encrypts all
    /// blinded inverses (the pre-cache behaviour). `ULDP_FRESH_ENCRYPT=1` forces the
    /// same bypass process-wide; decrypted aggregates are bitwise-identical either way
    /// (CI diffs them), only the per-round `server_encryption` cost changes.
    pub fresh_encrypt: bool,
    /// Depth of the multi-round pipeline driven by
    /// [`PrivateWeightingProtocol::run_rounds`]: how many rounds the fold stage
    /// (steps 2.a–2.b) may run ahead of the decrypt stage (step 2.c). `0` reads
    /// `ULDP_PIPELINE_DEPTH` (default 2, classic double buffering); the `ULDP_PIPELINE`
    /// kill-switch forces the sequential path regardless. The pipeline reorders *when*
    /// work happens, never what it computes — aggregates are bitwise-identical at any
    /// depth.
    pub pipeline_depth: usize,
}

/// Default cells-per-chunk of the protocol's streaming fold when neither
/// [`ProtocolConfig::chunk_size`] nor `ULDP_CHUNK` is set. Each cell already amortises
/// one Paillier exponentiation per participating user, so fine chunks cost little and
/// keep the pool balanced even for small `silos × dim` grids.
const DEFAULT_PROTOCOL_CHUNK: usize = 4;

/// Returns `true` when `ULDP_FRESH_ENCRYPT` forces every round to freshly encrypt the
/// blinded inverses instead of re-randomising cached ciphertexts. Read once per process;
/// accepts `1` / `true`.
pub fn fresh_encrypt_forced() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("ULDP_FRESH_ENCRYPT")
            .map(|v| matches!(v.trim(), "1" | "true" | "TRUE"))
            .unwrap_or(false)
    })
}

/// Reserved derivation index for the re-randomisation context's secret unit `ρ`. The
/// per-user encryption streams use indices `0..num_users`, so the reserved slot can
/// never collide with them — and because `ρ` is derived from the round's batch seed,
/// building the context consumes **no** extra draws from the caller's RNG: the cached
/// and `ULDP_FRESH_ENCRYPT=1` executions stay stream-aligned round for round.
const RERAND_SEED_INDEX: u64 = u64::MAX;

/// Mirror of the crypto crate's fixed-base threshold (`FIXED_BASE_MIN_MULS`): below this
/// many expected exponentiations of one base a table never amortises, and the cell
/// terms are gathered into one interleaved multi-exponentiation instead.
const FIXED_BASE_TABLE_MIN_MULS: usize = 8;

/// One user's cached encrypted inverse: the ciphertext the server distributed in the
/// most recent round, which the next round re-randomises.
struct CacheEntry {
    /// The sampling decision the entry was encrypted under; a flip invalidates it (the
    /// plaintext changes between the blinded inverse and zero).
    keep: bool,
    /// Most recently distributed ciphertext.
    current: Ciphertext,
}

/// Per-federation cross-round ciphertext cache: round 1 encrypts every blinded inverse
/// and populates the entries; later rounds with an unchanged sampling mask re-randomise
/// the cached ciphertexts in one pooled batch (`c · h^t`, one squaring-free fixed-base
/// `pow` per user) instead of paying a full Paillier encryption each. Mask changes,
/// silo dropouts and [`ProtocolConfig::fresh_encrypt`] / `ULDP_FRESH_ENCRYPT=1`
/// invalidate only the affected users' entries, so multi-round cost is
/// `encrypt + (R − 1) · rerandomise` while the decrypted aggregates stay
/// bitwise-identical to the fresh-encryption path. It is server state only: the silos'
/// step 2.(b) never reads it.
struct RoundCryptoCache {
    /// Shared re-randomisation context (`h = ρ^n mod n²` plus its wide fixed-base
    /// table), derived once per federation from the first round's reserved seed slot.
    rerand: Option<Arc<RerandCtx>>,
    /// Per-user entries keyed by user id, created lazily the first round a user is
    /// active and removed on invalidation. Sparse sampled rounds therefore hold
    /// `O(q·|U|)`-many entries — an unsampled user never allocates cache state.
    entries: BTreeMap<u32, CacheEntry>,
    /// Users freshly encrypted by the most recent round's step 2.(a).
    last_fresh: usize,
    /// Users re-randomised from cache by the most recent round's step 2.(a).
    last_rerandomised: usize,
}

/// How step 2.(b) evaluates `inverse^scalar` for one participating user this round.
/// Every variant is built from the ciphertext the silos received this round and
/// nothing else.
enum InverseEval {
    /// Schoolbook square-and-multiply (the `ULDP_GENERIC_MODPOW=1` path).
    Generic { base: BigUint },
    /// Too few uses for a table: the cell's terms are gathered and fused into one
    /// interleaved (Shamir-trick) multi-exponentiation over the cached `n²` context —
    /// the shared squaring ladder replaces one ladder per term.
    Fused { base: BigUint },
    /// Fixed-base table over the received ciphertext, dropped at the end of the round.
    Table(FixedBaseCtx),
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            paillier_bits: 512,
            dh_bits: 256,
            use_rfc_group: false,
            precision: 1e-10,
            n_max: 64,
            threads: 0,
            chunk_size: 0,
            fault_plan: FaultPlan::none(),
            fresh_encrypt: false,
            pipeline_depth: 0,
        }
    }
}

impl ProtocolConfig {
    /// The paper's full-strength parameters (3072-bit security, `N_max = 2000`).
    ///
    /// Key generation and per-round encryption at this size are expensive; benchmarks
    /// report the key size they actually ran with.
    pub fn paper_scale() -> Self {
        ProtocolConfig {
            paillier_bits: 3072,
            dh_bits: 0,
            use_rfc_group: true,
            precision: 1e-10,
            n_max: 2000,
            threads: 0,
            chunk_size: 0,
            fault_plan: FaultPlan::none(),
            fresh_encrypt: false,
            pipeline_depth: 0,
        }
    }
}

/// Wall-clock timings of the one-off setup phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtocolTimings {
    /// Paillier + Diffie–Hellman key generation and pairwise seed agreement (steps a–c).
    pub key_exchange: Duration,
    /// Blinded-histogram construction, masking and aggregation (steps d–e).
    pub histogram_blinding: Duration,
    /// Modular inversion of the blinded totals on the server (step f).
    pub inverse_computation: Duration,
}

impl ProtocolTimings {
    /// Total setup time.
    pub fn total(&self) -> Duration {
        self.key_exchange + self.histogram_blinding + self.inverse_computation
    }
}

/// Wall-clock timings of one weighting round (steps 2.a–2.c).
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundTimings {
    /// Server-side Poisson sampling and Paillier encryption of the blinded inverses (2.a).
    pub server_encryption: Duration,
    /// Silo-side weighted encryption of clipped deltas and noise (2.b) plus the fused
    /// homomorphic cross-silo summation, streamed over all silos.
    pub silo_weighting: Duration,
    /// Server-side decryption and decoding (2.c). (The homomorphic aggregation itself is
    /// fused into the streaming silo-weighting fold.)
    pub aggregation: Duration,
}

impl RoundTimings {
    /// Total round time.
    pub fn total(&self) -> Duration {
        self.server_encryption + self.silo_weighting + self.aggregation
    }
}

/// One round's inputs for [`PrivateWeightingProtocol::run_rounds`]: the arguments the
/// per-round entry points take, bundled so a replay can be described up front and
/// driven through the pipeline.
pub struct RoundInput<'a> {
    /// `clipped_deltas[s][u]` — silo `s`'s clipped model delta for user `u` (empty when
    /// the user has no records in the silo).
    pub clipped_deltas: &'a [Vec<Vec<f64>>],
    /// `noises[s]` — the Gaussian noise vector silo `s` adds.
    pub noises: &'a [Vec<f64>],
    /// Optional user-level sub-sampling mask.
    pub sampled: Option<&'a SampleMask>,
    /// `Some(round)` runs the round under the configured [`ProtocolConfig::fault_plan`],
    /// drawing round `round`'s fault set. Rounds whose draw drops a silo drain the
    /// pipeline and run sequentially (cache invalidation must stay ordered); `None`
    /// explicitly requests a fault-free round, whatever plan is configured.
    pub faulted: Option<u64>,
}

impl<'a> RoundInput<'a> {
    /// A plain, fault-free, unsampled round.
    pub fn new(clipped_deltas: &'a [Vec<Vec<f64>>], noises: &'a [Vec<f64>]) -> Self {
        RoundInput { clipped_deltas, noises, sampled: None, faulted: None }
    }
}

/// One round's outputs from [`PrivateWeightingProtocol::run_rounds`] — exactly what the
/// matching sequential entry point returns, bit for bit.
pub struct RoundOutput {
    /// The decoded aggregate `Σ_s (Σ_u w_{s,u} Δ̃_{s,u} + z_s)` (re-weighted by
    /// `|S| / |S_surviving|` on faulted rounds).
    pub aggregate: Vec<f64>,
    /// Dropout mask in silo order (faulted rounds only).
    pub dropped: Option<Vec<bool>>,
    /// Per-phase wall-clocks. Under overlap the phases of different rounds run
    /// concurrently, so summed phase times can exceed the replay's wall-clock.
    pub timings: RoundTimings,
}

/// What the pipeline's fold stage hands the decrypt stage for one round: the folded
/// per-coordinate totals plus everything needed to finish the round without touching
/// shared mutable state.
struct DecryptJob {
    totals: Vec<Ciphertext>,
    server_encryption: Duration,
    silo_weighting: Duration,
    /// `|S| / |S_surviving|` (always 1.0 for pipelined rounds — dropouts drain).
    reweight: f64,
    dropped: Option<Vec<bool>>,
}

/// Private user-level sub-sampling via 1-out-of-P oblivious transfer (Section 4.1).
///
/// The participation probability is `numerator / denominator`: the server prepares
/// `numerator` copies of the real encrypted inverse and `denominator − numerator`
/// encryptions of zero, and one is fetched obliviously. Only rational probabilities can be
/// expressed this way — the discretisation limitation the paper notes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObliviousSubsampling {
    /// Number of "real" slots.
    pub numerator: u64,
    /// Total number of slots `P`.
    pub denominator: u64,
}

impl ObliviousSubsampling {
    /// Creates a sub-sampling description with participation probability
    /// `numerator / denominator`.
    pub fn new(numerator: u64, denominator: u64) -> Self {
        assert!(denominator >= 1, "denominator must be at least 1");
        assert!(numerator <= denominator, "numerator must not exceed denominator");
        ObliviousSubsampling { numerator, denominator }
    }

    /// The effective user-level participation probability `q = numerator / denominator`.
    pub fn probability(&self) -> f64 {
        self.numerator as f64 / self.denominator as f64
    }

    /// Builds the OT offer for one user: `numerator` re-randomised copies of the real
    /// ciphertext followed by `denominator − numerator` fresh encryptions of zero.
    ///
    /// Every slot is a fresh Paillier encryption, so the receiver cannot tell real from
    /// dummy slots.
    pub fn build_offer<R: Rng + ?Sized>(
        &self,
        public_key: &PaillierPublicKey,
        real: &Ciphertext,
        rng: &mut R,
    ) -> OneOutOfP<Ciphertext> {
        let mut items = Vec::with_capacity(self.denominator as usize);
        for _ in 0..self.numerator {
            // Homomorphic re-randomisation: multiplying by a fresh `r^n` is *exactly*
            // the historical `add(real, encrypt(rng, 0))` — `Enc(0; r) = (1 + 0·n)·r^n
            // = r^n` — with the same single `sample_unit` draw from `rng`, so the
            // offer's ciphertext bits are unchanged; it just skips the redundant
            // `(1 + m·n)` blinding step and one multiplication.
            items.push(public_key.rerandomise(rng, real));
        }
        for _ in self.numerator..self.denominator {
            items.push(public_key.encrypt(rng, &BigUint::zero()));
        }
        OneOutOfP::new(items)
    }
}

/// The state of a completed setup phase, able to run any number of weighting rounds.
pub struct PrivateWeightingProtocol {
    num_silos: usize,
    num_users: usize,
    paillier: PaillierKeyPair,
    codec: FixedPointCodec,
    c_lcm: BigUint,
    /// The silos' shared blinding-factor expander (seeded by `R`, never sent to the server).
    blinder: MultiplicativeBlinder,
    /// Per-silo record histograms `n_{s,u}` (silo-private in the real deployment).
    silo_histograms: Vec<Vec<u64>>,
    /// Cross-silo totals `N_u` (kept only to validate inputs; not revealed by the protocol).
    user_totals: Vec<u64>,
    /// Server-side blinded inverses `B_inv(N_u)`; `None` for users with no records.
    blinded_inverses: Vec<Option<BigUint>>,
    /// Pairwise secure-aggregation seeds (symmetric).
    pair_seeds: Vec<Vec<MaskSeed>>,
    setup_timings: ProtocolTimings,
    /// Worker pool for the parallel phases (shared, or dedicated per
    /// [`ProtocolConfig::threads`]).
    runtime: Arc<Runtime>,
    /// Resolved cells-per-chunk of the streaming cell fold
    /// ([`ProtocolConfig::chunk_size`] / `ULDP_CHUNK` / default).
    chunk_size: usize,
    /// Fault plan for [`PrivateWeightingProtocol::weighting_round_faulted`].
    fault_plan: FaultPlan,
    /// Cross-round ciphertext cache for step 2.(a) (see [`RoundCryptoCache`]).
    cache: Mutex<RoundCryptoCache>,
    /// Bypass the cache ([`ProtocolConfig::fresh_encrypt`] or `ULDP_FRESH_ENCRYPT=1`):
    /// every round freshly encrypts all blinded inverses.
    fresh_encrypt: bool,
    /// Resolved multi-round pipeline depth ([`ProtocolConfig::pipeline_depth`] /
    /// `ULDP_PIPELINE_DEPTH` / `ULDP_PIPELINE`); `0` means sequential.
    pipeline_depth: usize,
}

impl PrivateWeightingProtocol {
    /// Runs the setup phase (Protocol 1, step 1) for the given per-silo histograms.
    ///
    /// `histogram[s][u]` is the number of records user `u` holds in silo `s`. Every user
    /// total must be at most `config.n_max` for the `C_LCM` divisibility argument of
    /// Theorem 4 to hold.
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
        let runtime = Runtime::handle(config.threads);

        // --- Step 1.(a)-(c): key generation and pairwise seed agreement. ---
        let key_span = trace::timed_span("protocol", "key_exchange");
        let paillier = PaillierKeyPair::generate(rng, config.paillier_bits);
        // Warm the ciphertext-modulus Montgomery context during setup so every round
        // (steps 2.(a)-(c)) shares the cached engine state and no phase ever pays for
        // context construction mid-round.
        let _ = paillier.public.ctx_n2();
        let dh_group = if config.use_rfc_group {
            DhGroup::rfc3526_2048()
        } else {
            DhGroup::generate(rng, config.dh_bits.max(64))
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
        // Silo 0 picks the shared random seed R and distributes it over the pairwise
        // channels; the server never sees it.
        let mut blind_seed = [0u8; 32];
        rng.fill(&mut blind_seed);
        let key_exchange = key_span.finish();

        let modulus = paillier.public.n.clone();
        let codec = FixedPointCodec::new(config.precision, modulus.clone());
        let c_lcm = uldp_bigint::lcm_up_to(config.n_max);
        let blinder = MultiplicativeBlinder::new(blind_seed, modulus.clone());

        // --- Step 1.(d)-(e): blinded, masked histogram aggregation. ---
        let hist_span = trace::timed_span("protocol", "histogram_blinding");
        let silo_histograms: Vec<Vec<u64>> =
            histogram.iter().map(|row| row.iter().map(|&c| c as u64).collect()).collect();
        let mut user_totals = vec![0u64; num_users];
        for row in &silo_histograms {
            for (t, &c) in user_totals.iter_mut().zip(row.iter()) {
                *t += c;
            }
        }
        for (&total, _) in user_totals.iter().zip(0..num_users) {
            assert!(
                total <= config.n_max,
                "user total {total} exceeds N_max = {} (required by Theorem 4)",
                config.n_max
            );
        }
        // Each silo blinds and masks its histogram; the server sums the masked values.
        // The pairwise masks cancel in the sum, so we compute the aggregate directly while
        // still exercising the blinding (what the server actually sees is r_u * N_u).
        // Blinding-factor expansion is SHA-256-based and per-user independent, so the
        // per-user columns run on the worker pool.
        let blinded_totals: Vec<BigUint> = runtime.par_map_range(num_users, |u| {
            let mut total = BigUint::zero();
            for row in &silo_histograms {
                let blinded = blinder.blind(u as u64, &BigUint::from_u64(row[u]));
                total = uldp_bigint::modular::mod_add(&total, &blinded, &modulus);
            }
            total
        });
        let histogram_blinding = hist_span.finish();

        // --- Step 1.(f): server inverts the blinded totals (one mod_inv per user). ---
        let inv_span = trace::timed_span("protocol", "inverse_computation");
        let blinded_inverses: Vec<Option<BigUint>> =
            runtime.par_map(
                &blinded_totals,
                |_, b| if b.is_zero() { None } else { mod_inv(b, &modulus) },
            );
        let inverse_computation = inv_span.finish();

        PrivateWeightingProtocol {
            num_silos,
            num_users,
            paillier,
            codec,
            c_lcm,
            blinder,
            silo_histograms,
            user_totals,
            blinded_inverses,
            pair_seeds,
            setup_timings: ProtocolTimings {
                key_exchange,
                histogram_blinding,
                inverse_computation,
            },
            runtime,
            chunk_size: uldp_runtime::resolve_chunk_size(config.chunk_size, DEFAULT_PROTOCOL_CHUNK),
            fault_plan: config.fault_plan,
            cache: Mutex::new(RoundCryptoCache {
                rerand: None,
                entries: BTreeMap::new(),
                last_fresh: 0,
                last_rerandomised: 0,
            }),
            fresh_encrypt: config.fresh_encrypt || fresh_encrypt_forced(),
            pipeline_depth: uldp_runtime::resolve_pipeline_depth(config.pipeline_depth),
        }
    }

    /// Replaces the worker pool this protocol instance runs on (e.g. to compare a
    /// sequential and a parallel execution of the same setup).
    pub fn with_runtime(mut self, runtime: Arc<Runtime>) -> Self {
        self.runtime = runtime;
        self
    }

    /// The worker pool in use.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Number of silos.
    pub fn num_silos(&self) -> usize {
        self.num_silos
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Bit length of the Paillier modulus actually in use.
    pub fn modulus_bits(&self) -> usize {
        self.paillier.public.modulus_bits()
    }

    /// Timings of the setup phase.
    pub fn setup_timings(&self) -> &ProtocolTimings {
        &self.setup_timings
    }

    /// The pairwise secure-aggregation seeds established during setup.
    pub fn pair_seeds(&self) -> &[Vec<MaskSeed>] {
        &self.pair_seeds
    }

    /// The record-proportional weight matrix the protocol implicitly computes
    /// (`w_{s,u} = n_{s,u} / N_u`), exposed for validation against the plaintext path.
    pub fn reference_weights(&self) -> WeightMatrix {
        let histogram: Vec<Vec<usize>> = self
            .silo_histograms
            .iter()
            .map(|row| row.iter().map(|&c| c as usize).collect())
            .collect();
        WeightMatrix::from_histogram(WeightingStrategy::RecordProportional, &histogram)
    }

    /// `(fresh, rerandomised)` user counts of the most recent round's step 2.(a): how
    /// many encrypted inverses were freshly Paillier-encrypted vs re-randomised from
    /// the cross-round cache. Bypass mode always reports `(num_users, 0)`.
    pub fn round_cache_stats(&self) -> (usize, usize) {
        let cache = self.cache.lock().expect("cache mutex poisoned");
        (cache.last_fresh, cache.last_rerandomised)
    }

    /// Number of users currently holding a cross-round cache entry. Dense rounds
    /// materialise one entry per user; sparse sampled rounds only ever materialise
    /// entries for users that have been active in some round.
    pub fn cached_entry_count(&self) -> usize {
        let cache = self.cache.lock().expect("cache mutex poisoned");
        cache.entries.len()
    }

    /// Estimated resident bytes of the cross-round per-user crypto state: one
    /// ciphertext per entry. Step 2.(b)'s fixed-base tables live only for their round,
    /// so nothing else persists. With a sparse [`SampleMask`] this tracks `O(q·|U|)`
    /// instead of `O(|U|)` — the population-scaling benchmarks report it alongside the
    /// fold gauge.
    pub fn cached_state_bytes(&self) -> usize {
        let ct_bytes = self.paillier.public.n_squared.bit_length().div_ceil(64) * 8;
        self.cached_entry_count() * ct_bytes
    }

    /// Drops every cached ciphertext (and the re-randomisation context), so the next
    /// round freshly encrypts all inverses — used by benchmarks that run several rounds
    /// of the same setup and need each to pay the full encryption cost.
    pub fn reset_round_cache(&self) {
        let mut cache = self.cache.lock().expect("cache mutex poisoned");
        cache.rerand = None;
        cache.entries.clear();
    }

    /// The round's *active* users — the users whose encrypted inverses are actually
    /// distributed to the silos — as an ascending id list.
    ///
    /// With no mask or a dense mask this is every user: unsampled users receive
    /// `Enc(0)`, the legacy path, bitwise identical to earlier revisions. A sparse mask
    /// keeps only sampled users that hold records — omitting a user's `Enc(0)` term
    /// subtracts exactly zero from every decrypted total, so the aggregate keeps
    /// identical bits while step 2.(a)–(b) cost drops to `O(q·|U|)` crypto operations.
    fn active_users(&self, sampled: Option<&SampleMask>) -> Vec<u32> {
        match sampled {
            Some(mask) if mask.is_sparse() => mask
                .iter()
                .filter(|&u| self.blinded_inverses[u].is_some())
                .map(|u| u as u32)
                .collect(),
            _ => (0..self.num_users as u32).collect(),
        }
    }

    /// Step 2.(a): produces the encrypted blinded inverses for one round's active users
    /// — either freshly encrypting everything (bypass mode, first round, invalidated
    /// entries) or re-randomising cached ciphertexts in one pooled batch. Returns the
    /// active user ids with their ciphertexts aligned position for position.
    ///
    /// Exactly one 256-bit batch seed is drawn from the caller's RNG whichever path
    /// runs, so the cached, fresh-encryption, sparse and dense executions all consume
    /// identical caller randomness streams and CI can diff their aggregates process
    /// against process. Per-user work is seeded from `(seed, user id)` — not the active
    /// position — so a sparse round derives exactly the per-user streams the dense walk
    /// would, and the output is bitwise-identical at any thread count.
    fn distribute_inverses<R: Rng + ?Sized>(
        &self,
        sampled: Option<&SampleMask>,
        rng: &mut R,
    ) -> (Vec<u32>, Vec<Ciphertext>) {
        let batch_seed = seeding::wide_seed_from_rng(rng);
        let active = self.active_users(sampled);
        let keep_of = |u: usize| -> bool {
            sampled.is_none_or(|m| m.contains(u)) && self.blinded_inverses[u].is_some()
        };
        let plaintext = |u: usize| -> BigUint {
            if keep_of(u) {
                self.blinded_inverses[u].clone().expect("keep implies a blinded inverse")
            } else {
                BigUint::zero()
            }
        };
        if self.fresh_encrypt {
            let cts: Vec<Ciphertext> = self.runtime.par_map(&active, |_, &u| {
                let mut rng = StdRng::from_seed(seeding::index_seed_wide(batch_seed, u as u64));
                self.paillier.public.encrypt(&mut rng, &plaintext(u as usize))
            });
            let mut cache = self.cache.lock().expect("cache mutex poisoned");
            cache.last_fresh = active.len();
            cache.last_rerandomised = 0;
            return (active, cts);
        }
        let mut cache = self.cache.lock().expect("cache mutex poisoned");
        if cache.rerand.is_none() {
            // The context's secret unit ρ comes from the reserved slot of THIS round's
            // batch seed: no extra caller draws, no collision with the user streams.
            let mut ctx_rng =
                StdRng::from_seed(seeding::index_seed_wide(batch_seed, RERAND_SEED_INDEX));
            cache.rerand = Some(Arc::new(self.paillier.public.rerand_ctx(&mut ctx_rng)));
        }
        let rerand = Arc::clone(cache.rerand.as_ref().expect("context just initialised"));
        let fresh: Vec<bool> = active
            .iter()
            .map(|&u| cache.entries.get(&u).is_none_or(|e| e.keep != keep_of(u as usize)))
            .collect();
        // One pooled pass over the active users: fresh entries pay a full Paillier
        // encryption, cached ones one squaring-free `c · h^t`. The workers only read
        // the entries through the guard held by this thread.
        let entries = &cache.entries;
        let cts: Vec<Ciphertext> = self.runtime.par_map(&active, |i, &u| {
            let mut rng = StdRng::from_seed(seeding::index_seed_wide(batch_seed, u as u64));
            if fresh[i] {
                self.paillier.public.encrypt(&mut rng, &plaintext(u as usize))
            } else {
                let entry = entries.get(&u).expect("non-fresh user has an entry");
                rerand.rerandomise(&mut rng, &entry.current)
            }
        });
        for (&u, ct) in active.iter().zip(&cts) {
            cache.entries.insert(u, CacheEntry { keep: keep_of(u as usize), current: ct.clone() });
        }
        let fresh_count = fresh.iter().filter(|&&f| f).count();
        cache.last_fresh = fresh_count;
        cache.last_rerandomised = active.len() - fresh_count;
        (active, cts)
    }

    /// Post-round cache invalidation after silo dropouts: any user with records in a
    /// dropped silo gets freshly re-encrypted next round. (The server only learns of a
    /// dropout when the round's reports are collected, so the invalidation necessarily
    /// lands after the fact; users untouched by the dropped silos keep their entries.)
    fn invalidate_users_of_dropped(&self, dropped: &[bool]) {
        let mut cache = self.cache.lock().expect("cache mutex poisoned");
        cache.entries.retain(|&u, _| {
            !dropped.iter().enumerate().any(|(s, &d)| d && self.silo_histograms[s][u as usize] > 0)
        });
    }

    /// Runs one weighting round (Protocol 1, step 2).
    ///
    /// * `clipped_deltas[s][u]` — silo `s`'s clipped model delta for user `u`
    ///   (`Δ̃_{s,u}` *before* weighting; empty when the user has no records in the silo).
    /// * `noises[s]` — the Gaussian noise vector `z_s` silo `s` adds.
    /// * `sampled` — optional user-level sub-sampling [`SampleMask`]. Under a dense
    ///   mask, unsampled users' inverses are encrypted as zero (step 2.a), so their
    ///   deltas drop out exactly; under a sparse mask they are skipped outright — no
    ///   ciphertext, no cache entry, no fold work — which yields the same aggregate bit
    ///   for bit (an `Enc(0)` term adds exactly zero to every decrypted total).
    ///
    /// Returns the decoded aggregate `Σ_s (Σ_u w_{s,u} Δ̃_{s,u} + z_s)` plus per-phase
    /// timings.
    ///
    /// Panics when [`ProtocolConfig::fault_plan`] is active: this entry point cannot
    /// inject faults, so such rounds go through
    /// [`PrivateWeightingProtocol::weighting_round_faulted`] or
    /// [`PrivateWeightingProtocol::run_rounds`].
    pub fn weighting_round<R: Rng + ?Sized>(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampled: Option<&SampleMask>,
        rng: &mut R,
    ) -> (Vec<f64>, RoundTimings) {
        self.reject_fault_plan("weighting_round");
        self.fault_free_round(clipped_deltas, noises, sampled, rng)
    }

    /// Panics if a fault plan is configured: `entry` is a round entry point that would
    /// otherwise silently ignore it.
    fn reject_fault_plan(&self, entry: &str) {
        assert!(
            !self.fault_plan.is_active(),
            "{entry} cannot honour the active ProtocolConfig::fault_plan; run faulted rounds \
             through weighting_round_faulted or run_rounds"
        );
    }

    /// The body of [`PrivateWeightingProtocol::weighting_round`]: one round with no
    /// fault injection, whatever plan is configured.
    fn fault_free_round<R: Rng + ?Sized>(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampled: Option<&SampleMask>,
        rng: &mut R,
    ) -> (Vec<f64>, RoundTimings) {
        assert_eq!(clipped_deltas.len(), self.num_silos, "one delta set per silo required");
        assert_eq!(noises.len(), self.num_silos, "one noise vector per silo required");
        let dim = noises[0].len();
        assert!(dim > 0, "model dimension must be positive");

        // --- Step 2.(a): server encrypts (possibly sub-sampled) blinded inverses, or —
        // when the cross-round cache holds them under an unchanged mask — re-randomises
        // the cached ciphertexts in one pooled batch. One 256-bit seed drawn from the
        // caller's RNG parameterises the whole batch; per-user randomness is derived
        // from (seed, u), so the output is bitwise-identical at any thread count.
        let enc_span = trace::timed_span("protocol", "server_encryption");
        let (active, encrypted_inverses) = self.distribute_inverses(sampled, rng);
        let server_encryption = enc_span.finish();

        // --- Steps 2.(b)-(c): silo-side encrypted weighting, secure aggregation of
        // ciphertexts, decryption and decoding. The pairwise additive masks cancel in the
        // sum exactly as in step 1.(e); the decrypted aggregate is therefore the same with
        // or without them.
        let (out, mut timings) = self.weighting_round_with_inverses(
            clipped_deltas,
            noises,
            &active,
            &encrypted_inverses,
            dim,
            None,
        );
        timings.server_encryption = server_encryption;
        (out, timings)
    }

    /// Runs one weighting round under the configured [`ProtocolConfig::fault_plan`]:
    /// silos selected by the plan drop out **between steps 2.(b) and 2.(c)** — after the
    /// server ships the encrypted blinded inverses, before silo reports aggregate — and
    /// straggling silos inflate the round's `silo_weighting` timing by
    /// [`FaultPlan::delay_ms`] each without touching the result.
    ///
    /// Degradation semantics: a dropped silo's `(silo, coordinate)` cells (deltas *and*
    /// noise) are excluded from the streaming homomorphic fold — the Paillier path needs
    /// no mask recovery because the pairwise masks cancel inside each per-coordinate sum
    /// over the silos that actually contributed — and the decrypted aggregate is
    /// re-weighted by `|S| / |S_surviving|` so the update keeps its expected scale. The
    /// result is *exactly* the surviving-silo plaintext reference
    /// ([`PrivateWeightingProtocol::plaintext_reference_faulted`]) and stays
    /// bitwise-identical across every `(threads, chunk_size)` setting; at least one silo
    /// always survives.
    ///
    /// `round` tells the plan which round's fault set to draw (faults are re-drawn every
    /// round). Returns the re-weighted aggregate, the dropout mask in silo order, and
    /// the per-phase timings.
    pub fn weighting_round_faulted<R: Rng + ?Sized>(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampled: Option<&SampleMask>,
        round: u64,
        rng: &mut R,
    ) -> (Vec<f64>, Vec<bool>, RoundTimings) {
        assert_eq!(clipped_deltas.len(), self.num_silos, "one delta set per silo required");
        assert_eq!(noises.len(), self.num_silos, "one noise vector per silo required");
        let dim = noises[0].len();
        assert!(dim > 0, "model dimension must be positive");

        // Step 2.(a) is unchanged: the server encrypts (or re-randomises from cache)
        // before any silo drops.
        let enc_span = trace::timed_span("protocol", "server_encryption");
        let (active, encrypted_inverses) = self.distribute_inverses(sampled, rng);
        let server_encryption = enc_span.finish();

        let dropped = self.fault_plan.dropped_silos(round, self.num_silos);
        let delayed = self.fault_plan.delayed_silos(round, self.num_silos);
        if uldp_telemetry::enabled() {
            // Structured fault events: one per affected silo, tagged with the round so
            // traces of multi-round runs stay attributable.
            for (silo, _) in dropped.iter().enumerate().filter(|(_, &d)| d) {
                metrics::FAULT_EVENTS.inc();
                trace::event(
                    "fault",
                    "dropout",
                    vec![("round", round.into()), ("silo", silo.into())],
                );
            }
            for (silo, _) in delayed.iter().enumerate().filter(|(_, &d)| d) {
                metrics::FAULT_EVENTS.inc();
                trace::event(
                    "fault",
                    "delay",
                    vec![
                        ("round", round.into()),
                        ("silo", silo.into()),
                        ("delay_ms", self.fault_plan.delay_ms.into()),
                    ],
                );
            }
        }
        let (mut out, mut timings) = self.weighting_round_with_inverses(
            clipped_deltas,
            noises,
            &active,
            &encrypted_inverses,
            dim,
            Some(&dropped),
        );
        timings.server_encryption = server_encryption;

        // Surviving-silo re-weighting: the decrypted value is the exact sum over the
        // survivors, scaled up so the server update keeps its |S|-silo magnitude.
        let surviving = dropped.iter().filter(|&&d| !d).count();
        debug_assert!(surviving >= 1, "the fault plan must leave at least one silo");
        let factor = self.num_silos as f64 / surviving as f64;
        if factor != 1.0 {
            for o in out.iter_mut() {
                *o *= factor;
            }
        }
        // Stragglers: each delayed report lands `delay_ms` late. Simulated in the
        // timings only — no wall-clock sleep, the aggregate is untouched.
        let delayed_count = delayed.iter().filter(|&&d| d).count() as u64;
        timings.silo_weighting += Duration::from_millis(self.fault_plan.delay_ms * delayed_count);
        // A user whose records sit in a dropped silo gets freshly re-encrypted next
        // round; everyone else keeps their cached ciphertext.
        self.invalidate_users_of_dropped(&dropped);
        (out, dropped, timings)
    }

    /// Runs a multi-round replay through the round pipeline at the protocol's resolved
    /// depth ([`ProtocolConfig::pipeline_depth`] / `ULDP_PIPELINE_DEPTH`, with the
    /// `ULDP_PIPELINE` kill-switch forcing the sequential path).
    ///
    /// While the server decrypts round `t`'s per-coordinate totals (step 2.c), the pool
    /// is already folding round `t+1`'s cells — including its `RoundCryptoCache`
    /// re-randomisation batch (step 2.a). The stages commute because they touch
    /// disjoint state: the fold writes only ciphertext totals derived from the public
    /// key, the decrypt reads only already-folded totals with the secret key. Every
    /// caller-RNG draw happens on the submitting thread in round order (one 256-bit
    /// seed per round, exactly as the sequential loop draws it), so seed derivation
    /// never depends on overlap and the outputs are bitwise-identical to
    /// [`PrivateWeightingProtocol::weighting_round`] run in a loop, at every
    /// `(threads × shards × chunk × depth)` point.
    ///
    /// Rounds whose [`FaultPlan`] drops a silo force a pipeline drain: their dropout
    /// invalidates cache entries, which must not race a later round's re-randomisation
    /// batch already in flight, so the pipeline completes all queued decrypts and runs
    /// the faulted round inline before refilling. Fault-free rounds (including rounds
    /// with stragglers only) stay overlapped.
    pub fn run_rounds<R: Rng + ?Sized>(
        &self,
        rounds: &[RoundInput<'_>],
        rng: &mut R,
    ) -> Vec<RoundOutput> {
        self.run_rounds_with_depth(rounds, self.pipeline_depth, rng)
    }

    /// [`PrivateWeightingProtocol::run_rounds`] at an explicit pipeline depth:
    /// `0` runs the sequential reference loop, `d ≥ 1` lets the fold stage run up to
    /// `d` rounds ahead of the decrypt stage. Exposed so tests and benches can compare
    /// depths without touching the process environment.
    pub fn run_rounds_with_depth<R: Rng + ?Sized>(
        &self,
        rounds: &[RoundInput<'_>],
        depth: usize,
        rng: &mut R,
    ) -> Vec<RoundOutput> {
        if depth == 0 || rounds.len() < 2 {
            return rounds.iter().map(|input| self.run_round_sequential(input, rng)).collect();
        }
        let mut outputs: Vec<Option<RoundOutput>> = (0..rounds.len()).map(|_| None).collect();
        // Two bounded queues per replay: `jobs` carries folded totals forward (its
        // capacity is the pipeline depth — the double buffer), `finished` carries
        // decrypted rounds back (capacity = replay length, so the decrypt stage
        // never blocks on the producer). Both deliver strictly in round order.
        let jobs: Handoff<DecryptJob> = Handoff::new(depth);
        let finished: Handoff<RoundOutput> = Handoff::new(rounds.len());
        std::thread::scope(|scope| {
            let (jobs, finished) = (&jobs, &finished);
            scope.spawn(move || {
                // A panic mid-decrypt must close both queues, or the producer would
                // block forever against a full `jobs` queue.
                let _close_finished = CloseOnDrop(finished);
                let _close_jobs = CloseOnDrop(jobs);
                while let Some((seq, job)) = jobs.pop() {
                    let (mut aggregate, aggregation) = self.decrypt_totals(&job.totals);
                    if job.reweight != 1.0 {
                        for v in aggregate.iter_mut() {
                            *v *= job.reweight;
                        }
                    }
                    metrics::PIPELINE_INFLIGHT.sub(1);
                    let out = RoundOutput {
                        aggregate,
                        dropped: job.dropped,
                        timings: RoundTimings {
                            server_encryption: job.server_encryption,
                            silo_weighting: job.silo_weighting,
                            aggregation,
                        },
                    };
                    if !finished.push(seq, out) {
                        break;
                    }
                }
            });
            let mut submitted = 0usize;
            let mut collected = 0usize;
            for (t, input) in rounds.iter().enumerate() {
                let drains = input.faulted.is_some_and(|round| {
                    self.fault_plan.dropped_silos(round, self.num_silos).iter().any(|&d| d)
                });
                if drains {
                    // Dropouts invalidate cache entries; draining first keeps the
                    // invalidation ordered after every in-flight round, exactly as the
                    // sequential loop orders it.
                    let wait = trace::span("protocol", "pipeline_wait").arg("drain_at", t);
                    while collected < submitted {
                        let (seq, out) =
                            finished.pop().expect("decrypt stage died with rounds queued");
                        outputs[seq as usize] = Some(out);
                        collected += 1;
                    }
                    drop(wait);
                    outputs[t] = Some(self.run_round_sequential(input, rng));
                    continue;
                }
                let job = self.stage_round(input, rng);
                metrics::PIPELINE_INFLIGHT.add(1);
                {
                    // The producer parks here while all `depth` slots are in flight —
                    // the span makes backpressure visible in traces.
                    let _wait = trace::span("protocol", "pipeline_wait").arg("round", t);
                    assert!(jobs.push(t as u64, job), "pipeline decrypt stage terminated early");
                }
                submitted += 1;
                while let Some((seq, out)) = finished.try_pop() {
                    outputs[seq as usize] = Some(out);
                    collected += 1;
                }
            }
            jobs.close();
            let wait =
                trace::span("protocol", "pipeline_wait").arg("final_drain", submitted - collected);
            while collected < submitted {
                let (seq, out) = finished.pop().expect("decrypt stage died with rounds queued");
                outputs[seq as usize] = Some(out);
                collected += 1;
            }
            drop(wait);
        });
        outputs.into_iter().map(|out| out.expect("every round decrypted exactly once")).collect()
    }

    /// One round through the existing sequential entry points, shaped as a
    /// [`RoundOutput`] — the reference the pipelined path must match bit for bit.
    fn run_round_sequential<R: Rng + ?Sized>(
        &self,
        input: &RoundInput<'_>,
        rng: &mut R,
    ) -> RoundOutput {
        match input.faulted {
            Some(round) => {
                let (aggregate, dropped, timings) = self.weighting_round_faulted(
                    input.clipped_deltas,
                    input.noises,
                    input.sampled,
                    round,
                    rng,
                );
                RoundOutput { aggregate, dropped: Some(dropped), timings }
            }
            None => {
                let (aggregate, timings) =
                    self.fault_free_round(input.clipped_deltas, input.noises, input.sampled, rng);
                RoundOutput { aggregate, dropped: None, timings }
            }
        }
    }

    /// The producer half of one pipelined round: step 2.(a) (all caller-RNG draws, in
    /// round order) plus the streaming cell fold of step 2.(b), yielding the decrypt
    /// job the consumer finishes. Fault handling mirrors
    /// [`PrivateWeightingProtocol::weighting_round_faulted`] for rounds the pipeline
    /// does not drain for (stragglers and empty fault draws): the dropout mask is
    /// all-false, so no cache invalidation is due.
    fn stage_round<R: Rng + ?Sized>(&self, input: &RoundInput<'_>, rng: &mut R) -> DecryptJob {
        let clipped_deltas = input.clipped_deltas;
        let noises = input.noises;
        assert_eq!(clipped_deltas.len(), self.num_silos, "one delta set per silo required");
        assert_eq!(noises.len(), self.num_silos, "one noise vector per silo required");
        let dim = noises[0].len();
        assert!(dim > 0, "model dimension must be positive");

        let enc_span = trace::timed_span("protocol", "server_encryption");
        let (active, encrypted_inverses) = self.distribute_inverses(input.sampled, rng);
        let server_encryption = enc_span.finish();

        let (dropped, reweight, delay) = match input.faulted {
            None => (None, 1.0, Duration::ZERO),
            Some(round) => {
                let dropped = self.fault_plan.dropped_silos(round, self.num_silos);
                let delayed = self.fault_plan.delayed_silos(round, self.num_silos);
                debug_assert!(
                    dropped.iter().all(|&d| !d),
                    "rounds with dropouts drain the pipeline and run sequentially"
                );
                if uldp_telemetry::enabled() {
                    for (silo, _) in delayed.iter().enumerate().filter(|(_, &d)| d) {
                        metrics::FAULT_EVENTS.inc();
                        trace::event(
                            "fault",
                            "delay",
                            vec![
                                ("round", round.into()),
                                ("silo", silo.into()),
                                ("delay_ms", self.fault_plan.delay_ms.into()),
                            ],
                        );
                    }
                }
                let delayed_count = delayed.iter().filter(|&&d| d).count() as u64;
                let delay = Duration::from_millis(self.fault_plan.delay_ms * delayed_count);
                (Some(dropped), 1.0, delay)
            }
        };
        let (totals, silo_weighting) = self.fold_round_totals(
            clipped_deltas,
            noises,
            &active,
            &encrypted_inverses,
            dim,
            dropped.as_deref(),
        );
        DecryptJob {
            totals,
            server_encryption,
            silo_weighting: silo_weighting + delay,
            reweight,
            dropped,
        }
    }

    /// Runs one weighting round with **private user-level sub-sampling** via simulated
    /// 1-out-of-P oblivious transfer (the extension sketched in Section 4.1 of the paper).
    ///
    /// For every user the server prepares `sampling.denominator` ciphertexts of which
    /// `sampling.numerator` encrypt the real blinded inverse and the rest encrypt zero; a
    /// single ciphertext is obtained through OT and used for the round. The server never
    /// learns whether a user was sampled (it cannot see the OT choice) and the silos never
    /// learn it either (a dummy is indistinguishable from a real Paillier ciphertext), so
    /// the participation probability is exactly `numerator / denominator` but the outcome
    /// stays hidden — unlike [`PrivateWeightingProtocol::weighting_round`], where the mask
    /// is chosen by the server in the clear.
    ///
    /// Returns the decoded aggregate, the realised selection flags (**for validation and
    /// accounting tests only** — in a deployment no party may observe them), and the
    /// per-phase timings. Panics when [`ProtocolConfig::fault_plan`] is active, which
    /// this entry point cannot honour.
    pub fn weighting_round_with_oblivious_subsampling<R: Rng + ?Sized>(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampling: &ObliviousSubsampling,
        rng: &mut R,
    ) -> (Vec<f64>, Vec<bool>, RoundTimings) {
        self.reject_fault_plan("weighting_round_with_oblivious_subsampling");
        assert_eq!(clipped_deltas.len(), self.num_silos, "one delta set per silo required");
        assert_eq!(noises.len(), self.num_silos, "one noise vector per silo required");
        let dim = noises[0].len();
        assert!(dim > 0, "model dimension must be positive");

        // Server side: build the OT offers (step 2.a extended with dummies). Every user's
        // offer and transfer draw from an RNG derived from a 256-bit (seed, u) stream, so
        // the realised selection is identical at any thread count.
        let enc_span = trace::timed_span("protocol", "server_encryption");
        let batch_seed = seeding::wide_seed_from_rng(rng);
        let per_user: Vec<(Ciphertext, bool)> =
            self.runtime.par_map_wide_seeded(self.num_users, batch_seed, |u, rng| {
                let real = match &self.blinded_inverses[u] {
                    Some(inv) => self.paillier.public.encrypt(rng, inv),
                    None => self.paillier.public.encrypt(rng, &BigUint::zero()),
                };
                let offer = sampling.build_offer(&self.paillier.public, &real, rng);
                let (output, _sender_view) = offer.transfer_uniform(rng);
                // The receiver keeps only the ciphertext; whether it was a real slot is
                // recorded here purely so tests can validate correctness.
                let was_real = output.chosen_index < sampling.numerator as usize
                    && self.blinded_inverses[u].is_some();
                (output.item, was_real)
            });
        let (chosen, selected_flags): (Vec<Ciphertext>, Vec<bool>) = per_user.into_iter().unzip();
        let server_encryption = enc_span.finish();

        // Silo side and aggregation are identical to the plain round, using the chosen
        // ciphertexts in place of the server-published inverses. Every user gets an OT
        // offer (the whole point is hiding who was sampled), so all users are active.
        let active: Vec<u32> = (0..self.num_users as u32).collect();
        let (out, mut timings) =
            self.weighting_round_with_inverses(clipped_deltas, noises, &active, &chosen, dim, None);
        timings.server_encryption = server_encryption;
        (out, selected_flags, timings)
    }

    /// Shared silo-side + aggregation logic of steps 2.(b)-(c), parameterised by the
    /// round's active users and their encrypted inverses (aligned position for
    /// position) as distributed to the silos. When `dropped` is given, the marked
    /// silos' cells (deltas and noise) are excluded from the streaming fold — their
    /// reports never reach the server.
    fn weighting_round_with_inverses(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        active: &[u32],
        encrypted_inverses: &[Ciphertext],
        dim: usize,
        dropped: Option<&[bool]>,
    ) -> (Vec<f64>, RoundTimings) {
        let (totals, silo_weighting) = self.fold_round_totals(
            clipped_deltas,
            noises,
            active,
            encrypted_inverses,
            dim,
            dropped,
        );
        let (out, aggregation) = self.decrypt_totals(&totals);
        (out, RoundTimings { server_encryption: Duration::ZERO, silo_weighting, aggregation })
    }

    /// The fold stage of one round — steps 2.(b) and the fused homomorphic cross-silo
    /// sum — producing the per-coordinate ciphertext totals and the `silo_weighting`
    /// wall-clock. This is the stage the round pipeline overlaps with the *previous*
    /// round's [`PrivateWeightingProtocol::decrypt_totals`]: the two touch disjoint
    /// key material (public vs secret) and disjoint state, and each is deterministic
    /// in isolation, so overlap cannot change any bit of either.
    ///
    /// This is the silos' work: it reads only the public key, the ciphertexts the silos
    /// received (`encrypted_inverses`) and silo-side inputs — never the server's cache.
    fn fold_round_totals(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        active: &[u32],
        encrypted_inverses: &[Ciphertext],
        dim: usize,
        dropped: Option<&[bool]>,
    ) -> (Vec<Ciphertext>, Duration) {
        let n = &self.paillier.public.n;
        let n_squared = &self.paillier.public.n_squared;
        let rt = &*self.runtime;
        debug_assert_eq!(active.len(), encrypted_inverses.len());
        let silo_span = trace::timed_span("protocol", "silo_weighting");
        for silo in 0..self.num_silos {
            assert_eq!(clipped_deltas[silo].len(), self.num_users, "per-user deltas required");
            assert_eq!(noises[silo].len(), dim, "noise dimensionality mismatch");
            for delta in clipped_deltas[silo].iter().filter(|d| !d.is_empty()) {
                assert_eq!(delta.len(), dim, "delta dimensionality mismatch");
            }
        }
        // Per-silo participant lists: active users with records *and* a delta in this
        // silo, as (active position, user id) pairs. `active` is ascending, so each
        // list walks users in exactly the order the dense `0..|U|` scan did — the cell
        // totals keep identical bits — while the fold below only ever touches the
        // round's participants instead of the whole population per cell.
        let participants: Vec<Vec<(usize, usize)>> = (0..self.num_silos)
            .map(|silo| {
                active
                    .iter()
                    .enumerate()
                    .filter(|&(_, &u)| {
                        self.silo_histograms[silo][u as usize] > 0
                            && !clipped_deltas[silo][u as usize].is_empty()
                    })
                    .map(|(i, &u)| (i, u as usize))
                    .collect()
            })
            .collect();
        // The per-user scalar prefix `n_su · r_u · C_LCM mod n` is independent of the
        // coordinate, so it is computed once per (silo, active user) instead of once
        // per (silo, user, coordinate); the SHA-based blinding-factor expansion runs on
        // the pool.
        let factors: Vec<BigUint> = rt.par_map(active, |_, &u| self.blinder.factor(u as u64));
        let prefixes: Vec<Vec<BigUint>> = (0..self.num_silos)
            .map(|silo| {
                active
                    .iter()
                    .enumerate()
                    .map(|(i, &u)| {
                        let n_su = self.silo_histograms[silo][u as usize];
                        let p = mod_mul(&BigUint::from_u64(n_su), &factors[i], n);
                        mod_mul(&p, &self.c_lcm, n)
                    })
                    .collect()
            })
            .collect();
        // User u's encrypted inverse is raised to one scalar per (participating silo,
        // coordinate) cell, so one exponentiation context per user is hoisted out of the
        // cell loop: for heavily-used bases it precomputes a fixed-base table (no
        // squarings per scalar_mul), and no per-cell Montgomery context is ever rebuilt.
        let mut ctx_uses = vec![0usize; active.len()];
        for plist in &participants {
            for &(i, _) in plist {
                ctx_uses[i] += dim;
            }
        }
        // All per-user contexts are alive for the whole region, and a fixed-base table
        // costs megabytes per user at paper-scale key sizes — so the tables are only
        // requested while the aggregate footprint stays within a fixed budget; beyond
        // it, every user's terms fuse into the per-cell multi-exponentiation, which
        // still shares the cached per-modulus engine state.
        const FIXED_BASE_BUDGET_BYTES: usize = 256 << 20;
        let table_bytes = FixedBaseCtx::estimated_table_bytes(
            self.paillier.public.n_squared.bit_length(),
            self.paillier.public.n.bit_length(),
        );
        let participating = ctx_uses.iter().filter(|&&uses| uses > 0).count();
        let tables_affordable =
            participating.saturating_mul(table_bytes) <= FIXED_BASE_BUDGET_BYTES;
        let generic = engine_disabled();
        let n_bits = n.bit_length();
        let evals: Vec<Option<InverseEval>> = rt.par_map_range(active.len(), |i| {
            (ctx_uses[i] > 0).then(|| {
                let ct = &encrypted_inverses[i];
                if generic {
                    return InverseEval::Generic { base: ct.0.clone() };
                }
                if !tables_affordable || ctx_uses[i] < FIXED_BASE_TABLE_MIN_MULS {
                    return InverseEval::Fused { base: ct.0.clone() };
                }
                InverseEval::Table(FixedBaseCtx::new(
                    Arc::clone(self.paillier.public.ctx_n2()),
                    &ct.0,
                    n_bits,
                ))
            })
        });
        // Steps 2.(b)+(c) silo side: every (silo, coordinate) cell is independent — the
        // Paillier `scalar_mul` per user inside it is the protocol's dominant cost
        // (Figures 10–11) — and ciphertext addition is exact modular arithmetic, so the
        // cells stream through one chunked fold in coordinate-major order: each chunk
        // folds its cells straight into per-coordinate ciphertext totals (the cross-silo
        // homomorphic sum is fused into the fold), and chunk partials combine in fixed
        // cell order. No per-cell ciphertext collection is ever materialised — transient
        // memory is O(dim + chunks) ciphertexts instead of O(silos × dim) — and the
        // result is bitwise-identical at any (threads, chunk_size) setting.
        let num_cells = dim * self.num_silos;
        let chunk_size = self.chunk_size;
        let cell_ranges = uldp_runtime::fold_chunk_ranges(num_cells, chunk_size);
        let ct_bytes = self.paillier.public.n_squared.bit_length().div_ceil(64) * 8;
        let partial_entries: usize = cell_ranges
            .iter()
            .map(|r| (r.end - 1) / self.num_silos - r.start / self.num_silos + 1)
            .sum();
        rt.fold_gauge().record(partial_entries * ct_bytes);
        let compute_cell = |silo: usize, j: usize| -> Ciphertext {
            let mut acc = self.paillier.public.trivial_zero();
            // A dropped silo's report never reaches the server: neither its weighted
            // deltas nor its noise enter the per-coordinate total (the pairwise masks
            // cancel over the silos that did contribute, so no recovery is needed).
            if dropped.is_some_and(|d| d[silo]) {
                return acc;
            }
            // Table-free bases gather their `(base, scalar)` terms here and fuse into
            // one interleaved multi-exponentiation after the loop; ciphertext addition
            // is modular multiplication, which commutes, so hoisting these terms out of
            // the running product leaves the cell total bit-identical.
            let mut fused: Vec<(BigUint, BigUint)> = Vec::new();
            for &(i, u) in &participants[silo] {
                let delta = &clipped_deltas[silo][u];
                let scalar = mod_mul(&self.codec.encode(delta[j]), &prefixes[silo][i], n);
                let eval = evals[i].as_ref().expect("evaluator built for participating user");
                let term = match eval {
                    InverseEval::Generic { base } => mod_pow(base, &scalar, n_squared),
                    InverseEval::Fused { base } => {
                        fused.push((base.clone(), scalar));
                        continue;
                    }
                    InverseEval::Table(table) => table.pow(&scalar),
                };
                metrics::PAILLIER_SCALAR_MUL.inc();
                acc = self.paillier.public.add(&acc, &Ciphertext(term));
            }
            if !fused.is_empty() {
                metrics::PAILLIER_SCALAR_MUL.add(fused.len() as u64);
                let product = self.paillier.public.ctx_n2().multi_exp(&fused);
                acc = self.paillier.public.add(&acc, &Ciphertext(product));
            }
            let noise_scalar = mod_mul(&self.codec.encode(noises[silo][j]), &self.c_lcm, n);
            self.paillier.public.add_plain(&acc, &noise_scalar)
        };
        // Chunk partials carry (coordinate, running total) pairs; a chunk touches at
        // most ⌈chunk/|S|⌉ + 1 coordinates, and partials merge at shared boundaries.
        let fold_cell = |acc: &mut Vec<(usize, Ciphertext)>, idx: usize| {
            let j = idx / self.num_silos;
            let silo = idx % self.num_silos;
            let cell = compute_cell(silo, j);
            match acc.last_mut() {
                Some((last_j, total)) if *last_j == j => {
                    *total = self.paillier.public.add(total, &cell);
                }
                _ => acc.push((j, cell)),
            }
        };
        let merge = |mut a: Vec<(usize, Ciphertext)>, b: Vec<(usize, Ciphertext)>| {
            for (j, partial) in b {
                match a.last_mut() {
                    Some((last_j, total)) if *last_j == j => {
                        *total = self.paillier.public.add(total, &partial);
                    }
                    _ => a.push((j, partial)),
                }
            }
            a
        };
        let totals: Vec<Ciphertext> = rt
            .par_fold_reduce(num_cells, chunk_size, Vec::new, fold_cell, merge)
            .expect("at least one (silo, coordinate) cell")
            .into_iter()
            .map(|(_, total)| total)
            .collect();
        debug_assert_eq!(totals.len(), dim);
        let silo_weighting = silo_span.finish();
        (totals, silo_weighting)
    }

    /// The decrypt stage of one round — step 2.(c): batched CRT decryption of the
    /// per-coordinate totals and fixed-point decoding. (The homomorphic cross-silo sum
    /// is fused into the streaming fold.) The CRT contexts are hoisted once per batch
    /// inside [`uldp_crypto::paillier::PaillierSecretKey::decrypt_batch`], so the
    /// pipeline's
    /// overlapped decrypt pass never re-derives per-round state. The `aggregation`
    /// span covers decryption plus decoding, with one nested `decryption` span for the
    /// batch itself.
    fn decrypt_totals(&self, totals: &[Ciphertext]) -> (Vec<f64>, Duration) {
        let rt = &*self.runtime;
        let agg_span = trace::timed_span("protocol", "aggregation");
        let dec_span = trace::span("protocol", "decryption").arg("coordinates", totals.len());
        let decrypted = self.paillier.secret.decrypt_batch(rt, totals);
        drop(dec_span);
        let out: Vec<f64> = rt.par_map(&decrypted, |_, m| self.codec.decode(m, &self.c_lcm));
        (out, agg_span.finish())
    }

    /// The plaintext value the protocol is supposed to compute:
    /// `Σ_s ( Σ_u (n_{s,u} / N_u) Δ̃_{s,u} + z_s )`, honouring the sub-sampling mask.
    pub fn plaintext_reference(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampled: Option<&SampleMask>,
    ) -> Vec<f64> {
        let dim = noises[0].len();
        let mut out = vec![0.0; dim];
        for silo in 0..self.num_silos {
            for (u, delta) in clipped_deltas[silo].iter().enumerate() {
                let keep = sampled.is_none_or(|s| s.contains(u));
                let n_su = self.silo_histograms[silo][u];
                if !keep || n_su == 0 || delta.is_empty() || self.user_totals[u] == 0 {
                    continue;
                }
                let w = n_su as f64 / self.user_totals[u] as f64;
                for (o, d) in out.iter_mut().zip(delta.iter()) {
                    *o += w * d;
                }
            }
            for (o, z) in out.iter_mut().zip(noises[silo].iter()) {
                *o += z;
            }
        }
        out
    }

    /// The plaintext value a faulted round is supposed to compute: the
    /// [`PrivateWeightingProtocol::plaintext_reference`] sum restricted to silos *not*
    /// marked in `dropped`, re-weighted by `|S| / |S_surviving|`.
    pub fn plaintext_reference_faulted(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampled: Option<&SampleMask>,
        dropped: &[bool],
    ) -> Vec<f64> {
        assert_eq!(dropped.len(), self.num_silos, "one dropout flag per silo required");
        let dim = noises[0].len();
        let mut out = vec![0.0; dim];
        for silo in 0..self.num_silos {
            if dropped[silo] {
                continue;
            }
            for (u, delta) in clipped_deltas[silo].iter().enumerate() {
                let keep = sampled.is_none_or(|s| s.contains(u));
                let n_su = self.silo_histograms[silo][u];
                if !keep || n_su == 0 || delta.is_empty() || self.user_totals[u] == 0 {
                    continue;
                }
                let w = n_su as f64 / self.user_totals[u] as f64;
                for (o, d) in out.iter_mut().zip(delta.iter()) {
                    *o += w * d;
                }
            }
            for (o, z) in out.iter_mut().zip(noises[silo].iter()) {
                *o += z;
            }
        }
        let surviving = dropped.iter().filter(|&&d| !d).count().max(1);
        let factor = self.num_silos as f64 / surviving as f64;
        if factor != 1.0 {
            for o in out.iter_mut() {
                *o *= factor;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_histogram() -> Vec<Vec<usize>> {
        // 3 silos, 4 users
        vec![vec![2, 0, 1, 3], vec![1, 4, 0, 1], vec![0, 2, 2, 0]]
    }

    fn test_config() -> ProtocolConfig {
        ProtocolConfig { paillier_bits: 256, dh_bits: 128, n_max: 16, ..Default::default() }
    }

    fn deltas_and_noise(
        histogram: &[Vec<usize>],
        dim: usize,
        seed: u64,
    ) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
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
        let noises: Vec<Vec<f64>> = histogram
            .iter()
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect())
            .collect();
        (deltas, noises)
    }

    #[test]
    fn protocol_matches_plaintext_aggregation() {
        let mut rng = StdRng::seed_from_u64(1);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 2);
        let (secure, timings) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
        let reference = protocol.plaintext_reference(&deltas, &noises, None);
        for (a, b) in secure.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
        }
        assert!(timings.total() > Duration::ZERO);
    }

    #[test]
    fn subsampling_removes_unsampled_users_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 4);
        let sampled = SampleMask::from_dense(vec![true, false, true, false]);
        let (secure, _) = protocol.weighting_round(&deltas, &noises, Some(&sampled), &mut rng);
        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&sampled));
        for (a, b) in secure.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
        }
        // and it differs from the un-sampled aggregate
        let full_reference = protocol.plaintext_reference(&deltas, &noises, None);
        let diff: f64 =
            reference.iter().zip(full_reference.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn reference_weights_match_record_proportional_strategy() {
        let mut rng = StdRng::seed_from_u64(5);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let weights = protocol.reference_weights();
        assert!((weights.get(0, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((weights.get(1, 1) - 4.0 / 6.0).abs() < 1e-12);
        assert!(weights.satisfies_sensitivity_constraint(1e-9));
    }

    #[test]
    fn setup_reports_timings_and_key_size() {
        let mut rng = StdRng::seed_from_u64(6);
        let protocol =
            PrivateWeightingProtocol::setup(&small_histogram(), &test_config(), &mut rng);
        assert!(protocol.setup_timings().total() > Duration::ZERO);
        assert!(protocol.modulus_bits() >= 255);
        assert_eq!(protocol.num_silos(), 3);
        assert_eq!(protocol.num_users(), 4);
        assert_eq!(protocol.pair_seeds().len(), 3);
    }

    #[test]
    fn oblivious_subsampling_always_selected_matches_full_round() {
        // numerator == denominator: every user is selected, so the result must equal the
        // plaintext reference with no mask.
        let mut rng = StdRng::seed_from_u64(31);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 32);
        let sampling = ObliviousSubsampling::new(4, 4);
        let (secure, flags, _) = protocol
            .weighting_round_with_oblivious_subsampling(&deltas, &noises, &sampling, &mut rng);
        assert!(flags.iter().all(|&f| f));
        let reference = protocol.plaintext_reference(&deltas, &noises, None);
        for (a, b) in secure.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn oblivious_subsampling_never_selected_leaves_only_noise() {
        let mut rng = StdRng::seed_from_u64(33);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 34);
        let sampling = ObliviousSubsampling::new(0, 4);
        let (secure, flags, _) = protocol
            .weighting_round_with_oblivious_subsampling(&deltas, &noises, &sampling, &mut rng);
        assert!(flags.iter().all(|&f| !f));
        // Only the per-silo noise survives.
        let noise_only = protocol.plaintext_reference(
            &vec![vec![Vec::new(); protocol.num_users()]; protocol.num_silos()],
            &noises,
            None,
        );
        for (a, b) in secure.iter().zip(noise_only.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn oblivious_subsampling_matches_plaintext_for_realised_selection() {
        let mut rng = StdRng::seed_from_u64(35);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 36);
        let sampling = ObliviousSubsampling::new(1, 2);
        assert!((sampling.probability() - 0.5).abs() < 1e-12);
        let (secure, flags, _) = protocol
            .weighting_round_with_oblivious_subsampling(&deltas, &noises, &sampling, &mut rng);
        let mask = SampleMask::from_dense(flags);
        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&mask));
        for (a, b) in secure.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn weighting_round_is_bitwise_identical_across_thread_counts() {
        let histogram = small_histogram();
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(9);
            let cfg = ProtocolConfig { threads, ..test_config() };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let (deltas, noises) = deltas_and_noise(&histogram, 4, 42);
            let (out, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
            out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(4));
    }

    #[test]
    fn oblivious_round_is_bitwise_identical_across_thread_counts() {
        let histogram = small_histogram();
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(13);
            let cfg = ProtocolConfig { threads, ..test_config() };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let (deltas, noises) = deltas_and_noise(&histogram, 3, 14);
            let sampling = ObliviousSubsampling::new(1, 2);
            let (out, flags, _) = protocol
                .weighting_round_with_oblivious_subsampling(&deltas, &noises, &sampling, &mut rng);
            (out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(), flags)
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(4));
    }

    #[test]
    #[should_panic(expected = "numerator must not exceed denominator")]
    fn oblivious_subsampling_rejects_invalid_fraction() {
        let _ = ObliviousSubsampling::new(3, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds N_max")]
    fn rejects_user_totals_above_n_max() {
        let mut rng = StdRng::seed_from_u64(7);
        let histogram = vec![vec![20usize], vec![20usize]];
        let cfg =
            ProtocolConfig { n_max: 8, paillier_bits: 128, dh_bits: 64, ..Default::default() };
        let _ = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least two silos")]
    fn rejects_single_silo() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = PrivateWeightingProtocol::setup(&[vec![1, 2]], &test_config(), &mut rng);
    }

    fn faulted_config(plan: FaultPlan) -> ProtocolConfig {
        ProtocolConfig { fault_plan: plan, ..test_config() }
    }

    /// One explicitly fault-free round on a protocol configured with a fault plan (a
    /// `run_rounds` input with `faulted: None`), where `weighting_round` would panic.
    fn fault_free_round<R: Rng + ?Sized>(
        protocol: &PrivateWeightingProtocol,
        deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        rng: &mut R,
    ) -> (Vec<f64>, RoundTimings) {
        let mut out = protocol.run_rounds(&[RoundInput::new(deltas, noises)], rng);
        let out = out.pop().expect("one round in, one round out");
        assert!(out.dropped.is_none());
        (out.aggregate, out.timings)
    }

    #[test]
    #[should_panic(expected = "run faulted rounds through weighting_round_faulted or run_rounds")]
    fn plain_round_rejects_an_active_fault_plan() {
        let histogram = small_histogram();
        let plan = FaultPlan { delay_fraction: 1.0, delay_ms: 1, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(59);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 60);
        let _ = protocol.weighting_round(&deltas, &noises, None, &mut rng);
    }

    #[test]
    #[should_panic(expected = "run faulted rounds through weighting_round_faulted or run_rounds")]
    fn oblivious_round_rejects_an_active_fault_plan() {
        let histogram = small_histogram();
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(61);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 62);
        let sampling = ObliviousSubsampling::new(1, 2);
        let _ = protocol
            .weighting_round_with_oblivious_subsampling(&deltas, &noises, &sampling, &mut rng);
    }

    #[test]
    fn faulted_round_without_faults_matches_plain_round() {
        let histogram = small_histogram();
        let mut rng = StdRng::seed_from_u64(51);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 52);
        let round_rng = rng.clone();
        let (plain, _) = protocol.weighting_round(&deltas, &noises, None, &mut round_rng.clone());
        let (faulted, dropped, _) =
            protocol.weighting_round_faulted(&deltas, &noises, None, 0, &mut round_rng.clone());
        assert!(dropped.iter().all(|&d| !d));
        assert_eq!(
            plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            faulted.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dropout_reweights_surviving_homomorphic_sum_exactly() {
        // A dropped silo's cells are excluded from the homomorphic fold; the decrypted
        // aggregate must equal the surviving-silo plaintext reference (re-weighted by
        // |S|/|S_surviving|) and — before the common re-weighting factor — be bitwise
        // identical to a plain round where the dropped silo's inputs are explicit zeros.
        let histogram = small_histogram();
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(53);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 54);
        let round_rng = rng.clone();
        let (faulted, dropped, _) =
            protocol.weighting_round_faulted(&deltas, &noises, None, 3, &mut round_rng.clone());
        assert_eq!(dropped.iter().filter(|&&d| d).count(), 1, "0.4 of 3 silos rounds to one");

        let reference = protocol.plaintext_reference_faulted(&deltas, &noises, None, &dropped);
        for (a, b) in faulted.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "faulted {a} vs surviving reference {b}");
        }
        // And the re-weighted aggregate genuinely differs from the full-participation one.
        let full = protocol.plaintext_reference(&deltas, &noises, None);
        let diff: f64 = reference.iter().zip(full.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "dropout must change the aggregate");

        // Bitwise exactness of the fold: dropping silo s equals zeroing silo s's inputs.
        let mut zeroed_deltas = deltas.clone();
        let mut zeroed_noises = noises.clone();
        for (silo, &gone) in dropped.iter().enumerate() {
            if gone {
                zeroed_deltas[silo] = vec![Vec::new(); protocol.num_users()];
                zeroed_noises[silo] = vec![0.0; 4];
            }
        }
        let (zeroed, _) =
            fault_free_round(&protocol, &zeroed_deltas, &zeroed_noises, &mut round_rng.clone());
        let surviving = dropped.iter().filter(|&&d| !d).count();
        let factor = protocol.num_silos() as f64 / surviving as f64;
        let rescaled: Vec<u64> = zeroed.iter().map(|v| (v * factor).to_bits()).collect();
        assert_eq!(faulted.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), rescaled);
    }

    #[test]
    fn faulted_round_is_bitwise_identical_across_threads_and_chunks() {
        let histogram = small_histogram();
        let plan = FaultPlan {
            dropout_fraction: 0.4,
            delay_fraction: 0.4,
            delay_ms: 1,
            seed: 5,
            ..FaultPlan::none()
        };
        let run = |threads: usize, chunk_size: usize| {
            let mut rng = StdRng::seed_from_u64(55);
            let cfg = ProtocolConfig { threads, chunk_size, ..faulted_config(plan) };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let (deltas, noises) = deltas_and_noise(&histogram, 3, 56);
            let (out, dropped, _) =
                protocol.weighting_round_faulted(&deltas, &noises, None, 1, &mut rng);
            (out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(), dropped)
        };
        let sequential = run(1, usize::MAX);
        for (threads, chunk) in [(2, 1), (4, 7), (2, usize::MAX)] {
            assert_eq!(sequential, run(threads, chunk), "threads={threads} chunk={chunk}");
        }
    }

    #[test]
    fn cached_rounds_match_fresh_encryption_rounds_bitwise() {
        // Four rounds of the same setup, identical caller RNG streams: the cached
        // protocol re-randomises rounds 2..4 while the bypass instance re-encrypts
        // every round, and the decrypted aggregates must agree bit for bit.
        if fresh_encrypt_forced() {
            return; // ULDP_FRESH_ENCRYPT=1 turns the cached run into a second bypass run
        }
        let histogram = small_histogram();
        let run = |fresh_encrypt: bool| {
            let mut rng = StdRng::seed_from_u64(91);
            let cfg = ProtocolConfig { fresh_encrypt, ..test_config() };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let mut rounds = Vec::new();
            let mut stats = Vec::new();
            for round in 0..4u64 {
                let (deltas, noises) = deltas_and_noise(&histogram, 4, 92 + round);
                let (out, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
                rounds.push(out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
                stats.push(protocol.round_cache_stats());
            }
            (rounds, stats)
        };
        let (cached_rounds, cached_stats) = run(false);
        let (fresh_rounds, fresh_stats) = run(true);
        assert_eq!(cached_rounds, fresh_rounds, "aggregates must not depend on the cache");
        // Cached: round 1 encrypts all 4 users, rounds 2..4 re-randomise all 4.
        assert_eq!(cached_stats, vec![(4, 0), (0, 4), (0, 4), (0, 4)]);
        // Bypass: every round encrypts everything.
        assert_eq!(fresh_stats, vec![(4, 0); 4]);
        // Every cached round still matches its plaintext reference.
        let mut check_rng = StdRng::seed_from_u64(91);
        let cfg = ProtocolConfig { ..test_config() };
        let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut check_rng);
        for round in 0..4u64 {
            let (deltas, noises) = deltas_and_noise(&histogram, 4, 92 + round);
            let (out, _) = protocol.weighting_round(&deltas, &noises, None, &mut check_rng);
            let reference = protocol.plaintext_reference(&deltas, &noises, None);
            for (a, b) in out.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-6, "round {round}: secure {a} vs plaintext {b}");
            }
        }
    }

    #[test]
    fn mask_change_reencrypts_exactly_the_changed_users() {
        if fresh_encrypt_forced() {
            return; // stats are trivially (4, 0) in bypass mode
        }
        let histogram = small_histogram();
        let mut rng = StdRng::seed_from_u64(95);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 96);
        let all = SampleMask::from_dense(vec![true; 4]);
        let half = SampleMask::from_dense(vec![true, false, true, false]);

        let _ = protocol.weighting_round(&deltas, &noises, Some(&all), &mut rng);
        assert_eq!(protocol.round_cache_stats(), (4, 0), "first round encrypts everyone");
        let _ = protocol.weighting_round(&deltas, &noises, Some(&all), &mut rng);
        assert_eq!(protocol.round_cache_stats(), (0, 4), "unchanged mask reuses everyone");

        // Users 1 and 3 flip to unsampled: exactly those two re-encrypt (as zero), the
        // other two re-randomise — and the round still matches its reference.
        let (out, _) = protocol.weighting_round(&deltas, &noises, Some(&half), &mut rng);
        assert_eq!(protocol.round_cache_stats(), (2, 2), "only flipped users re-encrypt");
        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&half));
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
        }

        // Flipping back re-encrypts the same two users again.
        let (out, _) = protocol.weighting_round(&deltas, &noises, Some(&all), &mut rng);
        assert_eq!(protocol.round_cache_stats(), (2, 2), "flip-back re-encrypts the pair");
        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&all));
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
        }

        // reset_round_cache drops everything: the next round is fully fresh.
        protocol.reset_round_cache();
        let _ = protocol.weighting_round(&deltas, &noises, Some(&all), &mut rng);
        assert_eq!(protocol.round_cache_stats(), (4, 0), "reset forces full re-encryption");
    }

    #[test]
    fn dropout_invalidates_exactly_the_affected_users_entries() {
        // Same plan/round as dropout_reweights_surviving_homomorphic_sum_exactly: round
        // 3 drops exactly one of the three silos.
        if fresh_encrypt_forced() {
            return; // stats are trivially (4, 0) in bypass mode
        }
        let histogram = small_histogram();
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(97);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 98);

        let _ = fault_free_round(&protocol, &deltas, &noises, &mut rng);
        assert_eq!(protocol.round_cache_stats(), (4, 0));
        // The faulted round itself is served entirely from cache (encryption happens
        // before the dropout)…
        let (_, dropped, _) = protocol.weighting_round_faulted(&deltas, &noises, None, 3, &mut rng);
        assert_eq!(dropped.iter().filter(|&&d| d).count(), 1, "0.4 of 3 silos rounds to one");
        assert_eq!(protocol.round_cache_stats(), (0, 4));
        // …and afterwards exactly the users with records in the dropped silo are
        // invalidated, so the next round freshly re-encrypts them alone.
        let affected = (0..protocol.num_users())
            .filter(|&u| dropped.iter().enumerate().any(|(s, &d)| d && histogram[s][u] > 0))
            .count();
        assert!(affected > 0 && affected < 4, "the plan must split the users");
        let (out, _) = fault_free_round(&protocol, &deltas, &noises, &mut rng);
        assert_eq!(protocol.round_cache_stats(), (affected, 4 - affected));
        let reference = protocol.plaintext_reference(&deltas, &noises, None);
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
        }
    }

    #[test]
    fn delayed_silos_inflate_timings_but_not_results() {
        let histogram = small_histogram();
        let plan = FaultPlan { delay_fraction: 1.0, delay_ms: 40, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(57);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 58);
        let round_rng = rng.clone();
        let (plain, plain_timings) =
            fault_free_round(&protocol, &deltas, &noises, &mut round_rng.clone());
        let (delayed, dropped, delayed_timings) =
            protocol.weighting_round_faulted(&deltas, &noises, None, 0, &mut round_rng.clone());
        assert!(dropped.iter().all(|&d| !d));
        assert_eq!(
            plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            delayed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "stragglers must not change the aggregate"
        );
        // All three silos straggle by 40 ms each on top of the real fold time.
        assert!(
            delayed_timings.silo_weighting >= plain_timings.silo_weighting
                && delayed_timings.silo_weighting >= Duration::from_millis(120),
            "delayed round must account 3 × 40 ms of straggler lateness"
        );
    }

    fn wide_histogram() -> Vec<Vec<usize>> {
        // 2 silos, 13 users; user 11 holds no records anywhere.
        vec![
            vec![1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1],
            vec![2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 1],
        ]
    }

    #[test]
    fn sparse_and_dense_masks_agree_bitwise_across_rounds() {
        // The tentpole determinism oracle at unit scale: the same multi-round run under
        // the sparse index-list mask and under its densified copy must produce
        // bit-identical aggregates (cross-round cache interplay included), and both
        // must match the plaintext reference.
        let histogram = wide_histogram();
        let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
        let run = |mask: &SampleMask| {
            let mut rng = StdRng::seed_from_u64(61);
            let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
            let mut rounds = Vec::new();
            for round in 0..3u64 {
                let (deltas, noises) = deltas_and_noise(&histogram, 3, 62 + round);
                let (out, _) = protocol.weighting_round(&deltas, &noises, Some(mask), &mut rng);
                rounds.push(out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
            }
            rounds
        };
        let sparse_rounds = run(&mask);
        assert_eq!(sparse_rounds, run(&mask.densified()), "mask layout must not change bits");
        let mut rng = StdRng::seed_from_u64(61);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        for round in 0..3u64 {
            let (deltas, noises) = deltas_and_noise(&histogram, 3, 62 + round);
            let (out, _) = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
            let reference = protocol.plaintext_reference(&deltas, &noises, Some(&mask));
            for (a, b) in out.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-6, "round {round}: secure {a} vs plaintext {b}");
            }
        }
    }

    #[test]
    fn sparse_rounds_materialise_only_sampled_state() {
        if fresh_encrypt_forced() || crate::sampling::dense_mask_forced() {
            return; // both bypass knobs deliberately change the stats pinned below
        }
        let histogram = wide_histogram();
        let mut rng = StdRng::seed_from_u64(71);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 72);
        let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
        assert!(mask.is_sparse());

        // Round 1: only the sampled users with records encrypt — user 11 holds no
        // records and costs neither a ciphertext nor a cache entry.
        let _ = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
        assert_eq!(protocol.round_cache_stats(), (2, 0));
        assert_eq!(protocol.cached_entry_count(), 2);
        // Round 2: both served from cache.
        let _ = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
        assert_eq!(protocol.round_cache_stats(), (0, 2));

        // A different sample: newcomers encrypt fresh; leavers keep their lazy entries
        // (their cached plaintext is still the real inverse)…
        let other = SampleMask::from_sorted_indices(13, vec![0, 4]);
        assert!(other.is_sparse());
        let _ = protocol.weighting_round(&deltas, &noises, Some(&other), &mut rng);
        assert_eq!(protocol.round_cache_stats(), (2, 0));
        assert_eq!(protocol.cached_entry_count(), 4);
        // …so re-entering users re-randomise instead of re-encrypting.
        let (out, _) = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
        assert_eq!(protocol.round_cache_stats(), (0, 2));
        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&mask));
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
        }
        // Two more rounds wide enough (8 coordinates) that every participant gets a
        // step 2.(b) fixed-base table: none outlives its round, so the cache holds
        // exactly one ciphertext per entry.
        let (wide_deltas, wide_noises) = deltas_and_noise(&histogram, 8, 73);
        for sample in [&mask, &other] {
            let _ = protocol.weighting_round(&wide_deltas, &wide_noises, Some(sample), &mut rng);
        }
        assert_eq!(protocol.round_cache_stats(), (0, 2));
        let ct_bytes = (2 * protocol.modulus_bits()).div_ceil(64) * 8;
        assert_eq!(protocol.cached_entry_count(), 4);
        assert_eq!(protocol.cached_state_bytes(), protocol.cached_entry_count() * ct_bytes);
    }

    #[test]
    fn pipelined_replays_match_sequential_replays_bitwise_across_grid() {
        // The tentpole determinism oracle: the same 4-round replay through the round
        // pipeline at depth ∈ {1, 2, 3} must produce aggregates bit-identical to the
        // sequential loop, at several (threads × chunk) points. The pipeline reorders
        // when work happens, never what it computes.
        let histogram = small_histogram();
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 102);
        let run = |threads: usize, chunk_size: usize, depth: usize| {
            let mut rng = StdRng::seed_from_u64(101);
            let cfg = ProtocolConfig { threads, chunk_size, ..test_config() };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let inputs: Vec<RoundInput<'_>> =
                (0..4).map(|_| RoundInput::new(&deltas, &noises)).collect();
            let outputs = protocol.run_rounds_with_depth(&inputs, depth, &mut rng);
            outputs
                .iter()
                .map(|o| o.aggregate.iter().map(|v| v.to_bits()).collect::<Vec<u64>>())
                .collect::<Vec<_>>()
        };
        let sequential = run(1, usize::MAX, 0);
        for (threads, chunk) in [(1, usize::MAX), (3, 1), (4, 5)] {
            for depth in [1, 2, 3] {
                assert_eq!(
                    sequential,
                    run(threads, chunk, depth),
                    "threads={threads} chunk={chunk} depth={depth}"
                );
            }
        }
    }

    #[test]
    fn faulted_replay_drains_the_pipeline_and_invalidates_exactly_the_affected_entries() {
        // A mid-replay dropout must (a) leave every aggregate and dropout mask
        // bit-identical to the sequential loop and (b) invalidate exactly the users
        // with records in the dropped silo — visible as the next round's fresh count —
        // which requires the drain: an in-flight later round must not race the
        // invalidation.
        if fresh_encrypt_forced() {
            return; // stats are trivially (4, 0) in bypass mode
        }
        let histogram = small_histogram();
        // Same plan as dropout_invalidates_exactly_the_affected_users_entries: round 3
        // drops exactly one of the three silos; other rounds draw empty fault sets.
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 104);
        let run = |depth: usize| {
            let mut rng = StdRng::seed_from_u64(103);
            let protocol =
                PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
            // Only round index 3 runs under the plan (which drops one silo there); the
            // rounds around it stay fault-free and overlap across the drain.
            let inputs: Vec<RoundInput<'_>> = (0..5)
                .map(|t| RoundInput {
                    faulted: (t == 3).then_some(3),
                    ..RoundInput::new(&deltas, &noises)
                })
                .collect();
            let outputs = protocol.run_rounds_with_depth(&inputs, depth, &mut rng);
            let stats = protocol.round_cache_stats();
            let fingerprints = outputs
                .iter()
                .map(|o| {
                    (
                        o.aggregate.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                        o.dropped.clone(),
                    )
                })
                .collect::<Vec<_>>();
            (fingerprints, stats)
        };
        let (sequential, seq_stats) = run(0);
        let dropped_at_3 = sequential[3].1.as_ref().expect("faulted round reports a mask").clone();
        assert_eq!(dropped_at_3.iter().filter(|&&d| d).count(), 1, "round 3 drops one silo");
        for depth in [1, 2, 3] {
            let (pipelined, pipe_stats) = run(depth);
            assert_eq!(sequential, pipelined, "depth={depth}");
            assert_eq!(seq_stats, pipe_stats, "depth={depth}");
        }
        // Round 4 (the one after the dropout) freshly re-encrypts exactly the affected
        // users; the rest re-randomise — the invalidation landed, and landed once.
        let affected = (0..4)
            .filter(|&u| dropped_at_3.iter().enumerate().any(|(s, &d)| d && histogram[s][u] > 0))
            .count();
        assert!(affected > 0 && affected < 4, "the plan must split the users");
        assert_eq!(seq_stats, (affected, 4 - affected));
    }

    #[test]
    fn single_round_and_depth_zero_replays_take_the_sequential_path() {
        // Replays too short to overlap fall back to the sequential loop outright; the
        // outputs still match the per-round entry point exactly.
        let histogram = small_histogram();
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 106);
        let mut rng = StdRng::seed_from_u64(105);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let inputs = [RoundInput::new(&deltas, &noises)];
        let via_replay = protocol.run_rounds_with_depth(&inputs, 3, &mut rng.clone());
        let (direct, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
        assert_eq!(
            via_replay[0].aggregate.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
            direct.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        );
        assert!(via_replay[0].dropped.is_none());
    }
}
