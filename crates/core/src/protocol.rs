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
//! ## Roles and the round entry point
//!
//! The state is split by party. The server holds the Paillier secret key, the blinded
//! inverses `B_inv(N_u)`, the cross-round ciphertext cache and the round counter. Each
//! silo holds a view of its own: the public key, the codec and `C_LCM`, the blinder
//! seeded by `R`, its histogram row and its pairwise seeds. Step 2.(b) is a function of
//! a silo's view, what the server sent that round and the silo's own deltas and noise,
//! so it has no path to the server's state.
//!
//! Every round runs through [`PrivateWeightingProtocol::weighting_round`]. Its
//! [`Sampling`] argument only changes how step 2.(a) picks the ciphertexts: every user,
//! a server-visible [`SampleMask`], or oblivious sub-sampling ([`ObliviousSubsampling`],
//! Section 4.1), the one mode that hides the sample. The server numbers its rounds 0,
//! 1, 2, …, and round `t` applies the round-`t` fault set of
//! [`ProtocolConfig::fault_plan`] under every sampling mode.
//!
//! ## Parallel execution
//!
//! The per-(silo, user) Paillier work of steps 2.(a)–(c) runs on the deterministic
//! [`uldp_runtime::Runtime`] worker pool. Steps 2.(b)–(c) stream through one chunked
//! fold over the `(silo, coordinate)` cells ([`uldp_runtime::Runtime::par_fold_reduce`])
//! straight into per-coordinate ciphertext totals: O(dim + chunks) transient
//! ciphertexts, never O(silos × dim). Encryption randomness is derived per user id from
//! one 256-bit seed drawn from the caller's RNG, and ciphertext accumulation is exact
//! modular arithmetic, so every ciphertext and aggregate is bitwise-identical at any
//! thread count and chunk size (`ProtocolConfig::threads` / `ULDP_THREADS`,
//! `ProtocolConfig::chunk_size` / `ULDP_CHUNK`).
//!
//! All exponentiations run on the Montgomery engine of `uldp-bigint` through contexts
//! cached in the Paillier keys at setup: step 2.(a) encrypts over the `n²` context, step
//! 2.(b) hoists one evaluator per received ciphertext out of the cell loop, and step
//! 2.(c) decrypts by CRT over `p²`/`q²` contexts. The tests pin every round's aggregate
//! bit for bit to an exact `BigUint` reference of what the ciphertexts encode.
//!
//! ## Multi-round ciphertext reuse
//!
//! The server's step 2.(a) plaintexts change only when the sampling mask does, so a
//! per-federation `RoundCryptoCache` holds the ciphertext last sent per user: round 1
//! encrypts, later rounds under an unchanged mask *re-randomise* (`c · h^t`, one
//! squaring-free fixed-base lookup per user). Mask flips and silo dropouts invalidate
//! exactly the affected users' entries; [`ProtocolConfig::fresh_encrypt`] bypasses the
//! cache, and oblivious rounds, which encrypt every OT slot afresh, never read it. Step
//! 2.(b) sees only the received ciphertexts — a fixed-base table per heavily used one,
//! dropped with the round, or one interleaved multi-exponentiation per cell
//! (`ModulusCtx::multi_exp`) — so cached and fresh rounds share it and decrypt to the
//! same bits.
//!
//! ## Population scaling
//!
//! Round cost tracks the *sampled* users, not the population. Under a sparse
//! [`SampleMask`] ([`crate::sampling`]) step 2.(a) encrypts only the sampled users'
//! inverses, the cache holds entries only for users that have been sampled (a
//! `BTreeMap`, not an `O(|U|)` vector), and the cell fold walks per-silo participant
//! lists instead of `0..|U|`. Omitting an unsampled user's `Enc(0)` term subtracts
//! exactly zero from every total, so sparse and dense masks give bitwise-identical
//! aggregates; the tests compare a sparse mask against its densified copy. Such a mask
//! is visible to the server.

use crate::config::WeightingStrategy;
use crate::sampling::SampleMask;
use crate::scenario::FaultPlan;
use crate::weighting::WeightMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use uldp_bigint::modular::{mod_inv, mod_mul};
use uldp_bigint::montgomery::FixedBaseCtx;
use uldp_bigint::BigUint;
use uldp_crypto::dh::{DhGroup, DhKeyPair};
use uldp_crypto::masking::MaskSeed;
use uldp_crypto::oblivious_transfer::OneOutOfP;
use uldp_crypto::paillier::{
    Ciphertext, PaillierKeyPair, PaillierPublicKey, PaillierSecretKey, RerandCtx,
};
use uldp_crypto::{FixedPointCodec, MultiplicativeBlinder};
use uldp_runtime::{seeding, Runtime};
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
    /// silos dropping or straggling between steps 2.(b) and 2.(c). Every
    /// [`PrivateWeightingProtocol::weighting_round`] honours it, whatever its
    /// [`Sampling`]: round `t`, counted from 0 since setup, draws the plan's round-`t`
    /// fault set. Protocol 1 receives already-clipped deltas and so cannot corrupt them
    /// before clipping; [`PrivateWeightingProtocol::setup`] rejects a plan with a
    /// positive `byzantine_fraction`. The default plan injects nothing.
    pub fault_plan: FaultPlan,
    /// Bypass the cross-round ciphertext cache: every round freshly encrypts all
    /// blinded inverses (the pre-cache behaviour). Decrypted aggregates are
    /// bitwise-identical either way, only the per-round `server_encryption` cost
    /// changes.
    pub fresh_encrypt: bool,
}

/// Default cells-per-chunk of the protocol's streaming fold when neither
/// [`ProtocolConfig::chunk_size`] nor `ULDP_CHUNK` is set. Each cell already amortises
/// one Paillier exponentiation per participating user, so fine chunks cost little and
/// keep the pool balanced even for small `silos × dim` grids.
const DEFAULT_PROTOCOL_CHUNK: usize = 4;

/// Reserved derivation index for the re-randomisation context's secret unit `ρ`. The
/// per-user encryption streams use indices `0..num_users`, so the reserved slot can
/// never collide with them — and because `ρ` is derived from the round's batch seed,
/// building the context consumes **no** extra draws from the caller's RNG: the cached
/// and [`ProtocolConfig::fresh_encrypt`] executions stay stream-aligned round for round.
const RERAND_SEED_INDEX: u64 = u64::MAX;

/// Mirror of the crypto crate's fixed-base threshold (`FIXED_BASE_MIN_MULS`): below this
/// many expected exponentiations of one base a table never amortises, and the cell
/// terms are gathered into one interleaved multi-exponentiation instead.
const FIXED_BASE_TABLE_MIN_MULS: usize = 8;

/// Ceiling on the round's step 2.(b) fixed-base tables, which are all alive at once and
/// cost megabytes per user at paper-scale key sizes; beyond it every user's terms fuse
/// into the per-cell multi-exponentiation, which still shares the cached engine state.
const FIXED_BASE_BUDGET_BYTES: usize = 256 << 20;

/// One user's cached encrypted inverse: the ciphertext the server distributed in the
/// most recent round, which the next round re-randomises.
struct CacheEntry {
    /// The sampling decision the entry was encrypted under; a flip invalidates it (the
    /// plaintext changes between the blinded inverse and zero).
    keep: bool,
    /// Most recently distributed ciphertext.
    current: Ciphertext,
}

/// Per-federation cross-round ciphertext cache (see "Multi-round ciphertext reuse"
/// above): multi-round step 2.(a) cost is `encrypt + (R − 1) · rerandomise`, with
/// decrypted aggregates bitwise-identical to the fresh-encryption path.
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

/// What one weighting round (steps 2.a–2.c) did: its per-phase wall-clock timings and
/// the faults and sample it realised.
#[derive(Clone, Debug, Default)]
pub struct RoundReport {
    /// Server-side Paillier encryption of the blinded inverses, or of the OT offers
    /// under oblivious sampling (2.a).
    pub server_encryption: Duration,
    /// Silo-side weighted encryption of clipped deltas and noise (2.b) plus the fused
    /// homomorphic cross-silo summation, streamed over all silos, plus the simulated
    /// lateness of straggling silos ([`FaultPlan::delay_ms`] each).
    pub silo_weighting: Duration,
    /// Server-side decryption and decoding (2.c). (The homomorphic aggregation itself is
    /// fused into the streaming silo-weighting fold.)
    pub aggregation: Duration,
    /// The round's dropout mask in silo order; all `false` without faults.
    pub dropped: Vec<bool>,
    /// Oblivious rounds only: which users' OT choice fetched a real slot. It exists for
    /// validation and accounting tests; in a deployment no party observes it.
    pub selected: Option<Vec<bool>>,
}

impl RoundReport {
    /// Total round time.
    pub fn total(&self) -> Duration {
        self.server_encryption + self.silo_weighting + self.aggregation
    }
}

/// How a round samples its users: the only thing that changes step 2.(a).
///
/// `Option<&SampleMask>` (`None` is [`Sampling::All`]) and [`ObliviousSubsampling`]
/// convert into it.
#[derive(Clone, Copy, Debug)]
pub enum Sampling<'a> {
    /// Every user participates.
    All,
    /// A user-level sample chosen in the clear. Under a dense mask, unsampled users'
    /// inverses are encrypted as zero, so their deltas drop out exactly; under a sparse
    /// mask they are skipped outright — no ciphertext, no cache entry, no fold work —
    /// which yields the same aggregate bit for bit. The server sees the sample.
    Mask(&'a SampleMask),
    /// Private sub-sampling by 1-out-of-P oblivious transfer (Section 4.1): neither the
    /// server nor the silos learn who was sampled.
    Oblivious(ObliviousSubsampling),
}

impl<'a> From<Option<&'a SampleMask>> for Sampling<'a> {
    fn from(mask: Option<&'a SampleMask>) -> Self {
        mask.map_or(Sampling::All, Sampling::Mask)
    }
}

impl From<ObliviousSubsampling> for Sampling<'_> {
    fn from(sampling: ObliviousSubsampling) -> Self {
        Sampling::Oblivious(sampling)
    }
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
            items.push(public_key.rerandomise(rng, real));
        }
        for _ in self.numerator..self.denominator {
            items.push(public_key.encrypt(rng, &BigUint::zero()));
        }
        OneOutOfP::new(items)
    }
}

/// What every party holds after setup: the Paillier public key and the fixed-point
/// parameters of Algorithm 5.
struct Public {
    key: PaillierPublicKey,
    codec: FixedPointCodec,
    c_lcm: BigUint,
}

/// The server's side of Protocol 1. No silo-side step can reach it.
struct Server {
    public: Arc<Public>,
    secret: PaillierSecretKey,
    /// Blinded inverses `B_inv(N_u)` of setup step 1.(f); `None` for users with no
    /// records.
    blinded_inverses: Vec<Option<BigUint>>,
    /// Cross-round ciphertext cache for step 2.(a) (see [`RoundCryptoCache`]).
    cache: Mutex<RoundCryptoCache>,
    /// Bypass the cache ([`ProtocolConfig::fresh_encrypt`]): every round freshly
    /// encrypts all blinded inverses.
    fresh_encrypt: bool,
    /// Index of the next round, counted from 0 since setup; it selects the round's
    /// fault set.
    next_round: AtomicU64,
}

/// One silo's side of Protocol 1.
struct SiloView {
    public: Arc<Public>,
    /// The silos' shared blinding-factor expander, seeded by `R`; the server never
    /// sees it.
    blinder: MultiplicativeBlinder,
    /// This silo's record histogram row `n_{s,·}`.
    histogram: Vec<u64>,
    /// This silo's pairwise secure-aggregation seeds, one per silo.
    pair_seeds: Vec<MaskSeed>,
}

/// What a silo derives in one round from the ids and ciphertexts the server sent and
/// from `R` alone: each active user's blinding factor `r_u` and step 2.(b) evaluator.
/// Every silo derives the same values, so the protocol builds them once per round and
/// shares them across silos.
struct Received {
    /// `r_u` per active position.
    factors: Vec<BigUint>,
    /// Evaluator per active position; `None` for users no silo weighs this round.
    evals: Vec<Option<InverseEval>>,
}

/// One term of a silo's step 2.(b) cells: a participating user's position in the
/// received list, its id and its coordinate-independent scalar prefix
/// `n_su · r_u · C_LCM mod n`.
type Term = (usize, usize, BigUint);

impl Server {
    /// The round's *active* users — the users whose encrypted inverses are sent to the
    /// silos — as an ascending id list.
    ///
    /// With no mask or a dense mask this is every user, and unsampled users receive
    /// `Enc(0)`. A sparse mask keeps only sampled users that hold records — omitting a
    /// user's `Enc(0)` term subtracts exactly zero from every decrypted total, so the
    /// aggregate keeps identical bits while step 2.(a)–(b) cost drops to `O(q·|U|)`
    /// crypto operations.
    fn active_users(&self, sampled: Option<&SampleMask>) -> Vec<u32> {
        match sampled {
            Some(mask) if mask.is_sparse() => mask
                .iter()
                .filter(|&u| self.blinded_inverses[u].is_some())
                .map(|u| u as u32)
                .collect(),
            _ => (0..self.blinded_inverses.len() as u32).collect(),
        }
    }

    /// Step 2.(a) under a server-visible sample: either freshly encrypting everything
    /// (bypass mode, first round, invalidated entries) or re-randomising cached
    /// ciphertexts in one pooled batch. Returns the active user ids and their
    /// ciphertexts, aligned position for position.
    ///
    /// Exactly one 256-bit batch seed is drawn from the caller's RNG whichever path
    /// runs, so the cached, fresh-encryption, sparse and dense executions all consume
    /// identical caller randomness streams and their aggregates compare bit for bit.
    /// Per-user work is seeded from `(seed, user id)` — not the active
    /// position — so a sparse round derives exactly the per-user streams the dense walk
    /// would, and the output is bitwise-identical at any thread count.
    fn encrypt_inverses<R: Rng + ?Sized>(
        &self,
        rt: &Runtime,
        sampled: Option<&SampleMask>,
        rng: &mut R,
    ) -> (Vec<u32>, Vec<Ciphertext>) {
        let key = &self.public.key;
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
            let cts: Vec<Ciphertext> = rt.par_map(&active, |_, &u| {
                let mut rng = StdRng::from_seed(seeding::index_seed_wide(batch_seed, u as u64));
                key.encrypt(&mut rng, &plaintext(u as usize))
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
            cache.rerand = Some(Arc::new(key.rerand_ctx(&mut ctx_rng)));
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
        let cts: Vec<Ciphertext> = rt.par_map(&active, |i, &u| {
            let mut rng = StdRng::from_seed(seeding::index_seed_wide(batch_seed, u as u64));
            if fresh[i] {
                key.encrypt(&mut rng, &plaintext(u as usize))
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

    /// Step 2.(a) under private sub-sampling: every user gets an OT offer
    /// ([`ObliviousSubsampling::build_offer`]) and the silos fetch one slot. The server
    /// cannot see the choice and a dummy looks like a real ciphertext, so every user is
    /// active and nobody learns who was sampled. Offers and transfers draw from
    /// `(seed, u)` streams of one batch seed, so the selection is identical at any
    /// thread count. Returns every user id, one ciphertext per user and the selection.
    fn offer_inverses<R: Rng + ?Sized>(
        &self,
        rt: &Runtime,
        ot: ObliviousSubsampling,
        rng: &mut R,
    ) -> (Vec<u32>, Vec<Ciphertext>, Vec<bool>) {
        let key = &self.public.key;
        let zero = BigUint::zero();
        let batch_seed = seeding::wide_seed_from_rng(rng);
        let num_users = self.blinded_inverses.len();
        let per_user: Vec<(Ciphertext, bool)> =
            rt.par_map_wide_seeded(num_users, batch_seed, |u, rng| {
                let inverse = self.blinded_inverses[u].as_ref();
                let real = key.encrypt(rng, inverse.unwrap_or(&zero));
                let (output, _sender_view) = ot.build_offer(key, &real, rng).transfer_uniform(rng);
                let selected = output.chosen_index < ot.numerator as usize && inverse.is_some();
                (output.item, selected)
            });
        let mut cache = self.cache.lock().expect("cache mutex poisoned");
        cache.last_fresh = num_users;
        cache.last_rerandomised = 0;
        let (cts, selected) = per_user.into_iter().unzip();
        ((0..num_users as u32).collect(), cts, selected)
    }

    /// Drops the cached ciphertexts of the users `affected` marks, so the next round
    /// freshly re-encrypts them.
    fn invalidate(&self, affected: impl Fn(usize) -> bool) {
        let mut cache = self.cache.lock().expect("cache mutex poisoned");
        cache.entries.retain(|&u, _| !affected(u as usize));
    }

    /// Step 2.(c): batched CRT decryption of the per-coordinate totals and fixed-point
    /// decoding. (The homomorphic cross-silo sum is fused into the streaming fold.) The
    /// CRT contexts are hoisted once per batch inside
    /// [`uldp_crypto::paillier::PaillierSecretKey::decrypt_batch`]. The `aggregation`
    /// span covers decryption plus decoding, with one nested `decryption` span for the
    /// batch itself.
    fn decrypt(&self, rt: &Runtime, totals: &[Ciphertext]) -> (Vec<f64>, Duration) {
        let agg_span = trace::timed_span("protocol", "aggregation");
        let dec_span = trace::span("protocol", "decryption").arg("coordinates", totals.len());
        let decrypted = self.secret.decrypt_batch(rt, totals);
        drop(dec_span);
        let Public { codec, c_lcm, .. } = &*self.public;
        let out: Vec<f64> = rt.par_map(&decrypted, |_, m| codec.decode(m, c_lcm));
        (out, agg_span.finish())
    }
}

impl Received {
    /// Builds the round's shared silo-side state from the ids and ciphertexts the server
    /// sent. `uses[i]` counts the cell exponentiations of active position `i`'s
    /// ciphertext across all silos: a heavily used base gets a fixed-base table (no
    /// squarings per `scalar_mul`), a lightly used one is fused into each cell's
    /// multi-exponentiation, and an unused one gets no evaluator.
    fn new(
        rt: &Runtime,
        silo: &SiloView,
        active: &[u32],
        ciphertexts: &[Ciphertext],
        uses: &[usize],
    ) -> Self {
        debug_assert_eq!(active.len(), ciphertexts.len());
        let key = &silo.public.key;
        // The SHA-based blinding-factor expansion runs on the pool.
        let factors = rt.par_map(active, |_, &u| silo.blinder.factor(u as u64));
        let table_bytes =
            FixedBaseCtx::estimated_table_bytes(key.n_squared.bit_length(), key.n.bit_length());
        let participating = uses.iter().filter(|&&n| n > 0).count();
        let tables_affordable =
            participating.saturating_mul(table_bytes) <= FIXED_BASE_BUDGET_BYTES;
        let n_bits = key.n.bit_length();
        let evals = rt.par_map_range(active.len(), |i| {
            (uses[i] > 0).then(|| {
                let ct = &ciphertexts[i];
                if !tables_affordable || uses[i] < FIXED_BASE_TABLE_MIN_MULS {
                    return InverseEval::Fused { base: ct.0.clone() };
                }
                InverseEval::Table(FixedBaseCtx::new(Arc::clone(key.ctx_n2()), &ct.0, n_bits))
            })
        });
        Received { factors, evals }
    }
}

impl SiloView {
    /// This silo's participants in a round: the active users it holds records *and* a
    /// delta for, as (active position, user id) pairs. `active` is ascending, so the
    /// list walks users in exactly the order of a dense `0..|U|` scan — the cell totals
    /// keep identical bits — while the fold only ever touches the round's participants.
    fn participants(&self, active: &[u32], deltas: &[Vec<f64>]) -> Vec<(usize, usize)> {
        active
            .iter()
            .enumerate()
            .filter(|&(_, &u)| self.histogram[u as usize] > 0 && !deltas[u as usize].is_empty())
            .map(|(i, &u)| (i, u as usize))
            .collect()
    }

    /// Attaches to each participant its scalar prefix `n_su · r_u · C_LCM mod n`, which
    /// is independent of the coordinate and so computed once per round.
    fn terms(&self, received: &Received, participants: Vec<(usize, usize)>) -> Vec<Term> {
        let Public { key, c_lcm, .. } = &*self.public;
        participants
            .into_iter()
            .map(|(i, u)| {
                let n_su = BigUint::from_u64(self.histogram[u]);
                let prefix = mod_mul(&mod_mul(&n_su, &received.factors[i], &key.n), c_lcm, &key.n);
                (i, u, prefix)
            })
            .collect()
    }

    /// Step 2.(b) for coordinate `j`: `Π_u Enc(B_inv(N_u))^{Encode(δ_suj)·prefix_u}`
    /// times `Enc(Encode(z_sj)·C_LCM)`, computed from this silo's view, what it received
    /// and its own deltas and noise. The Paillier `scalar_mul` per user is the
    /// protocol's dominant cost (Figures 10–11).
    fn weigh_cell(
        &self,
        received: &Received,
        terms: &[Term],
        deltas: &[Vec<f64>],
        noise: f64,
        j: usize,
    ) -> Ciphertext {
        let Public { key, codec, c_lcm } = &*self.public;
        let mut acc = key.trivial_zero();
        // Table-free bases gather their `(base, scalar)` terms here and fuse into
        // one interleaved multi-exponentiation after the loop; ciphertext addition
        // is modular multiplication, which commutes, so hoisting these terms out of
        // the running product leaves the cell total bit-identical.
        let mut fused: Vec<(BigUint, BigUint)> = Vec::new();
        for (i, u, prefix) in terms {
            let scalar = mod_mul(&codec.encode(deltas[*u][j]), prefix, &key.n);
            match received.evals[*i].as_ref().expect("evaluator built for participating user") {
                InverseEval::Fused { base } => fused.push((base.clone(), scalar)),
                InverseEval::Table(table) => {
                    metrics::PAILLIER_SCALAR_MUL.inc();
                    acc = key.add(&acc, &Ciphertext(table.pow(&scalar)));
                }
            }
        }
        if !fused.is_empty() {
            metrics::PAILLIER_SCALAR_MUL.add(fused.len() as u64);
            let product = key.ctx_n2().multi_exp(&fused);
            acc = key.add(&acc, &Ciphertext(product));
        }
        key.add_plain(&acc, &mod_mul(&codec.encode(noise), c_lcm, &key.n))
    }
}

/// The state of a completed setup phase, able to run any number of weighting rounds.
///
/// It holds the server's state and one view per silo, and drives the message flow
/// between them.
pub struct PrivateWeightingProtocol {
    server: Server,
    silos: Vec<SiloView>,
    /// Cross-silo totals `N_u`, kept only to validate inputs and for the plaintext
    /// references; no party learns them.
    user_totals: Vec<u64>,
    setup_timings: ProtocolTimings,
    /// Worker pool for the parallel phases (shared, or dedicated per
    /// [`ProtocolConfig::threads`]).
    runtime: Arc<Runtime>,
    /// Resolved cells-per-chunk of the streaming cell fold
    /// ([`ProtocolConfig::chunk_size`] / `ULDP_CHUNK` / default).
    chunk_size: usize,
    fault_plan: FaultPlan,
}

impl PrivateWeightingProtocol {
    /// Runs the setup phase (Protocol 1, step 1) for the given per-silo histograms.
    ///
    /// `histogram[s][u]` is the number of records user `u` holds in silo `s`. Every user
    /// total must be at most `config.n_max` for the `C_LCM` divisibility argument of
    /// Theorem 4 to hold. Panics on a [`ProtocolConfig::fault_plan`] the rounds cannot
    /// apply: an invalid one, or one with byzantine corruption.
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
        let runtime = Runtime::handle(config.threads);

        // --- Step 1.(a)-(c): key generation and pairwise seed agreement. ---
        let key_span = trace::timed_span("protocol", "key_exchange");
        let PaillierKeyPair { public: key, secret } =
            PaillierKeyPair::generate(rng, config.paillier_bits);
        // Warm the ciphertext-modulus Montgomery context during setup so every round
        // (steps 2.(a)-(c)) shares the cached engine state and no phase ever pays for
        // context construction mid-round.
        let _ = key.ctx_n2();
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

        let modulus = key.n.clone();
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
        for &total in &user_totals {
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

        let public = Arc::new(Public { key, codec, c_lcm });
        let silos = silo_histograms
            .into_iter()
            .zip(pair_seeds)
            .map(|(histogram, pair_seeds)| SiloView {
                public: Arc::clone(&public),
                blinder: blinder.clone(),
                histogram,
                pair_seeds,
            })
            .collect();
        PrivateWeightingProtocol {
            server: Server {
                public,
                secret,
                blinded_inverses,
                cache: Mutex::new(RoundCryptoCache {
                    rerand: None,
                    entries: BTreeMap::new(),
                    last_fresh: 0,
                    last_rerandomised: 0,
                }),
                fresh_encrypt: config.fresh_encrypt,
                next_round: AtomicU64::new(0),
            },
            silos,
            user_totals,
            setup_timings: ProtocolTimings {
                key_exchange,
                histogram_blinding,
                inverse_computation,
            },
            runtime,
            chunk_size: uldp_runtime::resolve_chunk_size(config.chunk_size, DEFAULT_PROTOCOL_CHUNK),
            fault_plan: config.fault_plan,
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
        self.silos.len()
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.user_totals.len()
    }

    /// Bit length of the Paillier modulus actually in use.
    pub fn modulus_bits(&self) -> usize {
        self.server.public.key.modulus_bits()
    }

    /// Timings of the setup phase.
    pub fn setup_timings(&self) -> &ProtocolTimings {
        &self.setup_timings
    }

    /// Silo `silo`'s pairwise secure-aggregation seeds established during setup, one
    /// per silo (symmetric: silo `i`'s seed with `j` is silo `j`'s seed with `i`).
    pub fn pair_seeds(&self, silo: usize) -> &[MaskSeed] {
        &self.silos[silo].pair_seeds
    }

    /// The record-proportional weight matrix the protocol implicitly computes
    /// (`w_{s,u} = n_{s,u} / N_u`), exposed for validation against the plaintext path.
    pub fn reference_weights(&self) -> WeightMatrix {
        let histogram: Vec<Vec<usize>> = self
            .silos
            .iter()
            .map(|silo| silo.histogram.iter().map(|&c| c as usize).collect())
            .collect();
        WeightMatrix::from_histogram(WeightingStrategy::RecordProportional, &histogram)
    }

    /// `(fresh, rerandomised)` user counts of the most recent round's step 2.(a): how
    /// many encrypted inverses were freshly Paillier-encrypted vs re-randomised from
    /// the cross-round cache. Bypass mode and oblivious rounds always report
    /// `(active users, 0)`.
    pub fn round_cache_stats(&self) -> (usize, usize) {
        let cache = self.server.cache.lock().expect("cache mutex poisoned");
        (cache.last_fresh, cache.last_rerandomised)
    }

    /// Number of users currently holding a cross-round cache entry. Dense rounds
    /// materialise one entry per user; sparse sampled rounds only ever materialise
    /// entries for users that have been active in some round.
    pub fn cached_entry_count(&self) -> usize {
        let cache = self.server.cache.lock().expect("cache mutex poisoned");
        cache.entries.len()
    }

    /// Estimated resident bytes of the cross-round per-user crypto state: one
    /// ciphertext per entry. Step 2.(b)'s fixed-base tables live only for their round,
    /// so nothing else persists. With a sparse [`SampleMask`] this tracks `O(q·|U|)`
    /// instead of `O(|U|)` — the population-scaling benchmarks report it alongside the
    /// fold gauge.
    pub fn cached_state_bytes(&self) -> usize {
        self.cached_entry_count() * self.ciphertext_bytes()
    }

    fn ciphertext_bytes(&self) -> usize {
        self.server.public.key.n_squared.bit_length().div_ceil(64) * 8
    }

    /// Drops every cached ciphertext (and the re-randomisation context), so the next
    /// round freshly encrypts all inverses — used by benchmarks that run several rounds
    /// of the same setup and need each to pay the full encryption cost. The round
    /// counter, and with it the fault schedule, carries on.
    pub fn reset_round_cache(&self) {
        let mut cache = self.server.cache.lock().expect("cache mutex poisoned");
        cache.rerand = None;
        cache.entries.clear();
    }

    /// Runs one weighting round (Protocol 1, step 2).
    ///
    /// * `clipped_deltas[s][u]` — silo `s`'s clipped model delta for user `u`
    ///   (`Δ̃_{s,u}` *before* weighting; empty when the user has no records in the silo).
    /// * `noises[s]` — the Gaussian noise vector `z_s` silo `s` adds.
    /// * `sampling` — how step 2.(a) samples the users: `None`, `Some(&mask)` or an
    ///   [`ObliviousSubsampling`] ([`Sampling`]).
    ///
    /// The round applies its fault set of [`ProtocolConfig::fault_plan`]. Dropped silos
    /// leave **between steps 2.(b) and 2.(c)**: their cells (deltas *and* noise) miss the
    /// homomorphic fold, where the pairwise masks cancel over the silos that did
    /// contribute, and the aggregate is re-weighted by `|S| / |S_surviving|`; users with
    /// records in a dropped silo lose their cache entry. Stragglers add
    /// [`FaultPlan::delay_ms`] each to `silo_weighting` and leave the result unchanged.
    ///
    /// Returns the decoded aggregate — exactly the surviving-silo, sampled-user sum
    /// `Σ_s (Σ_u w_{s,u} Δ̃_{s,u} + z_s)`, re-weighted
    /// ([`PrivateWeightingProtocol::plaintext_reference_faulted`]) — and the round's
    /// [`RoundReport`], both bitwise-identical at every `(threads, chunk_size)`.
    pub fn weighting_round<'a, R: Rng + ?Sized>(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampling: impl Into<Sampling<'a>>,
        rng: &mut R,
    ) -> (Vec<f64>, RoundReport) {
        let dim = self.check_round_inputs(clipped_deltas, noises);
        let round = self.server.next_round.fetch_add(1, Ordering::Relaxed);

        // --- Step 2.(a): the server sends one ciphertext per active user, before any
        // silo drops.
        let enc_span = trace::timed_span("protocol", "server_encryption");
        let (rt, server) = (&*self.runtime, &self.server);
        let ((active, ciphertexts), selected) = match sampling.into() {
            Sampling::All => (server.encrypt_inverses(rt, None, rng), None),
            Sampling::Mask(mask) => (server.encrypt_inverses(rt, Some(mask), rng), None),
            Sampling::Oblivious(ot) => {
                let (active, cts, selected) = server.offer_inverses(rt, ot, rng);
                ((active, cts), Some(selected))
            }
        };
        let server_encryption = enc_span.finish();

        let (dropped, delay) = self.draw_faults(round);

        // --- Step 2.(b) and the secure aggregation of the silos' reports. The pairwise
        // additive masks cancel in the sum exactly as in step 1.(e); the decrypted
        // aggregate is therefore the same with or without them.
        let silo_span = trace::timed_span("protocol", "silo_weighting");
        let participants: Vec<Vec<(usize, usize)>> = self
            .silos
            .iter()
            .zip(clipped_deltas)
            .map(|(silo, deltas)| silo.participants(&active, deltas))
            .collect();
        let mut uses = vec![0usize; active.len()];
        for &(i, _) in participants.iter().flatten() {
            uses[i] += dim;
        }
        let received = Received::new(rt, &self.silos[0], &active, &ciphertexts, &uses);
        let terms: Vec<Vec<Term>> = self
            .silos
            .iter()
            .zip(participants)
            .map(|(silo, participants)| silo.terms(&received, participants))
            .collect();
        let totals = self.fold_cells(dim, |silo, j| {
            // A dropped silo's report never reaches the server: neither its weighted
            // deltas nor its noise enter the per-coordinate total.
            if dropped[silo] {
                return self.server.public.key.trivial_zero();
            }
            let deltas = &clipped_deltas[silo];
            self.silos[silo].weigh_cell(&received, &terms[silo], deltas, noises[silo][j], j)
        });
        let silo_weighting = silo_span.finish() + delay;

        // --- Step 2.(c): decryption, then the surviving-silo re-weighting: the
        // decrypted value is the exact sum over the survivors, scaled up so the server
        // update keeps its |S|-silo magnitude.
        let (mut out, aggregation) = server.decrypt(rt, &totals);
        let surviving = dropped.iter().filter(|&&d| !d).count();
        debug_assert!(surviving >= 1, "the fault plan must leave at least one silo");
        let factor = self.num_silos() as f64 / surviving as f64;
        if factor != 1.0 {
            for o in out.iter_mut() {
                *o *= factor;
            }
            self.server.invalidate(|u| {
                self.silos.iter().zip(&dropped).any(|(silo, &d)| d && silo.histogram[u] > 0)
            });
        }
        let report =
            RoundReport { server_encryption, silo_weighting, aggregation, dropped, selected };
        (out, report)
    }

    /// Panics unless the round inputs hold one per-user delta set and one noise vector
    /// per silo, all of one dimension; returns that dimension.
    fn check_round_inputs(&self, clipped_deltas: &[Vec<Vec<f64>>], noises: &[Vec<f64>]) -> usize {
        assert_eq!(clipped_deltas.len(), self.num_silos(), "one delta set per silo required");
        assert_eq!(noises.len(), self.num_silos(), "one noise vector per silo required");
        let dim = noises[0].len();
        assert!(dim > 0, "model dimension must be positive");
        for (deltas, noise) in clipped_deltas.iter().zip(noises) {
            assert_eq!(deltas.len(), self.num_users(), "per-user deltas required");
            assert_eq!(noise.len(), dim, "noise dimensionality mismatch");
            for delta in deltas.iter().filter(|d| !d.is_empty()) {
                assert_eq!(delta.len(), dim, "delta dimensionality mismatch");
            }
        }
        dim
    }

    /// Draws round `round`'s fault set from the configured plan: the dropout mask in
    /// silo order and the simulated straggler lateness (`delay_ms` per delayed silo,
    /// accounted in the timings only — no wall-clock sleep, the aggregate is
    /// untouched). Emits one structured trace event per affected silo.
    fn draw_faults(&self, round: u64) -> (Vec<bool>, Duration) {
        let dropped = self.fault_plan.dropped_silos(round, self.num_silos());
        let delayed = self.fault_plan.delayed_silos(round, self.num_silos());
        if uldp_telemetry::enabled() {
            // Tagged with the round so traces of multi-round runs stay attributable.
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
        let delayed_count = delayed.iter().filter(|&&d| d).count() as u64;
        (dropped, Duration::from_millis(self.fault_plan.delay_ms * delayed_count))
    }

    /// Sums `cell(silo, j)` over the silos into one ciphertext total per coordinate `j`:
    /// the cells stream in coordinate-major order through one chunked fold, whose
    /// partials combine in fixed cell order, so the totals are bitwise-identical at any
    /// `(threads, chunk_size)` and no per-cell ciphertext collection is materialised.
    fn fold_cells(
        &self,
        dim: usize,
        cell: impl Fn(usize, usize) -> Ciphertext + Sync,
    ) -> Vec<Ciphertext> {
        let key = &self.server.public.key;
        let num_silos = self.num_silos();
        let num_cells = dim * num_silos;
        let cell_ranges = uldp_runtime::fold_chunk_ranges(num_cells, self.chunk_size);
        let partial_entries: usize =
            cell_ranges.iter().map(|r| (r.end - 1) / num_silos - r.start / num_silos + 1).sum();
        self.runtime.fold_gauge().record(partial_entries * self.ciphertext_bytes());
        // Chunk partials carry (coordinate, running total) pairs; a chunk touches at
        // most ⌈chunk/|S|⌉ + 1 coordinates, and partials merge at shared boundaries.
        let push =
            |acc: &mut Vec<(usize, Ciphertext)>, j: usize, ct: Ciphertext| match acc.last_mut() {
                Some((last_j, total)) if *last_j == j => *total = key.add(total, &ct),
                _ => acc.push((j, ct)),
            };
        let fold_cell = |acc: &mut Vec<(usize, Ciphertext)>, idx: usize| {
            let j = idx / num_silos;
            push(acc, j, cell(idx % num_silos, j));
        };
        let merge = |mut a: Vec<(usize, Ciphertext)>, b: Vec<(usize, Ciphertext)>| {
            for (j, partial) in b {
                push(&mut a, j, partial);
            }
            a
        };
        let totals: Vec<Ciphertext> = self
            .runtime
            .par_fold_reduce(num_cells, self.chunk_size, Vec::new, fold_cell, merge)
            .expect("at least one (silo, coordinate) cell")
            .into_iter()
            .map(|(_, total)| total)
            .collect();
        debug_assert_eq!(totals.len(), dim);
        totals
    }

    /// The plaintext value the protocol is supposed to compute:
    /// `Σ_s ( Σ_u (n_{s,u} / N_u) Δ̃_{s,u} + z_s )`, honouring the sub-sampling mask —
    /// [`PrivateWeightingProtocol::plaintext_reference_faulted`] with every silo
    /// surviving.
    pub fn plaintext_reference(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampled: Option<&SampleMask>,
    ) -> Vec<f64> {
        let all_survive = vec![false; self.num_silos()];
        self.plaintext_reference_faulted(clipped_deltas, noises, sampled, &all_survive)
    }

    /// The plaintext value a faulted round is supposed to compute: the sum of
    /// [`PrivateWeightingProtocol::plaintext_reference`] restricted to silos *not*
    /// marked in `dropped`, re-weighted by `|S| / |S_surviving|`.
    pub fn plaintext_reference_faulted(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampled: Option<&SampleMask>,
        dropped: &[bool],
    ) -> Vec<f64> {
        assert_eq!(dropped.len(), self.num_silos(), "one dropout flag per silo required");
        let mut out = vec![0.0; noises[0].len()];
        for (silo, view) in self.silos.iter().enumerate().filter(|&(s, _)| !dropped[s]) {
            for (u, delta) in clipped_deltas[silo].iter().enumerate() {
                let keep = sampled.is_none_or(|s| s.contains(u));
                let n_su = view.histogram[u];
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
        let factor = self.num_silos() as f64 / surviving as f64;
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

    /// The exact value a round decrypts to, computed in `BigUint` arithmetic from the
    /// round's plaintext inputs alone: per coordinate `j`,
    /// `Σ_s [Σ_u Encode(δ_suj)·n_su·(C_LCM/N_u) + Encode(z_sj)·C_LCM] mod n` over the
    /// surviving silos and the sampled users holding a delta, decoded with the
    /// protocol's codec and re-weighted by `|S| / |S_surviving|` as the round does.
    /// No ciphertext, cache or engine path is involved, so a round whose aggregate
    /// matches it bit for bit computed exactly what the ciphertexts encode.
    fn exact_aggregate(
        protocol: &PrivateWeightingProtocol,
        deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampled: Option<&SampleMask>,
        dropped: &[bool],
    ) -> Vec<f64> {
        let Public { key, codec, c_lcm } = &*protocol.server.public;
        let n = &key.n;
        let surviving = dropped.iter().filter(|&&d| !d).count();
        let factor = protocol.num_silos() as f64 / surviving as f64;
        (0..noises[0].len())
            .map(|j| {
                let mut total = BigUint::zero();
                for silo in (0..protocol.num_silos()).filter(|&s| !dropped[s]) {
                    for (u, delta) in deltas[silo].iter().enumerate() {
                        let n_su = protocol.silos[silo].histogram[u];
                        if delta.is_empty() || n_su == 0 || sampled.is_some_and(|m| !m.contains(u))
                        {
                            continue;
                        }
                        let weight = c_lcm.div(&BigUint::from_u64(protocol.user_totals[u]));
                        let term =
                            codec.encode(delta[j]).mul(&BigUint::from_u64(n_su)).mul(&weight);
                        total = total.add(&term).rem(n);
                    }
                    total = total.add(&codec.encode(noises[silo][j]).mul(c_lcm)).rem(n);
                }
                codec.decode(&total, c_lcm) * factor
            })
            .collect()
    }

    fn assert_exact(out: &[f64], expected: &[f64], what: &str) {
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{what}: aggregate differs from the exact BigUint reference"
        );
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
        assert_exact(
            &secure,
            &exact_aggregate(&protocol, &deltas, &noises, None, &[false; 3]),
            "plain",
        );
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
        assert_eq!(protocol.pair_seeds(0).len(), 3);
        assert_eq!(protocol.pair_seeds(0)[2], protocol.pair_seeds(2)[0]);
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
        let (secure, report) = protocol.weighting_round(&deltas, &noises, sampling, &mut rng);
        assert!(report.selected.expect("oblivious rounds report the selection").iter().all(|&f| f));
        let reference = protocol.plaintext_reference(&deltas, &noises, None);
        for (a, b) in secure.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        let exact = exact_aggregate(&protocol, &deltas, &noises, None, &[false; 3]);
        assert_exact(&secure, &exact, "oblivious, all selected");
    }

    #[test]
    fn oblivious_subsampling_never_selected_leaves_only_noise() {
        let mut rng = StdRng::seed_from_u64(33);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 34);
        let sampling = ObliviousSubsampling::new(0, 4);
        let (secure, report) = protocol.weighting_round(&deltas, &noises, sampling, &mut rng);
        let selected = report.selected.expect("oblivious rounds report the selection");
        assert!(selected.iter().all(|&f| !f));
        // Only the per-silo noise survives.
        let no_deltas = vec![vec![Vec::new(); protocol.num_users()]; protocol.num_silos()];
        let noise_only = protocol.plaintext_reference(&no_deltas, &noises, None);
        for (a, b) in secure.iter().zip(noise_only.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        let none = SampleMask::from_dense(selected);
        let exact = exact_aggregate(&protocol, &deltas, &noises, Some(&none), &[false; 3]);
        assert_exact(&secure, &exact, "oblivious, none selected");
    }

    #[test]
    fn oblivious_subsampling_matches_plaintext_for_realised_selection() {
        let mut rng = StdRng::seed_from_u64(35);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 36);
        let sampling = ObliviousSubsampling::new(1, 2);
        assert!((sampling.probability() - 0.5).abs() < 1e-12);
        let (secure, report) = protocol.weighting_round(&deltas, &noises, sampling, &mut rng);
        let mask = SampleMask::from_dense(report.selected.expect("oblivious selection"));
        let reference = protocol.plaintext_reference(&deltas, &noises, Some(&mask));
        for (a, b) in secure.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        let exact = exact_aggregate(&protocol, &deltas, &noises, Some(&mask), &[false; 3]);
        assert_exact(&secure, &exact, "oblivious, realised selection");
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
            let (out, report) = protocol.weighting_round(&deltas, &noises, sampling, &mut rng);
            (out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(), report.selected)
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

    #[test]
    #[should_panic(expected = "must have byzantine_fraction 0")]
    fn setup_rejects_a_byzantine_fault_plan() {
        // Protocol 1 receives already-clipped deltas, so it cannot corrupt them before
        // clipping; a plan asking for it is rejected rather than silently ignored.
        let plan = FaultPlan { byzantine_fraction: 0.5, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(59);
        let _ =
            PrivateWeightingProtocol::setup(&small_histogram(), &faulted_config(plan), &mut rng);
    }

    #[test]
    fn fault_plan_applies_under_every_sampling_mode() {
        // One protocol, rounds 0..6 cycling through oblivious, sparse-mask and
        // unsampled rounds: round t drops exactly the plan's round-t silo whatever the
        // sampling, and every aggregate is the exact surviving-silo reference.
        let histogram = wide_histogram();
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(61);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
        for round in 0..6u64 {
            let (deltas, noises) = deltas_and_noise(&histogram, 3, 62 + round);
            let (out, report) = match round % 3 {
                0 => protocol.weighting_round(
                    &deltas,
                    &noises,
                    ObliviousSubsampling::new(1, 2),
                    &mut rng,
                ),
                1 => protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng),
                _ => protocol.weighting_round(&deltas, &noises, None, &mut rng),
            };
            assert_eq!(report.dropped, plan.dropped_silos(round, 2), "round {round}");
            assert_eq!(report.dropped.iter().filter(|&&d| d).count(), 1, "round {round}");
            let sampled = match report.selected {
                Some(selected) => Some(SampleMask::from_dense(selected)),
                None => (round % 3 == 1).then(|| mask.clone()),
            };
            let exact =
                exact_aggregate(&protocol, &deltas, &noises, sampled.as_ref(), &report.dropped);
            assert_exact(&out, &exact, &format!("faulted round {round}"));
        }
    }

    #[test]
    fn dropout_reweights_surviving_homomorphic_sum_exactly() {
        // A dropped silo's cells are excluded from the homomorphic fold; the decrypted
        // aggregate must equal the surviving-silo plaintext reference (re-weighted by
        // |S|/|S_surviving|) and — before the common re-weighting factor — be bitwise
        // identical to a plain round where the dropped silo's inputs are explicit zeros,
        // run on a fault-free twin set up from the same seed.
        let histogram = small_histogram();
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(53);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let twin = PrivateWeightingProtocol::setup(
            &histogram,
            &test_config(),
            &mut StdRng::seed_from_u64(53),
        );
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 54);
        for _ in 0..3 {
            let _ = protocol.weighting_round(&deltas, &noises, None, &mut rng);
        }
        let round_rng = rng.clone();
        let (faulted, report) =
            protocol.weighting_round(&deltas, &noises, None, &mut round_rng.clone());
        let dropped = report.dropped;
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
            twin.weighting_round(&zeroed_deltas, &zeroed_noises, None, &mut round_rng.clone());
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
            (0..2)
                .map(|_| {
                    let (out, report) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
                    (out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(), report.dropped)
                })
                .collect::<Vec<_>>()
        };
        let sequential = run(1, usize::MAX);
        for (threads, chunk) in [(2, 1), (4, 7), (2, usize::MAX)] {
            assert_eq!(sequential, run(threads, chunk), "threads={threads} chunk={chunk}");
        }
    }

    #[test]
    fn cached_rounds_match_fresh_encryption_rounds_bitwise() {
        // Eight rounds of the same setup, identical caller RNG streams: the cached
        // protocol re-randomises rounds 2..8 while the bypass instance re-encrypts every
        // round. At 1 and 4 threads, every aggregate must hit the exact reference, so
        // cached and fresh rounds agree bit for bit.
        let histogram = small_histogram();
        let mut runs = Vec::new();
        for (threads, fresh_encrypt) in [(1, false), (4, false), (4, true)] {
            let mut rng = StdRng::seed_from_u64(91);
            let cfg = ProtocolConfig { threads, fresh_encrypt, ..test_config() };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let mut rounds = Vec::new();
            for round in 0..8u64 {
                let (deltas, noises) = deltas_and_noise(&histogram, 4, 92 + round);
                let (out, _) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
                let what = format!("threads {threads} fresh {fresh_encrypt} round {round}");
                let reference = protocol.plaintext_reference(&deltas, &noises, None);
                for (a, b) in out.iter().zip(reference.iter()) {
                    assert!((a - b).abs() < 1e-6, "{what}: secure {a} vs plaintext {b}");
                }
                let exact = exact_aggregate(&protocol, &deltas, &noises, None, &[false; 3]);
                assert_exact(&out, &exact, &what);
                // Cached: round 1 encrypts all 4 users, later rounds re-randomise all 4.
                // Bypass: every round encrypts everything.
                let stats = if round == 0 || fresh_encrypt { (4, 0) } else { (0, 4) };
                assert_eq!(protocol.round_cache_stats(), stats, "{what}");
                rounds.push(out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
            }
            runs.push(rounds);
        }
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "aggregates must not depend on the cache");
    }

    #[test]
    fn mask_change_reencrypts_exactly_the_changed_users() {
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

    /// Users with records in a silo marked in `dropped`.
    fn users_of_dropped(histogram: &[Vec<usize>], dropped: &[bool]) -> usize {
        (0..histogram[0].len())
            .filter(|&u| dropped.iter().enumerate().any(|(s, &d)| d && histogram[s][u] > 0))
            .count()
    }

    #[test]
    fn dropout_invalidates_exactly_the_affected_users_entries() {
        // Consecutive faulted rounds carry the cache over; the plan drops exactly one of
        // the three silos every round. After each round exactly the users with records
        // in its dropped silo have lost their entry, and the next round's encryption,
        // which happens before its own dropout, re-encrypts exactly those.
        let histogram = small_histogram();
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(97);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 4, 98);
        let mut fresh = 4;
        let mut split = false;
        for round in 0..5u64 {
            let (out, report) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
            assert_eq!(protocol.round_cache_stats(), (fresh, 4 - fresh), "round {round}");
            assert_eq!(report.dropped.iter().filter(|&&d| d).count(), 1, "0.4 of 3 rounds to one");
            let affected = users_of_dropped(&histogram, &report.dropped);
            assert_eq!(protocol.cached_entry_count(), 4 - affected, "round {round}");
            split |= affected > 0 && affected < 4;
            let reference =
                protocol.plaintext_reference_faulted(&deltas, &noises, None, &report.dropped);
            for (a, b) in out.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-6, "secure {a} vs plaintext {b}");
            }
            fresh = affected;
        }
        assert!(split, "the plan must split the users in some round");
    }

    #[test]
    fn faulted_round_sequence_reencrypts_exactly_the_dropped_users() {
        // Five consecutive faulted rounds with fresh inputs each: every aggregate matches
        // its surviving-silo reference, and every round after the first freshly
        // re-encrypts exactly the users of the silo the previous round dropped.
        let histogram = small_histogram();
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(103);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let mut previous: Option<Vec<bool>> = None;
        for round in 0..5u64 {
            let (deltas, noises) = deltas_and_noise(&histogram, 4, 104 + round);
            let (out, report) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
            let dropped = report.dropped;
            assert_eq!(dropped.iter().filter(|&&d| d).count(), 1, "round {round}");
            let reference = protocol.plaintext_reference_faulted(&deltas, &noises, None, &dropped);
            for (a, b) in out.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-6, "round {round}: secure {a} vs plaintext {b}");
            }
            let exact = exact_aggregate(&protocol, &deltas, &noises, None, &dropped);
            assert_exact(&out, &exact, &format!("faulted round {round}"));
            let fresh = previous.as_deref().map_or(4, |prev| users_of_dropped(&histogram, prev));
            assert_eq!(protocol.round_cache_stats(), (fresh, 4 - fresh), "round {round}");
            previous = Some(dropped);
        }
    }

    #[test]
    fn delayed_silos_inflate_timings_but_not_results() {
        let histogram = small_histogram();
        let plan = FaultPlan { delay_fraction: 1.0, delay_ms: 40, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(57);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        // A fault-free twin set up from the same seed is the comparator.
        let twin = PrivateWeightingProtocol::setup(
            &histogram,
            &test_config(),
            &mut StdRng::seed_from_u64(57),
        );
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 58);
        let round_rng = rng.clone();
        let (plain, plain_timings) =
            twin.weighting_round(&deltas, &noises, None, &mut round_rng.clone());
        let (delayed, delayed_timings) =
            protocol.weighting_round(&deltas, &noises, None, &mut round_rng.clone());
        assert!(delayed_timings.dropped.iter().all(|&d| !d));
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
        // bit-identical aggregates (cross-round cache interplay included), equal to the
        // exact reference and close to the plaintext one.
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
            let exact = exact_aggregate(&protocol, &deltas, &noises, Some(&mask), &[false; 2]);
            assert_exact(&out, &exact, &format!("sparse round {round}"));
        }
    }

    #[test]
    fn sparse_rounds_materialise_only_sampled_state() {
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
}
