//! Protocol 1: the private weighting protocol.
//!
//! The enhanced weighting strategy `w_{s,u} = n_{s,u} / N_u` needs the cross-silo user
//! totals `N_u`, which no single party may learn. Protocol 1 combines three primitives so
//! that the weighted aggregation is computed without revealing any `n_{s,u}` (Theorem 5):
//!
//! 1. **Multiplicative blinding** — silos share a random seed `R` (unknown to the server)
//!    and blind their histograms as `B(n_{s,u}) = r_u · n_{s,u} mod n`; the server can sum
//!    and invert blinded totals but learns nothing about the underlying counts.
//! 2. **Secure aggregation** — in the paper, pairwise masks from Diffie–Hellman seeds hide
//!    each silo's blinded histogram and encrypted cells. Here setup derives the seeds but
//!    masks nothing: the server sums the silos' values directly (ROADMAP.md, item G).
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
//! inverses `B_inv(N_u)` and the round counter, and no ciphertext outlives the round
//! that sent it. Each silo holds a view of its own: the public key, the codec and
//! `C_LCM`, the blinder seeded by `R`, its histogram row and its pairwise seeds; beside
//! the views, the silos keep the q = 1 `[b_u, b_u⁻¹]` pairs they derived from what they
//! received. Step 2.(b) is a function of a silo's view, what the server sent that round
//! (or those pairs) and the silo's own deltas and noise, so it has no path to the
//! server's state.
//!
//! Every round runs through [`PrivateWeightingProtocol::weighting_round`]. Its
//! [`Sampling`] argument only changes how step 2.(a) picks the ciphertexts: every user,
//! a server-visible [`SampleMask`], or oblivious sub-sampling ([`ObliviousSubsampling`],
//! Section 4.1), the one mode that hides the sample: two ciphertexts per user and an
//! ideal transfer. The server numbers its rounds 0, 1, 2, …, and round `t` applies the
//! round-`t` fault set of [`ProtocolConfig::fault_plan`] under every sampling mode.
//!
//! ## Setup cost
//!
//! Steps 1.(d)–(e) blind every silo's histogram as `r_u·n_su mod n`. Every silo derives
//! the same `r_u` from `R`, so setup expands each user's factor once and multiplies it
//! into every silo's count: `|U|` SHA-256 expansions, not `|S|·|U|`. The users run in
//! blocks of [`SETUP_BLOCK`] on the pool, and one `gcd` of a block's factor product mod
//! `n` checks all of its factors for coprimality
//! ([`MultiplicativeBlinder::factors`]), so setup runs `⌈|U| / SETUP_BLOCK⌉` gcds
//! instead of one per (silo, user). Step 1.(f) inverts all blinded totals in one
//! simultaneous inversion (`ModulusCtx::batch_inv`). A mask or oblivious round's step
//! 2.(b) takes its participating users' factors from one `factors` call as well, and
//! so does the first [`Sampling::All`] round for every record holder; later
//! `Sampling::All` rounds expand no factor. Each silo also raises its two output bases
//! once, `H_s = h_s^n` and `W_s = w_s^n mod n²`, and builds the comb table of `H_s` (see
//! "Output randomness").
//!
//! ## Parallel execution
//!
//! The per-user Paillier work of steps 2.(a)–(b) runs on the deterministic
//! [`uldp_runtime::Runtime`] worker pool. Steps 2.(b)–(c) run one pool task per
//! coordinate ([`uldp_runtime::Runtime::par_map_range`]): the task computes each
//! surviving silo's cell for that coordinate and multiplies it into the coordinate's
//! ciphertext total, so a round holds `dim` totals, never O(silos × dim) cells.
//! Encryption randomness is derived per user id from one 256-bit seed drawn from the
//! caller's RNG, each silo's output randomness per `(round, coordinate)` from its own
//! secret (see "Output randomness"), and ciphertext accumulation is exact modular
//! arithmetic, so every ciphertext and aggregate is bitwise-identical at any thread
//! count ([`ProtocolConfig::threads`] / `ULDP_THREADS`).
//!
//! All exponentiations run on the Montgomery engine of `uldp-bigint` through contexts
//! cached in the Paillier keys at setup. Step 2.(a) encrypts by CRT over `p`/`p²` and
//! `q`/`q²` contexts and step 2.(c) decrypts by CRT over the `p²`/`q²` contexts. Step
//! 2.(b) splits its exponent: the full-width blinding part `f_u = r_u·C_LCM mod n` is
//! raised once per user, `b_u = c_u^{f_u} mod n²`, with all the `b_u⁻¹` from one batch
//! inversion (`ModulusCtx::batch_inv`): every round under a mask or oblivious sampling,
//! once under [`Sampling::All`] (see "q = 1 ciphertexts are sent once"). Each of `b_u`,
//! `b_u⁻¹` gets one odd-power window table per round (`ModulusCtx::window_table`),
//! built on the pool and shared by every silo and cell. Each cell is then one pass of
//! the shared sliding-window ladder (`ModulusCtx::multi_exp_tables`) over references
//! into those tables:
//! `∏_u b_u^{n_su·x}` for `Encode(δ) = x ≤ n/2` and `(b_u⁻¹)^{n_su·(n−x)}` otherwise,
//! whose exponents have about `log₂(N_max·C/P) + 1` bits (≈ 40 at the defaults, window
//! `w = 4`) instead of `|n|`. Both forms encode `B_inv(N_u)·f_u·n_su·x mod n`, the
//! plaintext of the unsplit `c_u^{x·n_su·f_u mod n}`. The tests pin every round's
//! aggregate bit for bit to an exact `BigUint` reference of what the ciphertexts encode.
//!
//! ## Output randomness
//!
//! The split changes what a silo's cell reveals through its randomness (Theorem 5).
//! The server knows the randomness `s_u` of every `c_u` it sent, because it encrypted
//! `c_u` itself, and it knows `f_u` up to `N_max` guesses, because
//! `f_u = (r_u·N_u)·C_LCM·N_u⁻¹` and it holds `r_u·N_u`. A bare cell's randomness
//! `∏_u (s_u^{f_u})^{±n_su·x_u}` thus depends on its data only through ~41-bit
//! unknowns, which the key holder could recover by baby-step giant-step search and
//! with them a small silo's noise-free weighted deltas. So every silo multiplies each
//! outgoing cell by a fresh `Enc(0)` on fixed bases only that silo holds
//! ([`FixedBaseEnc0`], after the short-exponent form of Damgård, Jurik and Nielsen,
//! IJIS 2010): `(−1)^β · W_s^γ · H_s^α mod n²`.
//!
//! * `H_s = h_s^n mod n²` with `h_s` a square, and `W_s = w_s^n mod n²` with `w_s` of
//!   Jacobi symbol `−1`, are fixed per silo. Setup draws `h_s` and `w_s` from a stream
//!   keyed by the silo's output seed (its Diffie–Hellman secret hashed with a domain
//!   label) under a second label, and the silo never sends them.
//! * `α` has `⌈|n|/2⌉` bits, and `β`, `γ` are bits. They come from a stream only that
//!   silo holds: its output seed hashed with the round index and the coordinate. It
//!   draws nothing from the caller's RNG and gives the same bits at any thread count.
//! * Each silo keeps one 64-entry comb table of `H_s` (8 KB at 512-bit n, 48 KB at
//!   3072-bit n), so a cell's `Enc(0)` costs about `|n|/12` squarings, as many
//!   multiplications and at most one more, not the ≈`|n|` squarings of a full-group
//!   `ρ^n`.
//!
//! The hiding of the bare cell's randomness is therefore computational, not
//! statistical. The adversary is the key holder, who knows `p` and `q`: it can recover
//! a sent cell's randomness mod `n` and read its Legendre symbols mod `p` and mod `q`.
//! The key is built on safe primes, and the uniform bits `β` (the sign, a non-residue
//! mod both primes) and `γ` (`w_s`, a non-residue mod exactly one) make both symbols
//! uniform, whatever the bare cell's. What is left are the squares, a cyclic group of
//! order `(p−1)(q−1)/4` that `h_s` generates. So hiding rests on `h_s^α` with a
//! `⌈|n|/2⌉`-bit `α` being indistinguishable from a uniform square to a party that can
//! work modulo the `|n|/2`-bit primes: a short-exponent discrete-logarithm assumption
//! in those prime fields. It also takes the key holder to have drawn safe primes, as
//! [`PaillierKeyPair::generate`] does; no silo can check that. A refresh of the
//! server's ciphertexts would add nothing to this: the server knows its own refresh
//! randomness.
//!
//! ## q = 1 ciphertexts are sent once
//!
//! Under [`Sampling::All`] the server's step 2.(a) plaintexts `B_inv(N_u)` never
//! change, and each outgoing cell already carries the silo's own `Enc(0)`. So the
//! first such round encrypts every user's inverse, and the silos derive from those
//! ciphertexts and `R` the `[b_u, b_u⁻¹]` pairs, `b_u = c_u^{f_u}`, of every user some
//! silo holds records of, weighed that round or not. They keep the pairs, and every
//! later `Sampling::All` round, dropouts included, sends nothing: its silos only build
//! their window tables from the pairs. Whether an `All` round has run is public, so
//! both sides know when step 2.(a) sends nothing. A [`Sampling::Mask`] round encrypts
//! its active users afresh, and an oblivious round encrypts two ciphertexts per user
//! afresh, whatever its `P`; neither holds anything.
//!
//! The pairs live beside the silo views, never with the server, which keeps no
//! ciphertext. They cost two `n²`-wide values per record holder (≈256 B at 512-bit n,
//! ≈1.5 KB at 3072-bit); the tables (≈2 KB per user at `w = 4` and 512 bits) are still
//! dropped with their round. [`ProtocolConfig::fresh_encrypt`] makes every round
//! encrypt afresh and derive every pair afresh. Held and fresh rounds share one step
//! 2.(b) and decrypt to the same bits.
//!
//! ## Population scaling
//!
//! Round cost tracks the *sampled* users, not the population. Under a [`SampleMask`]
//! ([`crate::sampling`]) step 2.(a) sends exactly the sample's ids, each with one
//! encrypted inverse (`Enc(0)` for a sampled user no silo holds records of), neither
//! the server nor the silos keep per-user state between such rounds, and the cell fold
//! walks per-silo participant lists instead of `0..|U|`. A mask round thus shows the
//! sample to the server and to every silo, and never shows who holds records.

use crate::config::WeightingStrategy;
use crate::sampling::SampleMask;
use crate::scenario::FaultPlan;
use crate::weighting::WeightMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use uldp_bigint::modular::{mod_add, mod_mul};
use uldp_bigint::montgomery::{multi_exp_window, WindowTable};
use uldp_bigint::BigUint;
use uldp_crypto::dh::{DhGroup, DhKeyPair};
use uldp_crypto::masking::MaskSeed;
use uldp_crypto::paillier::{
    Ciphertext, FixedBaseEnc0, PaillierKeyPair, PaillierPublicKey, PaillierSecretKey,
};
use uldp_crypto::sha256::hash_parts;
use uldp_crypto::{FixedPointCodec, MultiplicativeBlinder};
use uldp_runtime::seeding::{self, WideSeed};
use uldp_runtime::Runtime;
use uldp_telemetry::{metrics, trace};

/// Cryptographic parameters of the protocol.
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// Paillier modulus size in bits (the paper's default security level is 3072; tests
    /// and quick demos use smaller moduli).
    pub paillier_bits: usize,
    /// Size of the custom Diffie–Hellman safe-prime group used for the silo key exchange,
    /// at least 64 bits. Must be `0` when [`ProtocolConfig::use_rfc_group`] is set;
    /// [`PrivateWeightingProtocol::setup`] rejects any other value rather than ignore it.
    pub dh_bits: usize,
    /// Use the RFC 3526 MODP group that matches the Paillier key instead of generating a
    /// custom group: group 14 (2048 bits, 256-bit secrets) for `paillier_bits ≤ 2048`,
    /// group 15 (3072 bits, 320-bit secrets) above.
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
    /// Deterministic fault injection for the protocol's rounds ([`crate::scenario`]):
    /// silos dropping out between steps 2.(b) and 2.(c). Every
    /// [`PrivateWeightingProtocol::weighting_round`] honours it, whatever its
    /// [`Sampling`]: round `t`, counted from 0 since setup, draws the plan's round-`t`
    /// fault set. Protocol 1 receives already-clipped deltas and so cannot corrupt them
    /// before clipping; [`PrivateWeightingProtocol::setup`] rejects a plan with a
    /// positive `byzantine_fraction`. The default plan injects nothing.
    pub fault_plan: FaultPlan,
    /// Encrypt afresh every round: every [`Sampling::All`] round encrypts every user's
    /// inverse, and the silos derive every `b_u` and `b_u⁻¹` from each round's
    /// ciphertexts instead of holding the first round's pairs. Decrypted aggregates are
    /// bitwise-identical either way; only the per-round `server_encryption` and
    /// `silo_weighting` costs change.
    pub fresh_encrypt: bool,
}

/// Users per block of setup steps 1.(d)–(e). One coprimality `gcd` checks a whole
/// block's blinding factors, which are dropped with the block, so setup never holds a
/// `|U|`-long factor vector.
pub const SETUP_BLOCK: usize = 256;

/// Domain label of a silo's private output-randomness seed (see "Output randomness").
const OUTPUT_SEED_LABEL: &str = "uldp-fl/silo-output-randomness";

/// Domain label of the stream, keyed by a silo's output seed, that draws the silo's
/// fixed output bases `h_s` and `w_s` (see "Output randomness").
const OUTPUT_BASE_LABEL: &str = "uldp-fl/silo-output-base";

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            paillier_bits: 512,
            dh_bits: 256,
            use_rfc_group: false,
            precision: 1e-10,
            n_max: 64,
            threads: 0,
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
            fault_plan: FaultPlan::none(),
            fresh_encrypt: false,
        }
    }
}

/// Wall-clock timings of the one-off setup phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtocolTimings {
    /// Paillier + Diffie–Hellman key generation and pairwise seed agreement (steps a–c),
    /// and each silo's `FixedBaseEnc0::sample` of its output bases.
    pub key_exchange: Duration,
    /// Blinded-histogram construction and summation (steps d–e); no pairwise mask is
    /// applied (ROADMAP.md, item G).
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
    /// Server-side Paillier encryption of the blinded inverses (2.a), and under
    /// oblivious sampling of the dummies, plus the transfer.
    pub server_encryption: Duration,
    /// Silo-side weighted encryption of clipped deltas and noise (2.b) plus the
    /// homomorphic cross-silo product of each coordinate's cells: the measured span of
    /// that step, nothing added.
    pub silo_weighting: Duration,
    /// Server-side decryption and decoding (2.c). (The homomorphic aggregation itself is
    /// part of `silo_weighting`.)
    pub aggregation: Duration,
    /// The round's dropout mask in silo order; all `false` without faults.
    pub dropped: Vec<bool>,
    /// Oblivious rounds only: which users' OT choice fetched a real slot (`Enc(0)` for a
    /// user without records). For tests; in a deployment no party observes it.
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
    /// A user-level sample chosen in the clear: step 2.(a) sends exactly the sampled
    /// ids, and unsampled users get no ciphertext and no fold work. The server and every
    /// silo see the sample; nobody learns from it which sampled users hold records.
    Mask(&'a SampleMask),
    /// Private sub-sampling by 1-out-of-P oblivious transfer (Section 4.1): nobody learns
    /// who was sampled, and the server encrypts two ciphertexts per user whatever `P`.
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
/// The participation probability is `numerator / denominator` over `P = denominator`
/// slots. The server offers each user `Enc(B_inv(N_u))`, one `Enc(0)` and a rotation
/// `o ∈ [0, P)`: slot `i` is real iff `(i − o) mod P < numerator`. Through an ideal
/// transfer the silos fetch slot `c`, drawn from a stream keyed by `R` (which the server
/// never holds), the round and the user. The server never learns `c`; the silos never
/// learn `o` and cannot tell the ciphertexts apart. An OT receiver learns only its slot
/// (Naor and Pinkas, SODA 2001), so two ciphertexts hide the sample as well as `P` fresh
/// ones. Only rational probabilities fit — the discretisation the paper notes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObliviousSubsampling {
    /// Number of "real" slots.
    numerator: u64,
    /// Total number of slots `P`.
    denominator: u64,
}

impl ObliviousSubsampling {
    /// Sub-sampling with participation probability `numerator / denominator`.
    pub fn new(numerator: u64, denominator: u64) -> Self {
        assert!((1..=u64::MAX / 2).contains(&denominator), "denominator must be in 1..2^63");
        assert!(numerator <= denominator, "numerator must not exceed denominator");
        ObliviousSubsampling { numerator, denominator }
    }

    /// The effective user-level participation probability `q = numerator / denominator`.
    pub fn probability(&self) -> f64 {
        self.numerator as f64 / self.denominator as f64
    }

    /// Whether slot `choice` of an offer rotated by `rotation` is real. With either
    /// argument fixed, exactly `numerator` of the `P` values of the other make it so.
    fn is_real(&self, choice: u64, rotation: u64) -> bool {
        (choice + self.denominator - rotation) % self.denominator < self.numerator
    }

    /// The ideal 1-out-of-P transfer: the silos get slot `choice` of `offer` and nothing
    /// else, the server learns nothing. The flag feeds [`RoundReport::selected`] only.
    fn transfer(&self, offer: Offer, choice: u64) -> (Ciphertext, bool) {
        let real = self.is_real(choice, offer.rotation);
        (if real { offer.real } else { offer.dummy }, real)
    }
}

/// The server's oblivious-transfer offer for one user ([`ObliviousSubsampling`]).
struct Offer {
    real: Ciphertext,
    dummy: Ciphertext,
    rotation: u64,
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
    /// The silos' shared seed `R`, which keys their oblivious-transfer choices.
    shared_seed: [u8; 32],
    /// Seed of this silo's output re-randomisation stream, hashed from its
    /// Diffie–Hellman secret: no other party can derive it.
    output_seed: [u8; 32],
    /// This silo's `Enc(0)` on its fixed bases `H_s` and `W_s`, drawn from
    /// `output_seed` and never sent.
    output: FixedBaseEnc0,
}

/// What a silo derives in one round from the ids and ciphertexts the server sent and
/// from `R` alone: each participating user's odd-power window tables of
/// `b_u = c_u^{r_u·C_LCM mod n} mod n²` and of its inverse mod `n²`. Every silo derives
/// the same tables, so the protocol builds them once per round and shares them. Under
/// [`Sampling::All`] the tables are built from the `[b_u, b_u⁻¹]` pairs the silos hold
/// across rounds (see "q = 1 ciphertexts are sent once"); the tables themselves never
/// outlive their round.
struct Received {
    /// `[b_u, b_u⁻¹]` tables per active position; `None` unless a surviving silo weighs u.
    tables: Vec<Option<[WindowTable; 2]>>,
}

impl Server {
    /// Step 2.(a) under a server-visible sample or none: the encrypted inverse of each
    /// id in `users`, position for position, in one pooled batch of the key holder's
    /// CRT encryptions ([`PaillierSecretKey::encrypt`]). The ids are the sample's under a
    /// mask and every id without one, so histograms never change the list and a mask
    /// round costs `O(q·|U|)`.
    ///
    /// A user with no records gets `Enc(0)`. User `u`'s encryption is seeded from
    /// `(batch_seed, u)`, not its position, so a mask round derives exactly the per-user
    /// streams a q = 1 round would, and the output is bitwise-identical at any thread
    /// count.
    fn encrypt_inverses(
        &self,
        rt: &Runtime,
        users: &[u32],
        batch_seed: WideSeed,
    ) -> Vec<Ciphertext> {
        let zero = BigUint::zero();
        rt.par_map(users, |_, &u| {
            let mut rng = StdRng::from_seed(seeding::index_seed_wide(batch_seed, u as u64));
            let inverse = self.blinded_inverses[u as usize].as_ref();
            self.secret.encrypt(&mut rng, inverse.unwrap_or(&zero))
        })
    }

    /// Step 2.(a) under oblivious sub-sampling, the server's half: every user's offer
    /// ([`ObliviousSubsampling`]), drawn from the user's `(seed, u)` stream of one batch
    /// seed: `Enc(B_inv(N_u))` (`Enc(0)` for a user with no records), one `Enc(0)` and
    /// the rotation. Two CRT encryptions per user ([`PaillierSecretKey::encrypt`])
    /// whatever `P`, and the same offers at any thread count.
    fn offer_inverses(
        &self,
        rt: &Runtime,
        ot: ObliviousSubsampling,
        batch_seed: WideSeed,
    ) -> Vec<Offer> {
        let zero = BigUint::zero();
        rt.par_map_wide_seeded(self.blinded_inverses.len(), batch_seed, |u, rng| Offer {
            real: self.secret.encrypt(rng, self.blinded_inverses[u].as_ref().unwrap_or(&zero)),
            dummy: self.secret.encrypt(rng, &zero),
            rotation: rng.gen_range(0..ot.denominator),
        })
    }

    /// Step 2.(c): batched CRT decryption of the per-coordinate totals and fixed-point
    /// decoding. (The homomorphic cross-silo sum is fused into the streaming fold.)
    /// [`uldp_crypto::paillier::PaillierSecretKey::decrypt_batch`] decrypts over the
    /// key's cached CRT contexts, one pooled task per total. The `aggregation`
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
    /// sent: each weighed user's `[b_u, b_u⁻¹]` ([`Received::derive_pairs`]), then its
    /// two tables at the window [`multi_exp_window`] picks for the round's longest cell
    /// exponent `n_su·|Encode(δ_suj)|`. The window only sets speed, never bits; a
    /// deployed silo would size it from its own cells.
    ///
    /// With `held` (a [`Sampling::All`] round without [`ProtocolConfig::fresh_encrypt`])
    /// the pairs come from the silos' held set: the first such round derives it from its
    /// ciphertexts for every user some silo holds records of, weighed this round or not.
    /// Later rounds receive no ciphertext, an empty `ciphertexts`, and derive nothing.
    /// Otherwise the round derives the pairs of the users it weighs and drops them with
    /// its tables. Only a derivation reads `ciphertexts`.
    fn new(
        rt: &Runtime,
        silos: &[SiloView],
        active: &[u32],
        ciphertexts: &[Ciphertext],
        participants: &[Vec<(usize, usize)>],
        clipped_deltas: &[Vec<Vec<f64>>],
        held: Option<&OnceLock<Vec<Option<[BigUint; 2]>>>>,
    ) -> Self {
        let Public { key, codec, .. } = &*silos[0].public;
        let (mut used, mut largest) = (vec![false; active.len()], 0u128);
        for ((silo, participants), deltas) in silos.iter().zip(participants).zip(clipped_deltas) {
            for &(i, u) in participants {
                used[i] = true;
                let n_su = silo.histogram[u] as u128;
                // `(|δ|/P).round()` is exactly `Encode`'s magnitude.
                for d in &deltas[u] {
                    let magnitude = (d.abs() / codec.precision()).round() as u128;
                    largest = largest.max(n_su.saturating_mul(magnitude));
                }
            }
        }
        let derive =
            |wanted: &[bool]| Self::derive_pairs(rt, &silos[0], active, ciphertexts, wanted);
        let round_pairs;
        let pairs = match held {
            Some(held) => held.get_or_init(|| {
                let holds: Vec<bool> = (active.iter())
                    .map(|&u| silos.iter().any(|silo| silo.histogram[u as usize] > 0))
                    .collect();
                derive(&holds)
            }),
            None => {
                round_pairs = derive(&used);
                &round_pairs
            }
        };
        let window = multi_exp_window((u128::BITS - largest.leading_zeros()) as usize);
        let positions: Vec<usize> = (0..active.len()).filter(|&i| used[i]).collect();
        let mut built = rt
            .par_map(&positions, |_, &i| {
                let pair = pairs[i].as_ref().expect("every weighed user has a pair");
                pair.each_ref().map(|base| key.ctx_n2().window_table(base, window))
            })
            .into_iter();
        Received { tables: used.iter().map(|&u| if u { built.next() } else { None }).collect() }
    }

    /// `[b_u, b_u⁻¹]` for the active positions `wanted` marks, `None` elsewhere: one
    /// full-width power `b_u = c_u^{r_u·C_LCM mod n} mod n²` per wanted user, from the
    /// ciphertext the silo received and the factors of one `factors` call, and one batch
    /// inversion of all of them.
    fn derive_pairs(
        rt: &Runtime,
        silo: &SiloView,
        active: &[u32],
        ciphertexts: &[Ciphertext],
        wanted: &[bool],
    ) -> Vec<Option<[BigUint; 2]>> {
        debug_assert_eq!(active.len(), ciphertexts.len(), "one ciphertext per active user");
        let Public { key, c_lcm, .. } = &*silo.public;
        let positions: Vec<usize> = (0..active.len()).filter(|&i| wanted[i]).collect();
        let users: Vec<u64> = positions.iter().map(|&i| active[i] as u64).collect();
        let factors = silo.blinder.factors(&users);
        let powers = rt.par_map(&positions, |k, &i| {
            let f = mod_mul(&factors[k], c_lcm, &key.n);
            key.ctx_n2().pow(&ciphertexts[i].0, &f)
        });
        let inverses = key.ctx_n2().batch_inv(&powers);
        let mut pairs = powers.into_iter().zip(inverses).map(|(power, inverse)| {
            [power, inverse.expect("a Paillier ciphertext is a unit mod n²")]
        });
        wanted.iter().map(|&w| if w { pairs.next() } else { None }).collect()
    }
}

impl SiloView {
    /// The silos' transfer choice `c ∈ [0, P)` for user `u` in round `round`, from a
    /// stream keyed by `R`: every silo makes it, and the server cannot.
    fn ot_choice(&self, round: u64, u: u32, slots: u64) -> u64 {
        let parts: [&[u8]; 3] = [&self.shared_seed, &round.to_be_bytes(), &u.to_be_bytes()];
        StdRng::from_seed(hash_parts("uldp-fl/ot-choice", &parts)).gen_range(0..slots)
    }

    /// This silo's participants in a round: the active users it holds records *and* a
    /// delta for, as (active position, user id) pairs. `active` is ascending, so the
    /// list walks users in exactly the order of a `0..|U|` scan — the cell totals keep
    /// identical bits — while the fold only ever touches the round's participants.
    fn participants(&self, active: &[u32], deltas: &[Vec<f64>]) -> Vec<(usize, usize)> {
        active
            .iter()
            .enumerate()
            .filter(|&(_, &u)| self.histogram[u as usize] > 0 && !deltas[u as usize].is_empty())
            .map(|(i, &u)| (i, u as usize))
            .collect()
    }

    /// Step 2.(b) for coordinate `j` of round `round`: the bare cell
    /// ([`SiloView::bare_cell`]) times a fresh `Enc(0)` whose bases and exponents only
    /// this silo can derive (see "Output randomness"). This is the ciphertext the silo
    /// sends.
    fn weigh_cell(
        &self,
        received: &Received,
        participants: &[(usize, usize)],
        deltas: &[Vec<f64>],
        noise: f64,
        round: u64,
        j: usize,
    ) -> Ciphertext {
        let bare = self.bare_cell(received, participants, deltas, noise, j);
        let seed = hash_parts(
            OUTPUT_SEED_LABEL,
            &[&self.output_seed, &round.to_be_bytes(), &(j as u64).to_be_bytes()],
        );
        self.output.rerandomise(&self.public.key, &mut StdRng::from_seed(seed), &bare)
    }

    /// `∏_u b_u^{n_su·x} · Enc(Encode(z_sj)·C_LCM)` with `x = Encode(δ_suj)`, taking
    /// `(b_u⁻¹)^{n_su·(n−x)}` for `x > n/2`: one pass of the shared ladder over the
    /// round's window tables ([`Received`]) and short exponents, computed from this
    /// silo's view, what it received and its own deltas and noise. Each term is one
    /// Paillier `scalar_mul`, the protocol's dominant cost (Figures 10–11).
    fn bare_cell(
        &self,
        received: &Received,
        participants: &[(usize, usize)],
        deltas: &[Vec<f64>],
        noise: f64,
        j: usize,
    ) -> Ciphertext {
        let Public { key, codec, c_lcm } = &*self.public;
        let half = key.n.shr_bits(1);
        let terms: Vec<(&WindowTable, BigUint)> = participants
            .iter()
            .map(|&(i, u)| {
                let [power, inverse] = received.tables[i].as_ref().expect("participant table");
                let n_su = BigUint::from_u64(self.histogram[u]);
                let x = codec.encode(deltas[u][j]);
                if x <= half {
                    (power, n_su.mul(&x))
                } else {
                    (inverse, n_su.mul(&key.n.sub(&x)))
                }
            })
            .collect();
        metrics::PAILLIER_SCALAR_MUL.add(terms.len() as u64);
        let product = Ciphertext(key.ctx_n2().multi_exp_tables(&terms));
        key.add_plain(&product, &mod_mul(&codec.encode(noise), c_lcm, &key.n))
    }
}

/// The RFC 3526 group setup runs under [`ProtocolConfig::use_rfc_group`]: group 14 for
/// Paillier keys up to 2048 bits, group 15, the paper's 3072-bit level, above.
fn rfc_group(paillier_bits: usize) -> DhGroup {
    if paillier_bits <= 2048 {
        DhGroup::rfc3526_2048()
    } else {
        DhGroup::rfc3526_3072()
    }
}

/// Setup steps 1.(d)–(e): user `u`'s blinded total `Σ_s r_u·n_su mod n`, the sum of the
/// silos' blinded histograms. No pairwise mask is applied: the sum is computed directly
/// from the silos' blinded counts, an ideal secure aggregation (ROADMAP.md, item G).
/// Blocks of [`SETUP_BLOCK`] users run on the pool (see "Setup cost"); the result is
/// bitwise-identical at any thread count.
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
        block
            .clone()
            .zip(&factors)
            .map(|(u, r)| {
                histograms.iter().fold(BigUint::zero(), |total, row| {
                    mod_add(&total, &mod_mul(r, &BigUint::from_u64(row[u]), n), n)
                })
            })
            .collect::<Vec<BigUint>>()
    });
    per_block.into_iter().flatten().collect()
}

/// The state of a completed setup phase, able to run any number of weighting rounds.
///
/// It holds the server's state and one view per silo, and drives the message flow
/// between them.
pub struct PrivateWeightingProtocol {
    server: Server,
    silos: Vec<SiloView>,
    /// Silo side: every record holder's `[b_u, b_u⁻¹]`, derived by the first
    /// [`Sampling::All`] round from the ciphertexts it received and used by every later
    /// one (see "q = 1 ciphertexts are sent once"). Like the views, it never reaches the
    /// server.
    held_pairs: OnceLock<Vec<Option<[BigUint; 2]>>>,
    /// [`ProtocolConfig::fresh_encrypt`]: neither side holds anything across rounds.
    fresh_encrypt: bool,
    /// `(encrypted, held)` of the most recent round
    /// ([`PrivateWeightingProtocol::round_cache_stats`]).
    last_sent: Mutex<(usize, usize)>,
    /// Bit length of the Diffie–Hellman group setup agreed the pairwise seeds in.
    dh_group_bits: usize,
    /// Cross-silo totals `N_u`, kept only to validate inputs and for the plaintext
    /// references; no party learns them.
    user_totals: Vec<u64>,
    setup_timings: ProtocolTimings,
    /// Worker pool for the parallel phases (shared, or dedicated per
    /// [`ProtocolConfig::threads`]).
    runtime: Arc<Runtime>,
    fault_plan: FaultPlan,
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
        // Warm the ciphertext-modulus Montgomery context during setup so every round
        // (steps 2.(a)-(c)) shares the cached engine state and no phase ever pays for
        // context construction mid-round.
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
        // Silo 0 picks the shared random seed R and distributes it over the pairwise
        // channels; the server never sees it.
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
        let blinder = MultiplicativeBlinder::new(blind_seed, modulus.clone());

        // --- Step 1.(d)-(e): blinded histogram aggregation (unmasked, see
        // `blinded_totals`). ---
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
        let blinded_totals = blinded_totals(&runtime, &blinder, &silo_histograms);
        let histogram_blinding = hist_span.finish();

        // --- Step 1.(f): server inverts the blinded totals in one batch inversion
        // (zero totals, users without records, stay `None`). ---
        let inv_span = trace::timed_span("protocol", "inverse_computation");
        let blinded_inverses = key.ctx_n().batch_inv(&blinded_totals);
        let inverse_computation = inv_span.finish();

        let public = Arc::new(Public { key, codec, c_lcm });
        let silos = silo_histograms
            .into_iter()
            .zip(pair_seeds)
            .zip(outputs)
            .map(|((histogram, pair_seeds), (output_seed, output))| SiloView {
                public: Arc::clone(&public),
                blinder: blinder.clone(),
                histogram,
                pair_seeds,
                shared_seed: blind_seed,
                output_seed,
                output,
            })
            .collect();
        PrivateWeightingProtocol {
            server: Server { public, secret, blinded_inverses, next_round: AtomicU64::new(0) },
            silos,
            held_pairs: OnceLock::new(),
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

    /// Bit length of the Diffie–Hellman group setup ran its key agreement in: the RFC 3526
    /// group under [`ProtocolConfig::use_rfc_group`], the custom
    /// [`ProtocolConfig::dh_bits`] group otherwise.
    pub fn dh_group_bits(&self) -> usize {
        self.dh_group_bits
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

    /// `(encrypted, held)` counts of the most recent round: how many ciphertexts step
    /// 2.(a) Paillier-encrypted, and for how many users the silos took `[b_u, b_u⁻¹]`
    /// from the pairs they hold since an earlier [`Sampling::All`] round, which sends
    /// nothing. The first such round and every mask round, and every round under
    /// [`ProtocolConfig::fresh_encrypt`], report `(active users, 0)`; a later one
    /// reports `(0, |U|)`; an oblivious round reports `(2·|U|, 0)`, its real and dummy
    /// ciphertext per user.
    pub fn round_cache_stats(&self) -> (usize, usize) {
        *self.last_sent.lock().expect("round stats mutex poisoned")
    }

    /// Number of entries held across rounds: the silos' `[b_u, b_u⁻¹]` pairs, one per
    /// user holding records, once a [`Sampling::All`] round has run without
    /// [`ProtocolConfig::fresh_encrypt`]; zero before. The server holds no ciphertext,
    /// and mask and oblivious rounds hold nothing.
    pub fn cached_entry_count(&self) -> usize {
        self.held_pairs.get().map_or(0, |pairs| pairs.iter().flatten().count())
    }

    /// Bytes held across rounds: two values at the width of `n²` per held pair
    /// ([`PrivateWeightingProtocol::cached_entry_count`]). Step 2.(b)'s window tables
    /// live only for their round.
    pub fn cached_state_bytes(&self) -> usize {
        2 * self.cached_entry_count() * self.ciphertext_bytes()
    }

    fn ciphertext_bytes(&self) -> usize {
        self.server.public.key.n_squared.bit_length().div_ceil(64) * 8
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
    /// homomorphic fold, and the aggregate is re-weighted by `|S| / |S_surviving|`. No
    /// pairwise mask is applied, so no mask needs recovering (ROADMAP.md, item G).
    ///
    /// Returns the decoded aggregate — exactly the surviving-silo, sampled-user sum
    /// `Σ_s (Σ_u w_{s,u} Δ̃_{s,u} + z_s)`, re-weighted
    /// ([`PrivateWeightingProtocol::plaintext_reference_faulted`]) — and the round's
    /// [`RoundReport`], both bitwise-identical at every thread count.
    pub fn weighting_round<'a, R: Rng + ?Sized>(
        &self,
        clipped_deltas: &[Vec<Vec<f64>>],
        noises: &[Vec<f64>],
        sampling: impl Into<Sampling<'a>>,
        rng: &mut R,
    ) -> (Vec<f64>, RoundReport) {
        let dim = self.check_round_inputs(clipped_deltas, noises);
        let round = self.server.next_round.fetch_add(1, Ordering::Relaxed);
        // Every round draws exactly one batch seed from the caller's RNG, whether or not
        // step 2.(a) encrypts, so held and `fresh_encrypt` executions consume identical
        // caller streams and their aggregates compare bit for bit.
        let batch_seed = seeding::wide_seed_from_rng(rng);

        // --- Step 2.(a): the server sends the active users' ciphertexts, before any
        // silo drops. The active users are ascending ids: the mask's, or every id.
        let enc_span = trace::timed_span("protocol", "server_encryption");
        let (rt, server) = (&*self.runtime, &self.server);
        let sampling = sampling.into();
        let active: Vec<u32> = match sampling {
            Sampling::Mask(mask) => {
                assert_eq!(mask.num_users(), self.num_users(), "mask over another population");
                mask.iter().map(|u| u as u32).collect()
            }
            Sampling::All | Sampling::Oblivious(_) => (0..self.num_users() as u32).collect(),
        };
        // Both sides hold their q = 1 state under the same public condition. Once the
        // silos hold their pairs, which both sides know, a q = 1 round sends nothing.
        let hold = matches!(sampling, Sampling::All) && !self.fresh_encrypt;
        let steady = hold && self.held_pairs.get().is_some();
        let (ciphertexts, selected) = match sampling {
            Sampling::Oblivious(ot) => {
                let offers = server.offer_inverses(rt, ot, batch_seed);
                let silo = &self.silos[0];
                let (cts, selected) = (offers.into_iter().zip(&active))
                    .map(|(offer, &u)| ot.transfer(offer, silo.ot_choice(round, u, ot.denominator)))
                    .unzip();
                (cts, Some(selected))
            }
            _ if steady => (Vec::new(), None),
            _ => (server.encrypt_inverses(rt, &active, batch_seed), None),
        };
        // An oblivious round encrypts a real and a dummy ciphertext per user.
        let per_user = if matches!(sampling, Sampling::Oblivious(_)) { 2 } else { 1 };
        *self.last_sent.lock().expect("round stats mutex poisoned") =
            (per_user * ciphertexts.len(), if steady { active.len() } else { 0 });
        let server_encryption = enc_span.finish();

        let dropped = self.fault_plan.draw_dropouts(round, self.num_silos());

        // --- Step 2.(b), then the server's sum of the surviving silos' cells. No
        // pairwise mask is applied: the server sums the cells themselves, an ideal
        // secure aggregation (see ROADMAP.md, item G). A dropped silo weighs nobody.
        let silo_span = trace::timed_span("protocol", "silo_weighting");
        let participants: Vec<Vec<(usize, usize)>> = (self.silos.iter().zip(clipped_deltas))
            .zip(&dropped)
            .map(|((silo, deltas), &d)| if d { vec![] } else { silo.participants(&active, deltas) })
            .collect();
        let held = hold.then_some(&self.held_pairs);
        let received = Received::new(
            rt,
            &self.silos,
            &active,
            &ciphertexts,
            &participants,
            clipped_deltas,
            held,
        );
        let key = &server.public.key;
        rt.fold_gauge().record(dim * self.ciphertext_bytes());
        // One task per coordinate multiplies the surviving silos' cells. A dropped silo's
        // report never reaches the server: neither its weighted deltas nor its noise
        // enter the total. Products mod n² are exact, so the totals are the same in any
        // order and at any thread count.
        let totals: Vec<Ciphertext> = rt.par_map_range(dim, |j| {
            (self.silos.iter().enumerate().filter(|&(s, _)| !dropped[s]))
                .map(|(s, silo)| {
                    let (parts, deltas) = (&participants[s], &clipped_deltas[s]);
                    silo.weigh_cell(&received, parts, deltas, noises[s][j], round, j)
                })
                .reduce(|total, cell| key.add(&total, &cell))
                .expect("the fault plan leaves at least one silo")
        });
        let silo_weighting = silo_span.finish();

        // --- Step 2.(c): decryption, then the surviving-silo re-weighting: the
        // decrypted value is the exact sum over the survivors, scaled up so the server
        // update keeps its |S|-silo magnitude.
        let (mut out, aggregation) = server.decrypt(rt, &totals);
        reweight_survivors(&mut out, &dropped);
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
        if let Some(mask) = sampled {
            assert_eq!(mask.num_users(), self.num_users(), "mask over another population");
        }
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
        reweight_survivors(&mut out, dropped);
        out
    }
}

/// Scales `out` by `|S| / |S_surviving|`, the silos `dropped` leaves (at least one).
fn reweight_survivors(out: &mut [f64], dropped: &[bool]) {
    let surviving = dropped.iter().filter(|&&d| !d).count().max(1);
    let factor = dropped.len() as f64 / surviving as f64;
    out.iter_mut().for_each(|o| *o *= factor);
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
    /// No ciphertext or engine path is involved, so a round whose aggregate
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
        assert_eq!(protocol.dh_group_bits(), test_config().dh_bits, "the custom DH group");
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
    fn oblivious_slot_layout_is_exactly_uniform() {
        // A uniform rotation makes every choice real with probability numerator / P,
        // and a uniform choice does so for every rotation: neither half alone decides.
        for p in [1u64, 2, 7] {
            for numerator in 0..=p {
                let ot = ObliviousSubsampling::new(numerator, p);
                for fixed in 0..p {
                    let rotations = (0..p).filter(|&o| ot.is_real(fixed, o)).count() as u64;
                    let choices = (0..p).filter(|&c| ot.is_real(c, fixed)).count() as u64;
                    assert_eq!(rotations, numerator, "P = {p}, choice {fixed}");
                    assert_eq!(choices, numerator, "P = {p}, rotation {fixed}");
                }
            }
        }
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
    #[should_panic(expected = "C_LCM·⌈1/P⌉ must stay below n/2")]
    fn rejects_an_n_max_the_key_cannot_hold() {
        // C_LCM(200) has 298 bits, more than a 256-bit modulus holds.
        let mut rng = StdRng::seed_from_u64(9);
        let cfg =
            ProtocolConfig { n_max: 200, paillier_bits: 256, dh_bits: 64, ..Default::default() };
        let _ = PrivateWeightingProtocol::setup(&[vec![1], vec![1]], &cfg, &mut rng);
    }

    #[test]
    #[should_panic(expected = "dh_bits = 512 would be ignored")]
    fn rejects_dh_bits_with_the_rfc_group() {
        let cfg = ProtocolConfig { use_rfc_group: true, dh_bits: 512, ..test_config() };
        let mut rng = StdRng::seed_from_u64(10);
        let _ = PrivateWeightingProtocol::setup(&small_histogram(), &cfg, &mut rng);
    }

    #[test]
    fn rfc_group_matches_the_paillier_key() {
        assert_eq!(rfc_group(512), DhGroup::rfc3526_2048());
        assert_eq!(rfc_group(2048), DhGroup::rfc3526_2048());
        assert_eq!(rfc_group(2049), DhGroup::rfc3526_3072());
        assert_eq!(rfc_group(3072), DhGroup::rfc3526_3072());
    }

    #[test]
    #[should_panic(expected = "dh_bits = 32 is below the 64-bit minimum")]
    fn rejects_a_custom_dh_group_below_64_bits() {
        let cfg = ProtocolConfig { dh_bits: 32, ..test_config() };
        let mut rng = StdRng::seed_from_u64(11);
        let _ = PrivateWeightingProtocol::setup(&small_histogram(), &cfg, &mut rng);
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
        // One protocol, rounds 0..6 cycling through oblivious, mask and
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
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 5, ..FaultPlan::none() };
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(55);
            let cfg = ProtocolConfig { threads, ..faulted_config(plan) };
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            let (deltas, noises) = deltas_and_noise(&histogram, 3, 56);
            (0..2)
                .map(|_| {
                    let (out, report) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
                    (out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(), report.dropped)
                })
                .collect::<Vec<_>>()
        };
        let sequential = run(1);
        for threads in [2, 4] {
            assert_eq!(sequential, run(threads), "threads={threads}");
        }
    }

    #[test]
    fn cached_rounds_match_fresh_encryption_rounds_bitwise() {
        // Eight rounds of the same setup, identical caller RNG streams: the default
        // protocol sends nothing in rounds 2..8, whose silos weigh from the pairs held
        // since round 1, while the `fresh_encrypt` instance encrypts every round. At 1
        // and 4 threads, every aggregate must hit the exact reference, so both agree bit
        // for bit.
        let histogram = small_histogram();
        let mut runs = Vec::new();
        for (threads, fresh_encrypt) in [(1, false), (1, true), (4, false), (4, true)] {
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
                // Default: round 1 encrypts all 4 users, later rounds weigh all 4 from
                // held pairs. `fresh_encrypt`: every round encrypts everything.
                let stats = if round == 0 || fresh_encrypt { (4, 0) } else { (0, 4) };
                assert_eq!(protocol.round_cache_stats(), stats, "{what}");
                rounds.push(out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
            }
            runs.push(rounds);
        }
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "aggregates must not depend on holding");
    }

    #[test]
    fn round_report_phases_are_measured_time() {
        // The reported phases are timed spans inside the call, so together they can
        // never exceed the call's own wall-clock time, with or without dropouts.
        let histogram = small_histogram();
        let (deltas, noises) = deltas_and_noise(&histogram, 3, 58);
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 5, ..FaultPlan::none() };
        for (cfg, drops) in [(test_config(), 0), (faulted_config(plan), 1)] {
            let mut rng = StdRng::seed_from_u64(57);
            let protocol = PrivateWeightingProtocol::setup(&histogram, &cfg, &mut rng);
            for _ in 0..2 {
                let start = std::time::Instant::now();
                let (_, report) = protocol.weighting_round(&deltas, &noises, None, &mut rng);
                let wall = start.elapsed();
                assert_eq!(report.dropped.iter().filter(|&&d| d).count(), drops);
                assert!(report.total() <= wall, "{:?} reported > {wall:?} measured", report);
            }
        }
    }

    fn wide_histogram() -> Vec<Vec<usize>> {
        // 2 silos, 13 users; user 11 holds no records anywhere.
        vec![
            vec![1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1],
            vec![2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 1],
        ]
    }

    #[test]
    fn mask_rounds_match_the_exact_reference_across_rounds() {
        // Three rounds under one mask, whose sampled user 11 holds no records: every
        // aggregate equals the exact reference bit for bit and the plaintext one to 1e-6.
        let histogram = wide_histogram();
        let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
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
            assert_exact(&out, &exact, &format!("mask round {round}"));
        }
    }

    #[test]
    fn mask_rounds_send_the_sample_whoever_holds_records() {
        // Theorem 5: a silo learns nothing of the other silos' histograms. Two federations
        // differ only in silo 1's entry for the sampled user 11, who has no records in
        // silo 0. Step 2.(a) sends both exactly the sampled ids, so silo 0 cannot tell
        // whether silo 1 holds user 11.
        let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
        for records in [0, 3] {
            let mut histogram = wide_histogram();
            histogram[1][11] = records;
            let mut rng = StdRng::seed_from_u64(67);
            let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
            let (deltas, noises) = deltas_and_noise(&histogram, 2, 68);
            let (out, _) = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
            let what = format!("silo 1 holds {records} records of user 11");
            assert_eq!(protocol.round_cache_stats(), (mask.sampled_count(), 0), "{what}");
            let exact = exact_aggregate(&protocol, &deltas, &noises, Some(&mask), &[false; 2]);
            assert_exact(&out, &exact, &what);
        }
    }

    #[test]
    fn mask_round_sends_the_public_encryption_of_each_users_stream() {
        // The server encrypts by CRT with its factors. What step 2.(a) sends is bit for
        // bit the public `key.encrypt` on each sampled user's `(batch seed, u)` stream,
        // `Enc(0)` for user 11, who holds no records, and the round takes that one batch
        // seed from the caller's RNG.
        let histogram = wide_histogram();
        let mask = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
        let mut rng = StdRng::seed_from_u64(71);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let server = &protocol.server;
        let mut round_rng = rng.clone();
        let batch_seed = seeding::wide_seed_from_rng(&mut rng);
        let active: Vec<u32> = mask.iter().map(|u| u as u32).collect();
        assert_eq!(active, [2, 7, 11]);
        let cts = server.encrypt_inverses(protocol.runtime(), &active, batch_seed);
        let (deltas, noises) = deltas_and_noise(&histogram, 2, 72);
        let _ = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut round_rng);
        assert_eq!(rng.gen::<u64>(), round_rng.gen::<u64>(), "a round draws one batch seed");
        assert!(server.blinded_inverses[11].is_none(), "user 11 holds no records");
        for (&u, sent) in active.iter().zip(&cts) {
            let mut user_rng = StdRng::from_seed(seeding::index_seed_wide(batch_seed, u as u64));
            let inverse = server.blinded_inverses[u as usize].clone().unwrap_or_default();
            assert_eq!(*sent, server.public.key.encrypt(&mut user_rng, &inverse), "user {u}");
        }
    }

    #[test]
    #[should_panic(expected = "mask over another population")]
    fn mask_over_another_population_is_rejected() {
        // A 10-user mask on the 13-user federation would silently leave users 10–12 out.
        let histogram = wide_histogram();
        let mut rng = StdRng::seed_from_u64(69);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 2, 70);
        let mask = SampleMask::from_sorted_indices(10, vec![2, 7]);
        let _ = protocol.weighting_round(&deltas, &noises, Some(&mask), &mut rng);
    }

    #[test]
    fn q1_rounds_encrypt_once_and_mask_rounds_encrypt_afresh() {
        // One protocol whose plan drops one of its two silos every round, and a
        // `fresh_encrypt` twin set up and driven from identical RNG streams. Mask rounds
        // encrypt exactly their sampled users afresh and leave nothing held. The
        // first q = 1 round encrypts every user, and the silos derive `[b_u, b_u⁻¹]` for
        // every user holding records: also for those only the dropped silo holds and for
        // user 0, who sends no delta that round. Every later q = 1 round sends nothing
        // and derives nothing, although each follows a dropout round, and a mask round
        // in between still encrypts afresh. The twin encrypts and derives afresh every
        // round. Every aggregate of both is exact, so they agree bit for bit.
        let histogram = wide_histogram();
        let plan = FaultPlan { dropout_fraction: 0.4, seed: 77, ..FaultPlan::none() };
        let mut rng = StdRng::seed_from_u64(97);
        let protocol = PrivateWeightingProtocol::setup(&histogram, &faulted_config(plan), &mut rng);
        let mut twin_rng = StdRng::seed_from_u64(97);
        let fresh_config = ProtocolConfig { fresh_encrypt: true, ..faulted_config(plan) };
        let twin = PrivateWeightingProtocol::setup(&histogram, &fresh_config, &mut twin_rng);
        let few = SampleMask::from_sorted_indices(13, vec![2, 7, 11]);
        let most = SampleMask::from_dense((0..13).map(|u| u % 3 != 0).collect());
        let ct_bytes = (2 * protocol.modulus_bits()).div_ceil(64) * 8;
        // (sampling, (encrypted, held), entries held after the round, held bytes in
        // units of ct_bytes). A mask round sends its sampled users, user 11 included
        // although nobody holds records of it, and the held set is the silos' 12 pairs of
        // two values each; the server holds nothing.
        let schedule = [
            (Some(&few), (3, 0), 0, 0),
            (Some(&most), (8, 0), 0, 0),
            (None, (13, 0), 12, 2 * 12),
            (None, (0, 13), 12, 24),
            (Some(&few), (3, 0), 12, 24),
            (None, (0, 13), 12, 24),
        ];
        let (mut filling_drop, mut orphans_weighed) = (None, false);
        for (round, (sampled, sent, entries, widths)) in schedule.into_iter().enumerate() {
            let (mut deltas, noises) = deltas_and_noise(&histogram, 3, 98 + round as u64);
            if round == 2 {
                for silo in &mut deltas {
                    silo[0].clear();
                }
            }
            let (out, report) = protocol.weighting_round(&deltas, &noises, sampled, &mut rng);
            let (fresh, fresh_report) =
                twin.weighting_round(&deltas, &noises, sampled, &mut twin_rng);
            let what = format!("round {round}");
            assert_eq!(report.dropped, fresh_report.dropped, "{what}");
            let dropped = report.dropped.iter().position(|&d| d).expect("one silo drops");
            assert_eq!(report.dropped.iter().filter(|&&d| d).count(), 1, "{what}");
            assert_eq!(protocol.round_cache_stats(), sent, "{what}");
            assert_eq!(protocol.cached_entry_count(), entries, "{what}");
            assert_eq!(protocol.cached_state_bytes(), widths * ct_bytes, "{what}");
            assert_eq!(twin.round_cache_stats(), (sent.0 + sent.1, 0), "{what}: twin");
            assert_eq!((twin.cached_entry_count(), twin.cached_state_bytes()), (0, 0), "{what}");
            match (round, filling_drop) {
                (2, _) => filling_drop = Some(dropped),
                (3 | 5, Some(filled)) => orphans_weighed |= dropped != filled,
                _ => {}
            }
            let exact = exact_aggregate(&protocol, &deltas, &noises, sampled, &report.dropped);
            assert_exact(&out, &exact, &what);
            assert_exact(&fresh, &out, &format!("{what}: fresh_encrypt twin"));
        }
        // Users 1, 4, 7 and 10 hold records only in silo 0, users 2, 5 and 8 only in
        // silo 1: a later q = 1 round in which the filling round's dropped silo survives
        // weighs users the filling round weighed nobody for.
        assert!(orphans_weighed, "a later q = 1 round weighs the filling round's dropped silo");
    }

    /// Steps 1.(d)–(e) as the paper states them: each silo blinds each of its counts
    /// with its own `blind` call (one factor expansion and one `gcd` each), and the
    /// server sums the blinded values mod `n`.
    fn schoolbook_blinded_totals(protocol: &PrivateWeightingProtocol) -> Vec<BigUint> {
        let n = &protocol.server.public.key.n;
        (0..protocol.num_users())
            .map(|u| {
                protocol.silos.iter().fold(BigUint::zero(), |total, silo| {
                    let count = BigUint::from_u64(silo.histogram[u]);
                    mod_add(&total, &silo.blinder.blind(u as u64, &count), n)
                })
            })
            .collect()
    }

    #[test]
    fn setup_blinds_exactly_as_the_schoolbook_per_silo_blinding() {
        // Two full blocks, a ragged third and users without records; the server's
        // blinded inverses are those of the schoolbook totals, bit for bit.
        use uldp_bigint::modular::mod_inv;
        let users = 2 * SETUP_BLOCK + 37;
        let records = |s: usize, u: usize| if u.is_multiple_of(10) { 0 } else { (u + s) % 3 };
        let histogram: Vec<Vec<usize>> =
            (0..3).map(|s| (0..users).map(|u| records(s, u)).collect()).collect();
        for threads in [1, 3] {
            let config = ProtocolConfig { threads, ..test_config() };
            let protocol =
                PrivateWeightingProtocol::setup(&histogram, &config, &mut StdRng::seed_from_u64(9));
            let n = &protocol.server.public.key.n;
            let expected: Vec<Option<BigUint>> =
                schoolbook_blinded_totals(&protocol).iter().map(|t| mod_inv(t, n)).collect();
            assert!(expected.iter().any(Option::is_none), "some user holds no records");
            assert_eq!(protocol.server.blinded_inverses, expected, "{threads} threads");
        }
    }

    #[test]
    fn sent_cells_are_rerandomised_beyond_what_the_server_can_rebuild() {
        // The bare cell ∏ b_u^{±n_su·x} · Enc(noise) is a function of what the server
        // sent, R and the silo's inputs: rebuilt here independently with the schoolbook
        // mod_pow/mod_inv, it matches bare_cell bit for bit. The cell a silo sends
        // decrypts to the same plaintext but carries fresh randomness from the silo's
        // private stream: deterministic per (round, coordinate), different across them.
        use uldp_bigint::modular::{mod_inv, mod_pow};
        let mut rng = StdRng::seed_from_u64(111);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (mut deltas, noises) = deltas_and_noise(&histogram, 4, 112);
        // User 3 holds records but sends no delta: no table, yet a held pair.
        for silo in &mut deltas {
            silo[3].clear();
        }
        let rt = protocol.runtime();
        let active: Vec<u32> = (0..4).collect();
        let cts =
            protocol.server.encrypt_inverses(rt, &active, seeding::wide_seed_from_rng(&mut rng));
        let participants: Vec<Vec<(usize, usize)>> = protocol
            .silos
            .iter()
            .zip(&deltas)
            .map(|(silo, d)| silo.participants(&active, d))
            .collect();
        let derive =
            |held| Received::new(rt, &protocol.silos, &active, &cts, &participants, &deltas, held);
        let received = derive(None);
        let held = OnceLock::new();
        let from_held = derive(Some(&held));
        let held = held.get().expect("the first held round fills the set");
        assert!(held.iter().all(Option::is_some), "every user of this histogram holds records");
        assert!(received.tables[3].is_none() && from_held.tables[3].is_none());
        let Public { key, codec, c_lcm } = &*protocol.server.public;
        let (n, n2) = (&key.n, &key.n_squared);
        let mut negative_terms = 0;
        for ((s, silo), participants) in protocol.silos.iter().enumerate().zip(&participants) {
            for j in 0..4 {
                let mut rebuilt = BigUint::one();
                for &(i, u) in participants {
                    let f = mod_mul(&silo.blinder.factor(u as u64), c_lcm, n);
                    let b = mod_pow(&cts[i].0, &f, n2);
                    let n_su = BigUint::from_u64(silo.histogram[u]);
                    let x = codec.encode(deltas[s][u][j]);
                    let term = if x <= n.shr_bits(1) {
                        mod_pow(&b, &n_su.mul(&x), n2)
                    } else {
                        negative_terms += 1;
                        let b_inv = mod_inv(&b, n2).expect("ciphertexts are units");
                        mod_pow(&b_inv, &n_su.mul(&n.sub(&x)), n2)
                    };
                    rebuilt = mod_mul(&rebuilt, &term, n2);
                }
                let noise = mod_mul(&codec.encode(noises[s][j]), c_lcm, n);
                let rebuilt = key.add_plain(&Ciphertext(rebuilt), &noise);
                let bare = silo.bare_cell(&received, participants, &deltas[s], noises[s][j], j);
                assert_eq!(bare, rebuilt, "silo {s} coordinate {j}: bare cell");
                let held_bare =
                    silo.bare_cell(&from_held, participants, &deltas[s], noises[s][j], j);
                assert_eq!(held_bare, bare, "silo {s} coordinate {j}: from the held pairs");
                let sent = silo.weigh_cell(&received, participants, &deltas[s], noises[s][j], 0, j);
                assert_ne!(sent, bare, "silo {s} coordinate {j}: the sent cell is re-randomised");
                let secret = &protocol.server.secret;
                assert_eq!(secret.decrypt(&sent), secret.decrypt(&bare));
                let again =
                    silo.weigh_cell(&received, participants, &deltas[s], noises[s][j], 0, j);
                assert_eq!(sent, again, "the output stream is deterministic");
                let next_round =
                    silo.weigh_cell(&received, participants, &deltas[s], noises[s][j], 1, j);
                assert_ne!(sent, next_round, "every round draws fresh output randomness");
            }
        }
        assert!(negative_terms > 0, "some deltas must take the b_u⁻¹ form");
    }

    #[test]
    fn sent_cell_signs_do_not_follow_the_bare_cell() {
        // The key holder can recover a cell's randomness mod n with p and q and read its
        // Legendre symbols mod each. Across rounds, one bare cell (fixed symbols) goes out
        // with all four symbol pairs: its symbols do not reach the key holder.
        use uldp_bigint::modular::{mod_inv, mod_pow};
        let mut rng = StdRng::seed_from_u64(113);
        let histogram = small_histogram();
        let protocol = PrivateWeightingProtocol::setup(&histogram, &test_config(), &mut rng);
        let (deltas, noises) = deltas_and_noise(&histogram, 1, 114);
        let rt = protocol.runtime();
        let active: Vec<u32> = (0..4).collect();
        let cts =
            protocol.server.encrypt_inverses(rt, &active, seeding::wide_seed_from_rng(&mut rng));
        let silo = &protocol.silos[0];
        let participants = silo.participants(&active, &deltas[0]);
        let all: Vec<_> = protocol.silos.iter().map(|_| participants.clone()).collect();
        let received = Received::new(rt, &protocol.silos, &active, &cts, &all, &deltas, None);
        let (p, q) = protocol.server.secret.primes();
        let n = &protocol.server.public.key.n;
        let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
        let n_inv = mod_inv(n, &phi).expect("gcd(n, φ(n)) = 1");
        let signs = |c: &Ciphertext| {
            let r = mod_pow(&c.0.rem(n), &n_inv, n);
            let euler = |m: &BigUint| mod_pow(&r, &m.shr_bits(1), m).is_one();
            usize::from(euler(p)) << 1 | usize::from(euler(q))
        };
        let bare = silo.bare_cell(&received, &participants, &deltas[0], noises[0][0], 0);
        let mut seen = [0usize; 4];
        for round in 0..48 {
            let sent =
                silo.weigh_cell(&received, &participants, &deltas[0], noises[0][0], round, 0);
            seen[signs(&sent)] += 1;
        }
        assert!(seen.iter().all(|&k| k > 0), "bare {:02b}, sent {seen:?}", signs(&bare));
    }
}
