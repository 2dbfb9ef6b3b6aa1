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
//! per-user division by `N_u` exact on the finite field (Theorem 4). Every phase records
//! its wall-clock time, from which the benchmark harness regenerates Figures 10 and 11.
//!
//! ## Roles and the round entry point
//!
//! The code is split by party, and the parties exchange plain messages. `server.rs`
//! holds the server: the Paillier secret key, the blinded inverses `B_inv(N_u)` and the
//! round counter; no ciphertext outlives the round that sent it. `silo.rs` holds one
//! view per silo (its histogram row, pairwise seeds and private output randomness) and
//! the silos' common state, held once: the public parameters, the blinder keyed by `R`,
//! which also keys the oblivious-transfer choices, and the q = 1 `[b_u, b_u⁻¹]` pairs.
//! `setup.rs` runs step 1, and this file carries each round's messages. A server
//! function takes the server's state and what it received; a silo function takes a
//! view or the common state, what the silos received and the silo's own deltas and
//! noise, so it has no path to the server's state. Where every silo would compute the
//! same value from the same inputs, the work is shared and done once: setup expands
//! each `r_u` once for all silos, and a round derives each weighed user's `[b_u, b_u⁻¹]`
//! and window tables once, since every silo derives them from the same ciphertext and
//! `R`.
//!
//! Every round runs through [`PrivateWeightingProtocol::weighting_round`]. Its
//! [`Sampling`] argument only changes step 2.(a), whose message is the ids the silos
//! weigh and their ciphertexts: every user, a server-visible [`SampleMask`], or
//! oblivious sub-sampling ([`ObliviousSubsampling`], Section 4.1), the one mode that
//! hides the sample, where an ideal transfer turns two offered ciphertexts per user
//! into that message. The server numbers its rounds 0, 1, 2, …, and round `t` applies
//! the round-`t` fault set of [`ProtocolConfig::fault_plan`] under every sampling mode.
//!
//! ## Setup cost
//!
//! Steps 1.(d)–(e) run `|U|` SHA-256 factor expansions, not `|S|·|U|`, in blocks of
//! [`SETUP_BLOCK`] users on the pool, with one coprimality `gcd` per block
//! ([`MultiplicativeBlinder::factors`](uldp_crypto::MultiplicativeBlinder::factors)), and
//! step 1.(f) runs one simultaneous inversion (`ModulusCtx::batch_inv`). Each silo also
//! raises its two output bases once and builds the comb table of `H_s`.
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
//! secret, and ciphertext accumulation is exact modular arithmetic, so every ciphertext
//! and aggregate is bitwise-identical at any thread count ([`ProtocolConfig::threads`]
//! / `ULDP_THREADS`).
//!
//! All exponentiations run on the Montgomery engine of `uldp-bigint` through contexts
//! cached in the Paillier keys; steps 2.(a) and 2.(c) work by CRT. Step 2.(b) splits
//! its exponent: the full-width part `f_u = r_u·C_LCM mod n` is raised once per user,
//! `b_u = c_u^{f_u} mod n²`, with every `b_u⁻¹` from one batch inversion. Each of `b_u`,
//! `b_u⁻¹` gets one odd-power window table per round, and each cell is one pass of the
//! shared sliding-window ladder (`ModulusCtx::multi_exp_tables`) over them:
//! `∏_u b_u^{n_su·x}` for `Encode(δ) = x ≤ n/2` and `(b_u⁻¹)^{n_su·(n−x)}` otherwise,
//! with exponents of about `log₂(N_max·C/P) + 1` bits (≈ 40 at the defaults) instead of
//! `|n|`. Both forms encode `B_inv(N_u)·f_u·n_su·x mod n`, and the tests pin every
//! round's aggregate bit for bit to an exact `BigUint` reference.
//!
//! ## Output randomness
//!
//! The server knows the randomness `s_u` of every `c_u` it encrypted, and `f_u` up to
//! `N_max` guesses (`f_u = (r_u·N_u)·C_LCM·N_u⁻¹`, and it holds `r_u·N_u`). A bare
//! cell's randomness `∏_u (s_u^{f_u})^{±n_su·x_u}` thus depends on its data only through
//! ~41-bit unknowns, which the key holder could recover by baby-step giant-step search,
//! and with them a small silo's noise-free weighted deltas (Theorem 5). So every silo
//! multiplies each outgoing cell by a fresh `Enc(0) = (−1)^β · W_s^γ · H_s^α mod n²` on
//! fixed bases only it holds ([`FixedBaseEnc0`](uldp_crypto::paillier::FixedBaseEnc0),
//! after the short-exponent form of Damgård, Jurik and Nielsen, IJIS 2010):
//!
//! * `H_s = h_s^n` with `h_s` a square and `W_s = w_s^n` with `w_s` of Jacobi symbol
//!   `−1` are drawn at setup from a stream keyed by the silo's output seed (its
//!   Diffie–Hellman secret hashed with a domain label) and never sent;
//! * `α` has `⌈|n|/2⌉` bits and `β`, `γ` are bits, from that seed hashed with the round
//!   and the coordinate, nothing from the caller's RNG;
//! * a 64-entry comb table of `H_s` (8 KB at 512-bit n) makes an `Enc(0)` cost about
//!   `|n|/12` squarings and as many multiplications, not the ≈`|n|` of a full `ρ^n`.
//!
//! The hiding is computational. The key holder, who knows `p` and `q`, can read a sent
//! cell's Legendre symbols mod each prime; on safe primes the uniform `β` (a non-residue
//! mod both) and `γ` (`w_s`, a non-residue mod exactly one) make both uniform. What is
//! left are the squares, a cyclic group of order `(p−1)(q−1)/4` that `h_s` generates, so
//! hiding rests on `h_s^α` with a `⌈|n|/2⌉`-bit `α` looking like a uniform square modulo
//! the primes: a short-exponent discrete-logarithm assumption. It also takes the key
//! holder to have drawn safe primes, as
//! [`PaillierKeyPair::generate`](uldp_crypto::paillier::PaillierKeyPair::generate) does,
//! which no silo can check.
//!
//! ## q = 1 ciphertexts are sent once
//!
//! Under [`Sampling::All`] the server's step 2.(a) plaintexts `B_inv(N_u)` never
//! change, and each outgoing cell already carries the silo's own `Enc(0)`. So the first
//! such round encrypts every user's inverse, and the silos derive from those
//! ciphertexts and `R` the `[b_u, b_u⁻¹]` pairs of every user some silo holds records
//! of, weighed that round or not. They hold the pairs (two `n²`-wide values per record
//! holder, ≈256 B at 512-bit n), and every later `Sampling::All` round, dropouts
//! included, sends no ciphertext: its silos only build the round's window tables from
//! the pairs. Whether an `All` round has run is public, so both sides know. Mask and
//! oblivious rounds encrypt afresh and hold nothing, and
//! [`ProtocolConfig::fresh_encrypt`] makes every round encrypt and derive afresh. Held
//! and fresh rounds share one step 2.(b) and decrypt to the same bits.
//!
//! ## Population scaling
//!
//! Round cost tracks the *sampled* users, not the population. Under a [`SampleMask`]
//! ([`crate::sampling`]) step 2.(a) sends exactly the sample's ids, each with one
//! encrypted inverse (`Enc(0)` for a sampled user no silo holds records of), no party
//! keeps per-user state between such rounds, and the cell fold walks per-silo
//! participant lists instead of `0..|U|`. A mask round thus shows the sample to the
//! server and to every silo, and never shows who holds records.

mod server;
mod setup;
mod silo;
#[cfg(test)]
mod tests;

use crate::config::WeightingStrategy;
use crate::sampling::SampleMask;
use crate::scenario::FaultPlan;
use crate::weighting::WeightMatrix;
use rand::Rng;
use server::Server;
use silo::{SiloCommon, SiloView};
use std::sync::{atomic::Ordering, Arc, Mutex};
use std::time::Duration;
use uldp_bigint::BigUint;
use uldp_crypto::paillier::{Ciphertext, PaillierPublicKey};
use uldp_crypto::{masking::MaskSeed, FixedPointCodec};
use uldp_runtime::{seeding, Runtime};
use uldp_telemetry::trace;

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
    /// Server-side decryption, decoding and re-weighting (2.c). (The homomorphic
    /// aggregation itself is part of `silo_weighting`.)
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

    /// The ideal 1-out-of-P transfer: the silos get slot `choice(u)` of user `u`'s offer
    /// and nothing else, the server learns nothing. The silos receive the step 2.(a)
    /// message of every id; the flags feed [`RoundReport::selected`] only.
    fn transfer(&self, offers: Vec<Offer>, choice: impl Fn(u32) -> u64) -> (Inverses, Vec<bool>) {
        let users: Vec<u32> = (0..offers.len() as u32).collect();
        let (ciphertexts, selected) = (offers.into_iter().zip(&users))
            .map(|(offer, &u)| {
                let real = self.is_real(choice(u), offer.rotation);
                (if real { offer.real } else { offer.dummy }, real)
            })
            .unzip();
        (Inverses { users, ciphertexts }, selected)
    }
}

/// The server's oblivious-transfer offer for one user ([`ObliviousSubsampling`]).
struct Offer {
    real: Ciphertext,
    dummy: Ciphertext,
    rotation: u64,
}

/// Step 2.(a)'s message to the silos: the ids they weigh, ascending, and position for
/// position each id's `Enc(B_inv(N_u))`. A steady q = 1 round sends no ciphertext: its
/// silos weigh every id from the pairs they hold.
struct Inverses {
    users: Vec<u32>,
    ciphertexts: Vec<Ciphertext>,
}

/// What every party holds after setup: the public key and Algorithm 5's parameters.
struct Public {
    key: PaillierPublicKey,
    codec: FixedPointCodec,
    c_lcm: BigUint,
}

/// The state of a completed setup phase, able to run any number of weighting rounds.
///
/// It holds the server's state, one view per silo and the silos' common state, and
/// carries the messages between them.
pub struct PrivateWeightingProtocol {
    server: Server,
    silos: Vec<SiloView>,
    common: SiloCommon,
    /// [`ProtocolConfig::fresh_encrypt`]: neither side holds anything across rounds.
    fresh_encrypt: bool,
    /// `(encrypted, held)` of the most recent round (`round_cache_stats`).
    last_sent: Mutex<(usize, usize)>,
    /// Bit length of the Diffie–Hellman group setup agreed the pairwise seeds in.
    dh_group_bits: usize,
    /// Cross-silo totals `N_u`, kept only to validate inputs and for the plaintext
    /// references; no party learns them.
    user_totals: Vec<u64>,
    setup_timings: ProtocolTimings,
    /// Worker pool (shared, or dedicated per [`ProtocolConfig::threads`]).
    runtime: Arc<Runtime>,
    fault_plan: FaultPlan,
}

impl PrivateWeightingProtocol {
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
        self.common.held_pairs.get().map_or(0, |pairs| pairs.iter().flatten().count())
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
        let (rt, server, common) = (&*self.runtime, &self.server, &self.common);
        let round = server.next_round.fetch_add(1, Ordering::Relaxed);
        // Every round draws exactly one batch seed from the caller's RNG, whether or not
        // step 2.(a) encrypts, so held and `fresh_encrypt` executions consume identical
        // caller streams and their aggregates compare bit for bit.
        let batch_seed = seeding::wide_seed_from_rng(rng);

        // --- Step 2.(a): the server's message, sent before any silo drops. Whether the
        // silos hold their q = 1 pairs is public (whether an `All` round has run), and
        // once they do, a q = 1 round sends no ciphertext.
        let enc_span = trace::timed_span("protocol", "server_encryption");
        let sampling = sampling.into();
        let hold = matches!(sampling, Sampling::All) && !self.fresh_encrypt;
        let steady = hold && common.held_pairs.get().is_some();
        let (sent, selected) = match sampling {
            Sampling::Oblivious(ot) => {
                let offers = server.offer_inverses(rt, ot, batch_seed);
                let choice = |u| common.ot_choice(round, u, ot.denominator);
                let (sent, selected) = ot.transfer(offers, choice);
                (sent, Some(selected))
            }
            _ if steady => {
                let users = (0..self.num_users() as u32).collect();
                (Inverses { users, ciphertexts: Vec::new() }, None)
            }
            _ => (server.send_inverses(rt, sampling, batch_seed), None),
        };
        // An oblivious round encrypts a real and a dummy ciphertext per user.
        let per_user = if selected.is_some() { 2 } else { 1 };
        *self.last_sent.lock().expect("round stats mutex poisoned") =
            (per_user * sent.ciphertexts.len(), if steady { sent.users.len() } else { 0 });
        let server_encryption = enc_span.finish();

        let dropped = self.fault_plan.draw_dropouts(round, self.num_silos());

        // --- Step 2.(b), then the server's sum of the surviving silos' cells. No
        // pairwise mask is applied: the server sums the cells themselves, an ideal
        // secure aggregation (see ROADMAP.md, item G). A dropped silo weighs nobody.
        let silo_span = trace::timed_span("protocol", "silo_weighting");
        let participants: Vec<Vec<(usize, usize)>> = (self.silos.iter().zip(clipped_deltas))
            .zip(&dropped)
            .map(|((silo, d), &gone)| if gone { vec![] } else { silo.participants(&sent.users, d) })
            .collect();
        let received = common.receive(rt, &self.silos, &sent, &participants, clipped_deltas, hold);
        let key = &common.public.key;
        rt.fold_gauge().record(dim * self.ciphertext_bytes());
        // One task per coordinate multiplies the surviving silos' cells. A dropped silo's
        // report never reaches the server: neither its weighted deltas nor its noise
        // enter the total. Products mod n² are exact, so the totals are the same in any
        // order and at any thread count.
        let totals: Vec<Ciphertext> = rt.par_map_range(dim, |j| {
            (self.silos.iter().enumerate().filter(|&(s, _)| !dropped[s]))
                .map(|(s, silo)| {
                    let (parts, deltas) = (&participants[s], &clipped_deltas[s]);
                    silo.weigh_cell(common, &received, parts, deltas, noises[s][j], round, j)
                })
                .reduce(|total, cell| key.add(&total, &cell))
                .expect("the fault plan leaves at least one silo")
        });
        let silo_weighting = silo_span.finish();

        // --- Step 2.(c): decryption and the surviving-silo re-weighting.
        let agg_span = trace::timed_span("protocol", "aggregation");
        let out = server.aggregate(rt, &totals, &dropped);
        let aggregation = agg_span.finish();
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
        let dim = self.check_round_inputs(clipped_deltas, noises);
        assert_eq!(dropped.len(), self.num_silos(), "one dropout flag per silo required");
        if let Some(mask) = sampled {
            assert_eq!(mask.num_users(), self.num_users(), "mask over another population");
        }
        let mut out = vec![0.0; dim];
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
