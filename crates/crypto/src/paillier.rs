//! The Paillier additively homomorphic cryptosystem.
//!
//! Protocol 1 uses Paillier encryption so that the server can hand the silos the
//! encrypted blinded inverse histograms `Enc_p(B_inv(N_u))` and the silos can compute
//! weighted, clipped model deltas *under encryption* (scalar multiplication by public
//! per-silo factors and homomorphic summation), without ever learning the inverses and
//! without the server learning the per-silo histograms.
//!
//! The implementation uses the standard simplified variant with generator `g = n + 1`:
//!
//! * `Enc(m; r) = (1 + m·n) · r^n  mod n²`
//! * `Dec(c) = L(c^λ mod n²) · μ  mod n`, where `L(x) = (x − 1)/n`, `λ = lcm(p−1, q−1)`
//!   and `μ = λ^{-1} mod n` (valid for `g = n + 1`).
//!
//! Homomorphic operations: ciphertext addition is multiplication mod `n²`, and
//! multiplication by a plaintext scalar is modular exponentiation.
//!
//! ## The Montgomery engine
//!
//! Every exponentiation here runs over a handful of fixed moduli (`n²` for
//! encryption/scalar multiplication, `p²`/`q²` for CRT decryption), so both keys carry
//! lazily-built, shared [`ModulusCtx`] caches and route through the Montgomery engine of
//! `uldp-bigint` by default; the `(1 + m·n) mod n²` encryption step and the `L(x)`
//! decryption step stay in normal form at the boundaries. [`PaillierPublicKey::scalar_mul_ctx`]
//! additionally amortises a *base*: Protocol 1 raises each encrypted inverse to one
//! scalar per model coordinate, which a [`FixedBaseCtx`] turns into squaring-free
//! table lookups. Results are bitwise-identical to the schoolbook square-and-multiply
//! path (`ULDP_GENERIC_MODPOW=1` forces that path; CI diffs the two).

use rand::Rng;
use std::sync::{Arc, OnceLock};
use uldp_bigint::modular::{mod_inv, mod_mul, mod_pow, mod_sub};
use uldp_bigint::montgomery::{engine_disabled, FixedBaseCtx, ModulusCtx};
use uldp_bigint::{lcm, prime, BigUint};
use uldp_runtime::seeding::WideSeed;
use uldp_runtime::Runtime;

/// Below this many expected exponentiations of one base, building a fixed-base table
/// costs more than it saves and [`PaillierPublicKey::scalar_mul_ctx`] uses the plain
/// sliding-window path instead.
const FIXED_BASE_MIN_MULS: usize = 8;

/// Ciphertexts per pooled chunk in [`PaillierSecretKey::decrypt_batch`]. Fixed (not
/// thread-derived) so the chunk grid — and with it any telemetry — is identical at
/// every pool size; small enough that a model-sized batch still fans out well.
const DECRYPT_BATCH_CHUNK: usize = 2;

/// Paillier public key.
#[derive(Clone, Debug)]
pub struct PaillierPublicKey {
    /// Modulus `n = p·q`; also the plaintext space `F_n` used by Protocol 1.
    pub n: BigUint,
    /// Cached `n²`, the ciphertext modulus.
    pub n_squared: BigUint,
    /// Lazily-built Montgomery context for `n` (shared by clones made after the build).
    ctx_n: OnceLock<Arc<ModulusCtx>>,
    /// Lazily-built Montgomery context for `n²`, the exponentiation hot path.
    ctx_n2: OnceLock<Arc<ModulusCtx>>,
}

impl PartialEq for PaillierPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // `n_squared` and the contexts are derived from `n`.
        self.n == other.n
    }
}

impl Eq for PaillierPublicKey {}

/// Paillier secret key.
#[derive(Clone, Debug)]
pub struct PaillierSecretKey {
    /// `λ = lcm(p − 1, q − 1)`.
    lambda: BigUint,
    /// `μ = λ^{-1} mod n`.
    mu: BigUint,
    /// The matching public key.
    public: PaillierPublicKey,
    /// The prime factors of `n`, kept for CRT decryption.
    p: BigUint,
    q: BigUint,
    /// Cached `p²` / `q²` and the CRT exponents `λ mod φ(p²)` / `λ mod φ(q²)`.
    p_squared: BigUint,
    q_squared: BigUint,
    exp_p: BigUint,
    exp_q: BigUint,
    /// `(p²)^{-1} mod q²` for the CRT recombination.
    p2_inv_mod_q2: BigUint,
    /// Lazily-built Montgomery contexts for `p²` / `q²`.
    ctx_p2: OnceLock<Arc<ModulusCtx>>,
    ctx_q2: OnceLock<Arc<ModulusCtx>>,
}

/// A Paillier key pair held by the aggregation server.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use uldp_bigint::BigUint;
/// use uldp_crypto::paillier::PaillierKeyPair;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let keys = PaillierKeyPair::generate(&mut rng, 256);
/// let a = keys.public.encrypt(&mut rng, &BigUint::from_u64(20));
/// let b = keys.public.encrypt(&mut rng, &BigUint::from_u64(22));
/// let sum = keys.public.add(&a, &b);
/// assert_eq!(keys.secret.decrypt(&sum), BigUint::from_u64(42));
/// ```
#[derive(Clone, Debug)]
pub struct PaillierKeyPair {
    /// Public part, distributed to all silos in setup step 1.(a).
    pub public: PaillierPublicKey,
    /// Secret part, kept by the server.
    pub secret: PaillierSecretKey,
}

/// A Paillier ciphertext (an element of the multiplicative group mod `n²`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext(pub BigUint);

impl PaillierKeyPair {
    /// Generates a key pair whose modulus `n` has (approximately) `modulus_bits` bits.
    ///
    /// The paper's default security parameter is a 3072-bit modulus; tests use much
    /// smaller sizes.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: usize) -> Self {
        assert!(modulus_bits >= 16, "modulus must be at least 16 bits");
        let half = modulus_bits / 2;
        loop {
            let (p, q) = prime::generate_prime_pair(rng, half);
            let n = p.mul(&q);
            // Require gcd(n, (p-1)(q-1)) == 1, guaranteed for same-size primes, and the
            // requested bit length for predictable field sizes.
            if n.bit_length() < modulus_bits - 1 {
                continue;
            }
            let p1 = p.sub(&BigUint::one());
            let q1 = q.sub(&BigUint::one());
            let lambda = lcm(&p1, &q1);
            let mu = match mod_inv(&lambda, &n) {
                Some(mu) => mu,
                None => continue,
            };
            let public = PaillierPublicKey::new(n);
            // CRT precomputation: c^λ mod p²/q² only needs λ modulo the group orders
            // φ(p²) = p(p−1) and φ(q²) = q(q−1), and recombination needs (p²)^{-1} mod q²
            // (p ≠ q primes, so the inverse always exists).
            let p_squared = p.mul(&p);
            let q_squared = q.mul(&q);
            let exp_p = lambda.rem(&p.mul(&p1));
            let exp_q = lambda.rem(&q.mul(&q1));
            let p2_inv_mod_q2 = mod_inv(&p_squared, &q_squared).expect("p² is a unit modulo q²");
            let secret = PaillierSecretKey {
                lambda,
                mu,
                public: public.clone(),
                p,
                q,
                p_squared,
                q_squared,
                exp_p,
                exp_q,
                p2_inv_mod_q2,
                ctx_p2: OnceLock::new(),
                ctx_q2: OnceLock::new(),
            };
            return PaillierKeyPair { public, secret };
        }
    }
}

/// A reusable exponentiation context for one ciphertext base, produced by
/// [`PaillierPublicKey::scalar_mul_ctx`].
///
/// Protocol 1 step 2.(b) raises each user's encrypted inverse to one scalar per
/// `(silo, coordinate)` cell; hoisting this context out of the cell loop amortises the
/// per-base fixed-base table (or, for rarely-used bases, at least shares the per-modulus
/// Montgomery state). All methods take `&self`, so one context serves a whole parallel
/// region.
#[derive(Debug)]
pub struct ScalarMulCtx {
    /// Plaintext modulus, for the `k mod n` scalar reduction `scalar_mul` performs.
    n: BigUint,
    inner: ScalarMulCtxInner,
}

#[derive(Debug)]
enum ScalarMulCtxInner {
    /// Schoolbook square-and-multiply over `n²` (the `ULDP_GENERIC_MODPOW=1` path).
    Generic { base: BigUint, n_squared: BigUint },
    /// Montgomery sliding window (few expected uses; no per-base table).
    Window { ctx: Arc<ModulusCtx>, base: BigUint },
    /// Fixed-base radix-2ʷ table (many expected uses of the same base).
    FixedBase(FixedBaseCtx),
}

impl ScalarMulCtx {
    /// `Dec(pow(k)) = k · Dec(base) mod n` — the hoisted form of
    /// [`PaillierPublicKey::scalar_mul`], bitwise-identical to it.
    pub fn pow(&self, k: &BigUint) -> Ciphertext {
        uldp_telemetry::metrics::PAILLIER_SCALAR_MUL.inc();
        let k = k.rem(&self.n);
        Ciphertext(match &self.inner {
            ScalarMulCtxInner::Generic { base, n_squared } => mod_pow(base, &k, n_squared),
            ScalarMulCtxInner::Window { ctx, base } => ctx.pow(base, &k),
            ScalarMulCtxInner::FixedBase(fixed) => fixed.pow(&k),
        })
    }
}

/// Digit width of the [`RerandCtx`] table. One table serves every re-randomisation of
/// a whole federation across all rounds, so it affords a wider digit (fewer
/// multiplications per exponentiation) than the per-base [`FixedBaseCtx::new`] default.
const RERAND_WINDOW: usize = 7;

/// A reusable re-randomisation context produced by [`PaillierPublicKey::rerand_ctx`].
///
/// Samples one secret unit `ρ` at construction and holds `h = ρ^n mod n²` behind a
/// wide fixed-base table. Each re-randomisation then multiplies by `h^t` for a fresh
/// exponent `t ∈ [1, n)` — squaring-free table lookups instead of the full
/// sliding-window `r^n` a fresh encryption (or [`PaillierPublicKey::rerandomise`])
/// pays. `h^t = (ρ^t)^n` is an n-th power, i.e. an encryption of zero with randomiser
/// `ρ^t mod n`, so decryption is unchanged exactly.
///
/// The obliviousness trade-off: randomisers are drawn from the subgroup `⟨ρ⟩` instead
/// of all units mod `n`. Under the decisional composite residuosity assumption the
/// re-randomised ciphertext remains indistinguishable from a fresh encryption (the
/// standard fixed-generator re-randomisation argument); callers needing full-group
/// randomisers use [`PaillierPublicKey::rerandomise`] instead.
#[derive(Debug)]
pub struct RerandCtx {
    /// Plaintext modulus; exponents are drawn from `[1, n)`.
    n: BigUint,
    /// Ciphertext modulus `n²`.
    n_squared: BigUint,
    /// `h = ρ^n mod n²` in normal form (the generic-path base).
    h: BigUint,
    /// Fixed-base table for `h` (absent on the `ULDP_GENERIC_MODPOW=1` path).
    table: Option<FixedBaseCtx>,
}

impl RerandCtx {
    /// `h^t mod n²` — the n-th power a re-randomisation by exponent `t` multiplies in.
    ///
    /// The table covers the `|n|`-bit exponents [`RerandCtx::rerandomise`] draws;
    /// longer exponents take the sliding-window path with identical results.
    pub fn pow_h(&self, t: &BigUint) -> BigUint {
        match &self.table {
            Some(fixed) => fixed.pow(t),
            None => mod_pow(&self.h, t, &self.n_squared),
        }
    }

    /// Re-randomises `c` with a fresh exponent `t ∈ [1, n)`, returning `c·h^t`.
    pub fn rerandomise<R: Rng + ?Sized>(&self, rng: &mut R, c: &Ciphertext) -> Ciphertext {
        uldp_telemetry::metrics::PAILLIER_RERANDOMISE.inc();
        let t = loop {
            let t = BigUint::random_below(rng, &self.n);
            if !t.is_zero() {
                break t;
            }
        };
        Ciphertext(mod_mul(&c.0, &self.pow_h(&t), &self.n_squared))
    }

    /// Re-randomises a batch on the runtime's worker pool with the same deterministic
    /// per-index seeding as [`PaillierPublicKey::encrypt_batch`], so the outputs are
    /// bitwise-identical at any thread count.
    pub fn rerandomise_batch(
        &self,
        rt: &Runtime,
        seed: WideSeed,
        cts: &[Ciphertext],
    ) -> Vec<Ciphertext> {
        rt.par_map_wide_seeded(cts.len(), seed, |i, rng| self.rerandomise(rng, &cts[i]))
    }
}

impl PaillierPublicKey {
    /// Builds a public key from the modulus `n` (caching `n²`; the Montgomery contexts
    /// are built lazily on first exponentiation and shared from then on).
    pub fn new(n: BigUint) -> Self {
        let n_squared = n.mul(&n);
        PaillierPublicKey { n, n_squared, ctx_n: OnceLock::new(), ctx_n2: OnceLock::new() }
    }

    /// The shared Montgomery context for the plaintext modulus `n`.
    pub fn ctx_n(&self) -> &Arc<ModulusCtx> {
        self.ctx_n.get_or_init(|| Arc::new(ModulusCtx::new(&self.n)))
    }

    /// The shared Montgomery context for the ciphertext modulus `n²` (the hot path of
    /// every encryption and scalar multiplication).
    pub fn ctx_n2(&self) -> &Arc<ModulusCtx> {
        self.ctx_n2.get_or_init(|| Arc::new(ModulusCtx::new(&self.n_squared)))
    }

    /// Encrypts a plaintext `m ∈ F_n` with fresh randomness.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, m: &BigUint) -> Ciphertext {
        let m = m.rem(&self.n);
        let r = self.sample_unit(rng);
        self.encrypt_with_randomness(&m, &r)
    }

    /// Encrypts with explicit randomness `r` (must be a unit mod `n`); used in tests.
    pub fn encrypt_with_randomness(&self, m: &BigUint, r: &BigUint) -> Ciphertext {
        uldp_telemetry::metrics::PAILLIER_ENCRYPT.inc();
        // (1 + m*n) mod n^2 — stays in normal form; only r^n runs in Montgomery form.
        let gm = BigUint::one().add(&m.mul(&self.n)).rem(&self.n_squared);
        let rn = if engine_disabled() {
            mod_pow(r, &self.n, &self.n_squared)
        } else {
            self.ctx_n2().pow(r, &self.n)
        };
        Ciphertext(mod_mul(&gm, &rn, &self.n_squared))
    }

    /// Re-randomises a ciphertext: `Dec(rerandomise(c)) = Dec(c)`, but the ciphertext
    /// bits are refreshed by a uniformly random n-th power `r^n`.
    ///
    /// Since `Enc(0; r) = (1 + 0·n)·r^n = r^n`, this is exactly
    /// `add(c, encrypt(rng, 0))` — the same obliviousness argument — minus the
    /// `(1 + m·n) mod n²` blinding step and one `mod_mul`: one exponentiation and one
    /// multiplication total.
    pub fn rerandomise<R: Rng + ?Sized>(&self, rng: &mut R, c: &Ciphertext) -> Ciphertext {
        let r = self.sample_unit(rng);
        self.rerandomise_with_randomness(c, &r)
    }

    /// Re-randomises with explicit randomness `r` (must be a unit mod `n`); used in
    /// tests pinning the `add(c, Enc(0; r)) = c·r^n` equivalence.
    pub fn rerandomise_with_randomness(&self, c: &Ciphertext, r: &BigUint) -> Ciphertext {
        uldp_telemetry::metrics::PAILLIER_RERANDOMISE.inc();
        let rn = if engine_disabled() {
            mod_pow(r, &self.n, &self.n_squared)
        } else {
            self.ctx_n2().pow(r, &self.n)
        };
        Ciphertext(mod_mul(&c.0, &rn, &self.n_squared))
    }

    /// Re-randomises a batch of ciphertexts on the runtime's worker pool with the same
    /// deterministic per-index seeding as [`PaillierPublicKey::encrypt_batch`]: the
    /// refreshed ciphertexts are bitwise-identical at any thread count.
    pub fn rerandomise_batch(
        &self,
        rt: &Runtime,
        seed: WideSeed,
        cts: &[Ciphertext],
    ) -> Vec<Ciphertext> {
        rt.par_map_wide_seeded(cts.len(), seed, |i, rng| self.rerandomise(rng, &cts[i]))
    }

    /// Builds a [`RerandCtx`]: samples a secret unit `ρ`, computes `h = ρ^n mod n²`
    /// and precomputes its wide fixed-base table, after which each re-randomisation is
    /// squaring-free (see the [`RerandCtx`] docs for the subgroup caveat).
    pub fn rerand_ctx<R: Rng + ?Sized>(&self, rng: &mut R) -> RerandCtx {
        let rho = self.sample_unit(rng);
        let h = if engine_disabled() {
            mod_pow(&rho, &self.n, &self.n_squared)
        } else {
            self.ctx_n2().pow(&rho, &self.n)
        };
        // Covers the exponents t < n that RerandCtx::rerandomise draws.
        let max_bits = self.n.bit_length();
        let table = (!engine_disabled()).then(|| {
            FixedBaseCtx::with_window(Arc::clone(self.ctx_n2()), &h, max_bits, RERAND_WINDOW)
        });
        RerandCtx { n: self.n.clone(), n_squared: self.n_squared.clone(), h, table }
    }

    /// The encryption of zero with randomness one (useful as an additive identity).
    pub fn trivial_zero(&self) -> Ciphertext {
        Ciphertext(BigUint::one())
    }

    /// Homomorphic addition of two ciphertexts: `Dec(add(a, b)) = Dec(a) + Dec(b) mod n`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext(mod_mul(&a.0, &b.0, &self.n_squared))
    }

    /// Homomorphic addition of a plaintext constant: `Dec(add_plain(a, k)) = Dec(a) + k`.
    pub fn add_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        let k = k.rem(&self.n);
        let gk = BigUint::one().add(&k.mul(&self.n)).rem(&self.n_squared);
        Ciphertext(mod_mul(&a.0, &gk, &self.n_squared))
    }

    /// Homomorphic scalar multiplication: `Dec(scalar_mul(a, k)) = k · Dec(a) mod n`.
    pub fn scalar_mul(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        uldp_telemetry::metrics::PAILLIER_SCALAR_MUL.inc();
        let k = k.rem(&self.n);
        Ciphertext(if engine_disabled() {
            mod_pow(&a.0, &k, &self.n_squared)
        } else {
            self.ctx_n2().pow(&a.0, &k)
        })
    }

    /// Builds a reusable [`ScalarMulCtx`] for repeated scalar multiplications of one
    /// ciphertext. `expected_muls` is the number of [`ScalarMulCtx::pow`] calls the
    /// caller anticipates: above a small threshold the context precomputes a fixed-base
    /// table (no squarings per exponentiation), below it the sliding-window path is used
    /// so a rarely-used base never pays for a table.
    pub fn scalar_mul_ctx(&self, a: &Ciphertext, expected_muls: usize) -> ScalarMulCtx {
        let inner = if engine_disabled() {
            ScalarMulCtxInner::Generic { base: a.0.clone(), n_squared: self.n_squared.clone() }
        } else if expected_muls >= FIXED_BASE_MIN_MULS {
            // Scalars are reduced mod n before exponentiation, so the table only needs
            // to cover n-sized exponents.
            ScalarMulCtxInner::FixedBase(FixedBaseCtx::new(
                Arc::clone(self.ctx_n2()),
                &a.0,
                self.n.bit_length(),
            ))
        } else {
            ScalarMulCtxInner::Window { ctx: Arc::clone(self.ctx_n2()), base: a.0.clone() }
        };
        ScalarMulCtx { n: self.n.clone(), inner }
    }

    /// Sums an iterator of ciphertexts homomorphically.
    pub fn sum<'a, I: IntoIterator<Item = &'a Ciphertext>>(&self, items: I) -> Ciphertext {
        let mut acc = self.trivial_zero();
        for c in items {
            acc = self.add(&acc, c);
        }
        acc
    }

    /// Encrypts a batch of plaintexts on the runtime's worker pool.
    ///
    /// Plaintext `i` is encrypted with randomness drawn from an RNG derived from
    /// `(seed, i)` ([`uldp_runtime::seeding::index_seed_wide`]), so the produced
    /// ciphertexts — not just their decryptions — are bitwise-identical at any thread
    /// count. The 256-bit batch seed (draw it with
    /// [`uldp_runtime::seeding::wide_seed_from_rng`]) preserves the source RNG's full
    /// entropy, so batching does not weaken the encryption randomness. This is the server
    /// hot path of Protocol 1 step 2.(a).
    pub fn encrypt_batch(
        &self,
        rt: &Runtime,
        seed: WideSeed,
        plaintexts: &[BigUint],
    ) -> Vec<Ciphertext> {
        rt.par_map_wide_seeded(plaintexts.len(), seed, |i, rng| self.encrypt(rng, &plaintexts[i]))
    }

    /// Homomorphically multiplies each `(ciphertext, scalar)` pair on the worker pool.
    /// Scalar multiplication is deterministic, so no seeding is involved.
    ///
    /// This is the standalone batch form of the `scalar_mul` loop that dominates Protocol
    /// 1 step 2.(b); the protocol itself fuses that loop with scalar preparation and
    /// accumulation per `(silo, coordinate)` cell (`uldp-core`'s `weighting_round`), so
    /// this API is for callers batching scalar multiplications outside the protocol.
    pub fn scalar_mul_batch(
        &self,
        rt: &Runtime,
        pairs: &[(&Ciphertext, BigUint)],
    ) -> Vec<Ciphertext> {
        rt.par_map(pairs, |_, (c, k)| self.scalar_mul(c, k))
    }

    /// Sums a slice of ciphertexts with a fixed-shape parallel tree reduction.
    /// Ciphertext addition is exact modular arithmetic, so the result is
    /// bitwise-identical to [`PaillierPublicKey::sum`] at any thread count.
    ///
    /// The standalone form of the tree aggregation in Protocol 1 step 2.(c); the protocol
    /// reduces whole per-silo ciphertext *vectors* in one tree instead, so this API is for
    /// callers summing a flat ciphertext list.
    pub fn sum_par(&self, rt: &Runtime, items: &[Ciphertext]) -> Ciphertext {
        match items {
            [] => return self.trivial_zero(),
            [only] => return only.clone(),
            _ => {}
        }
        // First tree level reads the borrowed ciphertexts directly (no up-front deep copy
        // of the whole slice); it pairs adjacent elements with the odd leftover appended,
        // exactly the shape `par_reduce` uses, so the overall tree is unchanged.
        let mut level: Vec<Ciphertext> =
            rt.par_map_range(items.len() / 2, |i| self.add(&items[2 * i], &items[2 * i + 1]));
        if items.len() % 2 == 1 {
            level.push(items[items.len() - 1].clone());
        }
        rt.par_reduce(level, |a, b| self.add(&a, &b)).expect("level is non-empty")
    }

    /// Sums a slice of ciphertexts with a streaming chunked fold
    /// ([`Runtime::par_fold_reduce`]): the items are split into fixed-size chunks whose
    /// shape depends only on `(len, chunk_size)`, each chunk folds its ciphertexts into
    /// one running product in place, and chunk partials combine in fixed order — no
    /// intermediate tree level is ever materialised. Ciphertext addition is exact
    /// modular arithmetic, so the result is bitwise-identical to
    /// [`PaillierPublicKey::sum`] and [`PaillierPublicKey::sum_par`] at any thread count
    /// and any chunk size. `chunk_size = 0` means one chunk (sequential accumulation).
    pub fn sum_par_chunked(
        &self,
        rt: &Runtime,
        items: &[Ciphertext],
        chunk_size: usize,
    ) -> Ciphertext {
        rt.par_fold_reduce(
            items.len(),
            chunk_size,
            || self.trivial_zero(),
            |acc, i| *acc = self.add(acc, &items[i]),
            |a, b| self.add(&a, &b),
        )
        .unwrap_or_else(|| self.trivial_zero())
    }

    /// Samples a uniformly random unit modulo `n`.
    ///
    /// The gcd test alone rejects zero (`gcd(0, n) = n ≠ 1`), so no separate zero
    /// pre-check is needed; the rejection loop draws again either way, consuming the RNG
    /// identically to the historical two-check version.
    fn sample_unit<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let r = BigUint::random_below(rng, &self.n);
            if uldp_bigint::gcd(&r, &self.n).is_one() {
                return r;
            }
        }
    }

    /// Bit length of the modulus (the "security parameter" reported by benches).
    pub fn modulus_bits(&self) -> usize {
        self.n.bit_length()
    }
}

impl PaillierSecretKey {
    /// Decrypts a ciphertext back to `F_n`.
    ///
    /// The dominant `c^λ mod n²` is computed by CRT over the prime-square factors: two
    /// half-width exponentiations with half-width exponents (`λ mod φ(p²)`, `λ mod
    /// φ(q²)`) over their own cached Montgomery contexts, recombined to the unique value
    /// mod `n²` — identical, bit for bit, to the direct exponentiation (debug builds
    /// cross-check against [`PaillierSecretKey::decrypt_generic`] on every call).
    pub fn decrypt(&self, c: &Ciphertext) -> BigUint {
        uldp_telemetry::metrics::PAILLIER_DECRYPT.inc();
        if engine_disabled() {
            return self.decrypt_generic(c);
        }
        let pk = &self.public;
        let x = self.pow_lambda_crt(&c.0);
        let l = self.l_function(&x);
        let m = mod_mul(&l, &self.mu, &pk.n);
        debug_assert_eq!(
            m,
            self.decrypt_generic(c),
            "CRT decryption must match the direct λ/μ path"
        );
        m
    }

    /// Decrypts a batch of ciphertexts on the worker pool, bitwise-identical to
    /// per-item [`PaillierSecretKey::decrypt`] at any thread count.
    ///
    /// The CRT contexts for `p²`/`q²` are hoisted once for the whole batch and each
    /// pooled chunk routes its half-width exponentiations through
    /// [`ModulusCtx::mod_pow_batch`] over the shared contexts, so a multi-round caller
    /// (the round pipeline's overlapped decrypt stage) never re-derives per-round
    /// state. The chunk grid depends only on the batch length, never the pool size.
    pub fn decrypt_batch(&self, rt: &Runtime, items: &[Ciphertext]) -> Vec<BigUint> {
        uldp_telemetry::metrics::PAILLIER_DECRYPT.add(items.len() as u64);
        if engine_disabled() {
            return rt.par_map(items, |_, c| self.decrypt_generic(c));
        }
        let ctx_p2 = Arc::clone(self.ctx_p2());
        let ctx_q2 = Arc::clone(self.ctx_q2());
        let chunks = uldp_runtime::fold_chunk_ranges(items.len(), DECRYPT_BATCH_CHUNK);
        let decrypted: Vec<Vec<BigUint>> = rt.par_map(&chunks, |_, range| {
            let pairs = |sq: &BigUint, exp: &BigUint| -> Vec<(BigUint, BigUint)> {
                range.clone().map(|i| (items[i].0.rem(sq), exp.clone())).collect()
            };
            let xs_p = ctx_p2.mod_pow_batch(&pairs(&self.p_squared, &self.exp_p));
            let xs_q = ctx_q2.mod_pow_batch(&pairs(&self.q_squared, &self.exp_q));
            xs_p.into_iter()
                .zip(xs_q)
                .map(|(x_p, x_q)| {
                    let diff = mod_sub(&x_q, &x_p.rem(&self.q_squared), &self.q_squared);
                    let h = mod_mul(&diff, &self.p2_inv_mod_q2, &self.q_squared);
                    let x = x_p.add(&self.p_squared.mul(&h));
                    mod_mul(&self.l_function(&x), &self.mu, &self.public.n)
                })
                .collect()
        });
        let out = decrypted.concat();
        debug_assert!(
            out.iter().zip(items).all(|(m, c)| *m == self.decrypt_generic(c)),
            "batched CRT decryption must match the direct λ/μ path"
        );
        out
    }

    /// Decrypts via the direct `c^λ mod n²` exponentiation with the schoolbook
    /// square-and-multiply (the seed implementation). Kept as the reference the CRT path
    /// is cross-checked against, and as the `ULDP_GENERIC_MODPOW=1` fallback.
    pub fn decrypt_generic(&self, c: &Ciphertext) -> BigUint {
        let pk = &self.public;
        let x = mod_pow(&c.0, &self.lambda, &pk.n_squared);
        let l = self.l_function(&x);
        mod_mul(&l, &self.mu, &pk.n)
    }

    /// `c^λ mod n²` by CRT over `p²` and `q²`.
    ///
    /// Valid ciphertexts are units mod `n²`, so the exponent reduces modulo the group
    /// orders `φ(p²)` / `φ(q²)` (precomputed at key generation); Garner recombination
    /// lifts the two residues to the unique representative mod `n² = p²·q²`.
    fn pow_lambda_crt(&self, c: &BigUint) -> BigUint {
        let x_p = self.ctx_p2().pow(&c.rem(&self.p_squared), &self.exp_p);
        let x_q = self.ctx_q2().pow(&c.rem(&self.q_squared), &self.exp_q);
        let diff = mod_sub(&x_q, &x_p.rem(&self.q_squared), &self.q_squared);
        let h = mod_mul(&diff, &self.p2_inv_mod_q2, &self.q_squared);
        x_p.add(&self.p_squared.mul(&h))
    }

    /// The shared Montgomery context for `p²`.
    fn ctx_p2(&self) -> &Arc<ModulusCtx> {
        self.ctx_p2.get_or_init(|| Arc::new(ModulusCtx::new(&self.p_squared)))
    }

    /// The shared Montgomery context for `q²`.
    fn ctx_q2(&self) -> &Arc<ModulusCtx> {
        self.ctx_q2.get_or_init(|| Arc::new(ModulusCtx::new(&self.q_squared)))
    }

    /// The prime factors `(p, q)` of the modulus (needed by callers implementing
    /// factorisation-based extensions; handle with the same care as the key itself).
    pub fn primes(&self) -> (&BigUint, &BigUint) {
        (&self.p, &self.q)
    }

    /// The matching public key.
    pub fn public_key(&self) -> &PaillierPublicKey {
        &self.public
    }

    /// `L(x) = (x − 1) / n` (exact division for valid ciphertexts).
    fn l_function(&self, x: &BigUint) -> BigUint {
        x.sub(&BigUint::one()).div(&self.public.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize, seed: u64) -> PaillierKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        PaillierKeyPair::generate(&mut rng, bits)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = keypair(256, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for v in [0u64, 1, 42, 1_000_000, u64::MAX] {
            let m = BigUint::from_u64(v);
            let c = kp.public.encrypt(&mut rng, &m);
            assert_eq!(kp.secret.decrypt(&c), m);
        }
    }

    #[test]
    fn decrypt_batch_matches_per_item_decrypt_at_any_pool_size() {
        let kp = keypair(256, 31);
        let mut rng = StdRng::seed_from_u64(32);
        // An odd batch length exercises the trailing partial chunk of the fixed grid.
        let cts: Vec<Ciphertext> =
            (0..7u64).map(|v| kp.public.encrypt(&mut rng, &BigUint::from_u64(v * v + 1))).collect();
        let expect: Vec<BigUint> = cts.iter().map(|c| kp.secret.decrypt(c)).collect();
        for threads in [1, 4] {
            let rt = Runtime::new(threads);
            assert_eq!(kp.secret.decrypt_batch(&rt, &cts), expect);
        }
        assert!(kp.secret.decrypt_batch(&Runtime::new(2), &[]).is_empty());
    }

    #[test]
    fn ciphertexts_are_randomised() {
        let kp = keypair(256, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let m = BigUint::from_u64(7);
        let c1 = kp.public.encrypt(&mut rng, &m);
        let c2 = kp.public.encrypt(&mut rng, &m);
        assert_ne!(c1, c2);
        assert_eq!(kp.secret.decrypt(&c1), kp.secret.decrypt(&c2));
    }

    #[test]
    fn homomorphic_addition() {
        let kp = keypair(256, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let a = BigUint::from_u64(123);
        let b = BigUint::from_u64(456);
        let ca = kp.public.encrypt(&mut rng, &a);
        let cb = kp.public.encrypt(&mut rng, &b);
        let sum = kp.public.add(&ca, &cb);
        assert_eq!(kp.secret.decrypt(&sum), BigUint::from_u64(579));
    }

    #[test]
    fn homomorphic_addition_wraps_mod_n() {
        let kp = keypair(128, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let n = kp.public.n.clone();
        let a = n.sub(&BigUint::one());
        let b = BigUint::from_u64(5);
        let ca = kp.public.encrypt(&mut rng, &a);
        let cb = kp.public.encrypt(&mut rng, &b);
        let sum = kp.public.add(&ca, &cb);
        assert_eq!(kp.secret.decrypt(&sum), BigUint::from_u64(4));
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let kp = keypair(256, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let m = BigUint::from_u64(321);
        let k = BigUint::from_u64(1000);
        let c = kp.public.encrypt(&mut rng, &m);
        let scaled = kp.public.scalar_mul(&c, &k);
        assert_eq!(kp.secret.decrypt(&scaled), BigUint::from_u64(321_000));
    }

    #[test]
    fn homomorphic_plaintext_addition() {
        let kp = keypair(256, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let m = BigUint::from_u64(10);
        let c = kp.public.encrypt(&mut rng, &m);
        let shifted = kp.public.add_plain(&c, &BigUint::from_u64(90));
        assert_eq!(kp.secret.decrypt(&shifted), BigUint::from_u64(100));
    }

    #[test]
    fn sum_of_many_ciphertexts() {
        let kp = keypair(256, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let values: Vec<u64> = (1..=20).collect();
        let ciphertexts: Vec<Ciphertext> =
            values.iter().map(|&v| kp.public.encrypt(&mut rng, &BigUint::from_u64(v))).collect();
        let total = kp.public.sum(ciphertexts.iter());
        assert_eq!(kp.secret.decrypt(&total), BigUint::from_u64(values.iter().sum()));
    }

    #[test]
    fn trivial_zero_decrypts_to_zero() {
        let kp = keypair(128, 15);
        assert_eq!(kp.secret.decrypt(&kp.public.trivial_zero()), BigUint::zero());
    }

    #[test]
    fn modulus_has_requested_size() {
        let kp = keypair(256, 16);
        assert!(kp.public.modulus_bits() >= 255);
    }

    #[test]
    fn encrypt_batch_is_bitwise_identical_across_thread_counts() {
        let kp = keypair(256, 17);
        let plaintexts: Vec<BigUint> = (0..12).map(BigUint::from_u64).collect();
        let seed: WideSeed = [5, 6, 7, 8];
        let seq = kp.public.encrypt_batch(&Runtime::new(1), seed, &plaintexts);
        let par = kp.public.encrypt_batch(&Runtime::new(4), seed, &plaintexts);
        assert_eq!(seq, par);
        for (c, m) in seq.iter().zip(plaintexts.iter()) {
            assert_eq!(&kp.secret.decrypt(c), m);
        }
        // a different seed (in any lane) produces different randomness
        let other = kp.public.encrypt_batch(&Runtime::new(1), [5, 6, 7, 9], &plaintexts);
        assert_ne!(seq, other);
    }

    #[test]
    fn scalar_mul_batch_matches_pointwise() {
        let kp = keypair(256, 18);
        let mut rng = StdRng::seed_from_u64(19);
        let ciphertexts: Vec<Ciphertext> =
            (1..=8u64).map(|v| kp.public.encrypt(&mut rng, &BigUint::from_u64(v))).collect();
        let pairs: Vec<(&Ciphertext, BigUint)> = ciphertexts
            .iter()
            .enumerate()
            .map(|(i, c)| (c, BigUint::from_u64(10 + i as u64)))
            .collect();
        let batch = kp.public.scalar_mul_batch(&Runtime::new(4), &pairs);
        for (i, (out, (c, k))) in batch.iter().zip(pairs.iter()).enumerate() {
            assert_eq!(out, &kp.public.scalar_mul(c, k), "pair {i}");
        }
    }

    #[test]
    fn crt_decrypt_matches_generic_decrypt() {
        let kp = keypair(256, 22);
        let mut rng = StdRng::seed_from_u64(23);
        for v in [0u64, 1, 42, u64::MAX] {
            let c = kp.public.encrypt(&mut rng, &BigUint::from_u64(v));
            assert_eq!(kp.secret.decrypt(&c), kp.secret.decrypt_generic(&c));
        }
        // including non-trivially random plaintexts near the modulus
        for _ in 0..5 {
            let m = BigUint::random_below(&mut rng, &kp.public.n);
            let c = kp.public.encrypt(&mut rng, &m);
            assert_eq!(kp.secret.decrypt(&c), m);
            assert_eq!(kp.secret.decrypt_generic(&c), m);
        }
    }

    #[test]
    fn montgomery_ciphertexts_match_schoolbook_path() {
        // The engine must be a pure drop-in: same randomness, same ciphertext bits as
        // computing (1 + m·n)·r^n mod n² with the schoolbook mod_pow.
        let kp = keypair(256, 24);
        let mut rng = StdRng::seed_from_u64(25);
        for v in [0u64, 7, 123_456_789] {
            let m = BigUint::from_u64(v).rem(&kp.public.n);
            let r = BigUint::random_below(&mut rng, &kp.public.n);
            if !uldp_bigint::gcd(&r, &kp.public.n).is_one() {
                continue;
            }
            let engine = kp.public.encrypt_with_randomness(&m, &r);
            let gm = BigUint::one().add(&m.mul(&kp.public.n)).rem(&kp.public.n_squared);
            let rn = mod_pow(&r, &kp.public.n, &kp.public.n_squared);
            let schoolbook = mod_mul(&gm, &rn, &kp.public.n_squared);
            assert_eq!(engine.0, schoolbook);
        }
    }

    #[test]
    fn scalar_mul_ctx_matches_scalar_mul() {
        let kp = keypair(256, 26);
        let mut rng = StdRng::seed_from_u64(27);
        let c = kp.public.encrypt(&mut rng, &BigUint::from_u64(9));
        // Both the fixed-base (many expected muls) and the sliding-window (few) variants
        // must agree with the one-shot scalar_mul — and with the schoolbook mod_pow.
        for expected in [1usize, FIXED_BASE_MIN_MULS] {
            let ctx = kp.public.scalar_mul_ctx(&c, expected);
            for k in [0u64, 1, 5, 1 << 40] {
                let k = BigUint::from_u64(k);
                let hoisted = ctx.pow(&k);
                assert_eq!(hoisted, kp.public.scalar_mul(&c, &k));
                assert_eq!(hoisted.0, mod_pow(&c.0, &k.rem(&kp.public.n), &kp.public.n_squared));
            }
        }
    }

    #[test]
    fn rerandomise_preserves_plaintext_and_matches_add_of_zero() {
        let kp = keypair(256, 30);
        let mut rng = StdRng::seed_from_u64(31);
        let m = BigUint::from_u64(12345);
        let c = kp.public.encrypt(&mut rng, &m);
        let fresh = kp.public.rerandomise(&mut rng, &c);
        assert_eq!(kp.secret.decrypt(&fresh), m);
        assert_ne!(fresh, c, "re-randomisation must refresh the ciphertext bits");
        // The documented equivalence: rerandomise(c; r) = add(c, Enc(0; r)), because
        // Enc(0; r) = (1 + 0·n)·r^n = r^n.
        let r = BigUint::from_u64(0xdead_beef).rem(&kp.public.n);
        assert!(uldp_bigint::gcd(&r, &kp.public.n).is_one());
        assert_eq!(
            kp.public.rerandomise_with_randomness(&c, &r),
            kp.public.add(&c, &kp.public.encrypt_with_randomness(&BigUint::zero(), &r)),
        );
    }

    #[test]
    fn rerandomise_batch_is_bitwise_identical_across_thread_counts() {
        let kp = keypair(256, 32);
        let mut rng = StdRng::seed_from_u64(33);
        let cts: Vec<Ciphertext> =
            (0..9u64).map(|v| kp.public.encrypt(&mut rng, &BigUint::from_u64(v))).collect();
        let seed: WideSeed = [9, 8, 7, 6];
        let seq = kp.public.rerandomise_batch(&Runtime::new(1), seed, &cts);
        let par = kp.public.rerandomise_batch(&Runtime::new(4), seed, &cts);
        assert_eq!(seq, par);
        for (i, (fresh, orig)) in seq.iter().zip(cts.iter()).enumerate() {
            assert_eq!(kp.secret.decrypt(fresh), BigUint::from_u64(i as u64));
            assert_ne!(fresh, orig, "index {i}");
        }
    }

    #[test]
    fn rerand_ctx_preserves_plaintext_and_pow_h_matches_mod_pow() {
        let kp = keypair(256, 34);
        let mut rng = StdRng::seed_from_u64(35);
        let ctx = kp.public.rerand_ctx(&mut rng);
        let m = BigUint::from_u64(777);
        let c1 = kp.public.encrypt(&mut rng, &m);
        let c2 = ctx.rerandomise(&mut rng, &c1);
        let c3 = ctx.rerandomise(&mut rng, &c2);
        for c in [&c2, &c3] {
            assert_eq!(kp.secret.decrypt(c), m);
            assert_ne!(c, &c1);
        }
        // pow_h is the schoolbook h^t (h = pow_h(1)), inside the table's |n|-bit range
        // and past it.
        let h = ctx.pow_h(&BigUint::one());
        let in_range = kp.public.n.sub(&BigUint::one());
        let past_range = kp.public.n.mul(&BigUint::from_u64(3));
        for t in [in_range, past_range] {
            assert_eq!(ctx.pow_h(&t), mod_pow(&h, &t, &kp.public.n_squared));
        }
        // Batch form: deterministic in the seed, identical across thread counts.
        let cts = vec![c1.clone(), c2.clone()];
        let seq = ctx.rerandomise_batch(&Runtime::new(1), [1, 2, 3, 4], &cts);
        let par = ctx.rerandomise_batch(&Runtime::new(4), [1, 2, 3, 4], &cts);
        assert_eq!(seq, par);
        for fresh in &seq {
            assert_eq!(kp.secret.decrypt(fresh), m);
        }
    }

    #[test]
    fn sum_par_matches_sequential_sum() {
        let kp = keypair(256, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let ciphertexts: Vec<Ciphertext> =
            (1..=13u64).map(|v| kp.public.encrypt(&mut rng, &BigUint::from_u64(v))).collect();
        let tree = kp.public.sum_par(&Runtime::new(4), &ciphertexts);
        assert_eq!(tree, kp.public.sum(ciphertexts.iter()));
        assert_eq!(kp.secret.decrypt(&tree), BigUint::from_u64((1..=13).sum()));
        // empty input is the additive identity
        assert_eq!(kp.public.sum_par(&Runtime::new(2), &[]), kp.public.trivial_zero());
    }

    #[test]
    fn sum_par_chunked_matches_sequential_sum_at_any_chunk_size() {
        let kp = keypair(256, 28);
        let mut rng = StdRng::seed_from_u64(29);
        let ciphertexts: Vec<Ciphertext> =
            (1..=17u64).map(|v| kp.public.encrypt(&mut rng, &BigUint::from_u64(v))).collect();
        let expected = kp.public.sum(ciphertexts.iter());
        for threads in [1usize, 4] {
            let rt = Runtime::new(threads);
            for chunk in [0usize, 1, 3, 16, usize::MAX] {
                assert_eq!(
                    kp.public.sum_par_chunked(&rt, &ciphertexts, chunk),
                    expected,
                    "threads={threads} chunk={chunk}"
                );
            }
        }
        // empty input is the additive identity
        assert_eq!(kp.public.sum_par_chunked(&Runtime::new(2), &[], 4), kp.public.trivial_zero());
    }
}
