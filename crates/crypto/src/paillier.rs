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
//! Decryption runs Paillier's own CRT form (EUROCRYPT 1999, §7):
//! `m_p = L_p(c^{p−1} mod p²)·h_p mod p` with `L_p(x) = (x − 1)/p` and
//! `h_p = L_p(g^{p−1} mod p²)^{-1} mod p`, the same for `q`, and `m` the unique value
//! mod `n` that is `m_p` mod `p` and `m_q` mod `q`. The exponents are half as long as
//! `λ`, and the plaintext is unique, so the result equals the `λ`/`μ` form bit for bit.
//!
//! Homomorphic operations: ciphertext addition is multiplication mod `n²`, and
//! multiplication by a plaintext scalar is modular exponentiation.
//!
//! ## Key-holder encryption
//!
//! The key holder encrypts by CRT too ([`PaillierSecretKey::encrypt`]). `a^p mod p²`
//! depends only on `a mod p`, and `r^q ≡ r^{q mod (p−1)} (mod p)` for a unit `r`, so
//!
//! `r^n mod p² = (r^{q mod (p−1)} mod p)^p mod p²`,
//!
//! and the same for `q`. The two halves recombine mod `n²` by Garner's formula with
//! `(p²)^{-1} mod q²`: one power mod `p` and one mod `p²` per prime, each with an
//! exponent of about `|n|/2` bits, in place of one `|n|`-bit power mod `n²`. For
//! `n = pq`, `gcd(r, n) = 1` iff `r mod p ≠ 0` and `r mod q ≠ 0`, so the key holder
//! draws `r` by the same rejection loop as [`PaillierPublicKey::encrypt`], tests it by
//! these two remainders, and returns the same ciphertext bit for bit from the same
//! RNG state.
//!
//! ## The Montgomery engine
//!
//! Every exponentiation here runs over a handful of fixed moduli (`n²` for public
//! encryption and scalar multiplication, `p`/`p²` and `q`/`q²` for the key holder's CRT
//! encryption and decryption), so both keys carry lazily-built, shared [`ModulusCtx`]
//! caches and route through the Montgomery engine of `uldp-bigint` by default; the
//! `(1 + m·n) mod n²` encryption step and the `L(x)` decryption step stay in normal
//! form at the boundaries. Results are bitwise-identical to the schoolbook
//! square-and-multiply [`mod_pow`]; the tests below compare every engine call site
//! against it.
//!
//! Keys are built on safe primes, and a party that re-randomises many ciphertexts under
//! one key can hold a [`FixedBaseEnc0`]: encryptions of zero on fixed bases, with a short
//! exponent over a comb table built once.

use rand::Rng;
use std::sync::{Arc, OnceLock};
use uldp_bigint::modular::{jacobi, mod_inv, mod_mul, mod_pow, mod_sub};
use uldp_bigint::montgomery::{FixedBaseTable, ModulusCtx};
use uldp_bigint::{lcm, prime, BigUint};
use uldp_runtime::Runtime;

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
    /// Cached `p²` / `q²`, the moduli of the two CRT halves.
    p_squared: BigUint,
    q_squared: BigUint,
    /// The CRT exponents `p − 1` / `q − 1`.
    p_minus_1: BigUint,
    q_minus_1: BigUint,
    /// `h_p = L_p(g^{p−1} mod p²)^{-1} mod p` / `h_q`, the same for `q`.
    h_p: BigUint,
    h_q: BigUint,
    /// `p^{-1} mod q` for the CRT recombination mod `n`.
    p_inv_mod_q: BigUint,
    /// The encryption exponents `q mod (p − 1)` / `p mod (q − 1)` of the CRT halves.
    q_mod_p_minus_1: BigUint,
    p_mod_q_minus_1: BigUint,
    /// `(p²)^{-1} mod q²` for the CRT recombination mod `n²`.
    p2_inv_mod_q2: BigUint,
    /// Lazily-built Montgomery contexts for `p` / `q` (encryption only).
    ctx_p: OnceLock<Arc<ModulusCtx>>,
    ctx_q: OnceLock<Arc<ModulusCtx>>,
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
    /// `p` and `q` are safe primes ([`prime::generate_safe_prime_pair`]): the squares mod
    /// `n` then form a cyclic group with no small subgroup, which the hiding of
    /// [`FixedBaseEnc0`] needs. The paper's default security parameter is a 3072-bit
    /// modulus; tests use much smaller sizes.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: usize) -> Self {
        assert!(modulus_bits >= 16, "modulus must be at least 16 bits");
        let half = modulus_bits / 2;
        loop {
            let (p, q) = prime::generate_safe_prime_pair(rng, half);
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
            // CRT precomputation (Paillier 1999, §7). With g = n + 1,
            // L_p(g^{p−1} mod p²) = (p − 1)·q ≡ −q mod p, a unit because p ≠ q are
            // primes, and so is L_q(g^{q−1} mod q²); p is a unit modulo q for the same
            // reason.
            let g = n.add(&BigUint::one());
            let p_squared = p.mul(&p);
            let q_squared = q.mul(&q);
            let h_p = mod_inv(&l_of(&mod_pow(&g, &p1, &p_squared), &p), &p).expect("h_p exists");
            let h_q = mod_inv(&l_of(&mod_pow(&g, &q1, &q_squared), &q), &q).expect("h_q exists");
            let p_inv_mod_q = mod_inv(&p, &q).expect("p is a unit modulo q");
            // Key-holder encryption: the reduced exponents of r^n mod p² and mod q², and
            // p² is a unit modulo q² as p is modulo q.
            let (q_mod_p_minus_1, p_mod_q_minus_1) = (q.rem(&p1), p.rem(&q1));
            let p2_inv_mod_q2 = mod_inv(&p_squared, &q_squared).expect("p² is a unit modulo q²");
            let public = PaillierPublicKey::new(n);
            let secret = PaillierSecretKey {
                lambda,
                mu,
                public: public.clone(),
                p,
                q,
                p_squared,
                q_squared,
                p_minus_1: p1,
                q_minus_1: q1,
                h_p,
                h_q,
                p_inv_mod_q,
                q_mod_p_minus_1,
                p_mod_q_minus_1,
                p2_inv_mod_q2,
                ctx_p: OnceLock::new(),
                ctx_q: OnceLock::new(),
                ctx_p2: OnceLock::new(),
                ctx_q2: OnceLock::new(),
            };
            return PaillierKeyPair { public, secret };
        }
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
        let rn = self.ctx_n2().pow(r, &self.n);
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
        let rn = self.ctx_n2().pow(r, &self.n);
        Ciphertext(mod_mul(&c.0, &rn, &self.n_squared))
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
        Ciphertext(self.ctx_n2().pow(&a.0, &k))
    }

    /// Samples a uniformly random unit modulo `n`.
    ///
    /// The gcd test alone rejects zero (`gcd(0, n) = n ≠ 1`), so no separate zero
    /// pre-check is needed.
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

/// Encryptions of zero on fixed bases, for a party that re-randomises many
/// ciphertexts under one key: `Enc(0) = (−1)^β · W^γ · H^α mod n²`, which is
/// `Enc(0; (−1)^β·w^γ·h^α mod n)` because `n` is odd. Drawn once per party:
///
/// * `H = h^n mod n²` with `h = x²` for a uniform unit `x`, raised to a fresh exponent
///   `α` of `⌈|n|/2⌉` bits (the short-exponent form of Damgård, Jurik and Nielsen, *A
///   generalization of Paillier's public-key system with applications to electronic
///   voting*, IJIS 2010). The power runs on a 64-entry comb table of `H` built once
///   ([`FixedBaseTable`]): about `|n|/12` squarings and as many multiplications,
///   against about `|n|` squarings for the `ρ^n` of [`PaillierPublicKey::rerandomise`].
/// * `W = w^n mod n²` for a unit `w` of Jacobi symbol `(w/n) = −1`, taken for a fresh
///   bit `γ`, and the sign for a fresh bit `β`: one multiplication at most.
///
/// ## Hiding
///
/// The key holder knows `p` and `q`, so from a ciphertext it can recover the whole
/// randomness mod `n` and read its Legendre symbols mod `p` and mod `q`. Keys from
/// [`PaillierKeyPair::generate`] are built on safe primes `p = 2p′ + 1`,
/// `q = 2q′ + 1`, so the units mod `n` split into those two signs and the squares,
/// a cyclic group of order `p′q′` with no small subgroup. Each part of `Enc(0)` covers
/// one piece:
///
/// * `−1` is a non-residue mod both primes (both are `3 mod 4`), and `w` mod exactly
///   one, so the uniform bits `β` and `γ` make both signs of the output randomness
///   uniform, whatever the signs of the input randomness.
/// * `h` generates the squares, except with negligible probability.
///
/// So the output randomness hides the input's if `h^α` with a `⌈|n|/2⌉`-bit `α` is
/// indistinguishable from a uniform square to a party that knows `p` and `q`: a
/// short-exponent discrete-logarithm assumption in the order-`p′` and order-`q′`
/// subgroups of the `|n|/2`-bit prime fields. The hiding is computational, not
/// statistical as with a uniform `ρ`, and it takes the key holder to have drawn safe
/// primes, which no other party can check.
#[derive(Clone, Debug)]
pub struct FixedBaseEnc0 {
    /// Length of `α` in bits, `⌈|n|/2⌉`.
    exponent_bits: usize,
    /// The comb table of `H = h^n mod n²`.
    table: FixedBaseTable,
    /// `W = w^n mod n²`.
    w: BigUint,
}

impl FixedBaseEnc0 {
    /// Draws `x` and `w` from `rng` and builds `H`'s comb table and `W`: two full-width
    /// powers and one table build.
    pub fn sample<R: Rng + ?Sized>(key: &PaillierPublicKey, rng: &mut R) -> Self {
        let x = key.sample_unit(rng);
        let w = loop {
            let w = key.sample_unit(rng);
            if jacobi(&w, &key.n) == -1 {
                break w;
            }
        };
        let ctx = key.ctx_n2();
        let exponent_bits = key.n.bit_length().div_ceil(2);
        let h = mod_mul(&x, &x, &key.n);
        let table = ctx.fixed_base_table(&ctx.pow(&h, &key.n), exponent_bits);
        FixedBaseEnc0 { exponent_bits, table, w: ctx.pow(&w, &key.n) }
    }

    /// Re-randomises `c` under `key` (the key this was drawn for) by a fresh
    /// `(−1)^β · W^γ · H^α`: `Dec(rerandomise(c)) = Dec(c)`.
    pub fn rerandomise<R: Rng + ?Sized>(
        &self,
        key: &PaillierPublicKey,
        rng: &mut R,
        c: &Ciphertext,
    ) -> Ciphertext {
        let alpha = BigUint::random_below(rng, &BigUint::one().shl_bits(self.exponent_bits));
        let signs = rng.gen_range(0..4u8);
        self.rerandomise_with(key, c, &alpha, signs & 1 == 1, signs & 2 == 2)
    }

    /// `c · (−1)^β · W^γ · H^α` for explicit `α` (at most `⌈|n|/2⌉` bits), `β` and `γ`.
    fn rerandomise_with(
        &self,
        key: &PaillierPublicKey,
        c: &Ciphertext,
        alpha: &BigUint,
        beta: bool,
        gamma: bool,
    ) -> Ciphertext {
        uldp_telemetry::metrics::PAILLIER_RERANDOMISE.inc();
        let n2 = &key.n_squared;
        let mut out = mod_mul(&c.0, &key.ctx_n2().pow_fixed_base(&self.table, alpha), n2);
        if gamma {
            out = mod_mul(&out, &self.w, n2);
        }
        if beta {
            out = n2.sub(&out);
        }
        Ciphertext(out)
    }
}

impl PaillierSecretKey {
    /// Encrypts a plaintext `m ∈ F_n` with fresh randomness, by CRT (see "Key-holder
    /// encryption" in the module doc).
    ///
    /// Returns exactly the ciphertext [`PaillierPublicKey::encrypt`] returns from the
    /// same RNG state and leaves the RNG in the same state: the same `r`, tested for a
    /// unit by its remainders mod `p` and `q` instead of a gcd. `r^n mod n²` takes four
    /// half-width powers over the `p`, `p²`, `q` and `q²` contexts (debug builds
    /// cross-check every call against the schoolbook `(1 + m·n)·r^n mod n²`).
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, m: &BigUint) -> Ciphertext {
        uldp_telemetry::metrics::PAILLIER_ENCRYPT.inc();
        let pk = &self.public;
        let m = m.rem(&pk.n);
        let (r, (r_p, r_q)) = loop {
            let r = BigUint::random_below(rng, &pk.n);
            if let Some(residues) = self.unit_residues(&r) {
                break (r, residues);
            }
        };
        let (p2, q2) = (&self.p_squared, &self.q_squared);
        let x_p = self.ctx_p2().pow(&self.ctx_p().pow(&r_p, &self.q_mod_p_minus_1), &self.p);
        let x_q = self.ctx_q2().pow(&self.ctx_q().pow(&r_q, &self.p_mod_q_minus_1), &self.q);
        let diff = mod_sub(&x_q, &x_p.rem(q2), q2);
        let rn = x_p.add(&p2.mul(&mod_mul(&diff, &self.p2_inv_mod_q2, q2)));
        let gm = BigUint::one().add(&m.mul(&pk.n)).rem(&pk.n_squared);
        let c = mod_mul(&gm, &rn, &pk.n_squared);
        debug_assert!(uldp_bigint::gcd(&r, &pk.n).is_one(), "r must be a unit mod n");
        debug_assert_eq!(
            c,
            mod_mul(&gm, &mod_pow(&r, &pk.n, &pk.n_squared), &pk.n_squared),
            "CRT encryption must match the public (1 + m·n)·r^n path"
        );
        Ciphertext(c)
    }

    /// `(r mod p, r mod q)` if `r` is a unit mod `n`, i.e. neither remainder is zero:
    /// for `n = pq` the same test as `gcd(r, n) = 1`.
    fn unit_residues(&self, r: &BigUint) -> Option<(BigUint, BigUint)> {
        let (r_p, r_q) = (r.rem(&self.p), r.rem(&self.q));
        (!r_p.is_zero() && !r_q.is_zero()).then_some((r_p, r_q))
    }

    /// Decrypts a ciphertext back to `F_n`.
    ///
    /// Runs Paillier's CRT decryption (see the module doc): two half-width
    /// exponentiations `c^{p−1} mod p²` and `c^{q−1} mod q²` over their own cached
    /// Montgomery contexts, each with an exponent of half the bits of `λ`, then one
    /// recombination mod `n`. The plaintext is unique, so the result is identical, bit
    /// for bit, to the `λ`/`μ` form (debug builds cross-check against
    /// [`PaillierSecretKey::decrypt_generic`] on every call).
    pub fn decrypt(&self, c: &Ciphertext) -> BigUint {
        uldp_telemetry::metrics::PAILLIER_DECRYPT.inc();
        let m = self.decrypt_crt(&c.0);
        debug_assert_eq!(
            m,
            self.decrypt_generic(c),
            "CRT decryption must match the direct λ/μ path"
        );
        m
    }

    /// Decrypts a batch of ciphertexts on the worker pool, one task per ciphertext,
    /// bitwise-identical to per-item [`PaillierSecretKey::decrypt`] at any thread count.
    ///
    /// Every task runs its half-width exponentiations ([`ModulusCtx::pow`]) over the
    /// key's cached `p²`/`q²` contexts, so a multi-round caller never re-derives
    /// per-round state. CRT decryption is exact, so the pool size changes neither the
    /// plaintexts nor the operation counts.
    pub fn decrypt_batch(&self, rt: &Runtime, items: &[Ciphertext]) -> Vec<BigUint> {
        uldp_telemetry::metrics::PAILLIER_DECRYPT.add(items.len() as u64);
        let out = rt.par_map(items, |_, c| self.decrypt_crt(&c.0));
        debug_assert!(
            out.iter().zip(items).all(|(m, c)| *m == self.decrypt_generic(c)),
            "batched CRT decryption must match the direct λ/μ path"
        );
        out
    }

    /// Decrypts via the direct `c^λ mod n²` exponentiation with the schoolbook
    /// square-and-multiply: the reference the CRT path is cross-checked against.
    pub fn decrypt_generic(&self, c: &Ciphertext) -> BigUint {
        let pk = &self.public;
        let x = mod_pow(&c.0, &self.lambda, &pk.n_squared);
        mod_mul(&l_of(&x, &pk.n), &self.mu, &pk.n)
    }

    /// Paillier's CRT decryption of `c` over the `p²` / `q²` contexts:
    /// `m_p = L_p(c^{p−1} mod p²)·h_p mod p`, `m_q` likewise, and Garner's
    /// recombination `m = m_p + p·((m_q − m_p)·p^{-1} mod q)`, the unique value mod `n`.
    fn decrypt_crt(&self, c: &BigUint) -> BigUint {
        let (p, q) = (&self.p, &self.q);
        let x_p = self.ctx_p2().pow(&c.rem(&self.p_squared), &self.p_minus_1);
        let x_q = self.ctx_q2().pow(&c.rem(&self.q_squared), &self.q_minus_1);
        let m_p = mod_mul(&l_of(&x_p, p), &self.h_p, p);
        let m_q = mod_mul(&l_of(&x_q, q), &self.h_q, q);
        let diff = mod_sub(&m_q, &m_p.rem(q), q);
        m_p.add(&p.mul(&mod_mul(&diff, &self.p_inv_mod_q, q)))
    }

    /// The shared Montgomery context for `p`.
    fn ctx_p(&self) -> &Arc<ModulusCtx> {
        self.ctx_p.get_or_init(|| Arc::new(ModulusCtx::new(&self.p)))
    }

    /// The shared Montgomery context for `q`.
    fn ctx_q(&self) -> &Arc<ModulusCtx> {
        self.ctx_q.get_or_init(|| Arc::new(ModulusCtx::new(&self.q)))
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
}

/// Paillier's `L_d(x) = (x − 1) / d`, exact for the `x ≡ 1 mod d` it is applied to.
fn l_of(x: &BigUint, d: &BigUint) -> BigUint {
    x.sub(&BigUint::one()).div(d)
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

    /// The encryption of zero with randomness one: the additive identity.
    fn trivial_zero() -> Ciphertext {
        Ciphertext(BigUint::one())
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
        let cts: Vec<Ciphertext> =
            (0..7u64).map(|v| kp.public.encrypt(&mut rng, &BigUint::from_u64(v * v + 1))).collect();
        let expect: Vec<BigUint> = cts.iter().map(|c| kp.secret.decrypt_generic(c)).collect();
        assert_eq!(cts.iter().map(|c| kp.secret.decrypt(c)).collect::<Vec<_>>(), expect);
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
        let total = ciphertexts.iter().fold(trivial_zero(), |acc, c| kp.public.add(&acc, c));
        assert_eq!(kp.secret.decrypt(&total), BigUint::from_u64(values.iter().sum()));
    }

    #[test]
    fn trivial_zero_decrypts_to_zero() {
        let kp = keypair(128, 15);
        assert_eq!(kp.secret.decrypt(&trivial_zero()), BigUint::zero());
    }

    #[test]
    fn modulus_has_requested_size() {
        let kp = keypair(256, 16);
        assert!(kp.public.modulus_bits() >= 255);
    }

    #[test]
    fn crt_decrypt_matches_generic_decrypt() {
        let kp = keypair(256, 22);
        let mut rng = StdRng::seed_from_u64(23);
        for v in [0u64, 1, 42, u64::MAX] {
            let c = kp.public.encrypt(&mut rng, &BigUint::from_u64(v));
            assert_eq!(kp.secret.decrypt(&c), kp.secret.decrypt_generic(&c));
        }
        // the plaintexts whose CRT residues are 0 or maximal: p, q, n − 1
        let (p, q) = kp.secret.primes();
        for m in [p.clone(), q.clone(), kp.public.n.sub(&BigUint::one())] {
            let c = kp.public.encrypt(&mut rng, &m);
            assert_eq!(kp.secret.decrypt(&c), m);
            assert_eq!(kp.secret.decrypt_generic(&c), m);
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

    /// Encrypts `0, 1, n − 1, n + 5` and a random plaintext with the secret and the
    /// public key from clones of one RNG: the same ciphertexts, and the RNGs give the
    /// same next draw afterwards.
    fn assert_key_holder_encryption_matches_public(kp: &PaillierKeyPair, rng: &mut StdRng) {
        let n = &kp.public.n;
        let random = BigUint::random_below(rng, n);
        let plaintexts =
            [BigUint::zero(), BigUint::one(), n.sub(&BigUint::one()), n.add(&BigUint::from_u64(5))];
        for m in plaintexts.into_iter().chain([random]) {
            let mut public_rng = rng.clone();
            let by_secret = kp.secret.encrypt(rng, &m);
            let by_public = kp.public.encrypt(&mut public_rng, &m);
            let what = format!("{}-bit n, m = {}", n.bit_length(), m.to_decimal());
            assert_eq!(by_secret, by_public, "{what}");
            assert_eq!(rng.gen::<u64>(), public_rng.gen::<u64>(), "{what}: RNG state");
            assert_eq!(kp.secret.decrypt(&by_secret), m.rem(n), "{what}");
        }
    }

    #[test]
    fn key_holder_encryption_matches_public_encryption_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(50);
        for (bits, seed) in [(32, 51), (64, 52), (128, 53), (256, 54), (512, 55)] {
            assert_key_holder_encryption_matches_public(&keypair(bits, seed), &mut rng);
        }
    }

    #[test]
    fn key_holder_encryption_rejects_the_same_draws_as_public_encryption() {
        // At a 16-bit key, p and q have 8 bits: one draw in 64 to 128 is a multiple of
        // one of them, so the rejection loop runs. Both paths skip exactly those draws.
        let kp = keypair(16, 56);
        let n = &kp.public.n;
        let mut rng = StdRng::seed_from_u64(57);
        let mut rejected = 0;
        for v in 0..400u64 {
            let first = BigUint::random_below(&mut rng.clone(), n);
            rejected += usize::from(!uldp_bigint::gcd(&first, n).is_one());
            let mut public_rng = rng.clone();
            let m = BigUint::from_u64(v);
            assert_eq!(kp.secret.encrypt(&mut rng, &m), kp.public.encrypt(&mut public_rng, &m));
            assert_eq!(rng.gen::<u64>(), public_rng.gen::<u64>());
        }
        assert!(rejected > 0, "some first draw must be rejected");
    }

    #[test]
    fn unit_check_by_factors_agrees_with_gcd() {
        let kp = keypair(128, 58);
        let mut rng = StdRng::seed_from_u64(59);
        let n = &kp.public.n;
        let (p, q) = kp.secret.primes();
        let mut candidates = vec![
            BigUint::zero(),
            BigUint::one(),
            p.clone(),
            q.clone(),
            p.add(p),
            n.sub(q),
            n.sub(&BigUint::one()),
        ];
        candidates.extend((0..8).map(|_| BigUint::random_below(&mut rng, n)));
        for r in &candidates {
            let expected = uldp_bigint::gcd(r, n).is_one();
            let residues = kp.secret.unit_residues(r);
            assert_eq!(residues.is_some(), expected, "r = {}", r.to_decimal());
            if let Some(residues) = residues {
                assert_eq!(residues, (r.rem(p), r.rem(q)));
            }
        }
    }

    /// The exact-width Montgomery kernels of `p`/`p²` at 8/16 and 16/32 limbs run only
    /// at these key sizes, which take too long to generate in a debug build:
    /// `cargo test --release -p uldp-crypto -- --include-ignored`.
    #[test]
    #[ignore = "1024- and 2048-bit key generation is too slow in debug builds"]
    fn key_holder_encryption_matches_public_encryption_at_large_keys() {
        let mut rng = StdRng::seed_from_u64(60);
        for (bits, seed) in [(1024, 61), (2048, 62)] {
            assert_key_holder_encryption_matches_public(&keypair(bits, seed), &mut rng);
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
        // ... and the engine's r^n is the schoolbook one.
        let n2 = &kp.public.n_squared;
        assert_eq!(
            kp.public.rerandomise_with_randomness(&c, &r).0,
            mod_mul(&c.0, &mod_pow(&r, &kp.public.n, n2), n2),
        );
    }

    /// The randomness `r` of `c = (1 + m·n)·r^n mod n²`, recovered with the factors:
    /// `c ≡ r^n (mod n)`, and `n` is invertible mod `φ(n)`.
    fn randomness(kp: &PaillierKeyPair, c: &Ciphertext) -> BigUint {
        let (p, q) = kp.secret.primes();
        let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
        let n = &kp.public.n;
        mod_pow(&c.0.rem(n), &mod_inv(n, &phi).expect("gcd(n, φ(n)) = 1"), n)
    }

    /// The Legendre symbols of `r` mod `p` and mod `q`, by Euler's criterion: whether
    /// `r^((p−1)/2) ≡ 1`.
    fn residue_signs(kp: &PaillierKeyPair, r: &BigUint) -> (bool, bool) {
        let (p, q) = kp.secret.primes();
        let euler = |m: &BigUint| mod_pow(r, &m.shr_bits(1), m).is_one();
        (euler(p), euler(q))
    }

    #[test]
    fn keys_are_built_on_safe_primes() {
        let kp = keypair(256, 43);
        let mut rng = StdRng::seed_from_u64(44);
        for p in [kp.secret.primes().0, kp.secret.primes().1] {
            let half = p.shr_bits(1);
            assert!(prime::is_probably_prime(&mut rng, &half, 20), "(p − 1)/2 is prime");
        }
    }

    #[test]
    fn fixed_base_enc0_is_an_encryption_of_zero_with_randomness_on_its_bases() {
        let kp = keypair(256, 40);
        let mut rng = StdRng::seed_from_u64(41);
        let pk = &kp.public;
        let (n, n2) = (&pk.n, &pk.n_squared);
        let enc0 = FixedBaseEnc0::sample(pk, &mut StdRng::seed_from_u64(45));
        // The bases sample draws from the same stream.
        let mut bases = StdRng::seed_from_u64(45);
        let x = pk.sample_unit(&mut bases);
        let w = loop {
            let w = pk.sample_unit(&mut bases);
            if jacobi(&w, n) == -1 {
                break w;
            }
        };
        let h = mod_mul(&x, &x, n);
        let m = BigUint::from_u64(777);
        let c = pk.encrypt(&mut rng, &m);
        let top = BigUint::one().shl_bits(n.bit_length().div_ceil(2)).sub(&BigUint::one());
        for alpha in [BigUint::zero(), BigUint::one(), top, BigUint::from_u64(0xdead_beef)] {
            for (beta, gamma) in [(false, false), (true, false), (false, true), (true, true)] {
                let fresh = enc0.rerandomise_with(pk, &c, &alpha, beta, gamma);
                // c·Enc(0; (−1)^β·w^γ·h^α mod n), with the schoolbook mod_pow.
                let mut unit = mod_pow(&h, &alpha, n);
                if gamma {
                    unit = mod_mul(&unit, &w, n);
                }
                if beta {
                    unit = n.sub(&unit);
                }
                let expected = mod_mul(&c.0, &mod_pow(&unit, n, n2), n2);
                assert_eq!(fresh.0, expected, "α={alpha:?} β={beta} γ={gamma}");
                assert_eq!(kp.secret.decrypt(&fresh), m);
            }
        }
        let a = enc0.rerandomise(pk, &mut rng, &c);
        let b = enc0.rerandomise(pk, &mut rng, &c);
        assert!(a != b && a != c, "every call draws fresh exponents");
        assert_eq!((kp.secret.decrypt(&a), kp.secret.decrypt(&b)), (m.clone(), m));
    }

    #[test]
    fn fixed_base_enc0_output_signs_do_not_follow_the_input_signs() {
        // The key holder can read the Legendre symbols mod p and q of any ciphertext's
        // randomness. For inputs of each of the four sign pairs, the re-randomised
        // outputs take all four, so the output signs carry nothing of the input's.
        let kp = keypair(256, 46);
        let mut rng = StdRng::seed_from_u64(47);
        let pk = &kp.public;
        let enc0 = FixedBaseEnc0::sample(pk, &mut rng);
        let mut inputs: Vec<Option<BigUint>> = vec![None; 4];
        while inputs.iter().any(Option::is_none) {
            let r = pk.sample_unit(&mut rng);
            let (sp, sq) = residue_signs(&kp, &r);
            inputs[usize::from(sp) << 1 | usize::from(sq)].get_or_insert(r);
        }
        for (class, r) in inputs.iter().enumerate() {
            let c = pk.encrypt_with_randomness(&BigUint::from_u64(5), r.as_ref().unwrap());
            assert_eq!(randomness(&kp, &c), *r.as_ref().unwrap(), "the recovery is exact");
            let mut seen = [0usize; 4];
            for _ in 0..48 {
                let sent = enc0.rerandomise(pk, &mut rng, &c);
                let (sp, sq) = residue_signs(&kp, &randomness(&kp, &sent));
                seen[usize::from(sp) << 1 | usize::from(sq)] += 1;
            }
            assert!(seen.iter().all(|&k| k > 0), "input signs {class:02b}: outputs {seen:?}");
        }
    }
}
