//! Montgomery-form modular arithmetic: the batched-exponentiation engine.
//!
//! [`crate::modular::mod_pow`] pays a full `div_rem`-based reduction on every multiply.
//! The Paillier hot path of Protocol 1, however, performs thousands of independent
//! exponentiations over the *same* modulus (`n²` for `encrypt`/`scalar_mul`, `p²`/`q²`
//! for CRT decryption), and step 2.(b) raises the same per-user bases in every cell.
//! This module amortises both:
//!
//! * [`ModulusCtx`] — per-modulus precomputation (the word inverse `n' = -n⁻¹ mod 2⁶⁴`
//!   and `R² mod n` with `R = 2⁶⁴ˢ`), enabling CIOS Montgomery multiplication in which
//!   every reduction is a word-by-word interleaved pass instead of a long division.
//!   On top of it sits one sliding-window ladder over odd-power [`WindowTable`]s: a
//!   single exponentiation ([`ModulusCtx::pow`]) runs it with one freshly built table,
//!   a product of many powers ([`ModulusCtx::multi_exp_tables`]) runs it once over
//!   tables built once per base and shared by every product that base enters
//!   ([`ModulusCtx::multi_exp`] builds them per call). [`ModulusCtx::batch_inv`] gives
//!   many inverses at the cost of one.
//!
//! All methods take `&self`, so one context can be shared freely across the worker pool
//! (`uldp-runtime`): the contexts are immutable after construction.
//!
//! Montgomery form is a bijection of `Z_n`, so every result is bitwise-identical to the
//! schoolbook [`crate::modular::mod_pow`] path; the property tests in
//! `crates/bigint/tests/montgomery_props.rs` assert this up to 2048-bit moduli, and the
//! call sites in `uldp-crypto` keep their own tests against `mod_pow`.

use crate::biguint::{BigUint, LIMB_BITS};
use std::borrow::Borrow;

/// An element of `Z_n` in Montgomery form (`a·R mod n`, fixed width of `n`'s limb count).
///
/// Only meaningful together with the [`ModulusCtx`] that produced it; equality in
/// Montgomery form is equivalent to equality in normal form because the mapping is a
/// bijection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontElem {
    limbs: Vec<u64>,
}

/// Cached per-modulus state for Montgomery arithmetic over an odd modulus `n > 1`.
pub struct ModulusCtx {
    /// The modulus in canonical [`BigUint`] form.
    n: BigUint,
    /// The modulus as a fixed-width limb slice (width `s`, top limb non-zero).
    n_limbs: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴` (the CIOS word inverse, via Newton iteration).
    n0_inv: u64,
    /// `R mod n` where `R = 2^(64·s)` — the Montgomery form of `1`.
    r1: Vec<u64>,
    /// `R² mod n` — multiplier converting into Montgomery form.
    r2: Vec<u64>,
}

impl std::fmt::Debug for ModulusCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModulusCtx").field("modulus_bits", &self.n.bit_length()).finish()
    }
}

/// The odd powers `b, b³, …, b^(2^w − 1)` of one base `b` in Montgomery form, stored
/// back to back: the per-base table of the shared sliding-window ladder
/// ([`ModulusCtx::window_table`], [`ModulusCtx::multi_exp_tables`]).
///
/// `2^(w−1)` entries of `|n|` bits each. Only meaningful together with the
/// [`ModulusCtx`] that built it.
#[derive(Clone, Debug)]
pub struct WindowTable {
    /// Window width `w` in bits.
    window: usize,
    /// Entry `k` (`b^(2k+1)`) occupies limbs `k·s .. (k+1)·s`.
    limbs: Vec<u64>,
}

/// Below this many limbs [`ModulusCtx::mont_sqr`] uses the generic CIOS product of a
/// value with itself: the dedicated squaring's separated passes only pay off once the
/// halved cross-product count outweighs their fixed overhead (measured crossover
/// between 512- and 1024-bit moduli; Paillier ciphertext moduli are 1–6 kbit).
const SQR_MIN_LIMBS: usize = 12;

/// From this many limbs (2048-bit moduli) upward [`ModulusCtx::mont_mul_limbs`]
/// abandons the interleaved CIOS pass for a separated product + reduction: the full
/// `2s`-word product comes from [`BigUint::mul`], whose Karatsuba tier kicks in at the
/// same width and saves word multiplications sub-quadratically, and the reduction then
/// folds `m_i·n` word by word exactly as in the dedicated squaring. Matches
/// `KARATSUBA_THRESHOLD` in `biguint.rs` — below it the separated form would run the
/// same schoolbook product as CIOS but with an extra pass over the buffer.
const KARATSUBA_MONT_MIN_LIMBS: usize = 32;

/// `x⁻¹ mod 2⁶⁴` for odd `x` (Newton–Hensel lifting: 6 doublings from the trivial
/// inverse mod 2).
fn inv_mod_word(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = 1u64;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

impl ModulusCtx {
    /// Builds a context for an odd modulus `n > 1`; returns `None` otherwise (Montgomery
    /// reduction requires `gcd(n, 2⁶⁴) = 1`, and `Z_1` is the trivial ring).
    pub fn try_new(n: &BigUint) -> Option<ModulusCtx> {
        if n.is_even() || n.is_one() || n.is_zero() {
            return None;
        }
        let n_limbs = n.limbs().to_vec();
        let s = n_limbs.len();
        let n0_inv = inv_mod_word(n_limbs[0]).wrapping_neg();
        let r1 = to_fixed_width(&BigUint::one().shl_bits(s * LIMB_BITS).rem(n), s);
        let r2 = to_fixed_width(&BigUint::one().shl_bits(2 * s * LIMB_BITS).rem(n), s);
        Some(ModulusCtx { n: n.clone(), n_limbs, n0_inv, r1, r2 })
    }

    /// Builds a context for an odd modulus `n > 1`; panics otherwise.
    pub fn new(n: &BigUint) -> ModulusCtx {
        Self::try_new(n).expect("ModulusCtx requires an odd modulus greater than 1")
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Converts a value into Montgomery form (reducing it modulo `n` first if needed).
    pub fn to_mont(&self, a: &BigUint) -> MontElem {
        let reduced = if a < &self.n { a.clone() } else { a.rem(&self.n) };
        let limbs = to_fixed_width(&reduced, self.n_limbs.len());
        MontElem { limbs: self.mont_mul_limbs(&limbs, &self.r2) }
    }

    /// Converts a Montgomery-form value back to a canonical [`BigUint`].
    pub fn from_mont(&self, a: &MontElem) -> BigUint {
        let mut one = vec![0u64; self.n_limbs.len()];
        one[0] = 1;
        BigUint::from_limbs(self.mont_mul_limbs(&a.limbs, &one))
    }

    /// The Montgomery form of `1` (`R mod n`).
    pub fn one(&self) -> MontElem {
        MontElem { limbs: self.r1.clone() }
    }

    /// Montgomery product `a·b·R⁻¹ mod n`.
    pub fn mont_mul(&self, a: &MontElem, b: &MontElem) -> MontElem {
        MontElem { limbs: self.mul_limbs(&a.limbs, &b.limbs) }
    }

    /// [`ModulusCtx::mont_mul`] on limb slices, counted the same way.
    fn mul_limbs(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        uldp_telemetry::metrics::MONT_MUL.inc();
        self.mont_mul_limbs(a, b)
    }

    /// Montgomery square `a·a·R⁻¹ mod n`, bitwise-identical to
    /// `mont_mul(a, a)` but ~1.5× cheaper: the squaring ladder of
    /// [`ModulusCtx::pow_mont`] is dominated by this operation.
    pub fn mont_sqr(&self, a: &MontElem) -> MontElem {
        uldp_telemetry::metrics::MONT_SQR.inc();
        MontElem { limbs: self.mont_sqr_limbs(&a.limbs) }
    }

    /// `a² mod n` in normal form — the hoisted convenience over
    /// [`ModulusCtx::mont_sqr`], bitwise-identical to `mod_mul(a, a, n)`.
    pub fn sqr(&self, a: &BigUint) -> BigUint {
        self.from_mont(&self.mont_sqr(&self.to_mont(a)))
    }

    /// `a·b mod n` in normal form through the Montgomery domain — bitwise-identical to
    /// [`crate::modular::mod_mul`]`(a, b, n)`, but reusing this context's cached state
    /// (and its Karatsuba product tier at wide moduli).
    pub fn mod_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.from_mont(&self.mont_mul(&self.to_mont(a), &self.to_mont(b)))
    }

    /// Dedicated Montgomery squaring: the product phase computes each cross term
    /// `a_i·a_j` (`i < j`) once and doubles the whole partial product — about half the
    /// word multiplications of the generic CIOS pass — then a separated Montgomery
    /// reduction folds in `m_i·n` word by word. Integer arithmetic is exact, so the
    /// result limbs are identical to [`ModulusCtx::mont_mul_limbs`]`(a, a)`.
    fn mont_sqr_limbs(&self, a: &[u64]) -> Vec<u64> {
        let s = self.n_limbs.len();
        debug_assert_eq!(a.len(), s);
        if s < SQR_MIN_LIMBS {
            // Below ~¾ kbit the dedicated routine's extra passes cost more than the
            // halved multiplications save; the interleaved CIOS product wins there.
            return self.mont_mul_limbs(a, a);
        }
        let n = &self.n_limbs;
        // 1) Cross products: t = Σ_{i<j} a_i·a_j · 2^(64(i+j)), iterator-zipped so the
        //    inner loop carries no bounds checks. Row i writes positions
        //    2i+1 ..= i+s-1 and its carry to i+s; earlier rows never touched i+s, so
        //    the carry store cannot clobber anything.
        let mut t = vec![0u64; 2 * s + 1];
        for i in 0..s {
            let ai = a[i] as u128;
            let mut carry = 0u128;
            for (tj, &aj) in t[2 * i + 1..i + s].iter_mut().zip(a[i + 1..].iter()) {
                let cur = *tj as u128 + ai * aj as u128 + carry;
                *tj = cur as u64;
                carry = cur >> 64;
            }
            t[i + s] = carry as u64;
        }
        // 2) One fused pass doubles the cross-term sum and adds the diagonal squares
        //    a_i² at position 2i. 2·Σ_{i<j} a_i·a_j + Σ a_i² = a² < n² < 2^(128s), so
        //    nothing carries out of word 2s − 1.
        let mut shift_carry = 0u64;
        let mut add_carry = 0u128;
        for i in 0..s {
            let sq = a[i] as u128 * a[i] as u128;
            let w = t[2 * i];
            let lo = ((w << 1) | shift_carry) as u128 + (sq as u64 as u128) + add_carry;
            shift_carry = w >> 63;
            t[2 * i] = lo as u64;
            let w = t[2 * i + 1];
            let hi = ((w << 1) | shift_carry) as u128 + (sq >> 64) + (lo >> 64);
            shift_carry = w >> 63;
            t[2 * i + 1] = hi as u64;
            add_carry = hi >> 64;
        }
        debug_assert_eq!(shift_carry as u128 + add_carry, 0);
        // 3) Separated Montgomery reduction: fold m_i·n into t at word offset i so the
        //    low s words cancel. The running total stays below a² + R·n < 2^(64(2s+1)),
        //    so the carry chain never leaves the buffer.
        for i in 0..s {
            let m = t[i].wrapping_mul(self.n0_inv) as u128;
            let mut carry = 0u128;
            for (tj, &nj) in t[i..i + s].iter_mut().zip(n.iter()) {
                let cur = *tj as u128 + m * nj as u128 + carry;
                *tj = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + s;
            while carry != 0 {
                debug_assert!(k <= 2 * s);
                let cur = t[k] as u128 + carry;
                t[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        // 5) Shift down s words: result = t[s..=2s] < 2n (a² < n·R for a < n), so one
        //    conditional subtraction canonicalises it, exactly like the CIOS pass.
        let needs_sub = t[2 * s] != 0 || cmp_fixed(&t[s..2 * s], n) != std::cmp::Ordering::Less;
        if needs_sub {
            let mut borrow = 0i128;
            for j in 0..s {
                let mut diff = t[s + j] as i128 - n[j] as i128 - borrow;
                if diff < 0 {
                    diff += 1i128 << 64;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                t[s + j] = diff as u64;
            }
            debug_assert_eq!(t[2 * s] as i128 - borrow, 0);
        }
        t.drain(..s);
        t.truncate(s);
        t
    }

    /// CIOS (coarsely integrated operand scanning) Montgomery multiplication.
    ///
    /// Inputs are fixed-width (`s` limbs) values `< n`; the output is the fixed-width
    /// `a·b·R⁻¹ mod n`. One interleaved pass multiplies and reduces word by word: after
    /// adding `a_i·b`, the low word is cancelled by adding `m·n` with
    /// `m = t_0·n' mod 2⁶⁴`, and the accumulator shifts down one word. The accumulator
    /// stays below `2n`, so a single conditional subtraction canonicalises the result.
    fn mont_mul_limbs(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let s = self.n_limbs.len();
        debug_assert_eq!(a.len(), s);
        debug_assert_eq!(b.len(), s);
        if s >= KARATSUBA_MONT_MIN_LIMBS {
            return self.mont_mul_limbs_karatsuba(a, b);
        }
        let n = &self.n_limbs;
        let mut t = vec![0u64; s + 2];
        for &ai in a.iter() {
            let ai = ai as u128;
            // t += a_i · b
            let mut carry = 0u128;
            for j in 0..s {
                let cur = t[j] as u128 + ai * b[j] as u128 + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[s] as u128 + carry;
            t[s] = cur as u64;
            t[s + 1] = (cur >> 64) as u64;
            // t += m · n with m chosen so t ≡ 0 mod 2⁶⁴, then shift one word down.
            let m = t[0].wrapping_mul(self.n0_inv) as u128;
            let cur = t[0] as u128 + m * n[0] as u128;
            let mut carry = cur >> 64;
            for j in 1..s {
                let cur = t[j] as u128 + m * n[j] as u128 + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[s] as u128 + carry;
            t[s - 1] = cur as u64;
            // t[s+1] ≤ 1 and the carry out of `cur` ≤ 1, so this addition cannot wrap.
            t[s] = t[s + 1] + (cur >> 64) as u64;
        }
        // t[0..=s] < 2n: subtract n once if needed.
        let needs_sub = t[s] != 0 || cmp_fixed(&t[..s], n) != std::cmp::Ordering::Less;
        if needs_sub {
            let mut borrow = 0i128;
            for j in 0..s {
                let mut diff = t[j] as i128 - n[j] as i128 - borrow;
                if diff < 0 {
                    diff += 1i128 << 64;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                t[j] = diff as u64;
            }
            debug_assert_eq!(t[s] as i128 - borrow, 0);
        }
        t.truncate(s);
        t
    }

    /// Separated-product Montgomery multiplication for wide moduli
    /// (≥ [`KARATSUBA_MONT_MIN_LIMBS`]): the full `2s`-word integer product `a·b` comes
    /// from [`BigUint::mul`] — which dispatches to its Karatsuba tier at exactly these
    /// widths — and the word-by-word Montgomery reduction of
    /// [`ModulusCtx::mont_sqr_limbs`] then cancels the low `s` words. Integer
    /// arithmetic is exact, so the result limbs are identical to the interleaved CIOS
    /// pass.
    fn mont_mul_limbs_karatsuba(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let s = self.n_limbs.len();
        let n = &self.n_limbs;
        let product = BigUint::from_limbs(a.to_vec()).mul(&BigUint::from_limbs(b.to_vec()));
        // a·b < n² < 2^(128s); the extra word is headroom for the reduction's carries.
        let mut t = to_fixed_width(&product, 2 * s + 1);
        // Separated Montgomery reduction: fold m_i·n into t at word offset i so the low
        // s words cancel. The running total stays below a·b + R·n < 2^(64(2s+1)), so
        // the carry chain never leaves the buffer.
        for i in 0..s {
            let m = t[i].wrapping_mul(self.n0_inv) as u128;
            let mut carry = 0u128;
            for (tj, &nj) in t[i..i + s].iter_mut().zip(n.iter()) {
                let cur = *tj as u128 + m * nj as u128 + carry;
                *tj = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + s;
            while carry != 0 {
                debug_assert!(k <= 2 * s);
                let cur = t[k] as u128 + carry;
                t[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        // Shift down s words: result = t[s..=2s] < 2n (a·b < n·R for a, b < n), so one
        // conditional subtraction canonicalises it, exactly like the CIOS pass.
        let needs_sub = t[2 * s] != 0 || cmp_fixed(&t[s..2 * s], n) != std::cmp::Ordering::Less;
        if needs_sub {
            let mut borrow = 0i128;
            for j in 0..s {
                let mut diff = t[s + j] as i128 - n[j] as i128 - borrow;
                if diff < 0 {
                    diff += 1i128 << 64;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                t[s + j] = diff as u64;
            }
            debug_assert_eq!(t[2 * s] as i128 - borrow, 0);
        }
        t.drain(..s);
        t.truncate(s);
        t
    }

    /// Montgomery-domain exponentiation by left-to-right sliding window: the
    /// single-term case of the shared ladder ([`ModulusCtx::multi_exp_tables`]) over a
    /// table sized for this one exponent.
    pub fn pow_mont(&self, base: &MontElem, exp: &BigUint) -> MontElem {
        uldp_telemetry::metrics::MODPOW_WINDOW.inc();
        let table = self.odd_powers(base, window_size(exp.bit_length()));
        self.ladder(&[(&table, exp)])
    }

    /// `base^exp mod n` via Montgomery sliding-window exponentiation.
    ///
    /// Bitwise-identical to [`crate::modular::mod_pow`] for every input (including
    /// `0^0 = 1` and `base ≥ n`), at a fraction of the cost for large moduli.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        self.from_mont(&self.pow_mont(&self.to_mont(base), exp))
    }

    /// Builds the odd-power table of `base` at window `w` ([`WindowTable`]): one
    /// squaring and `2^(w−1) − 1` multiplications, none at `w = 1`. Built once, a table
    /// serves any number of [`ModulusCtx::multi_exp_tables`] products.
    ///
    /// # Panics
    /// Panics unless `window ∈ 1..=16`.
    pub fn window_table(&self, base: &BigUint, window: usize) -> WindowTable {
        uldp_telemetry::metrics::WINDOW_TABLE.inc();
        self.odd_powers(&self.to_mont(base), window)
    }

    /// Interleaved sliding-window multi-exponentiation (Möller, *Algorithms for
    /// multi-exponentiation*, SAC 2001): `∏ baseᵢ^expᵢ mod n` over prebuilt tables,
    /// with one squaring ladder shared by every term.
    ///
    /// Each exponent is split into sliding windows of at most its table's width, each
    /// ending in a set bit. The ladder squares once per bit below the highest window
    /// and multiplies once per window, by a reference into the table, so it converts,
    /// copies and tabulates nothing per term. Terms may mix window widths.
    ///
    /// Montgomery arithmetic is exact, so the result is bitwise-identical to the unfused
    /// `pow` + `mod_mul` product for every input. Zero exponents contribute the neutral
    /// element; an empty slice yields `1`.
    pub fn multi_exp_tables<E: Borrow<BigUint>>(&self, terms: &[(&WindowTable, E)]) -> BigUint {
        uldp_telemetry::metrics::MULTI_EXP.inc();
        self.from_mont(&self.ladder(terms))
    }

    /// `∏ baseᵢ^expᵢ mod n` in one call: builds one table per base with a non-zero
    /// exponent at the window [`multi_exp_window`] picks for the longest exponent, then
    /// runs [`ModulusCtx::multi_exp_tables`]. Callers that raise the same bases in many
    /// products build the tables once themselves instead.
    pub fn multi_exp(&self, pairs: &[(BigUint, BigUint)]) -> BigUint {
        let max_bits = pairs.iter().map(|(_, exp)| exp.bit_length()).max().unwrap_or(0);
        let window = multi_exp_window(max_bits);
        let live: Vec<&(BigUint, BigUint)> = pairs.iter().filter(|(_, e)| !e.is_zero()).collect();
        let tables: Vec<WindowTable> =
            live.iter().map(|(base, _)| self.window_table(base, window)).collect();
        let terms: Vec<(&WindowTable, &BigUint)> =
            tables.iter().zip(live).map(|(table, (_, exp))| (table, exp)).collect();
        self.multi_exp_tables(&terms)
    }

    /// The odd powers `base^1, base^3, …, base^(2^w − 1)`, back to back.
    fn odd_powers(&self, base: &MontElem, window: usize) -> WindowTable {
        assert!((1..=16).contains(&window), "window must be in 1..=16");
        let s = self.n_limbs.len();
        let mut limbs = Vec::with_capacity(s << (window - 1));
        limbs.extend_from_slice(&base.limbs);
        if window > 1 {
            let square = self.mont_sqr(base);
            for k in 1..(1usize << (window - 1)) {
                let next = self.mul_limbs(&limbs[(k - 1) * s..k * s], &square.limbs);
                limbs.extend_from_slice(&next);
            }
        }
        WindowTable { window, limbs }
    }

    /// The shared ladder behind [`ModulusCtx::pow_mont`] and
    /// [`ModulusCtx::multi_exp_tables`], in Montgomery form.
    fn ladder<E: Borrow<BigUint>>(&self, terms: &[(&WindowTable, E)]) -> MontElem {
        let s = self.n_limbs.len();
        // Every term's windows as (lowest bit, table entry), scanned from the top.
        let mut windows: Vec<(usize, &[u64])> = Vec::new();
        for (table, exp) in terms {
            let exp = exp.borrow();
            let mut i = exp.bit_length();
            while i > 0 {
                if !exp.bit(i - 1) {
                    i -= 1;
                    continue;
                }
                // The longest window [low, i − 1] of at most w bits ending in a set bit.
                let mut low = i.saturating_sub(table.window);
                while !exp.bit(low) {
                    low += 1;
                }
                let value = (low..i).rev().fold(0, |v, b| (v << 1) | usize::from(exp.bit(b)));
                let k = value >> 1;
                windows.push((low, &table.limbs[k * s..(k + 1) * s]));
                i = low;
            }
        }
        // Highest window first; the sort is stable and the product exact, so equal
        // positions only fix the order of the multiplications.
        windows.sort_by_key(|&(low, _)| std::cmp::Reverse(low));
        let Some((&(mut bit, first), rest)) = windows.split_first() else { return self.one() };
        let mut acc = MontElem { limbs: first.to_vec() };
        for &(low, entry) in rest {
            for _ in low..bit {
                acc = self.mont_sqr(&acc);
            }
            acc = MontElem { limbs: self.mul_limbs(&acc.limbs, entry) };
            bit = low;
        }
        for _ in 0..bit {
            acc = self.mont_sqr(&acc);
        }
        acc
    }

    /// Inverts every value modulo `n` with one [`crate::modular::mod_inv`]
    /// (Montgomery's simultaneous inversion): prefix products of the non-zero values,
    /// one inverse of their total, then a backward pass peeling off one inverse per
    /// value — about three multiplications each instead of one extended Euclid each.
    ///
    /// Inverses are unique, so the result equals `mod_inv(v, n)` element for element:
    /// `None` for zero and for every other non-unit. A non-unit makes the total a
    /// non-unit, and the method then falls back to the per-element loop.
    pub fn batch_inv(&self, values: &[BigUint]) -> Vec<Option<BigUint>> {
        use crate::modular::mod_inv;
        let mont: Vec<(usize, MontElem)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (i, self.to_mont(v)))
            .filter(|(_, m)| m.limbs.iter().any(|&w| w != 0))
            .collect();
        // prefix[k] = a_0·…·a_k (Montgomery form).
        let mut prefix: Vec<MontElem> = Vec::with_capacity(mont.len());
        for (_, m) in &mont {
            let next = prefix.last().map_or_else(|| m.clone(), |p| self.mont_mul(p, m));
            prefix.push(next);
        }
        let mut out = vec![None; values.len()];
        let Some(total) = prefix.last() else { return out };
        let Some(total_inv) = mod_inv(&self.from_mont(total), &self.n) else {
            return values.iter().map(|v| mod_inv(v, &self.n)).collect();
        };
        // Invariant: acc = (a_0·…·a_k)⁻¹, so acc·prefix[k−1] = a_k⁻¹.
        let mut acc = self.to_mont(&total_inv);
        for k in (1..mont.len()).rev() {
            let (i, m) = &mont[k];
            out[*i] = Some(self.from_mont(&self.mont_mul(&acc, &prefix[k - 1])));
            acc = self.mont_mul(&acc, m);
        }
        out[mont[0].0] = Some(self.from_mont(&acc));
        out
    }
}

/// Sliding-window width for an exponent of `bits` bits (standard thresholds balancing
/// the 2^(w−1)-entry odd-power table against saved multiplications).
fn window_size(bits: usize) -> usize {
    match bits {
        0..=23 => 1,
        24..=79 => 3,
        80..=239 => 4,
        240..=671 => 5,
        _ => 6,
    }
}

/// Window width of the shared multi-exponentiation ladder for exponents of at most
/// `max_bits` bits. A [`WindowTable`] holds `2^(w−1)` odd powers and serves every
/// product its base enters, so its build is amortised and the width runs one step
/// wider than the single-exponent [`ModulusCtx::pow`] rule from 25 bits up: each step
/// cuts the multiplications per term from about `bits/(w+1)` to `bits/(w+2)` and doubles
/// the table. Protocol 1's ≈35–40-bit cell exponents take `w = 4`.
pub fn multi_exp_window(max_bits: usize) -> usize {
    match max_bits {
        0..=8 => 1,
        9..=24 => 2,
        25..=32 => 3,
        33..=239 => 4,
        _ => 5,
    }
}

/// Pads a canonical value (`< 2^(64·width)`) to a fixed-width little-endian limb vector.
fn to_fixed_width(v: &BigUint, width: usize) -> Vec<u64> {
    let mut out = v.limbs().to_vec();
    debug_assert!(out.len() <= width);
    out.resize(width, 0);
    out
}

/// Compares two equal-width little-endian limb slices.
fn cmp_fixed(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => continue,
            ord => return ord,
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mod_pow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn rejects_invalid_moduli() {
        assert!(ModulusCtx::try_new(&BigUint::zero()).is_none());
        assert!(ModulusCtx::try_new(&BigUint::one()).is_none());
        assert!(ModulusCtx::try_new(&n(4096)).is_none());
        assert!(ModulusCtx::try_new(&n(3)).is_some());
    }

    #[test]
    #[should_panic(expected = "odd modulus greater than 1")]
    fn new_panics_on_even_modulus() {
        let _ = ModulusCtx::new(&n(10));
    }

    #[test]
    fn word_inverse_is_exact() {
        for x in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            assert_eq!(x.wrapping_mul(inv_mod_word(x)), 1);
        }
    }

    #[test]
    fn mont_roundtrip_small() {
        let ctx = ModulusCtx::new(&n(1_000_003));
        for v in [0u64, 1, 2, 999_999, 1_000_002] {
            let m = ctx.to_mont(&n(v));
            assert_eq!(ctx.from_mont(&m), n(v));
        }
        // values ≥ n are reduced on the way in
        assert_eq!(ctx.from_mont(&ctx.to_mont(&n(2_000_007))), n(1));
    }

    #[test]
    fn mont_mul_matches_mod_mul() {
        let mut rng = StdRng::seed_from_u64(1);
        for bits in [63usize, 64, 65, 128, 512] {
            let mut modulus = BigUint::random_with_bits(&mut rng, bits);
            if modulus.is_even() {
                modulus = modulus.add(&BigUint::one());
            }
            let ctx = ModulusCtx::new(&modulus);
            for _ in 0..10 {
                let a = BigUint::random_below(&mut rng, &modulus);
                let b = BigUint::random_below(&mut rng, &modulus);
                let product = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
                assert_eq!(product, a.mul(&b).rem(&modulus));
            }
        }
    }

    #[test]
    fn karatsuba_tier_matches_schoolbook_product() {
        // 2048- and 2368-bit moduli are ≥ KARATSUBA_MONT_MIN_LIMBS limbs wide, so
        // mont_mul_limbs takes the separated Karatsuba-product route; the result must
        // still be bitwise-identical to the generic reduction of the schoolbook product.
        let mut rng = StdRng::seed_from_u64(17);
        for bits in [2048usize, 2368] {
            let mut modulus = BigUint::random_with_bits(&mut rng, bits);
            if modulus.is_even() {
                modulus = modulus.add(&BigUint::one());
            }
            let ctx = ModulusCtx::new(&modulus);
            assert!(ctx.modulus().limbs().len() >= KARATSUBA_MONT_MIN_LIMBS);
            for _ in 0..4 {
                let a = BigUint::random_below(&mut rng, &modulus);
                let b = BigUint::random_below(&mut rng, &modulus);
                assert_eq!(ctx.mod_mul(&a, &b), a.mul(&b).rem(&modulus), "bits={bits}");
            }
            // edge values: 0, 1, n − 1
            let top = modulus.sub(&BigUint::one());
            assert_eq!(ctx.mod_mul(&BigUint::zero(), &top), BigUint::zero());
            assert_eq!(ctx.mod_mul(&BigUint::one(), &top), top);
            assert_eq!(ctx.mod_mul(&top, &top), top.mul(&top).rem(&modulus));
        }
    }

    #[test]
    fn mod_mul_matches_generic_helper() {
        let mut rng = StdRng::seed_from_u64(19);
        for bits in [128usize, 512, 2048] {
            let mut modulus = BigUint::random_with_bits(&mut rng, bits);
            if modulus.is_even() {
                modulus = modulus.add(&BigUint::one());
            }
            let ctx = ModulusCtx::new(&modulus);
            for _ in 0..3 {
                let a = BigUint::random_below(&mut rng, &modulus);
                let b = BigUint::random_below(&mut rng, &modulus);
                assert_eq!(ctx.mod_mul(&a, &b), crate::modular::mod_mul(&a, &b, &modulus));
            }
        }
    }

    #[test]
    fn mont_sqr_matches_mont_mul_of_self() {
        let mut rng = StdRng::seed_from_u64(11);
        for bits in [63usize, 64, 65, 128, 512, 1024] {
            let mut modulus = BigUint::random_with_bits(&mut rng, bits);
            if modulus.is_even() {
                modulus = modulus.add(&BigUint::one());
            }
            let ctx = ModulusCtx::new(&modulus);
            for _ in 0..10 {
                let a = BigUint::random_below(&mut rng, &modulus);
                let m = ctx.to_mont(&a);
                assert_eq!(ctx.mont_sqr(&m), ctx.mont_mul(&m, &m), "bits={bits}");
            }
            // edge values: 0, 1, n − 1
            for v in [BigUint::zero(), BigUint::one(), modulus.sub(&BigUint::one())] {
                let m = ctx.to_mont(&v);
                assert_eq!(ctx.mont_sqr(&m), ctx.mont_mul(&m, &m));
            }
        }
    }

    #[test]
    fn sqr_matches_mod_mul_of_self() {
        let ctx = ModulusCtx::new(&n(1_000_003));
        for v in [0u64, 1, 7, 999_999, 1_000_002, u64::MAX] {
            let a = n(v);
            assert_eq!(
                ctx.sqr(&a),
                crate::modular::mod_mul(
                    &a.rem(ctx.modulus()),
                    &a.rem(ctx.modulus()),
                    ctx.modulus()
                )
            );
        }
    }

    #[test]
    fn pow_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(2);
        for bits in [16usize, 64, 192, 512, 1024] {
            let mut modulus = BigUint::random_with_bits(&mut rng, bits);
            if modulus.is_even() {
                modulus = modulus.add(&BigUint::one());
            }
            let ctx = ModulusCtx::new(&modulus);
            for exp_bits in [1usize, 17, 64, 200] {
                let base = BigUint::random_below(&mut rng, &modulus);
                let exp = BigUint::random_with_bits(&mut rng, exp_bits);
                assert_eq!(
                    ctx.pow(&base, &exp),
                    mod_pow(&base, &exp, &modulus),
                    "bits={bits} exp_bits={exp_bits}"
                );
            }
        }
    }

    #[test]
    fn pow_edge_cases() {
        let ctx = ModulusCtx::new(&n(1_000_003));
        // 0^0 = 1, matching mod_pow's convention.
        assert_eq!(ctx.pow(&BigUint::zero(), &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.pow(&BigUint::zero(), &n(5)), BigUint::zero());
        assert_eq!(ctx.pow(&n(7), &BigUint::zero()), BigUint::one());
        // base ≥ n is reduced first.
        assert_eq!(ctx.pow(&n(1_000_004), &n(2)), BigUint::one());
    }

    #[test]
    fn multi_exp_matches_unfused_chain() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [64usize, 192, 512] {
            let mut modulus = BigUint::random_with_bits(&mut rng, bits);
            if modulus.is_even() {
                modulus = modulus.add(&BigUint::one());
            }
            let ctx = ModulusCtx::new(&modulus);
            for k in [1usize, 2, 3, 7] {
                let pairs: Vec<(BigUint, BigUint)> = (0..k)
                    .map(|_| {
                        (
                            BigUint::random_below(&mut rng, &modulus),
                            BigUint::random_with_bits(&mut rng, bits / 2),
                        )
                    })
                    .collect();
                let mut expected = BigUint::one();
                for (base, exp) in &pairs {
                    expected =
                        crate::modular::mod_mul(&expected, &mod_pow(base, exp, &modulus), &modulus);
                }
                assert_eq!(ctx.multi_exp(&pairs), expected, "bits={bits} k={k}");
            }
        }
    }

    #[test]
    fn multi_exp_edge_cases() {
        let ctx = ModulusCtx::new(&n(1_000_003));
        // Empty product and all-zero exponents are the neutral element.
        assert_eq!(ctx.multi_exp(&[]), BigUint::one());
        assert_eq!(ctx.multi_exp(&[(n(7), BigUint::zero())]), BigUint::one());
        // Zero-exponent pairs drop out of a mixed product.
        assert_eq!(ctx.multi_exp(&[(n(7), n(2)), (n(12345), BigUint::zero())]), n(49));
        // Zero base annihilates, bases ≥ n are reduced.
        assert_eq!(ctx.multi_exp(&[(BigUint::zero(), n(3)), (n(7), n(2))]), BigUint::zero());
        assert_eq!(ctx.multi_exp(&[(n(1_000_004), n(2))]), BigUint::one());
    }

    #[test]
    fn multi_exp_tables_edge_cases() {
        let ctx = ModulusCtx::new(&n(1_000_003));
        let (seven, big) = (ctx.window_table(&n(7), 3), ctx.window_table(&n(1_000_004), 1));
        let zero = ctx.window_table(&BigUint::zero(), 2);
        // Empty products and zero exponents are the neutral element.
        assert_eq!(ctx.multi_exp_tables::<BigUint>(&[]), BigUint::one());
        assert_eq!(ctx.multi_exp_tables(&[(&seven, BigUint::zero())]), BigUint::one());
        // One table serves many products; widths mix; bases ≥ n were reduced.
        assert_eq!(ctx.multi_exp_tables(&[(&seven, n(2)), (&big, n(5))]), n(49));
        assert_eq!(ctx.multi_exp_tables(&[(&seven, n(13))]), mod_pow(&n(7), &n(13), &n(1_000_003)));
        // A zero base annihilates unless its exponent is zero.
        assert_eq!(ctx.multi_exp_tables(&[(&zero, n(3)), (&seven, n(2))]), BigUint::zero());
        assert_eq!(ctx.multi_exp_tables(&[(&zero, BigUint::zero()), (&seven, n(2))]), n(49));
    }

    #[test]
    #[should_panic(expected = "window must be in 1..=16")]
    fn window_table_rejects_zero_width() {
        let _ = ModulusCtx::new(&n(1_000_003)).window_table(&n(7), 0);
    }

    #[test]
    fn batch_inv_matches_per_element_mod_inv() {
        use crate::modular::mod_inv;
        let mut rng = StdRng::seed_from_u64(23);
        // n = p·q, so multiples of p are non-zero non-units.
        let p = n(1_000_003);
        let modulus = p.mul(&n(999_983));
        let ctx = ModulusCtx::new(&modulus);
        let mut values: Vec<BigUint> =
            (0..9).map(|_| BigUint::random_below(&mut rng, &modulus)).collect();
        values[3] = BigUint::zero();
        values.push(modulus.add(&n(5))); // unreduced input
        let expected: Vec<Option<BigUint>> = values.iter().map(|v| mod_inv(v, &modulus)).collect();
        assert_eq!(expected.iter().filter(|e| e.is_none()).count(), 1, "only the zero");
        assert_eq!(ctx.batch_inv(&values), expected, "all units but a zero: the batched path");
        // A non-unit makes the running product a non-unit, which forces the fallback.
        values[6] = p.mul(&n(17));
        let total = values
            .iter()
            .filter(|v| !v.is_zero())
            .fold(BigUint::one(), |acc, v| crate::modular::mod_mul(&acc, v, &modulus));
        assert!(!crate::gcd(&total, &modulus).is_one());
        let expected: Vec<Option<BigUint>> = values.iter().map(|v| mod_inv(v, &modulus)).collect();
        assert_eq!(expected.iter().filter(|e| e.is_none()).count(), 2);
        assert_eq!(ctx.batch_inv(&values), expected, "a non-unit: the per-element fallback");
        assert!(ctx.batch_inv(&[]).is_empty());
        assert_eq!(ctx.batch_inv(&[BigUint::zero()]), vec![None]);
        assert_eq!(ctx.batch_inv(&[n(2)]), vec![mod_inv(&n(2), &modulus)]);
    }
}
