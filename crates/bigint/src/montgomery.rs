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
//!   tables built once per base ([`ModulusCtx::window_table`]) and shared by every
//!   product that base enters. [`ModulusCtx::batch_inv`] gives many inverses at the
//!   cost of one.
//! * [`FixedBaseTable`] — a 64-entry Lim–Lee comb of one fixed base, built once
//!   ([`ModulusCtx::fixed_base_table`]); [`ModulusCtx::pow_fixed_base`] then raises
//!   that base to a `t`-bit exponent with `⌈t/6⌉ − 1` squarings and as many
//!   multiplications, against about `t` squarings for a sliding window.
//!
//! ## One kernel
//!
//! Every Montgomery product — [`ModulusCtx::mont_mul`], [`ModulusCtx::mont_sqr`], the
//! conversions, the table builds and the ladder — runs one CIOS kernel, which
//! accumulates into its output buffer and allocates nothing. The ladder and the table
//! builds hold their buffers and swap them, so an exponentiation allocates its table,
//! its accumulator and one spare buffer, not one vector per operation.
//!
//! [`ModulusCtx::try_new`] picks the kernel's body once per modulus, from its limb
//! count and the CPU, and every product of that context runs it:
//!
//! * **ADX** (`cios_adx`), at 8 limbs (`n`, `p²` and `q²` of a 512-bit Paillier key),
//!   16 (its `n²`) and 32 (the RFC 3526 2048-bit DH group) on an x86-64 CPU with BMI2
//!   and ADX: one `asm!` loop over the rows, each row two passes of `mulx` products
//!   whose low halves are added on the `adcx` carry chain and high halves on the `adox`
//!   one. It runs in about three quarters of the portable body's time at 8 limbs and
//!   half of it at 16 and 32 (`examples/mont_bench.rs`; the README has the numbers).
//!   The rows stay a loop: fully unrolled by the compiler, the 32-limb body outgrew the
//!   instruction cache and lost to the portable one.
//! * **Portable** (`cios`), everywhere else: plain `u128` arithmetic, compiled at an
//!   exact limb count at 4 limbs (Miller–Rabin on 256-bit primes), 8, 16 and 32, where
//!   constant slice lengths let the compiler unroll the inner loop and drop the bounds
//!   checks, and at runtime width for every other width. At 4 limbs the ADX body
//!   measured no faster. The portable body is also the reference the ADX body is
//!   tested against.
//!
//! Both bodies give the same limbs, so which one runs changes no result and no
//! operation count. `ModulusCtx`'s `Debug` names the body. Squaring runs the same
//! kernel as `mont_mul(a, a)`; it is only counted apart. A separated Karatsuba product
//! lost to the portable body at every width from 32 to 96 limbs, and a dedicated
//! squaring (each cross product once, then a separated reduction) lost at 8–24 limbs
//! and gained nothing end to end at 32.
//!
//! All methods take `&self`, so one context can be shared freely across the worker pool
//! (`uldp-runtime`): the contexts are immutable after construction.
//!
//! Montgomery form is a bijection of `Z_n`, so every result is bitwise-identical to the
//! schoolbook [`crate::modular::mod_pow`] path; the property tests in
//! `crates/bigint/tests/montgomery_props.rs` assert this up to 2048-bit moduli and at
//! every kernel width, and the call sites in `uldp-crypto` keep their own tests against
//! `mod_pow`.

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
    /// The integer `1` at width `s`: multiplying by it is one Montgomery reduction.
    unit: Vec<u64>,
    /// `R mod n` where `R = 2^(64·s)` — the Montgomery form of `1`.
    r1: Vec<u64>,
    /// `R² mod n` — multiplier converting into Montgomery form.
    r2: Vec<u64>,
    /// The kernel body for this width on this CPU, picked once.
    kernel: Kernel,
}

impl std::fmt::Debug for ModulusCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModulusCtx")
            .field("modulus_bits", &self.n.bit_length())
            .field("body", &self.kernel.name)
            .finish()
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

/// Comb height `h` of a [`FixedBaseTable`]: its table holds `2^h` = 64 entries, 8 KB
/// per base at `n²` of a 512-bit key and 48 KB at a 3072-bit one.
const COMB_HEIGHT: usize = 6;

/// A Lim–Lee comb for one fixed base `H` (Lim and Lee, *More flexible exponentiation
/// with precomputation*, CRYPTO 1994), for exponents of at most `t` bits.
///
/// The exponent's bits form `h` rows of `a = ⌈t/h⌉` columns, bit `i·a + j` in row `i`
/// and column `j`. Entry `k` is `∏ H^{2^{i·a}}` over the set bits `i` of `k`, so one
/// column of the exponent picks one entry, and [`ModulusCtx::pow_fixed_base`] walks the
/// columns with one squaring and one multiplication each. Only meaningful together with
/// the [`ModulusCtx`] that built it.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    /// The longest exponent `t` (in bits) the table serves.
    max_bits: usize,
    /// Entry `k` (Montgomery form) occupies limbs `k·s .. (k+1)·s`.
    limbs: Vec<u64>,
}

/// Columns `a = ⌈t/h⌉` (at least one) of a comb for `t`-bit exponents.
fn comb_columns(max_bits: usize) -> usize {
    max_bits.div_ceil(COMB_HEIGHT).max(1)
}

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
        let mut unit = vec![0u64; s];
        unit[0] = 1;
        let r1 = to_fixed_width(&BigUint::one().shl_bits(s * LIMB_BITS).rem(n), s);
        let r2 = to_fixed_width(&BigUint::one().shl_bits(2 * s * LIMB_BITS).rem(n), s);
        let kernel = Kernel::select(s);
        Some(ModulusCtx { n: n.clone(), n_limbs, n0_inv, unit, r1, r2, kernel })
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
        let mut limbs = vec![0u64; self.n_limbs.len()];
        self.to_mont_into(&mut limbs, a);
        MontElem { limbs }
    }

    /// [`ModulusCtx::to_mont`] into a caller-owned buffer: `a·R mod n` as the product
    /// of `a mod n` with `R² mod n`. Copies the value only when it is narrower than `n`.
    fn to_mont_into(&self, out: &mut [u64], a: &BigUint) {
        let s = self.n_limbs.len();
        let reduced;
        let a = if a < &self.n {
            a
        } else {
            reduced = a.rem(&self.n);
            &reduced
        };
        if a.limbs().len() == s {
            self.kernel(out, a.limbs(), &self.r2);
        } else {
            self.kernel(out, &to_fixed_width(a, s), &self.r2);
        }
    }

    /// Converts a Montgomery-form value back to a canonical [`BigUint`]: the product
    /// with the integer `1`, i.e. one Montgomery reduction.
    pub fn from_mont(&self, a: &MontElem) -> BigUint {
        self.normal_form(&a.limbs)
    }

    /// [`ModulusCtx::from_mont`] of Montgomery-form limbs held in a caller's buffer.
    fn normal_form(&self, a: &[u64]) -> BigUint {
        let mut limbs = vec![0u64; self.n_limbs.len()];
        self.kernel(&mut limbs, a, &self.unit);
        BigUint::from_limbs(limbs)
    }

    /// The Montgomery form of `1` (`R mod n`).
    pub fn one(&self) -> MontElem {
        MontElem { limbs: self.r1.clone() }
    }

    /// Montgomery product `a·b·R⁻¹ mod n`.
    pub fn mont_mul(&self, a: &MontElem, b: &MontElem) -> MontElem {
        let mut limbs = vec![0u64; self.n_limbs.len()];
        self.mul_into(&mut limbs, &a.limbs, &b.limbs);
        MontElem { limbs }
    }

    /// Montgomery square `a·a·R⁻¹ mod n`: the same kernel as `mont_mul(a, a)`, and so
    /// the same limbs and the same cost (283 vs 295 ns at 16 limbs, README), but counted
    /// apart (`bigint.mont_sqr`) because the squarings of the exponentiation ladders
    /// dominate their cost.
    pub fn mont_sqr(&self, a: &MontElem) -> MontElem {
        let mut limbs = vec![0u64; self.n_limbs.len()];
        self.sqr_into(&mut limbs, &a.limbs);
        MontElem { limbs }
    }

    /// `a² mod n` in normal form — the hoisted convenience over
    /// [`ModulusCtx::mont_sqr`], bitwise-identical to `mod_mul(a, a, n)`.
    pub fn sqr(&self, a: &BigUint) -> BigUint {
        self.from_mont(&self.mont_sqr(&self.to_mont(a)))
    }

    /// `a·b mod n` in normal form through the Montgomery domain — bitwise-identical to
    /// [`crate::modular::mod_mul`]`(a, b, n)`, but reusing this context's cached state.
    pub fn mod_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.from_mont(&self.mont_mul(&self.to_mont(a), &self.to_mont(b)))
    }

    /// `out = a·b·R⁻¹ mod n`, counted as one `bigint.mont_mul`.
    fn mul_into(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        uldp_telemetry::metrics::MONT_MUL.inc();
        self.kernel(out, a, b);
    }

    /// `out = a·a·R⁻¹ mod n`, counted as one `bigint.mont_sqr`.
    fn sqr_into(&self, out: &mut [u64], a: &[u64]) {
        uldp_telemetry::metrics::MONT_SQR.inc();
        self.kernel(out, a, a);
    }

    /// The one Montgomery multiplication kernel, uncounted: `out = a·b·R⁻¹ mod n` for
    /// `s`-limb operands `a, b < n`, on the body [`ModulusCtx::try_new`] picked for this
    /// width (see the module doc).
    fn kernel(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        (self.kernel.run)(out, a, b, &self.n_limbs, self.n0_inv);
    }

    /// Montgomery-domain exponentiation by left-to-right sliding window: the
    /// single-term case of the shared ladder ([`ModulusCtx::multi_exp_tables`]) over a
    /// table sized for this one exponent.
    pub fn pow_mont(&self, base: &MontElem, exp: &BigUint) -> MontElem {
        self.pow_with(exp, |entry| entry.copy_from_slice(&base.limbs))
    }

    /// `base^exp mod n` via Montgomery sliding-window exponentiation.
    ///
    /// Bitwise-identical to [`crate::modular::mod_pow`] for every input (including
    /// `0^0 = 1` and `base ≥ n`), at a fraction of the cost for large moduli.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        self.from_mont(&self.pow_with(exp, |entry| self.to_mont_into(entry, base)))
    }

    /// One counted sliding-window exponentiation of the base that `base` writes into
    /// the first entry of its table.
    fn pow_with(&self, exp: &BigUint, base: impl FnOnce(&mut [u64])) -> MontElem {
        uldp_telemetry::metrics::MODPOW_WINDOW.inc();
        let table = self.odd_powers(window_size(exp.bit_length()), base);
        self.ladder(&[(&table, exp)])
    }

    /// Builds the odd-power table of `base` at window `w` ([`WindowTable`]): one
    /// squaring and `2^(w−1) − 1` multiplications, none at `w = 1`. Built once, a table
    /// serves any number of [`ModulusCtx::multi_exp_tables`] products.
    ///
    /// # Panics
    /// Panics unless `window ∈ 1..=16`.
    pub fn window_table(&self, base: &BigUint, window: usize) -> WindowTable {
        uldp_telemetry::metrics::WINDOW_TABLE.inc();
        self.odd_powers(window, |entry| self.to_mont_into(entry, base))
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

    /// Builds the comb table of `base` for exponents of at most `max_bits` bits
    /// ([`FixedBaseTable`]): `(h − 1)·a` squarings for the row bases `H^{2^{i·a}}` and
    /// `2^h − h − 1` multiplications for the other entries, with `h = 6` and
    /// `a = ⌈max_bits/h⌉`. Built once, it serves any number of
    /// [`ModulusCtx::pow_fixed_base`] calls.
    pub fn fixed_base_table(&self, base: &BigUint, max_bits: usize) -> FixedBaseTable {
        let s = self.n_limbs.len();
        let columns = comb_columns(max_bits);
        let mut limbs = vec![0u64; s << COMB_HEIGHT];
        limbs[..s].copy_from_slice(&self.r1);
        let mut row = vec![0u64; s];
        let mut next = vec![0u64; s];
        self.to_mont_into(&mut row, base);
        for i in 0..COMB_HEIGHT {
            if i > 0 {
                for _ in 0..columns {
                    self.sqr_into(&mut next, &row);
                    std::mem::swap(&mut row, &mut next);
                }
            }
            // Entry 2^i is the row base; entries 2^i + m are it times entry m.
            let top = 1usize << i;
            limbs[top * s..(top + 1) * s].copy_from_slice(&row);
            for m in 1..top {
                let (done, rest) = limbs.split_at_mut((top + m) * s);
                self.mul_into(
                    &mut rest[..s],
                    &done[top * s..(top + 1) * s],
                    &done[m * s..(m + 1) * s],
                );
            }
        }
        FixedBaseTable { max_bits, limbs }
    }

    /// `H^exp mod n` over the comb table of `H`, counted as one
    /// `bigint.mod_pow_fixed_base`: `a − 1` squarings and `a − 1` multiplications for
    /// every exponent, zero included (an all-zero column multiplies by entry 0, the
    /// Montgomery one), so its operation count does not depend on the exponent's bits.
    /// Bitwise-identical to [`crate::modular::mod_pow`]`(H, exp, n)`.
    ///
    /// # Panics
    /// Panics if `exp` is longer than the `max_bits` the table was built for: the comb
    /// would silently drop its high bits.
    pub fn pow_fixed_base(&self, table: &FixedBaseTable, exp: &BigUint) -> BigUint {
        uldp_telemetry::metrics::MODPOW_FIXED_BASE.inc();
        assert!(
            exp.bit_length() <= table.max_bits,
            "a {}-bit exponent exceeds the {}-bit comb table",
            exp.bit_length(),
            table.max_bits
        );
        let (s, a) = (self.n_limbs.len(), comb_columns(table.max_bits));
        let entry = |j: usize| {
            let k = (0..COMB_HEIGHT).fold(0, |k, i| k | usize::from(exp.bit(i * a + j)) << i);
            &table.limbs[k * s..(k + 1) * s]
        };
        let mut acc = entry(a - 1).to_vec();
        let mut next = vec![0u64; s];
        for j in (0..a - 1).rev() {
            self.sqr_into(&mut next, &acc);
            self.mul_into(&mut acc, &next, entry(j));
        }
        self.normal_form(&acc)
    }

    /// The odd powers `b, b³, …, b^(2^w − 1)` of the base `b` that `base` writes into
    /// entry 0, back to back. Every entry is computed in place in the table, from the
    /// previous entry and one shared square.
    fn odd_powers(&self, window: usize, base: impl FnOnce(&mut [u64])) -> WindowTable {
        assert!((1..=16).contains(&window), "window must be in 1..=16");
        let s = self.n_limbs.len();
        let mut limbs = vec![0u64; s << (window - 1)];
        base(&mut limbs[..s]);
        if window > 1 {
            let mut square = vec![0u64; s];
            self.sqr_into(&mut square, &limbs[..s]);
            for k in 1..(1usize << (window - 1)) {
                let (done, next) = limbs.split_at_mut(k * s);
                self.mul_into(&mut next[..s], &done[(k - 1) * s..], &square);
            }
        }
        WindowTable { window, limbs }
    }

    /// The shared ladder behind [`ModulusCtx::pow_mont`] and
    /// [`ModulusCtx::multi_exp_tables`], in Montgomery form. It holds the accumulator
    /// and one buffer, and every step writes the other one and swaps them.
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
        let mut acc = first.to_vec();
        let mut next = vec![0u64; s];
        let square = |acc: &mut Vec<u64>, next: &mut Vec<u64>, times: usize| {
            for _ in 0..times {
                self.sqr_into(next, acc);
                std::mem::swap(acc, next);
            }
        };
        for &(low, entry) in rest {
            square(&mut acc, &mut next, bit - low);
            self.mul_into(&mut next, &acc, entry);
            std::mem::swap(&mut acc, &mut next);
            bit = low;
        }
        square(&mut acc, &mut next, bit);
        MontElem { limbs: acc }
    }

    /// Inverts every value modulo `n` with one [`crate::modular::mod_inv`]
    /// (Montgomery's simultaneous inversion): prefix products of the non-zero values,
    /// one inverse of their total, then a backward pass peeling off one inverse per
    /// value — about three multiplications each instead of one extended Euclid each.
    /// The values and prefix products sit in two flat limb buffers, and every product
    /// runs on the kernel in place, as the ladder's do.
    ///
    /// Inverses are unique, so the result equals `mod_inv(v, n)` element for element:
    /// `None` for zero and for every other non-unit. A non-unit makes the total a
    /// non-unit, and the method then falls back to the per-element loop.
    pub fn batch_inv(&self, values: &[BigUint]) -> Vec<Option<BigUint>> {
        use crate::modular::mod_inv;
        let s = self.n_limbs.len();
        // The non-zero values a_k (their positions in `live`) and their prefix products
        // a_0·…·a_k, in Montgomery form, each back to back in one flat buffer.
        let mut live: Vec<usize> = Vec::new();
        let mut mont = vec![0u64; values.len() * s];
        let mut prefix = vec![0u64; values.len() * s];
        for (i, v) in values.iter().enumerate() {
            let k = live.len();
            let a = &mut mont[k * s..(k + 1) * s];
            self.to_mont_into(a, v);
            if a.iter().all(|&w| w == 0) {
                continue;
            }
            live.push(i);
            let (below, at) = prefix.split_at_mut(k * s);
            if k == 0 {
                at[..s].copy_from_slice(a);
            } else {
                self.mul_into(&mut at[..s], &below[(k - 1) * s..], a);
            }
        }
        let mut out = vec![None; values.len()];
        let Some(&first) = live.first() else { return out };
        let total = &prefix[(live.len() - 1) * s..live.len() * s];
        let Some(total_inv) = mod_inv(&self.normal_form(total), &self.n) else {
            return values.iter().map(|v| mod_inv(v, &self.n)).collect();
        };
        // Invariant: acc = (a_0·…·a_k)⁻¹, so acc·prefix[k−1] = a_k⁻¹.
        let mut acc = vec![0u64; s];
        let mut next = vec![0u64; s];
        self.to_mont_into(&mut acc, &total_inv);
        for k in (1..live.len()).rev() {
            self.mul_into(&mut next, &acc, &prefix[(k - 1) * s..k * s]);
            out[live[k]] = Some(self.normal_form(&next));
            self.mul_into(&mut next, &acc, &mont[k * s..(k + 1) * s]);
            std::mem::swap(&mut acc, &mut next);
        }
        out[first] = Some(self.normal_form(&acc));
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

/// The signature every kernel body shares: `out = a·b·R⁻¹ mod n` for `s`-limb operands
/// `a, b < n`, with `n0 = -n⁻¹ mod 2⁶⁴`.
type KernelFn = fn(&mut [u64], &[u64], &[u64], &[u64], u64);

/// The kernel body a [`ModulusCtx`] runs, picked once per modulus (module doc, §"One
/// kernel").
#[derive(Clone, Copy)]
struct Kernel {
    /// `"adx"` or `"portable"`, as [`ModulusCtx`]'s `Debug` prints it.
    name: &'static str,
    run: KernelFn,
}

/// The ADX body ([`cios_adx`]) at `s` limbs, if this CPU has BMI2 and ADX and `s` is
/// a width where that body runs faster than the portable one: 8, 16 and 32 limbs
/// (module doc, §"One kernel").
#[cfg(target_arch = "x86_64")]
fn adx_body(s: usize) -> Option<KernelFn> {
    if !(std::arch::is_x86_feature_detected!("bmi2") && std::arch::is_x86_feature_detected!("adx"))
    {
        return None;
    }
    /// [`cios_adx`] behind the safe kernel signature. Only `adx_body` names it, after
    /// its CPU check.
    fn adx<const S: usize>(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0: u64) {
        let (out, a, b, n) = exact_width::<S>(out, a, b, n);
        // SAFETY: `adx_body` hands out this function only after it found BMI2 and ADX
        // on this CPU.
        unsafe { cios_adx(out, a, b, n, n0) }
    }
    match s {
        8 => Some(adx::<8>),
        16 => Some(adx::<16>),
        32 => Some(adx::<32>),
        _ => None,
    }
}

impl Kernel {
    /// The body for an `s`-limb modulus on this CPU: the ADX body where [`adx_body`]
    /// has one, the exact-width instance of [`cios`] at 4, 8, 16 and 32 limbs
    /// otherwise, and the runtime-width [`cios`] at every other width.
    fn select(s: usize) -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(run) = adx_body(s) {
            return Kernel { name: "adx", run };
        }
        let run: KernelFn = match s {
            4 => cios_fixed::<4>,
            8 => cios_fixed::<8>,
            16 => cios_fixed::<16>,
            32 => cios_fixed::<32>,
            _ => cios,
        };
        Kernel { name: "portable", run }
    }
}

/// The kernel's slices as arrays of the exact width `S`.
fn exact_width<'a, const S: usize>(
    out: &'a mut [u64],
    a: &'a [u64],
    b: &'a [u64],
    n: &'a [u64],
) -> (&'a mut [u64; S], &'a [u64; S], &'a [u64; S], &'a [u64; S]) {
    (
        out.try_into().expect("output has the modulus width"),
        a.try_into().expect("operand has the modulus width"),
        b.try_into().expect("operand has the modulus width"),
        n.try_into().expect("modulus has its own width"),
    )
}

/// [`cios`] compiled at the exact width `S`: with every slice length a constant, the
/// compiler unrolls the inner loop, keeps the carries in registers and drops every bounds
/// check. Same body, same result limbs as the runtime-width instance.
fn cios_fixed<const S: usize>(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0: u64) {
    let (out, a, b, n) = exact_width::<S>(out, a, b, n);
    cios(out, a, b, n, n0);
}

/// CIOS (coarsely integrated operand scanning) Montgomery multiplication (Koç, Acar and
/// Kaliski, IEEE Micro 1996): `t = a·b·R⁻¹ mod n` for `s`-limb `a, b < n`, with `t` as
/// the accumulator, so it allocates nothing.
///
/// Per word `a_i`, one pass over `j` adds `a_i·b_j` and `m·n_j` (with
/// `m = (t_0 + a_i·b_0)·n' mod 2⁶⁴`, which zeroes the low word) on two carry chains and
/// stores the sum one word down: the shift by `2⁶⁴`. The accumulator stays below `2n`,
/// its `s`+1st word (`top`) is at most 1, and one conditional subtraction canonicalises
/// the result. Integer arithmetic is exact, so the limbs do not depend on the instance.
/// It is also the reference the ADX body ([`cios_adx`]) is tested against.
#[inline(always)]
fn cios(t: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0: u64) {
    let s = n.len();
    debug_assert!(a.len() == s && b.len() == s && t.len() == s);
    let (t, a, b) = (&mut t[..s], &a[..s], &b[..s]);
    t.fill(0);
    let mut top = 0u64;
    for &ai in a {
        let ai = ai as u128;
        let u = t[0] as u128 + ai * b[0] as u128;
        let m = (u as u64).wrapping_mul(n0);
        let mut mul_carry = u >> 64;
        let mut red_carry = ((u as u64) as u128 + m as u128 * n[0] as u128) >> 64;
        let m = m as u128;
        for j in 1..s {
            let u = t[j] as u128 + ai * b[j] as u128 + mul_carry;
            mul_carry = u >> 64;
            let v = (u as u64) as u128 + m * n[j] as u128 + red_carry;
            red_carry = v >> 64;
            t[j - 1] = v as u64;
        }
        let u = top as u128 + mul_carry;
        let v = (u as u64) as u128 + red_carry;
        t[s - 1] = v as u64;
        top = ((u >> 64) + (v >> 64)) as u64;
    }
    subtract_once(t, top, n);
}

/// The final step of both kernel bodies: `t + top·R < 2n`, so subtracting `n` once if
/// `t + top·R ≥ n` leaves the canonical residue.
#[inline(always)]
fn subtract_once(t: &mut [u64], top: u64, n: &[u64]) {
    let needs_sub = top != 0 || t.iter().rev().cmp(n.iter().rev()) != std::cmp::Ordering::Less;
    if needs_sub {
        let mut borrow = false;
        for (tj, &nj) in t.iter_mut().zip(n) {
            let (d, b1) = tj.overflowing_sub(nj);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *tj = d;
            borrow = b1 | b2;
        }
        debug_assert_eq!(u64::from(borrow), top);
    }
}

/// The CIOS kernel on BMI2/ADX at the exact width `S ≥ 2` (Ozturk et al., *New
/// instructions supporting large integer arithmetic on Intel architecture processors*,
/// Intel 2012): the same rows as [`cios`], the same result limbs.
///
/// One `asm!` loop runs a row per word `a_i`, each row two passes over `j`. The first
/// adds `a_i·b` into the accumulator; the second adds `m·n`, `m = t_0·n' mod 2⁶⁴`, and
/// stores each word one place down. Every product is one `mulx`, which sets no flags, so
/// its low half is added on the `adcx` (carry flag) chain into word `j` and its high
/// half on the `adox` (overflow flag) chain into word `j + 1`: two carry chains in
/// flight where the portable body serialises one. The sum's words `s` (`top`) and
/// `s + 1` (`t1`, the carries out of word `s`) stay in registers. After every row the
/// accumulator is below `2n`, so `top` is at most 1, as in [`cios`].
///
/// # Safety
/// The CPU must support BMI2 (`mulx`) and ADX (`adcx`, `adox`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2,adx")]
unsafe fn cios_adx<const S: usize>(
    t: &mut [u64; S],
    a: &[u64; S],
    b: &[u64; S],
    n: &[u64; S],
    n0: u64,
) {
    const { assert!(S >= 2, "the ADX body needs at least two limbs") };
    t.fill(0);
    let top: u64;
    // SAFETY: the caller guarantees BMI2 and ADX. Every memory operand is `a`, `b`, `n`
    // or `t` at byte offset 8·j for j < S, inside the four arrays; `t` is borrowed
    // mutably, so nothing else reads or writes it meanwhile.
    unsafe {
        std::arch::asm!(
            "xor {top:e}, {top:e}",
            // One row per word a_i, a real loop: unrolled, the rows would outgrow the
            // instruction cache at 32 limbs.
            "2:",
            "mov rdx, qword ptr [{a}]",
            "lea {a}, [{a} + 8]",
            // Pass 1: t + top·R + t1·R·2⁶⁴ = t + top·R + a_i·b. The xor clears CF and
            // OF.
            "xor {lo:e}, {lo:e}",
            "mulx {hi}, {lo}, qword ptr [{b}]",
            "mov {t0}, qword ptr [{t}]",
            "adcx {t0}, {lo}",
            "mov {acc}, qword ptr [{t} + 8]",
            "adox {acc}, {hi}",
            ".set .Lj, 1",
            ".rept {inner}",
            "mulx {hi}, {lo}, qword ptr [{b} + 8*.Lj]",
            "adcx {acc}, {lo}",
            "mov qword ptr [{t} + 8*.Lj], {acc}",
            "mov {acc}, qword ptr [{t} + 8*.Lj + 8]",
            "adox {acc}, {hi}",
            ".set .Lj, .Lj + 1",
            ".endr",
            "mulx {hi}, {lo}, qword ptr [{b} + {last}]",
            "adcx {acc}, {lo}",
            "mov qword ptr [{t} + {last}], {acc}",
            "mov {lo}, 0",
            "adox {top}, {hi}",
            "adcx {top}, {lo}",
            "mov {t1}, 0",
            "adcx {t1}, {lo}",
            "adox {t1}, {lo}",
            // Pass 2: t = (t + top·R + t1·R·2⁶⁴ + m·n) / 2⁶⁴, the low word being zero.
            "mov rdx, {t0}",
            "imul rdx, {n0}",
            "xor {lo:e}, {lo:e}", // clears the flags imul set
            "mulx {hi}, {lo}, qword ptr [{n}]",
            "adcx {t0}, {lo}",
            "mov {acc}, qword ptr [{t} + 8]",
            "adox {acc}, {hi}",
            ".set .Lj, 1",
            ".rept {inner}",
            "mulx {hi}, {lo}, qword ptr [{n} + 8*.Lj]",
            "adcx {acc}, {lo}",
            "mov qword ptr [{t} + 8*.Lj - 8], {acc}",
            "mov {acc}, qword ptr [{t} + 8*.Lj + 8]",
            "adox {acc}, {hi}",
            ".set .Lj, .Lj + 1",
            ".endr",
            "mulx {hi}, {lo}, qword ptr [{n} + {last}]",
            "adcx {acc}, {lo}",
            "mov qword ptr [{t} + {last} - 8], {acc}",
            "mov {lo}, 0",
            "adox {top}, {hi}",
            "adcx {top}, {lo}",
            "mov qword ptr [{t} + {last}], {top}",
            "adcx {t1}, {lo}",
            "adox {t1}, {lo}",
            "mov {top}, {t1}",
            "dec {rows}",
            "jnz 2b",
            inner = const S - 2,
            last = const 8 * (S - 1),
            a = inout(reg) a.as_ptr() => _,
            rows = inout(reg) S => _,
            t = in(reg) t.as_mut_ptr(),
            b = in(reg) b.as_ptr(),
            n = in(reg) n.as_ptr(),
            n0 = in(reg) n0,
            top = out(reg) top,
            out("rdx") _,
            hi = out(reg) _,
            lo = out(reg) _,
            acc = out(reg) _,
            t0 = out(reg) _,
            t1 = out(reg) _,
            options(nostack),
        );
    }
    subtract_once(t, top, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mod_pow;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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
    fn wide_moduli_match_schoolbook_product() {
        // A 2048-bit modulus runs the 32-limb instance of the kernel, a 2368-bit one the
        // runtime-width instance; both must equal the reduction of the schoolbook product.
        let mut rng = StdRng::seed_from_u64(17);
        for bits in [2048usize, 2368] {
            let mut modulus = BigUint::random_with_bits(&mut rng, bits);
            if modulus.is_even() {
                modulus = modulus.add(&BigUint::one());
            }
            let ctx = ModulusCtx::new(&modulus);
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
    fn kernel_limbs_are_canonical_at_every_width() {
        // The kernel's output limbs themselves (not only their normal form) must be the
        // canonical a·b·R⁻¹ mod n at every exact-width instance and at runtime widths.
        // These operands take both outcomes of the final subtraction at every width
        // (`kernel_matches_schoolbook_at_every_width_on_adversarial_operands` in
        // tests/montgomery_props.rs counts them).
        let mut rng = StdRng::seed_from_u64(29);
        for s in [1usize, 4, 8, 12, 16, 32, 48] {
            let r = BigUint::one().shl_bits(s * LIMB_BITS);
            // Near R the carry word decides the subtraction; between R/2 and R the
            // comparison with n decides it about as often; top limb 1 rarely subtracts.
            let mut top_max: Vec<u64> = (0..s).map(|_| rng.next_u64() | 1).collect();
            top_max[s - 1] = u64::MAX;
            let (mut top_half, mut top_one) = (top_max.clone(), top_max.clone());
            top_half[s - 1] = (1 << 63) | 1;
            top_one[s - 1] = if s == 1 { 1_000_003 } else { 1 };
            let moduli = [top_max, top_half, top_one].map(BigUint::from_limbs);
            for modulus in moduli.into_iter().chain([r.sub(&n((1 << 32) + 1))]) {
                let ctx = ModulusCtx::new(&modulus);
                let r_inv = crate::modular::mod_inv(&r.rem(&modulus), &modulus).unwrap();
                let operands = [
                    BigUint::zero(),
                    BigUint::one(),
                    modulus.sub(&BigUint::one()),
                    r.rem(&modulus),
                    BigUint::random_below(&mut rng, &modulus),
                ];
                for a in &operands {
                    for b in &operands {
                        let mut out = vec![0u64; s];
                        ctx.kernel(&mut out, &to_fixed_width(a, s), &to_fixed_width(b, s));
                        let expected = a.mul(b).mul(&r_inv).rem(&modulus);
                        assert_eq!(out, to_fixed_width(&expected, s), "s={s}");
                    }
                }
            }
        }
    }

    #[test]
    fn selected_body_matches_portable_cios_at_the_adx_widths() {
        // At every width the ADX body serves, the body `Kernel::select` picks must give
        // the limbs of `cios`, the portable reference, for products and squarings (both
        // operands the same slice) of the edge operands 0, 1, n − 1 and R mod n and of
        // random ones, over moduli with top limb 1, all ones and random, and R − 1.
        let mut rng = StdRng::seed_from_u64(31);
        for s in [8usize, 16, 32] {
            let kernel = Kernel::select(s);
            #[cfg(target_arch = "x86_64")]
            assert_eq!(kernel.name == "adx", adx_body(s).is_some(), "s={s}");
            if kernel.name != "adx" {
                println!("s={s}: no BMI2/ADX on this host, compared the portable body with cios");
            }
            let r = BigUint::one().shl_bits(s * LIMB_BITS);
            // With n = R − 1 (n' = 1), a = 2⁶⁴ − 1 and b's limbs all c but the top one
            // c + δ, the reduction pass's sum at word s is all ones with a carry coming
            // in, so its carry into the word above is exercised.
            let carry_words = [0xdc1b_77ae_0bf3_4dad, rng.next_u64(), rng.next_u64()];
            let carry_operands = carry_words.into_iter().flat_map(|c| {
                (1..=2).map(move |delta| {
                    let mut limbs = vec![c; s];
                    limbs[s - 1] = c.wrapping_add(delta);
                    BigUint::from_limbs(limbs)
                })
            });
            let carry_operands: Vec<BigUint> =
                [n(u64::MAX)].into_iter().chain(carry_operands).collect();
            let mut moduli: Vec<Vec<u64>> = [1, u64::MAX, rng.next_u64() | 1]
                .map(|top| {
                    let mut limbs: Vec<u64> = (0..s).map(|_| rng.next_u64()).collect();
                    limbs[0] |= 1;
                    limbs[s - 1] = top;
                    limbs
                })
                .into();
            moduli.push(vec![u64::MAX; s]);
            for m in moduli {
                let (modulus, top) = (BigUint::from_limbs(m.clone()), m[s - 1]);
                let n0 = inv_mod_word(m[0]).wrapping_neg();
                let edges = [
                    BigUint::zero(),
                    BigUint::one(),
                    modulus.sub(&BigUint::one()),
                    r.rem(&modulus),
                ];
                let randoms: Vec<BigUint> =
                    (0..60).map(|_| BigUint::random_below(&mut rng, &modulus)).collect();
                let operands: Vec<Vec<u64>> = edges
                    .into_iter()
                    .chain(randoms)
                    .chain(carry_operands.iter().filter(|v| *v < &modulus).cloned())
                    .map(|v| to_fixed_width(&v, s))
                    .collect();
                let (mut got, mut want) = (vec![0u64; s], vec![0u64; s]);
                for a in &operands {
                    for b in &operands {
                        (kernel.run)(&mut got, a, b, &m, n0);
                        cios(&mut want, a, b, &m, n0);
                        assert_eq!(got, want, "s={s} top={top:#x} {} body", kernel.name);
                    }
                    (kernel.run)(&mut got, a, a, &m, n0);
                    cios(&mut want, a, a, &m, n0);
                    assert_eq!(got, want, "s={s} top={top:#x} {} body, squaring", kernel.name);
                }
            }
        }
    }

    #[test]
    fn debug_names_the_body_of_each_width() {
        // The ADX body serves 8, 16 and 32 limbs where the CPU has it; 4 limbs keeps its
        // exact-width portable instance, other widths the runtime-width one.
        for s in [1usize, 4, 8, 12, 16, 32] {
            let ctx = ModulusCtx::new(&BigUint::one().shl_bits(s * LIMB_BITS).sub(&n(1)));
            let body = Kernel::select(s).name;
            if ![8, 16, 32].contains(&s) {
                assert_eq!(body, "portable", "s={s}");
            }
            assert!(format!("{ctx:?}").contains(&format!("body: \"{body}\"")), "{ctx:?}");
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

    /// `∏ baseᵢ^expᵢ` over one table per base, at the window [`multi_exp_window`] picks
    /// for the longest exponent.
    fn multi_exp_fresh_tables(ctx: &ModulusCtx, pairs: &[(BigUint, BigUint)]) -> BigUint {
        let max_bits = pairs.iter().map(|(_, exp)| exp.bit_length()).max().unwrap_or(0);
        let window = multi_exp_window(max_bits);
        let tables: Vec<WindowTable> =
            pairs.iter().map(|(base, _)| ctx.window_table(base, window)).collect();
        let terms: Vec<(&WindowTable, &BigUint)> =
            tables.iter().zip(pairs).map(|(table, (_, exp))| (table, exp)).collect();
        ctx.multi_exp_tables(&terms)
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
                assert_eq!(multi_exp_fresh_tables(&ctx, &pairs), expected, "bits={bits} k={k}");
            }
        }
    }

    #[test]
    fn multi_exp_edge_cases() {
        let ctx = ModulusCtx::new(&n(1_000_003));
        // Empty product and all-zero exponents are the neutral element.
        assert_eq!(multi_exp_fresh_tables(&ctx, &[]), BigUint::one());
        assert_eq!(multi_exp_fresh_tables(&ctx, &[(n(7), BigUint::zero())]), BigUint::one());
        // Zero-exponent pairs drop out of a mixed product.
        assert_eq!(
            multi_exp_fresh_tables(&ctx, &[(n(7), n(2)), (n(12345), BigUint::zero())]),
            n(49)
        );
        // Zero base annihilates, bases ≥ n are reduced.
        assert_eq!(
            multi_exp_fresh_tables(&ctx, &[(BigUint::zero(), n(3)), (n(7), n(2))]),
            BigUint::zero()
        );
        assert_eq!(multi_exp_fresh_tables(&ctx, &[(n(1_000_004), n(2))]), BigUint::one());
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
    #[should_panic(expected = "a 9-bit exponent exceeds the 8-bit comb table")]
    fn fixed_base_pow_rejects_a_longer_exponent() {
        let ctx = ModulusCtx::new(&n(1_000_003));
        let table = ctx.fixed_base_table(&n(7), 8);
        let _ = ctx.pow_fixed_base(&table, &n(256));
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
