//! Rényi differential privacy of the (sub-sampled) Gaussian mechanism.
//!
//! * Lemma 3: the Gaussian mechanism with noise multiplier σ (noise standard deviation
//!   σ·Δ) satisfies `(α, α / 2σ²)`-RDP for every `α > 1`.
//! * Lemma 4 (Wang, Balle, Kasiviswanathan): the Poisson-sub-sampled Gaussian mechanism
//!   with sampling probability `q` satisfies `(α, ρ'(α, σ))`-RDP for integer `α ≥ 2`, with
//!   the closed-form upper bound reproduced below.
//! * Lemma 1: RDP composes additively over rounds at a fixed order.
//!
//! All computations are carried out in log-space so that very large orders (needed for
//! the group-privacy conversion of Lemma 6) do not overflow.

/// An RDP curve: the privacy parameter ρ(α) tabulated on a grid of integer orders.
#[derive(Clone, Debug, PartialEq)]
pub struct RdpCurve {
    /// Rényi orders α (strictly increasing, all ≥ 2).
    pub orders: Vec<u64>,
    /// ρ(α) for each order.
    pub rho: Vec<f64>,
}

impl RdpCurve {
    /// Creates a curve that is identically zero on the given orders.
    pub fn zero(orders: Vec<u64>) -> Self {
        let rho = vec![0.0; orders.len()];
        RdpCurve { orders, rho }
    }

    /// Creates a curve by evaluating `f(α)` on each order.
    pub fn from_fn(orders: Vec<u64>, f: impl Fn(u64) -> f64) -> Self {
        let rho = orders.iter().map(|&a| f(a)).collect();
        RdpCurve { orders, rho }
    }

    /// Point-wise addition of another curve (Lemma 1, adaptive composition).
    ///
    /// # Panics
    /// Panics if the order grids differ.
    pub fn compose_with(&mut self, other: &RdpCurve) {
        assert_eq!(self.orders, other.orders, "RDP curves must share the same order grid");
        for (a, b) in self.rho.iter_mut().zip(other.rho.iter()) {
            *a += b;
        }
    }

    /// Returns a curve scaled by `steps` compositions of the same mechanism.
    pub fn scaled(&self, steps: f64) -> RdpCurve {
        RdpCurve { orders: self.orders.clone(), rho: self.rho.iter().map(|r| r * steps).collect() }
    }

    /// Looks up ρ at an exact order, if present.
    pub fn rho_at(&self, order: u64) -> Option<f64> {
        self.orders.iter().position(|&a| a == order).map(|i| self.rho[i])
    }
}

/// The default grid of Rényi orders: all integers in `[2, 256]` plus a coarser tail up to
/// 4096 so the group-privacy conversion (which needs ρ at `2^c · α`) has headroom.
pub fn default_orders() -> Vec<u64> {
    let mut orders: Vec<u64> = (2..=256).collect();
    let mut a = 272u64;
    while a <= 4096 {
        orders.push(a);
        a += 16;
    }
    orders
}

/// RDP of the Gaussian mechanism: `ρ(α) = α / (2σ²)` (Lemma 3).
pub fn gaussian_rdp(alpha: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0, "noise multiplier must be positive");
    assert!(alpha > 1.0, "Renyi order must exceed 1");
    alpha / (2.0 * sigma * sigma)
}

/// Numerically stable `log(sum(exp(x)))`.
fn log_sum_exp(values: &[f64]) -> f64 {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max.is_infinite() {
        return max;
    }
    let sum: f64 = values.iter().map(|v| (v - max).exp()).sum();
    max + sum.ln()
}

/// RDP of the Poisson-sub-sampled Gaussian mechanism for integer order `α ≥ 2`.
///
/// This is the tight integer-order expression used by numerical RDP accountants
/// (Mironov, Talwar & Zhang 2019; the method the paper's reference implementation relies
/// on through Opacus):
///
/// `ρ'(α, σ) = 1/(α−1) · log( Σ_{k=0}^{α} C(α,k) (1−q)^{α−k} q^k e^{k(k−1)/(2σ²)} )`.
///
/// Degenerate cases: `q = 0` gives 0 (no data is touched); `q = 1` recovers the plain
/// Gaussian bound of Lemma 3 exactly. The looser closed-form upper bound printed as
/// Lemma 4 in the paper is available as [`subsampled_gaussian_rdp_upper_bound`].
pub fn subsampled_gaussian_rdp(alpha: u64, q: f64, sigma: f64) -> f64 {
    assert!(alpha >= 2, "the integer-order formula needs an order >= 2");
    assert!((0.0..=1.0).contains(&q), "sampling probability must be in [0, 1]");
    assert!(sigma > 0.0, "noise multiplier must be positive");
    if q == 0.0 {
        return 0.0;
    }
    if (q - 1.0).abs() < f64::EPSILON {
        return gaussian_rdp(alpha as f64, sigma);
    }
    let alpha_f = alpha as f64;
    let inv_sigma_sq = 1.0 / (sigma * sigma);
    let ln_q = q.ln();
    let ln_1mq = (1.0 - q).ln();
    let mut log_terms = Vec::with_capacity(alpha as usize + 1);
    // k = 0 term: (1-q)^alpha
    log_terms.push(alpha_f * ln_1mq);
    // ln C(alpha, k) maintained incrementally.
    let mut ln_binom = 0.0f64;
    for k in 1..=alpha {
        let kf = k as f64;
        ln_binom += (alpha_f - kf + 1.0).ln() - kf.ln();
        let term =
            ln_binom + (alpha_f - kf) * ln_1mq + kf * ln_q + kf * (kf - 1.0) / 2.0 * inv_sigma_sq;
        log_terms.push(term);
    }
    let log_total = log_sum_exp(&log_terms);
    (log_total / (alpha_f - 1.0)).max(0.0)
}

/// The closed-form *upper bound* on the sub-sampled Gaussian RDP printed as Lemma 4 in the
/// paper (Wang, Balle & Kasiviswanathan):
///
/// `ρ'(α, σ) ≤ 1/(α−1) · log( 1 + 2 q² C(α,2) min{2(e^{1/σ²} − 1), e^{1/σ²}}
///                              + Σ_{j=3}^{α} 2 q^j C(α,j) e^{j(j−1)/2σ²} )`.
///
/// It is loose for moderate-to-large `q`; [`subsampled_gaussian_rdp`] should be preferred
/// for accounting. It is retained to document the theorem statement and for comparison
/// tests.
pub fn subsampled_gaussian_rdp_upper_bound(alpha: u64, q: f64, sigma: f64) -> f64 {
    assert!(alpha >= 2, "the closed-form bound needs an integer order >= 2");
    assert!((0.0..=1.0).contains(&q), "sampling probability must be in [0, 1]");
    assert!(sigma > 0.0, "noise multiplier must be positive");
    if q == 0.0 {
        return 0.0;
    }
    if (q - 1.0).abs() < f64::EPSILON {
        return gaussian_rdp(alpha as f64, sigma);
    }
    let alpha_f = alpha as f64;
    let inv_sigma_sq = 1.0 / (sigma * sigma);
    let ln_q = q.ln();
    let ln2 = std::f64::consts::LN_2;

    // Log-terms of the sum inside the logarithm, starting with the constant 1 (log = 0).
    let mut log_terms = Vec::with_capacity(alpha as usize);
    log_terms.push(0.0);

    // j = 2 term: 2 q^2 C(α,2) min{2(e^{1/σ²} − 1), e^{1/σ²}}
    let ln_binom_2 = (alpha_f.ln() + (alpha_f - 1.0).ln()) - ln2;
    let min_term = {
        let a = 2.0 * (inv_sigma_sq.exp() - 1.0);
        let b = inv_sigma_sq.exp();
        a.min(b).max(f64::MIN_POSITIVE)
    };
    log_terms.push(ln2 + 2.0 * ln_q + ln_binom_2 + min_term.ln());

    // j >= 3 terms: 2 q^j C(α,j) e^{j(j−1)/(2σ²)}
    // ln C(α, j) is maintained incrementally from ln C(α, 2).
    let mut ln_binom = ln_binom_2;
    for j in 3..=alpha {
        let jf = j as f64;
        ln_binom += (alpha_f - jf + 1.0).ln() - jf.ln();
        let exponent = jf * (jf - 1.0) / 2.0 * inv_sigma_sq;
        log_terms.push(ln2 + jf * ln_q + ln_binom + exponent);
    }

    let log_total = log_sum_exp(&log_terms);
    (log_total / (alpha_f - 1.0)).max(0.0)
}

/// Composes `steps` identical mechanisms described by a per-step RDP evaluation function.
pub fn compose(orders: &[u64], per_step_rho: impl Fn(u64) -> f64, steps: f64) -> RdpCurve {
    RdpCurve::from_fn(orders.to_vec(), |a| per_step_rho(a) * steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_rdp_matches_formula() {
        assert!((gaussian_rdp(2.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((gaussian_rdp(10.0, 5.0) - 10.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_rdp_monotone_in_alpha_and_sigma() {
        assert!(gaussian_rdp(3.0, 2.0) > gaussian_rdp(2.0, 2.0));
        assert!(gaussian_rdp(3.0, 2.0) > gaussian_rdp(3.0, 4.0));
    }

    #[test]
    fn subsampled_degenerate_cases() {
        assert_eq!(subsampled_gaussian_rdp(8, 0.0, 5.0), 0.0);
        let full = subsampled_gaussian_rdp(8, 1.0, 5.0);
        assert!((full - gaussian_rdp(8.0, 5.0)).abs() < 1e-12);
    }

    #[test]
    fn subsampling_amplifies_privacy() {
        // For small q the sub-sampled bound must be far below the non-sub-sampled one.
        for &alpha in &[2u64, 4, 16, 64] {
            let sub = subsampled_gaussian_rdp(alpha, 0.01, 5.0);
            let full = gaussian_rdp(alpha as f64, 5.0);
            assert!(sub < full, "alpha={alpha}: {sub} !< {full}");
        }
    }

    #[test]
    fn subsampled_rdp_monotone_in_q() {
        let lo = subsampled_gaussian_rdp(16, 0.01, 5.0);
        let mid = subsampled_gaussian_rdp(16, 0.1, 5.0);
        let hi = subsampled_gaussian_rdp(16, 0.5, 5.0);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    fn subsampled_rdp_monotone_in_sigma() {
        let noisy = subsampled_gaussian_rdp(16, 0.1, 10.0);
        let less_noisy = subsampled_gaussian_rdp(16, 0.1, 2.0);
        assert!(noisy < less_noisy);
    }

    #[test]
    fn closed_form_bound_is_at_least_the_exact_expansion() {
        // The accountant uses the exact integer-order expansion; Lemma 4's closed form
        // must bound it from above at every order the accountant evaluates.
        let orders = default_orders();
        for q in [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9] {
            for sigma in [0.5, 1.0, 2.0, 5.0, 10.0] {
                for &alpha in &orders {
                    let exact = subsampled_gaussian_rdp(alpha, q, sigma);
                    let bound = subsampled_gaussian_rdp_upper_bound(alpha, q, sigma);
                    assert!(bound >= exact, "q={q} sigma={sigma} alpha={alpha}: {bound} < {exact}");
                }
            }
        }
    }

    #[test]
    fn subsampled_rdp_roughly_quadratic_in_q_for_small_q() {
        // The leading term is O(q² α / σ²); halving q should reduce rho by roughly 4x.
        let a = subsampled_gaussian_rdp(8, 0.02, 5.0);
        let b = subsampled_gaussian_rdp(8, 0.01, 5.0);
        let ratio = a / b;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio = {ratio}");
    }

    #[test]
    fn large_order_does_not_overflow() {
        let rho = subsampled_gaussian_rdp(4096, 0.01, 5.0);
        assert!(rho.is_finite());
        assert!(rho >= 0.0);
    }

    #[test]
    fn curve_composition() {
        let orders = vec![2u64, 4, 8];
        let mut a = RdpCurve::from_fn(orders.clone(), |o| o as f64);
        let b = RdpCurve::from_fn(orders.clone(), |o| 2.0 * o as f64);
        a.compose_with(&b);
        assert_eq!(a.rho, vec![6.0, 12.0, 24.0]);
        let scaled = a.scaled(10.0);
        assert_eq!(scaled.rho, vec![60.0, 120.0, 240.0]);
        assert_eq!(scaled.rho_at(4), Some(120.0));
        assert_eq!(scaled.rho_at(5), None);
    }

    #[test]
    fn default_orders_cover_group_conversion_range() {
        let orders = default_orders();
        assert_eq!(orders[0], 2);
        assert!(orders.contains(&256));
        assert!(*orders.last().unwrap() >= 4096);
        // strictly increasing
        assert!(orders.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn log_sum_exp_stability() {
        let v = vec![1000.0, 1000.0];
        let r = log_sum_exp(&v);
        assert!((r - (1000.0 + std::f64::consts::LN_2)).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }
}
