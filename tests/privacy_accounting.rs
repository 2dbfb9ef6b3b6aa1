//! Integration tests of the privacy accounting against the paper's stated results:
//! Theorems 1–3, the group-privacy blow-up of Figure 2, and the interaction between the
//! accountant and the trainer.

use uldp_fl::accounting::{
    default_orders, dp_to_group_dp, gaussian_rdp, group_epsilon_via_normal_dp, group_rdp,
    rdp_to_dp, subsampled_gaussian_rdp, Accountant, AlgorithmPrivacy, RdpCurve,
};

/// The per-step RDP curve of the paper's Figure 2 pre-experiment: a sub-sampled Gaussian
/// with σ = 5 and sampling rate 0.01, composed 1e5 times.
fn figure2_curve() -> RdpCurve {
    RdpCurve::from_fn(default_orders(), |a| subsampled_gaussian_rdp(a, 0.01, 5.0) * 1e5)
}

#[test]
fn figure2_record_level_epsilon_is_small() {
    // The paper reports ε ≈ 2.85 at record level (k = 1) for this setting; the exact value
    // depends on the accountant, but it must land in the low single digits.
    let (eps, _) = rdp_to_dp(&figure2_curve(), 1e-5);
    assert!(eps > 0.5 && eps < 6.0, "record-level epsilon {eps}");
}

#[test]
fn figure2_group_epsilon_blows_up_superlinearly() {
    let curve = figure2_curve();
    let eps1 = rdp_to_dp(&curve, 1e-5).0;
    let mut previous = eps1;
    let mut ratios = Vec::new();
    for k in [2u64, 4, 8, 16, 32, 64] {
        let grouped = group_rdp(&curve, k);
        let eps = rdp_to_dp(&grouped, 1e-5).0;
        assert!(eps > previous, "epsilon must grow with k (k={k}: {eps} <= {previous})");
        ratios.push(eps / eps1);
        previous = eps;
    }
    // Super-linear growth: by k = 32 the ratio must far exceed 32, by k = 64 even more
    // (the paper reports ~2100/2.85 ≈ 740x at k=32 and ~11400/2.85 ≈ 4000x at k=64).
    assert!(ratios[4] > 32.0, "k=32 blow-up only {}", ratios[4]);
    assert!(ratios[5] > ratios[4] * 2.0, "k=64 should be much worse than k=32");
}

#[test]
fn figure2_normal_dp_route_also_blows_up() {
    let curve = figure2_curve();
    let eps1 = group_epsilon_via_normal_dp(&curve, 1e-5, 1, 1e-6);
    let eps8 = group_epsilon_via_normal_dp(&curve, 1e-5, 8, 1e-6);
    let eps32 = group_epsilon_via_normal_dp(&curve, 1e-5, 32, 1e-6);
    assert!(eps8 > 8.0 * eps1, "k=8 must be super-linear: {eps8} vs {eps1}");
    assert!(eps32 > eps8);
}

#[test]
fn theorem_1_and_3_closed_form_is_an_upper_bound_of_the_accountant() {
    // The accountant minimises over Rényi orders, so it can only improve on the closed
    // form evaluated at an arbitrary order.
    let sigma = 5.0;
    let rounds = 100u64;
    let delta = 1e-5;
    let mut acc = Accountant::new(AlgorithmPrivacy::UserLevelGaussian { sigma, q: 1.0 });
    acc.step_rounds(rounds);
    let eps = acc.epsilon(delta);
    for alpha in [2.0f64, 8.0, 32.0, 128.0] {
        let closed_form = rounds as f64 * alpha / (2.0 * sigma * sigma)
            + ((alpha - 1.0) / alpha).ln()
            - (delta.ln() + alpha.ln()) / (alpha - 1.0);
        assert!(eps <= closed_form + 1e-9, "alpha {alpha}: {eps} > {closed_form}");
    }
}

#[test]
fn lemma5_matches_hand_computed_values() {
    let (ge, gd) = dp_to_group_dp(0.5, 1e-6, 2);
    assert!((ge - 1.0).abs() < 1e-12);
    assert!((gd - 2.0 * 0.5f64.exp() * 1e-6).abs() < 1e-15);
}

#[test]
fn gaussian_rdp_scales_linearly_with_composition() {
    let one = RdpCurve::from_fn(default_orders(), |a| gaussian_rdp(a as f64, 5.0));
    let hundred = one.scaled(100.0);
    for (r1, r100) in one.rho.iter().zip(hundred.rho.iter()) {
        assert!((r100 - 100.0 * r1).abs() < 1e-9);
    }
}

#[test]
fn group_accounting_depends_on_local_dataset_via_sampling_rate() {
    // The paper notes ULDP-GROUP's bound depends on the DP-SGD sampling rate (hence the
    // local dataset size): a smaller rate (larger dataset) gives a smaller epsilon.
    let make = |rate: f64| {
        let mut acc = Accountant::new(AlgorithmPrivacy::GroupDpSgd {
            sigma: 5.0,
            sampling_rate: rate,
            steps_per_round: 10,
            group_size: 8,
        });
        acc.step_rounds(20);
        acc.epsilon(1e-5)
    };
    assert!(make(0.01) < make(0.1));
    assert!(make(0.1) < make(0.5));
}
