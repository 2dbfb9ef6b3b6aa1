//! # uldp-accounting
//!
//! Rényi differential privacy (RDP) accounting for the Uldp-FL framework.
//!
//! The crate implements every privacy-analysis primitive the paper relies on:
//!
//! * [`rdp`] — RDP of the Gaussian mechanism (Lemma 3) and of the sub-sampled Gaussian
//!   mechanism (Lemma 4, the closed-form upper bound of Wang et al.), plus linear
//!   composition over rounds (Lemma 1).
//! * [`conversion`] — RDP → (ε, δ)-DP conversion (Lemma 2), the group-privacy property of
//!   RDP (Lemma 6), the normal-DP group-privacy conversion (Lemma 5) and the paper's
//!   binary-search procedure for reporting a group-DP ε at a fixed δ.
//! * [`accountant`] — a per-training-run accountant with one constructor per algorithm
//!   (ULDP-NAIVE, ULDP-AVG/SGD with optional user-level sub-sampling, ULDP-GROUP-k), used
//!   by the trainer to report the accumulated ε after every round (the right-hand plots of
//!   Figures 4–7).
//!
//! All bounds are computed over a grid of integer Rényi orders and minimised numerically,
//! mirroring the procedure used in the paper's reference implementation.

pub mod accountant;
pub mod conversion;
pub mod rdp;

pub use accountant::{membership_advantage_bound, Accountant, AlgorithmPrivacy};
pub use conversion::{dp_to_group_dp, group_epsilon_via_normal_dp, group_rdp, rdp_to_dp};
pub use rdp::{
    compose, default_orders, gaussian_rdp, subsampled_gaussian_rdp,
    subsampled_gaussian_rdp_upper_bound, RdpCurve,
};

/// The default δ used throughout the paper's experiments.
pub const DEFAULT_DELTA: f64 = 1e-5;

/// The default noise multiplier used throughout the paper's experiments.
pub const DEFAULT_SIGMA: f64 = 5.0;
