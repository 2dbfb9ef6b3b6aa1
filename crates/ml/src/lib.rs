//! # uldp-ml
//!
//! A minimal, dependency-free machine-learning substrate for the Uldp-FL reproduction.
//!
//! The paper trains small models (≈100–20 000 parameters) with SGD inside each silo and
//! exchanges *flat parameter vectors* between silos and the server. This crate provides
//! exactly that surface:
//!
//! * [`tensor`] — small dense linear-algebra helpers (dot products, matrix–vector
//!   products, axpy) on `f64` slices.
//! * [`sample`] — the record schema shared with `uldp-datasets`: feature vector plus a
//!   classification or survival target.
//! * [`model`] — the [`Model`] trait (flat parameters, loss & gradient on a
//!   mini-batch) and its implementations:
//!   [`LinearClassifier`] (softmax regression, the Creditcard /
//!   HeartDisease model scale), [`MlpClassifier`] (one-hidden-layer
//!   network, the ≈20k-parameter MNIST model scale) and
//!   [`CoxRegression`] (the TcgaBrca survival model with Cox
//!   partial-likelihood loss).
//! * [`optimizer`] — plain SGD with a local learning rate, as used by the paper's client
//!   subroutines.
//! * [`clipping`] — L2 clipping of gradients and model deltas (the core primitive behind
//!   per-user weighted clipping).
//! * [`rng`] — Box–Muller Gaussian sampling used for DP noise and synthetic data.
//! * [`metrics`] — accuracy, average loss, and the concordance index (C-index) reported
//!   for TcgaBrca.

pub mod clipping;
pub mod cox;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod optimizer;
pub mod rng;
pub mod sample;
pub mod tensor;

pub use clipping::{clip_to_norm, clipped, l2_norm};
pub use cox::CoxRegression;
pub use linear::LinearClassifier;
pub use metrics::{accuracy, average_loss, concordance_index};
pub use mlp::MlpClassifier;
pub use model::{Model, ModelKind};
pub use optimizer::Sgd;
pub use rng::{gaussian, gaussian_vector};
pub use sample::{Sample, Target};
