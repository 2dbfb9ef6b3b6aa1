//! # uldp-core
//!
//! The Uldp-FL framework: **cross-silo federated learning with across-silo user-level
//! differential privacy**, reproducing Kato et al. (VLDB 2024).
//!
//! The crate implements the full algorithm suite of the paper:
//!
//! * **DEFAULT** — non-private FedAVG with two-sided learning rates (the utility upper
//!   bound in the figures).
//! * **ULDP-NAIVE** (Algorithm 1) — per-silo delta clipping with noise scaled to the
//!   `C·|S|` user-level sensitivity.
//! * **ULDP-GROUP-k** (Algorithm 2) — per-silo DP-SGD plus the group-privacy conversion,
//!   with contribution-bounding flags `B`.
//! * **ULDP-AVG / ULDP-SGD** (Algorithm 3) — per-user weighted clipping inside each silo,
//!   directly bounding user-level sensitivity to `C`.
//! * **ULDP-AVG-w** — the enhanced weighting strategy `w_{s,u} = n_{s,u} / N_u` (Eq. 3).
//! * **User-level sub-sampling** (Algorithm 4) — Poisson sampling of users per round for
//!   RDP amplification.
//! * **Protocol 1** — the private weighting protocol combining Paillier encryption and
//!   multiplicative blinding to compute the enhanced weights without any party learning
//!   a user's cross-silo record total. The [`protocol`] module is split by party (setup,
//!   server, silos), and each protocol step hands the next party a plain message. Setup
//!   agrees Diffie–Hellman pairwise seeds, but no message is masked with them yet: the
//!   server sums the silos' blinded rows and ciphertext cells directly, an ideal secure
//!   aggregation (ROADMAP.md, item G).
//!
//! Entry point: [`trainer::Trainer`]. Configure a run with [`config::FlConfig`], pick a
//! [`config::Method`], and call [`trainer::Trainer::run`]; the returned
//! [`trainer::TrainingHistory`] carries per-round utility and the accumulated ULDP ε.

pub mod aggregation;
pub mod algorithms;
pub mod attack;
pub mod config;
pub mod protocol;
pub mod sampling;
pub mod scenario;
pub mod silo;
pub mod trainer;
pub mod weighting;

pub use config::{FlConfig, GroupSize, Method, WeightingStrategy};
pub use protocol::{
    ObliviousSubsampling, PrivateWeightingProtocol, ProtocolConfig, ProtocolTimings, RoundReport,
    Sampling,
};
pub use sampling::SampleMask;
pub use scenario::{ByzantineStrategy, FaultPlan, Scenario};
pub use trainer::{RoundMetrics, Trainer, TrainingHistory};
pub use weighting::WeightMatrix;
