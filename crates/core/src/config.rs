//! Training configuration for the Uldp-FL framework.

use crate::scenario::FaultPlan;
use serde::{Deserialize, Serialize};

/// Which per-user clipping weights `w_{s,u}` to use in ULDP-AVG / ULDP-SGD.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightingStrategy {
    /// The privacy-free default `w_{s,u} = 1/|S|`.
    Uniform,
    /// The enhanced strategy of Eq. (3): `w_{s,u} = n_{s,u} / N_u`
    /// (more weight where the user has more records). This is "ULDP-AVG-w" in the paper.
    RecordProportional,
}

/// How ULDP-GROUP chooses its group size `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupSize {
    /// The maximum number of records any user holds (no record is dropped; utility upper
    /// bound for record-level-DP approaches, privacy lower bound).
    Max,
    /// The median number of records per user.
    Median,
    /// A fixed group size.
    Fixed(u64),
}

/// The training algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Method {
    /// Non-private FedAVG with two-sided learning rates (the paper's DEFAULT baseline).
    Default,
    /// ULDP-NAIVE (Algorithm 1): silo-level clipping with |S|-scaled noise.
    UldpNaive,
    /// ULDP-GROUP-k (Algorithm 2): per-silo DP-SGD + group-privacy conversion.
    UldpGroup {
        /// Group size selection.
        group_size: GroupSize,
        /// Record-level Poisson sampling rate γ of the local DP-SGD.
        sampling_rate: f64,
    },
    /// ULDP-SGD (Algorithm 3, single local gradient step per user).
    UldpSgd {
        /// Clipping-weight strategy.
        weighting: WeightingStrategy,
    },
    /// ULDP-AVG (Algorithm 3, Q local epochs per user).
    UldpAvg {
        /// Clipping-weight strategy (RecordProportional = "ULDP-AVG-w").
        weighting: WeightingStrategy,
    },
}

impl Method {
    /// Human-readable label matching the paper's legends.
    pub fn label(&self) -> String {
        match self {
            Method::Default => "DEFAULT".to_string(),
            Method::UldpNaive => "ULDP-NAIVE".to_string(),
            Method::UldpGroup { group_size, .. } => match group_size {
                GroupSize::Max => "ULDP-GROUP-max".to_string(),
                GroupSize::Median => "ULDP-GROUP-median".to_string(),
                GroupSize::Fixed(k) => format!("ULDP-GROUP-{k}"),
            },
            Method::UldpSgd { .. } => "ULDP-SGD".to_string(),
            Method::UldpAvg { weighting } => match weighting {
                WeightingStrategy::Uniform => "ULDP-AVG".to_string(),
                WeightingStrategy::RecordProportional => "ULDP-AVG-w".to_string(),
            },
        }
    }

    /// Whether this method provides a (finite) ULDP guarantee.
    pub fn is_private(&self) -> bool {
        !matches!(self, Method::Default)
    }
}

/// Full configuration of a federated training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlConfig {
    /// Training algorithm.
    pub method: Method,
    /// Local learning rate `η_l`.
    pub local_lr: f64,
    /// Global learning rate `η_g` applied by the server to the aggregated delta.
    pub global_lr: f64,
    /// Noise multiplier σ (paper default: 5.0).
    pub sigma: f64,
    /// Clipping bound `C`.
    pub clip_bound: f64,
    /// Total number of rounds `T`.
    pub rounds: u64,
    /// Local epochs `Q` per round. ULDP-SGD takes one local gradient step per user, so
    /// [`FlConfig::validate`] rejects any value but 1 with it.
    pub local_epochs: u64,
    /// User-level Poisson sub-sampling probability `q` (1.0 disables sub-sampling).
    /// Honoured by ULDP-AVG / ULDP-SGD only; [`FlConfig::validate`] rejects `q < 1` with
    /// the other methods.
    pub user_sampling: f64,
    /// Privacy parameter δ (paper default: 1e-5).
    pub delta: f64,
    /// Evaluate utility every this many rounds (ε is tracked every round regardless).
    pub eval_every: u64,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Worker threads for the round's parallel loops: `0` uses the process-wide runtime
    /// (`ULDP_THREADS` / available parallelism), `1` forces sequential execution, any
    /// other value builds a dedicated pool. Training results are bitwise-identical at any
    /// setting.
    pub threads: usize,
    /// Shards per silo for the streaming round engine of ULDP-AVG / ULDP-SGD (at least
    /// 1): each silo's participating users are split into this many contiguous shards
    /// that run as independent pooled tasks, so one silo's round scales past a single
    /// task. Each shard streams its users in fixed chunks of 16 tasks. Training results
    /// are bitwise-identical at any setting.
    pub shards: usize,
    /// Deterministic fault injection for the round ([`crate::scenario`]): dropouts and
    /// byzantine updates. Honoured by ULDP-AVG / ULDP-SGD; the silo-level baselines
    /// cannot honour it, so [`FlConfig::validate`] rejects an active plan with them.
    /// Protocol 1 takes its own plan, [`crate::protocol::ProtocolConfig::fault_plan`],
    /// which every round honours except for byzantine corruption. The default plan
    /// injects nothing and leaves rounds byte-for-byte unchanged.
    pub fault_plan: FaultPlan,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            method: Method::UldpAvg { weighting: WeightingStrategy::Uniform },
            local_lr: 0.1,
            global_lr: 1.0,
            sigma: 5.0,
            clip_bound: 1.0,
            rounds: 10,
            local_epochs: 2,
            user_sampling: 1.0,
            delta: 1e-5,
            eval_every: 1,
            seed: 42,
            threads: 0,
            shards: 1,
            fault_plan: FaultPlan::none(),
        }
    }
}

impl FlConfig {
    /// A configuration with sensible learning rates for the given method and silo count.
    ///
    /// ULDP-AVG/SGD divide the aggregate by `|U|·|S|` and use `1/|S|`-scale weights, so
    /// the convergence analysis (Remark 2) recommends a global learning rate scaled by
    /// `|S|`; the silo-level methods use a plain average and keep `η_g = 1`. ULDP-SGD
    /// gets its one local epoch.
    pub fn recommended(method: Method, num_silos: usize) -> Self {
        let mut cfg = FlConfig { method, ..Default::default() };
        if matches!(method, Method::UldpSgd { .. }) {
            cfg.local_epochs = 1;
        }
        match method {
            Method::UldpAvg { .. } | Method::UldpSgd { .. } => {
                cfg.global_lr = num_silos as f64;
            }
            _ => {
                cfg.global_lr = 1.0;
            }
        }
        cfg
    }

    /// Validates parameter ranges, panicking with a descriptive message when invalid.
    pub fn validate(&self) {
        // The range checks below hold for ∞, which would train to non-finite parameters or
        // report ε for a σ the rounds never ran.
        for (name, v) in [
            ("local_lr", self.local_lr),
            ("global_lr", self.global_lr),
            ("sigma", self.sigma),
            ("clip_bound", self.clip_bound),
        ] {
            assert!(v.is_finite(), "{name} must be finite, got {v}");
        }
        assert!(self.local_lr > 0.0, "local learning rate must be positive");
        assert!(self.global_lr > 0.0, "global learning rate must be positive");
        assert!(self.sigma >= 0.0, "noise multiplier must be non-negative");
        assert!(self.clip_bound > 0.0, "clipping bound must be positive");
        assert!(self.rounds > 0, "must train for at least one round");
        assert!(self.local_epochs > 0, "at least one local epoch is required");
        assert!(
            self.local_epochs == 1 || !matches!(self.method, Method::UldpSgd { .. }),
            "ULDP-SGD takes one local gradient step per round, so local_epochs must be 1, got {}",
            self.local_epochs
        );
        assert!(
            self.user_sampling > 0.0 && self.user_sampling <= 1.0,
            "user sampling probability must be in (0, 1]"
        );
        assert!(self.delta > 0.0 && self.delta < 1.0, "delta must be in (0, 1)");
        assert!(self.eval_every > 0, "eval_every must be positive");
        assert!(self.shards > 0, "shards must be at least 1");
        self.fault_plan.validate();
        assert!(
            !self.fault_plan.is_active()
                || matches!(self.method, Method::UldpAvg { .. } | Method::UldpSgd { .. }),
            "{} cannot honour an active fault_plan; only ULDP-AVG and ULDP-SGD inject faults",
            self.method.label()
        );
        assert!(
            self.user_sampling == 1.0
                || matches!(self.method, Method::UldpAvg { .. } | Method::UldpSgd { .. }),
            "{} cannot honour user_sampling = {}; only ULDP-AVG and ULDP-SGD sub-sample users",
            self.method.label(),
            self.user_sampling
        );
        if let Method::UldpGroup { sampling_rate, group_size } = self.method {
            assert!(
                sampling_rate > 0.0 && sampling_rate <= 1.0,
                "DP-SGD sampling rate must be in (0, 1]"
            );
            if let GroupSize::Fixed(k) = group_size {
                assert!(k >= 1, "group size must be at least 1");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Method::Default.label(), "DEFAULT");
        assert_eq!(Method::UldpNaive.label(), "ULDP-NAIVE");
        assert_eq!(
            Method::UldpGroup { group_size: GroupSize::Fixed(8), sampling_rate: 0.1 }.label(),
            "ULDP-GROUP-8"
        );
        assert_eq!(
            Method::UldpGroup { group_size: GroupSize::Max, sampling_rate: 0.1 }.label(),
            "ULDP-GROUP-max"
        );
        assert_eq!(
            Method::UldpAvg { weighting: WeightingStrategy::RecordProportional }.label(),
            "ULDP-AVG-w"
        );
        assert_eq!(Method::UldpSgd { weighting: WeightingStrategy::Uniform }.label(), "ULDP-SGD");
    }

    #[test]
    fn privacy_flag() {
        assert!(!Method::Default.is_private());
        assert!(Method::UldpNaive.is_private());
        assert!(Method::UldpAvg { weighting: WeightingStrategy::Uniform }.is_private());
    }

    #[test]
    fn recommended_scales_global_lr_for_avg() {
        let avg =
            FlConfig::recommended(Method::UldpAvg { weighting: WeightingStrategy::Uniform }, 5);
        assert_eq!(avg.global_lr, 5.0);
        let naive = FlConfig::recommended(Method::UldpNaive, 5);
        assert_eq!(naive.global_lr, 1.0);
        let sgd =
            FlConfig::recommended(Method::UldpSgd { weighting: WeightingStrategy::Uniform }, 5);
        assert_eq!((sgd.global_lr, sgd.local_epochs), (5.0, 1));
        sgd.validate();
    }

    #[test]
    fn default_config_is_valid() {
        FlConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "shards must be at least 1")]
    fn zero_shards_rejected() {
        FlConfig { shards: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "user sampling probability")]
    fn invalid_sampling_rejected() {
        let cfg = FlConfig { user_sampling: 0.0, ..Default::default() };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "clipping bound")]
    fn invalid_clip_rejected() {
        let cfg = FlConfig { clip_bound: 0.0, ..Default::default() };
        cfg.validate();
    }

    #[test]
    fn non_finite_values_rejected() {
        for value in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for (name, cfg) in [
                ("local_lr", FlConfig { local_lr: value, ..Default::default() }),
                ("global_lr", FlConfig { global_lr: value, ..Default::default() }),
                ("sigma", FlConfig { sigma: value, ..Default::default() }),
                ("clip_bound", FlConfig { clip_bound: value, ..Default::default() }),
            ] {
                let err = std::panic::catch_unwind(|| cfg.validate()).expect_err(name);
                let msg = err.downcast_ref::<String>().map_or("", String::as_str);
                assert_eq!(msg, format!("{name} must be finite, got {value}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "byzantine_fraction")]
    fn invalid_fault_plan_rejected() {
        let cfg = FlConfig {
            fault_plan: FaultPlan { byzantine_fraction: -0.5, ..FaultPlan::none() },
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "ULDP-NAIVE cannot honour an active fault_plan")]
    fn fault_plan_rejected_for_methods_that_ignore_it() {
        let plan = FaultPlan { dropout_fraction: 0.5, seed: 3, ..FaultPlan::none() };
        FlConfig { method: Method::UldpNaive, fault_plan: plan, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "ULDP-GROUP-max cannot honour user_sampling = 0.5")]
    fn user_sampling_rejected_for_methods_that_ignore_it() {
        let method = Method::UldpGroup { group_size: GroupSize::Max, sampling_rate: 0.1 };
        FlConfig { method, user_sampling: 0.5, ..Default::default() }.validate();
    }

    #[test]
    fn fault_plan_accepted_for_user_level_methods() {
        let plan = FaultPlan { dropout_fraction: 0.5, seed: 3, ..FaultPlan::none() };
        for weighting in [WeightingStrategy::Uniform, WeightingStrategy::RecordProportional] {
            for method in [Method::UldpAvg { weighting }, Method::UldpSgd { weighting }] {
                FlConfig { fault_plan: plan, ..FlConfig::recommended(method, 3) }.validate();
            }
        }
    }

    #[test]
    #[should_panic(expected = "local_epochs must be 1, got 2")]
    fn local_epochs_rejected_for_uldp_sgd() {
        let method = Method::UldpSgd { weighting: WeightingStrategy::Uniform };
        FlConfig { local_epochs: 2, ..FlConfig::recommended(method, 3) }.validate();
    }
}
