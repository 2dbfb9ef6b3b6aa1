//! Scenario engine: deterministic, seed-derived fault injection for adversarial and
//! degraded federations.
//!
//! The paper's evaluation assumes well-behaved federations — full participation (§2.1),
//! honest silos, roughly balanced user→silo allocations. Real cross-silo deployments face
//! dropouts and byzantine updates. This module makes those conditions
//! *configurable and reproducible*: a [`FaultPlan`] threaded through
//! [`crate::config::FlConfig`] and [`crate::protocol::ProtocolConfig`] describes which
//! silos drop or lie in a given round, and every decision is a **pure function of
//! `(plan seed, round seed, silo[, user])`** — derived through the same
//! [`seeding`] streams as the training RNGs, never through shared mutable state.
//!
//! That purity is what turns every scenario into a determinism test: a faulted round is
//! still bitwise-identical across every `(threads, shards)` grid point, so the
//! runtime-grid oracle of `tests/runtime_determinism.rs` extends unchanged to the whole
//! scenario catalogue (`tests/scenario_fuzz.rs`).
//!
//! Degradation semantics implemented on top of the plan:
//!
//! * **Dropout** (ULDP-AVG/SGD and Protocol 1): a dropped silo contributes neither its
//!   per-user deltas nor its DP noise. The aggregation path re-weights the surviving sum
//!   by `|S| / |S_surviving|`, so the update keeps its expected scale; in Protocol 1 the
//!   dropped silo's `(silo, coordinate)` cells are left out of each coordinate's
//!   homomorphic product. No pairwise mask is applied today: the server sums the silos'
//!   cells directly, an ideal secure aggregation (ROADMAP.md, item G), so that exclusion
//!   is all a dropout costs. Under real pairwise masks a dropped silo's masks would not
//!   cancel, and the survivors would have to send a recovery correction.
//!   At least one silo always survives ([`FaultPlan::dropped_silos`] clamps the count).
//!   Protocol 1 draws round `t`'s set from its own round counter, whatever the round's
//!   sampling (all users, a mask, or oblivious sub-sampling).
//! * **Byzantine corruption** (ULDP-AVG/SGD): a corrupted silo's raw per-user deltas are
//!   rewritten by a [`ByzantineStrategy`] **before** clipping, so the per-user clipping
//!   defense applies: each corrupted `(silo, user)` task still contributes at most
//!   `w_{s,u} · C` in norm, bounding the attacker's influence on the aggregate by
//!   `2 · C · Σ_{corrupted (s,u)} w_{s,u}` regardless of the strategy's magnitude.
//!   Protocol 1 receives deltas that are already clipped, so its setup rejects a plan
//!   with `byzantine_fraction > 0`.
//! * **Skewed allocation**: a [`Scenario`] can pair its plan with the Zipf user→silo
//!   allocation of `uldp-datasets` ([`Allocation::zipf_default`]), concentrating records
//!   on few silos/users — the regime where dropouts hurt most.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use uldp_datasets::Allocation;
use uldp_ml::rng::gaussian_vector;
use uldp_runtime::seeding;
use uldp_telemetry::{metrics, trace};

/// Stream tags separating the plan's derivations from one another and from the training
/// (`1`) and noise (`2`) streams of [`crate::algorithms`].
const STREAM_DROPOUT: u64 = 0x5d01;
const STREAM_BYZANTINE: u64 = 0x5d03;
const STREAM_CORRUPTION: u64 = 0x5d04;

/// How a byzantine silo rewrites a raw (pre-clipping) per-user delta.
///
/// All strategies are applied *before* `clip_to_norm`, so their influence on the
/// aggregate is bounded by the clipping norm no matter how large the corruption is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum ByzantineStrategy {
    /// Negate every coordinate: the classic model-poisoning direction flip.
    #[default]
    SignFlip,
    /// Multiply every coordinate by `factor` (e.g. `1e6`): a scaled-gradient attack that
    /// would dominate an unclipped aggregate.
    ScaledGradient {
        /// Multiplier applied to every coordinate of the honest delta.
        factor: f64,
    },
    /// Replace the delta with i.i.d. Gaussian noise of the given standard deviation.
    RandomNoise {
        /// Standard deviation of the replacement noise.
        std: f64,
    },
}

impl ByzantineStrategy {
    /// Short label for tables and report sections.
    pub fn label(&self) -> &'static str {
        match self {
            ByzantineStrategy::SignFlip => "sign-flip",
            ByzantineStrategy::ScaledGradient { .. } => "scaled-gradient",
            ByzantineStrategy::RandomNoise { .. } => "random-noise",
        }
    }

    /// Applies the strategy to a raw delta, drawing any randomness from `rng` (which the
    /// caller derives as a pure function of the task identity, keeping rounds bitwise
    /// reproducible at any thread count).
    pub fn corrupt<R: rand::Rng + ?Sized>(&self, delta: &mut [f64], rng: &mut R) {
        match self {
            ByzantineStrategy::SignFlip => {
                for d in delta.iter_mut() {
                    *d = -*d;
                }
            }
            ByzantineStrategy::ScaledGradient { factor } => {
                for d in delta.iter_mut() {
                    *d *= factor;
                }
            }
            ByzantineStrategy::RandomNoise { std } => {
                let noise = gaussian_vector(rng, *std, delta.len());
                delta.copy_from_slice(&noise);
            }
        }
    }
}

/// A deterministic, seed-derived fault plan for a federation.
///
/// The default plan injects nothing and is free: every fault path is gated on
/// [`FaultPlan::is_active`], and an inactive plan leaves the round byte-for-byte
/// identical to a plan-less build. Fractions are of the silo count; the affected silo
/// *sets* are re-drawn every round from `(seed, round_seed)`, so over a run each silo
/// takes its turn misbehaving.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Fraction of silos that drop out of each round between Protocol 1 steps 2.(b) and
    /// 2.(c) (after the server ships the encrypted blinded inverses, before silo reports
    /// are aggregated). Clamped so at least one silo always survives.
    pub dropout_fraction: f64,
    /// Fraction of silos whose per-user updates are corrupted.
    pub byzantine_fraction: f64,
    /// The corruption applied by byzantine silos.
    pub byzantine: ByzantineStrategy,
    /// Seed of the plan's derivation streams, mixed with each round's seed.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no dropouts, no corruption.
    pub fn none() -> Self {
        FaultPlan {
            dropout_fraction: 0.0,
            byzantine_fraction: 0.0,
            byzantine: ByzantineStrategy::SignFlip,
            seed: 0,
        }
    }

    /// Whether any fault is injected at all. Inactive plans short-circuit every hook.
    pub fn is_active(&self) -> bool {
        self.dropout_fraction > 0.0 || self.byzantine_fraction > 0.0
    }

    /// Panics unless every fraction lies in `[0, 1]` and the magnitudes are finite.
    pub fn validate(&self) {
        for (name, f) in [
            ("dropout_fraction", self.dropout_fraction),
            ("byzantine_fraction", self.byzantine_fraction),
        ] {
            assert!((0.0..=1.0).contains(&f), "{name} must be in [0, 1], got {f}");
        }
        match self.byzantine {
            ByzantineStrategy::SignFlip => {}
            ByzantineStrategy::ScaledGradient { factor } => {
                assert!(factor.is_finite(), "scaled-gradient factor must be finite");
            }
            ByzantineStrategy::RandomNoise { std } => {
                assert!(std.is_finite() && std >= 0.0, "random-noise std must be finite and >= 0");
            }
        }
    }

    /// The derivation stream for one `(round, fault kind)` pair.
    fn round_stream(&self, round_seed: u64, tag: u64) -> u64 {
        seeding::mix(seeding::mix(self.seed, round_seed), tag)
    }

    /// Silos dropping out of this round, as a mask in silo order. At most
    /// `num_silos − 1` silos are dropped so the surviving re-weighting is well defined.
    pub fn dropped_silos(&self, round_seed: u64, num_silos: usize) -> Vec<bool> {
        let max = num_silos.saturating_sub(1);
        select_silos(
            self.round_stream(round_seed, STREAM_DROPOUT),
            num_silos,
            self.dropout_fraction,
            max,
        )
    }

    /// The round's dropped silos, [`FaultPlan::dropped_silos`], as a round applies them:
    /// with telemetry on, each dropped silo also counts one `scenario.fault_events` and
    /// emits one `fault/dropout` event tagged with `round` and the silo.
    pub fn draw_dropouts(&self, round: u64, num_silos: usize) -> Vec<bool> {
        let dropped = self.dropped_silos(round, num_silos);
        if uldp_telemetry::enabled() {
            for (silo, _) in dropped.iter().enumerate().filter(|(_, &d)| d) {
                metrics::FAULT_EVENTS.inc();
                trace::event(
                    "fault",
                    "dropout",
                    vec![("round", round.into()), ("silo", silo.into())],
                );
            }
        }
        dropped
    }

    /// Silos applying [`FaultPlan::byzantine`] to their updates this round.
    pub fn byzantine_silos(&self, round_seed: u64, num_silos: usize) -> Vec<bool> {
        select_silos(
            self.round_stream(round_seed, STREAM_BYZANTINE),
            num_silos,
            self.byzantine_fraction,
            num_silos,
        )
    }

    /// Applies the byzantine strategy to one `(silo, user)` task's raw delta.
    ///
    /// The corruption RNG is a pure function of `(plan seed, round_seed, silo, user)` —
    /// the same flattening as the training streams — so corrupted rounds stay on the
    /// bitwise-determinism oracle.
    pub fn corrupt_delta(
        &self,
        delta: &mut [f64],
        round_seed: u64,
        num_users: usize,
        silo: usize,
        user: usize,
    ) {
        let task_index = (silo * num_users + user) as u64;
        let mut rng = StdRng::seed_from_u64(seeding::index_seed(
            self.round_stream(round_seed, STREAM_CORRUPTION),
            task_index,
        ));
        self.byzantine.corrupt(delta, &mut rng);
    }
}

/// Deterministically selects `round(fraction · num_silos)` silos (capped at `max`) by
/// ranking the per-silo scores `index_seed(stream, silo)` and taking the smallest — a
/// seed-derived random subset that is stable across thread counts and participant order.
fn select_silos(stream: u64, num_silos: usize, fraction: f64, max: usize) -> Vec<bool> {
    let mut mask = vec![false; num_silos];
    if fraction <= 0.0 || num_silos == 0 {
        return mask;
    }
    let k = ((fraction * num_silos as f64).round() as usize).min(max);
    if k == 0 {
        return mask;
    }
    let mut ranked: Vec<(u64, usize)> =
        (0..num_silos).map(|s| (seeding::index_seed(stream, s as u64), s)).collect();
    ranked.sort_unstable();
    for &(_, silo) in ranked.iter().take(k) {
        mask[silo] = true;
    }
    mask
}

/// A named federation condition: a fault plan plus an allocation regime.
///
/// [`Scenario::catalogue`] is the shared grid sampled by the round fuzzer
/// (`tests/scenario_fuzz.rs`) and the per-scenario membership-inference scoring of
/// `ext_membership_inference`.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Stable name used in test labels and the per-scenario table.
    pub name: &'static str,
    /// The faults injected under this scenario.
    pub plan: FaultPlan,
    /// Whether the federation uses the heavily skewed Zipf user→silo allocation instead
    /// of the uniform one.
    pub skewed: bool,
}

impl Scenario {
    /// The user→silo allocation the scenario's federation is generated with.
    pub fn allocation(&self) -> Allocation {
        if self.skewed {
            Allocation::zipf_default()
        } else {
            Allocation::Uniform
        }
    }

    /// The canonical training scenario grid: a well-behaved baseline, dropout at two
    /// severities, each byzantine strategy, Zipf skew, and a mixed worst case.
    pub fn catalogue() -> Vec<Scenario> {
        let base = FaultPlan { seed: 0x5ce0, ..FaultPlan::none() };
        vec![
            Scenario { name: "baseline", plan: FaultPlan::none(), skewed: false },
            Scenario {
                name: "dropout_light",
                plan: FaultPlan { dropout_fraction: 0.25, ..base },
                skewed: false,
            },
            Scenario {
                name: "dropout_heavy",
                plan: FaultPlan { dropout_fraction: 0.5, ..base },
                skewed: false,
            },
            Scenario {
                name: "byz_sign_flip",
                plan: FaultPlan {
                    byzantine_fraction: 0.25,
                    byzantine: ByzantineStrategy::SignFlip,
                    ..base
                },
                skewed: false,
            },
            Scenario {
                name: "byz_scaled",
                plan: FaultPlan {
                    byzantine_fraction: 0.25,
                    byzantine: ByzantineStrategy::ScaledGradient { factor: 1e6 },
                    ..base
                },
                skewed: false,
            },
            Scenario {
                name: "byz_noise",
                plan: FaultPlan {
                    byzantine_fraction: 0.25,
                    byzantine: ByzantineStrategy::RandomNoise { std: 10.0 },
                    ..base
                },
                skewed: false,
            },
            Scenario { name: "zipf_skew", plan: FaultPlan::none(), skewed: true },
            Scenario {
                name: "mixed_worst_case",
                plan: FaultPlan {
                    dropout_fraction: 0.25,
                    byzantine_fraction: 0.25,
                    byzantine: ByzantineStrategy::SignFlip,
                    ..base
                },
                skewed: true,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(dropout: f64, byz: f64) -> FaultPlan {
        FaultPlan {
            dropout_fraction: dropout,
            byzantine_fraction: byz,
            seed: 42,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn inactive_plan_selects_nothing() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert!(p.dropped_silos(7, 5).iter().all(|&d| !d));
        assert!(p.byzantine_silos(7, 5).iter().all(|&d| !d));
    }

    #[test]
    fn selection_is_deterministic_and_round_dependent() {
        let p = plan(0.5, 0.0);
        assert_eq!(p.dropped_silos(3, 8), p.dropped_silos(3, 8));
        // Over many rounds the selected set must vary (rounds are re-drawn).
        let first = p.dropped_silos(0, 8);
        assert!((1..50).any(|r| p.dropped_silos(r, 8) != first));
    }

    #[test]
    fn dropout_counts_match_fraction_and_clamp() {
        let p = plan(0.5, 0.0);
        assert_eq!(p.dropped_silos(1, 8).iter().filter(|&&d| d).count(), 4);
        // Full dropout clamps to n − 1 so one silo always survives.
        let all = plan(1.0, 0.0);
        assert_eq!(all.dropped_silos(1, 4).iter().filter(|&&d| d).count(), 3);
        let single = plan(1.0, 0.0);
        assert_eq!(single.dropped_silos(1, 1).iter().filter(|&&d| d).count(), 0);
    }

    #[test]
    fn fault_kinds_draw_independent_streams() {
        let p = FaultPlan {
            dropout_fraction: 0.5,
            byzantine_fraction: 0.5,
            seed: 7,
            ..FaultPlan::none()
        };
        // With identical fractions the two masks come from distinct streams, so at
        // least one round separates them.
        assert!((0..20).any(|r| p.dropped_silos(r, 10) != p.byzantine_silos(r, 10)));
    }

    #[test]
    fn corruption_is_deterministic_per_task() {
        let p = FaultPlan {
            byzantine_fraction: 1.0,
            byzantine: ByzantineStrategy::RandomNoise { std: 1.0 },
            seed: 9,
            ..FaultPlan::none()
        };
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![1.0, 2.0, 3.0];
        p.corrupt_delta(&mut a, 5, 10, 1, 3);
        p.corrupt_delta(&mut b, 5, 10, 1, 3);
        assert_eq!(a, b);
        let mut c = vec![1.0, 2.0, 3.0];
        p.corrupt_delta(&mut c, 5, 10, 1, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn strategies_do_what_they_say() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = vec![1.0, -2.0];
        ByzantineStrategy::SignFlip.corrupt(&mut d, &mut rng);
        assert_eq!(d, vec![-1.0, 2.0]);
        ByzantineStrategy::ScaledGradient { factor: 10.0 }.corrupt(&mut d, &mut rng);
        assert_eq!(d, vec![-10.0, 20.0]);
        ByzantineStrategy::RandomNoise { std: 1.0 }.corrupt(&mut d, &mut rng);
        assert!(d != vec![-10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "dropout_fraction")]
    fn validate_rejects_out_of_range_fractions() {
        plan(1.5, 0.0).validate();
    }

    #[test]
    fn catalogue_is_valid_and_distinctly_named() {
        let scenarios = Scenario::catalogue();
        assert!(scenarios.len() >= 8);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
        for s in &scenarios {
            crate::config::FlConfig { fault_plan: s.plan, ..Default::default() }.validate();
        }
        assert!(scenarios.iter().any(|s| s.skewed));
        assert!(scenarios.iter().any(|s| !s.plan.is_active()));
    }
}
