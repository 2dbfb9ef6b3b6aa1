//! The silos' side of Protocol 1: one view per silo and the silos' common state. No
//! function here can reach the server's state.

use super::{Inverses, Public};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use uldp_bigint::montgomery::{multi_exp_window, WindowTable};
use uldp_bigint::{modular::mod_mul, BigUint};
use uldp_crypto::paillier::{Ciphertext, FixedBaseEnc0};
use uldp_crypto::{masking::MaskSeed, sha256::hash_parts, MultiplicativeBlinder};
use uldp_runtime::Runtime;
use uldp_telemetry::metrics;

/// Domain label of a silo's private output-randomness seed (see "Output randomness").
pub const OUTPUT_SEED_LABEL: &str = "uldp-fl/silo-output-randomness";

/// What every silo holds alike, held once for all of them.
pub struct SiloCommon {
    /// The public key and the fixed-point parameters.
    pub public: Arc<Public>,
    /// The blinding-factor expander seeded by the silos' shared seed `R`, which also keys
    /// their oblivious-transfer choices; the server never sees it.
    pub blinder: MultiplicativeBlinder,
    /// Every record holder's `[b_u, b_u⁻¹]`, derived by the first `Sampling::All` round
    /// from the ciphertexts it received and used by every later one (see "q = 1
    /// ciphertexts are sent once"). It never reaches the server.
    pub held_pairs: OnceLock<Vec<Option<[BigUint; 2]>>>,
}

/// One silo's own state.
pub struct SiloView {
    /// This silo's record histogram row `n_{s,·}`.
    pub histogram: Vec<u64>,
    /// This silo's pairwise secure-aggregation seeds, one per silo.
    pub pair_seeds: Vec<MaskSeed>,
    /// Seed of this silo's output randomness, hashed from its Diffie–Hellman secret.
    pub output_seed: [u8; 32],
    /// This silo's `Enc(0)` on its fixed bases `H_s` and `W_s`, which it never sends.
    pub output: FixedBaseEnc0,
}

/// What the silos derive in one round from the step 2.(a) message and `R` alone: each
/// weighed user's odd-power window tables of `b_u = c_u^{r_u·C_LCM mod n} mod n²` and of
/// its inverse mod `n²`. The tables never outlive their round.
pub struct Received {
    /// `[b_u, b_u⁻¹]` tables per sent position; `None` unless a surviving silo weighs u.
    pub tables: Vec<Option<[WindowTable; 2]>>,
}

impl SiloCommon {
    /// The silos' transfer choice `c ∈ [0, P)` for user `u` in round `round`, from a
    /// stream keyed by `R`: every silo makes it, and the server cannot.
    pub fn ot_choice(&self, round: u64, u: u32, slots: u64) -> u64 {
        let parts: [&[u8]; 3] = [self.blinder.seed(), &round.to_be_bytes(), &u.to_be_bytes()];
        StdRng::from_seed(hash_parts("uldp-fl/ot-choice", &parts)).gen_range(0..slots)
    }

    /// The round's tables, derived once for all silos (shared silo work: every silo derives
    /// the same `[b_u, b_u⁻¹]` from the same ciphertext and `R`) at the window
    /// [`multi_exp_window`] picks for the round's longest cell exponent
    /// `n_su·|Encode(δ_suj)|`; the window only sets speed, never bits. With `hold` (a
    /// `Sampling::All` round without `fresh_encrypt`) the pairs are the held set, which
    /// the first such round derives for every user some silo holds records of, weighed or
    /// not; later ones receive no ciphertext and derive nothing. Otherwise the round
    /// derives the pairs of the users it weighs ([`SiloCommon::derive_pairs`]).
    pub fn receive(
        &self,
        rt: &Runtime,
        silos: &[SiloView],
        sent: &Inverses,
        participants: &[Vec<(usize, usize)>],
        clipped_deltas: &[Vec<Vec<f64>>],
        hold: bool,
    ) -> Received {
        let Public { key, codec, .. } = &*self.public;
        let (mut used, mut largest) = (vec![false; sent.users.len()], 0u128);
        for ((silo, participants), deltas) in silos.iter().zip(participants).zip(clipped_deltas) {
            for &(i, u) in participants {
                used[i] = true;
                let n_su = silo.histogram[u] as u128;
                // `(|δ|/P).round()` is exactly `Encode`'s magnitude.
                for d in &deltas[u] {
                    let magnitude = (d.abs() / codec.precision()).round() as u128;
                    largest = largest.max(n_su.saturating_mul(magnitude));
                }
            }
        }
        let round_pairs;
        let pairs = if hold {
            self.held_pairs.get_or_init(|| {
                let holds: Vec<bool> = (sent.users.iter())
                    .map(|&u| silos.iter().any(|silo| silo.histogram[u as usize] > 0))
                    .collect();
                self.derive_pairs(rt, sent, &holds)
            })
        } else {
            round_pairs = self.derive_pairs(rt, sent, &used);
            &round_pairs
        };
        let window = multi_exp_window((u128::BITS - largest.leading_zeros()) as usize);
        let positions: Vec<usize> = (0..used.len()).filter(|&i| used[i]).collect();
        let mut built = rt
            .par_map(&positions, |_, &i| {
                let pair = pairs[i].as_ref().expect("every weighed user has a pair");
                pair.each_ref().map(|base| key.ctx_n2().window_table(base, window))
            })
            .into_iter();
        Received { tables: used.iter().map(|&u| if u { built.next() } else { None }).collect() }
    }

    /// `[b_u, b_u⁻¹]` for the sent positions `wanted` marks, `None` elsewhere: one
    /// full-width power `b_u = c_u^{r_u·C_LCM mod n} mod n²` per wanted user, from the
    /// ciphertext the silos received and the factors of one `factors` call, and one batch
    /// inversion of all of them.
    fn derive_pairs(
        &self,
        rt: &Runtime,
        sent: &Inverses,
        wanted: &[bool],
    ) -> Vec<Option<[BigUint; 2]>> {
        debug_assert_eq!(sent.users.len(), sent.ciphertexts.len(), "one ciphertext per id");
        let Public { key, c_lcm, .. } = &*self.public;
        let positions: Vec<usize> = (0..wanted.len()).filter(|&i| wanted[i]).collect();
        let users: Vec<u64> = positions.iter().map(|&i| sent.users[i] as u64).collect();
        let factors = self.blinder.factors(&users);
        let powers = rt.par_map(&positions, |k, &i| {
            let f = mod_mul(&factors[k], c_lcm, &key.n);
            key.ctx_n2().pow(&sent.ciphertexts[i].0, &f)
        });
        let inverses = key.ctx_n2().batch_inv(&powers);
        let mut pairs = powers.into_iter().zip(inverses).map(|(power, inverse)| {
            [power, inverse.expect("a Paillier ciphertext is a unit mod n²")]
        });
        wanted.iter().map(|&w| if w { pairs.next() } else { None }).collect()
    }
}

impl SiloView {
    /// This silo's participants in a round: the sent users it holds records *and* a
    /// delta for, as (sent position, user id) pairs. The ids are ascending, so the list
    /// walks users in exactly the order of a `0..|U|` scan — the cell totals keep
    /// identical bits — while the fold only ever touches the round's participants.
    pub fn participants(&self, users: &[u32], deltas: &[Vec<f64>]) -> Vec<(usize, usize)> {
        users
            .iter()
            .enumerate()
            .filter(|&(_, &u)| self.histogram[u as usize] > 0 && !deltas[u as usize].is_empty())
            .map(|(i, &u)| (i, u as usize))
            .collect()
    }

    /// Step 2.(b) for coordinate `j` of round `round`: the bare cell
    /// ([`SiloView::bare_cell`]) times a fresh `Enc(0)` whose bases and exponents only
    /// this silo can derive (see "Output randomness"). This is the ciphertext the silo
    /// sends.
    #[allow(clippy::too_many_arguments)]
    pub fn weigh_cell(
        &self,
        common: &SiloCommon,
        received: &Received,
        participants: &[(usize, usize)],
        deltas: &[Vec<f64>],
        noise: f64,
        round: u64,
        j: usize,
    ) -> Ciphertext {
        let bare = self.bare_cell(common, received, participants, deltas, noise, j);
        let seed = hash_parts(
            OUTPUT_SEED_LABEL,
            &[&self.output_seed, &round.to_be_bytes(), &(j as u64).to_be_bytes()],
        );
        self.output.rerandomise(&common.public.key, &mut StdRng::from_seed(seed), &bare)
    }

    /// `∏_u b_u^{n_su·x} · Enc(Encode(z_sj)·C_LCM)` with `x = Encode(δ_suj)`, taking
    /// `(b_u⁻¹)^{n_su·(n−x)}` for `x > n/2`: one pass of the shared ladder over the
    /// round's window tables ([`Received`]) and short exponents. Each term is one
    /// Paillier `scalar_mul`, the protocol's dominant cost (Figures 10–11).
    pub fn bare_cell(
        &self,
        common: &SiloCommon,
        received: &Received,
        participants: &[(usize, usize)],
        deltas: &[Vec<f64>],
        noise: f64,
        j: usize,
    ) -> Ciphertext {
        let Public { key, codec, c_lcm } = &*common.public;
        let half = key.n.shr_bits(1);
        let terms: Vec<(&WindowTable, BigUint)> = participants
            .iter()
            .map(|&(i, u)| {
                let [power, inverse] = received.tables[i].as_ref().expect("participant table");
                let n_su = BigUint::from_u64(self.histogram[u]);
                let x = codec.encode(deltas[u][j]);
                if x <= half {
                    (power, n_su.mul(&x))
                } else {
                    (inverse, n_su.mul(&key.n.sub(&x)))
                }
            })
            .collect();
        metrics::PAILLIER_SCALAR_MUL.add(terms.len() as u64);
        let product = Ciphertext(key.ctx_n2().multi_exp_tables(&terms));
        key.add_plain(&product, &mod_mul(&codec.encode(noise), c_lcm, &key.n))
    }
}
