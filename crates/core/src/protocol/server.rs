//! The server's side of Protocol 1. Every function here takes the server's state and
//! what the server received or drew itself, and no silo state.

use super::{reweight_survivors, Inverses, ObliviousSubsampling, Offer, Public, Sampling};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::{atomic::AtomicU64, Arc};
use uldp_bigint::BigUint;
use uldp_crypto::paillier::{Ciphertext, PaillierSecretKey};
use uldp_runtime::seeding::{self, WideSeed};
use uldp_runtime::Runtime;
use uldp_telemetry::trace;

/// The server: the Paillier secret key, the blinded inverses and the round counter. It
/// keeps no ciphertext past the round that sent it.
pub struct Server {
    pub public: Arc<Public>,
    pub secret: PaillierSecretKey,
    /// `B_inv(N_u)` of setup step 1.(f); `None` for users with no records.
    pub blinded_inverses: Vec<Option<BigUint>>,
    /// Index of the next round, from 0 at setup; it selects the round's fault set.
    pub next_round: AtomicU64,
}

impl Server {
    /// Step 1.(f): the server's state from the blinded totals `Σ_s r_u·n_su mod n` it
    /// received, inverted in one simultaneous inversion (`ModulusCtx::batch_inv`). A zero
    /// total, a user without records, stays `None`.
    pub fn new(public: Arc<Public>, secret: PaillierSecretKey, totals: &[BigUint]) -> Self {
        let blinded_inverses = public.key.ctx_n().batch_inv(totals);
        Server { public, secret, blinded_inverses, next_round: AtomicU64::new(0) }
    }

    /// Step 2.(a) under a server-visible sample or none: the ids the silos weigh, the
    /// sample's under a mask and every id otherwise, each with its encrypted inverse, in
    /// one pooled batch of the key holder's CRT encryptions
    /// ([`PaillierSecretKey::encrypt`]). Histograms never change the ids, and a mask round
    /// costs `O(q·|U|)`.
    ///
    /// A user with no records gets `Enc(0)`. User `u`'s encryption is seeded from
    /// `(seed, u)`, not its position, so a mask round derives exactly the per-user
    /// streams a q = 1 round would, and the message is bitwise-identical at any thread
    /// count.
    pub fn send_inverses(&self, rt: &Runtime, sampling: Sampling, seed: WideSeed) -> Inverses {
        let num_users = self.blinded_inverses.len();
        let users: Vec<u32> = match sampling {
            Sampling::Mask(mask) => {
                assert_eq!(mask.num_users(), num_users, "mask over another population");
                mask.iter().map(|u| u as u32).collect()
            }
            _ => (0..num_users as u32).collect(),
        };
        let zero = BigUint::zero();
        let ciphertexts = rt.par_map(&users, |_, &u| {
            let mut rng = StdRng::from_seed(seeding::index_seed_wide(seed, u as u64));
            let inverse = self.blinded_inverses[u as usize].as_ref();
            self.secret.encrypt(&mut rng, inverse.unwrap_or(&zero))
        });
        Inverses { users, ciphertexts }
    }

    /// Step 2.(a) under oblivious sub-sampling, the server's half: every user's offer
    /// ([`ObliviousSubsampling`]), drawn from the user's `(seed, u)` stream of one batch
    /// seed: `Enc(B_inv(N_u))` (`Enc(0)` for a user with no records), one `Enc(0)` and
    /// the rotation. Two CRT encryptions per user whatever `P`, and the same offers at
    /// any thread count.
    pub fn offer_inverses(
        &self,
        rt: &Runtime,
        ot: ObliviousSubsampling,
        batch_seed: WideSeed,
    ) -> Vec<Offer> {
        let zero = BigUint::zero();
        rt.par_map(&self.blinded_inverses, |u, inverse| {
            let mut rng = StdRng::from_seed(seeding::index_seed_wide(batch_seed, u as u64));
            Offer {
                real: self.secret.encrypt(&mut rng, inverse.as_ref().unwrap_or(&zero)),
                dummy: self.secret.encrypt(&mut rng, &zero),
                rotation: rng.gen_range(0..ot.denominator),
            }
        })
    }

    /// Step 2.(c) from the per-coordinate totals of the cells that reached the server:
    /// batched CRT decryption ([`PaillierSecretKey::decrypt_batch`], one pooled task per
    /// total, in a `decryption` span), fixed-point decoding, then the re-weighting by
    /// `|S| / |S_surviving|`, so the update keeps its `|S|`-silo magnitude although the
    /// `dropped` silos' cells never arrived.
    pub fn aggregate(&self, rt: &Runtime, totals: &[Ciphertext], dropped: &[bool]) -> Vec<f64> {
        let dec_span = trace::span("protocol", "decryption").arg("coordinates", totals.len());
        let decrypted = self.secret.decrypt_batch(rt, totals);
        drop(dec_span);
        let Public { codec, c_lcm, .. } = &*self.public;
        let mut out: Vec<f64> = rt.par_map(&decrypted, |_, m| codec.decode(m, c_lcm));
        reweight_survivors(&mut out, dropped);
        out
    }
}
