//! Finite-field Diffie–Hellman key agreement.
//!
//! In the setup phase of Protocol 1 every silo generates a DH key pair and publishes the
//! public key through the aggregation server. Each pair of silos then derives a shared
//! secret, from which the pair's mask seed is expanded. The shared random seed `R` of the
//! multiplicative blinding is not derived from them: Protocol 1's setup draws it from the
//! caller's RNG and gives it to the silos alone. A silo's secret exponent also keys its
//! private output seed.
//!
//! **Secret widths.** The RFC 3526 groups draw secrets of a fixed width with the top bit
//! set: 256 bits in the 2048-bit group 14 and 320 bits in the 3072-bit group 15, within
//! the exponent sizes RFC 3526 §8 tabulates for them (220–320 and 260–420 bits). This rests
//! on the short-exponent assumption that a discrete logarithm known to be that short is as
//! hard to find as the group's strength (≈112 and ≈128 bits). Both groups are safe-prime
//! groups, where no subgroup is small enough for Pohlig–Hellman to help, and the best
//! known attack on a `k`-bit exponent is Pollard's lambda method at about `2^(k/2)` steps
//! (van Oorschot and Wiener, *On Diffie–Hellman key agreement with short exponents*,
//! EUROCRYPT 1996). Custom safe-prime groups ([`DhGroup::new`],
//! [`DhGroup::generate`]) are test-sized, with no tabulated strength, and draw secrets
//! uniform in `[2, p − 2]`.
//!
//! Every exponentiation runs through the group's cached Montgomery context; the tests
//! pin the keys and shared secrets to the schoolbook `mod_pow`.

use crate::sha256::hash_parts;
use rand::Rng;
use std::sync::{Arc, OnceLock};
use uldp_bigint::montgomery::ModulusCtx;
use uldp_bigint::{prime, BigUint};

/// A multiplicative group `(Z_p)^*` with generator `g` used for Diffie–Hellman.
#[derive(Clone, Debug)]
pub struct DhGroup {
    /// Group modulus (a safe prime for the standard groups).
    pub p: BigUint,
    /// Generator.
    pub g: BigUint,
    /// Width of every secret exponent, top bit set; `None` draws secrets uniform in
    /// `[2, p − 2]`.
    secret_bits: Option<usize>,
    /// Lazily-built Montgomery context for `p`, shared by every key pair in the group
    /// (all the setup-phase exponentiations of Protocol 1 step 1.(b)-(c) reuse it).
    ctx: OnceLock<Arc<ModulusCtx>>,
}

impl PartialEq for DhGroup {
    fn eq(&self, other: &Self) -> bool {
        // The context is derived state.
        self.p == other.p && self.g == other.g && self.secret_bits == other.secret_bits
    }
}

impl Eq for DhGroup {}

/// The 2048-bit MODP group from RFC 3526 (group 14), generator 2.
const RFC3526_2048_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF6955817183995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

/// The 3072-bit MODP group from RFC 3526 (group 15), generator 2.
///
/// This is the group matching the paper's default "3072-bit security" parameter.
const RFC3526_3072_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF6955817183995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E208E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF";

impl DhGroup {
    /// Builds a group from a modulus and generator; its secrets are uniform in
    /// `[2, p − 2]`.
    pub fn new(p: BigUint, g: BigUint) -> Self {
        DhGroup { p, g, secret_bits: None, ctx: OnceLock::new() }
    }

    /// The RFC 3526 2048-bit MODP group (generator 2), with 256-bit secrets.
    pub fn rfc3526_2048() -> Self {
        DhGroup::rfc3526(RFC3526_2048_HEX, 256)
    }

    /// The RFC 3526 3072-bit MODP group (generator 2), with 320-bit secrets; the paper's
    /// security level.
    pub fn rfc3526_3072() -> Self {
        DhGroup::rfc3526(RFC3526_3072_HEX, 320)
    }

    fn rfc3526(p_hex: &str, secret_bits: usize) -> Self {
        let p = BigUint::from_hex(p_hex).expect("valid constant");
        DhGroup { secret_bits: Some(secret_bits), ..DhGroup::new(p, BigUint::two()) }
    }

    /// Generates a custom safe-prime group of the given bit size (for fast tests).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        DhGroup::new(prime::generate_safe_prime(rng, bits), BigUint::two())
    }

    /// Bit length of the group modulus.
    pub fn bits(&self) -> usize {
        self.p.bit_length()
    }

    /// The shared Montgomery context for the group modulus (built on first use; clones
    /// made afterwards share the same context through the `Arc`).
    pub fn ctx(&self) -> &Arc<ModulusCtx> {
        self.ctx.get_or_init(|| Arc::new(ModulusCtx::new(&self.p)))
    }

    /// `base^exp mod p` through the group's cached engine context.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.ctx().pow(base, exp)
    }
}

/// A Diffie–Hellman key pair for a single silo.
#[derive(Clone, Debug)]
pub struct DhKeyPair {
    group: DhGroup,
    secret: BigUint,
    public: BigUint,
}

impl DhKeyPair {
    /// Generates a fresh key pair in `group`, its secret of the group's secret width
    /// exactly (256 bits in [`DhGroup::rfc3526_2048`], 320 in [`DhGroup::rfc3526_3072`]),
    /// or uniform in `[2, p − 2]` in a custom group.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, group: &DhGroup) -> Self {
        let secret = match group.secret_bits {
            Some(bits) => BigUint::random_with_bits(rng, bits),
            None => {
                let upper = group.p.sub(&BigUint::from_u64(3));
                BigUint::random_below(rng, &upper).add(&BigUint::two())
            }
        };
        let public = group.pow(&group.g, &secret);
        DhKeyPair { group: group.clone(), secret, public }
    }

    /// The public key to be published via the aggregation server.
    pub fn public_key(&self) -> &BigUint {
        &self.public
    }

    /// The group this key pair belongs to.
    pub fn group(&self) -> &DhGroup {
        &self.group
    }

    /// Bit length of the secret exponent.
    pub fn secret_bits(&self) -> usize {
        self.secret.bit_length()
    }

    /// Computes the raw shared group element `their_public^secret mod p`.
    ///
    /// # Panics
    /// Panics unless `their_public` lies in `[2, p − 2]`: `0`, `1` and `p − 1` would
    /// confine the shared secret to the subgroups of order 1 and 2.
    pub fn shared_secret(&self, their_public: &BigUint) -> BigUint {
        let p = &self.group.p;
        assert!(
            their_public >= &BigUint::two() && their_public < &p.sub(&BigUint::one()),
            "DH peer public key is outside [2, p − 2] and would confine the shared secret to \
             a subgroup of order 1 or 2"
        );
        self.group.pow(their_public, &self.secret)
    }

    /// Derives a 32-byte symmetric seed from the shared secret via SHA-256.
    ///
    /// Both parties obtain the same seed regardless of which side calls this, because the
    /// underlying shared group element is identical.
    pub fn shared_seed(&self, their_public: &BigUint) -> [u8; 32] {
        let shared = self.shared_secret(their_public);
        hash_parts("uldp-fl/dh-shared-seed", &[&shared.to_bytes_be()])
    }

    /// Derives a 32-byte seed only this key pair's holder can compute: SHA-256 of the
    /// secret exponent under the domain `label`. Distinct labels give unrelated seeds.
    pub fn private_seed(&self, label: &str) -> [u8; 32] {
        hash_parts(label, &[&self.secret.to_bytes_be()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uldp_bigint::modular::mod_pow;

    /// Pins the engine-computed keys and shared secret to the schoolbook `mod_pow`.
    fn assert_matches_schoolbook(group: &DhGroup, alice: &DhKeyPair, bob: &DhKeyPair) {
        assert_eq!(alice.public_key(), &mod_pow(&group.g, &alice.secret, &group.p));
        assert_eq!(
            alice.shared_secret(bob.public_key()),
            mod_pow(bob.public_key(), &alice.secret, &group.p)
        );
    }

    #[test]
    fn rfc_groups_have_expected_sizes() {
        assert_eq!(DhGroup::rfc3526_2048().bits(), 2048);
        assert_eq!(DhGroup::rfc3526_3072().bits(), 3072);
        assert_eq!(DhGroup::rfc3526_2048().secret_bits, Some(256));
        assert_eq!(DhGroup::rfc3526_3072().secret_bits, Some(320));
    }

    #[test]
    fn key_agreement_matches_small_group() {
        let mut rng = StdRng::seed_from_u64(1);
        let group = DhGroup::generate(&mut rng, 64);
        let alice = DhKeyPair::generate(&mut rng, &group);
        let bob = DhKeyPair::generate(&mut rng, &group);
        assert_eq!(alice.shared_secret(bob.public_key()), bob.shared_secret(alice.public_key()));
        assert_eq!(alice.shared_seed(bob.public_key()), bob.shared_seed(alice.public_key()));
        assert_matches_schoolbook(&group, &alice, &bob);
    }

    #[test]
    fn key_agreement_matches_rfc_group() {
        let mut rng = StdRng::seed_from_u64(2);
        let group = DhGroup::rfc3526_2048();
        let alice = DhKeyPair::generate(&mut rng, &group);
        let bob = DhKeyPair::generate(&mut rng, &group);
        assert_eq!((alice.secret_bits(), bob.secret_bits()), (256, 256));
        assert_eq!(alice.shared_secret(bob.public_key()), bob.shared_secret(alice.public_key()));
        assert_matches_schoolbook(&group, &alice, &bob);
    }

    #[test]
    fn key_agreement_matches_rfc_3072_group() {
        let mut rng = StdRng::seed_from_u64(5);
        let group = DhGroup::rfc3526_3072();
        let alice = DhKeyPair::generate(&mut rng, &group);
        let bob = DhKeyPair::generate(&mut rng, &group);
        assert_eq!((alice.secret_bits(), bob.secret_bits()), (320, 320));
        assert_eq!(alice.shared_secret(bob.public_key()), bob.shared_secret(alice.public_key()));
        assert_matches_schoolbook(&group, &alice, &bob);
    }

    /// Derives a shared secret with the peer key `peer` in the RFC 3526 2048-bit group.
    fn agree_with(peer: BigUint) {
        let kp = DhKeyPair::generate(&mut StdRng::seed_from_u64(6), &DhGroup::rfc3526_2048());
        kp.shared_secret(&peer);
    }

    #[test]
    #[should_panic(expected = "DH peer public key is outside [2, p − 2]")]
    fn rejects_zero_peer_key() {
        agree_with(BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "DH peer public key is outside [2, p − 2]")]
    fn rejects_one_peer_key() {
        agree_with(BigUint::one());
    }

    #[test]
    #[should_panic(expected = "DH peer public key is outside [2, p − 2]")]
    fn rejects_p_minus_one_peer_key() {
        agree_with(DhGroup::rfc3526_2048().p.sub(&BigUint::one()));
    }

    #[test]
    fn accepts_the_extreme_valid_peer_keys() {
        let group = DhGroup::rfc3526_2048();
        let kp = DhKeyPair::generate(&mut StdRng::seed_from_u64(7), &group);
        for peer in [BigUint::two(), group.p.sub(&BigUint::two())] {
            assert_eq!(kp.shared_secret(&peer), mod_pow(&peer, &kp.secret, &group.p));
        }
    }

    #[test]
    fn different_pairs_get_different_seeds() {
        let mut rng = StdRng::seed_from_u64(3);
        let group = DhGroup::generate(&mut rng, 64);
        let a = DhKeyPair::generate(&mut rng, &group);
        let b = DhKeyPair::generate(&mut rng, &group);
        let c = DhKeyPair::generate(&mut rng, &group);
        assert_ne!(a.shared_seed(b.public_key()), a.shared_seed(c.public_key()));
        assert_ne!(a.private_seed("x"), b.private_seed("x"));
        assert_ne!(a.private_seed("x"), a.private_seed("y"));
        assert_eq!(a.private_seed("x"), a.clone().private_seed("x"));
    }

    #[test]
    fn public_key_is_in_group() {
        let mut rng = StdRng::seed_from_u64(4);
        let group = DhGroup::generate(&mut rng, 48);
        let kp = DhKeyPair::generate(&mut rng, &group);
        assert!(kp.public_key() < &group.p);
        assert!(!kp.public_key().is_zero());
    }
}
