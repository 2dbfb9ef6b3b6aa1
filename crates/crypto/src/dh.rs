//! Finite-field Diffie–Hellman key agreement.
//!
//! In the setup phase of Protocol 1 every silo generates a DH key pair and publishes the
//! public key through the aggregation server. Each pair of silos then derives a shared
//! secret from which per-pair, per-user additive masks and the shared random seed `R`
//! (used for multiplicative blinding) are expanded.
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
    /// Lazily-built Montgomery context for `p`, shared by every key pair in the group
    /// (all the setup-phase exponentiations of Protocol 1 step 1.(b)-(c) reuse it).
    ctx: OnceLock<Arc<ModulusCtx>>,
}

impl PartialEq for DhGroup {
    fn eq(&self, other: &Self) -> bool {
        // The context is derived state.
        self.p == other.p && self.g == other.g
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
    /// Builds a group from a modulus and generator.
    pub fn new(p: BigUint, g: BigUint) -> Self {
        DhGroup { p, g, ctx: OnceLock::new() }
    }

    /// The RFC 3526 2048-bit MODP group (generator 2).
    pub fn rfc3526_2048() -> Self {
        DhGroup::new(BigUint::from_hex(RFC3526_2048_HEX).expect("valid constant"), BigUint::two())
    }

    /// The RFC 3526 3072-bit MODP group (generator 2); the paper's security level.
    pub fn rfc3526_3072() -> Self {
        DhGroup::new(BigUint::from_hex(RFC3526_3072_HEX).expect("valid constant"), BigUint::two())
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
    /// Generates a fresh key pair in `group`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, group: &DhGroup) -> Self {
        // Secret exponent in [2, p-2].
        let upper = group.p.sub(&BigUint::from_u64(3));
        let secret = BigUint::random_below(rng, &upper).add(&BigUint::two());
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

    /// Computes the raw shared group element `their_public^secret mod p`.
    pub fn shared_secret(&self, their_public: &BigUint) -> BigUint {
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
        assert_eq!(alice.shared_secret(bob.public_key()), bob.shared_secret(alice.public_key()));
        assert_matches_schoolbook(&group, &alice, &bob);
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
