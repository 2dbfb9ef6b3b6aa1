//! # uldp-crypto
//!
//! Cryptographic substrate for the Uldp-FL private weighting protocol (Protocol 1 of the
//! paper). Everything here is implemented from first principles on top of
//! [`uldp_bigint`]:
//!
//! * [`sha256`](mod@sha256) — FIPS 180-4 SHA-256, used as the key-derivation function for
//!   Diffie–Hellman shared secrets and as the PRG backbone for mask expansion.
//! * [`dh`] — finite-field Diffie–Hellman key agreement (RFC 3526 MODP groups and custom
//!   test groups) used in the setup phase of Protocol 1 to establish pairwise shared seeds
//!   between silos.
//! * [`paillier`] — the Paillier additively homomorphic cryptosystem used by the server to
//!   conceal the blinded inverse histograms (`Enc_p(B_inv(N_u))`) while still letting silos
//!   compute weighted model deltas under encryption.
//! * [`masking`] — pairwise additive masks in the finite field `F_n` (Bonawitz-style secure
//!   aggregation) that cancel when all silos' contributions are summed by the server.
//! * [`blinding`] — multiplicative blinding in `F_n` used to hide the user
//!   histograms from the server while letting it compute modular inverses.
//! * [`fixed_point`] — the `Encode`/`Decode` pair of Algorithm 5 mapping real-valued model
//!   deltas to the finite field and back, including the `C_LCM` factor handling.
//!
//! The security parameter (Paillier modulus size, DH group size) is configurable. The
//! paper uses 3072-bit security; unit tests use smaller parameters to stay fast, while the
//! benchmark harness reports the key size it ran with.

pub mod blinding;
pub mod dh;
pub mod fixed_point;
pub mod masking;
pub mod paillier;
pub mod sha256;

pub use blinding::MultiplicativeBlinder;
pub use dh::{DhGroup, DhKeyPair};
pub use fixed_point::FixedPointCodec;
pub use masking::{MaskGenerator, MaskSeed};
pub use paillier::{
    Ciphertext, FixedBaseEnc0, PaillierKeyPair, PaillierPublicKey, PaillierSecretKey,
};
pub use sha256::{sha256, Sha256};
