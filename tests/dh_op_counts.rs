//! Exact Montgomery costs of Protocol 1's key agreement (setup steps 1.(b)–(c)) in the
//! RFC 3526 groups.
//!
//! Four silos each generate a key pair (4 powers `g^x`) and derive a shared secret with
//! each of the other three (12 powers). The groups draw secrets of a fixed width with the
//! top bit set (256 bits in group 14, 320 in group 15), so each sliding-window power runs
//! one table squaring and one ladder squaring per exponent bit below its top window:
//! about 16·255 squarings in group 14, not the 16·2,047 of secrets drawn from the whole
//! group. The multiplications depend on the secrets' bits, so at a fixed seed the gates are
//! equalities, not tolerances.
//!
//! A single test function owns the whole file: the telemetry flag and counters are
//! process-global, so concurrent test functions in this binary would race on them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uldp_fl::crypto::{DhGroup, DhKeyPair};
use uldp_fl::telemetry::metrics;

const SILOS: usize = 4;

/// Runs one 4-silo key agreement in `group` and returns its
/// `(secret widths, sliding-window powers, mont_sqr, mont_mul)`.
fn agree(group: &DhGroup, seed: u64) -> (Vec<usize>, u64, u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // The Montgomery context is built once per group, outside the counted powers.
    let _ = group.ctx();
    uldp_fl::telemetry::reset();
    let keypairs: Vec<DhKeyPair> =
        (0..SILOS).map(|_| DhKeyPair::generate(&mut rng, group)).collect();
    for (i, mine) in keypairs.iter().enumerate() {
        for (j, theirs) in keypairs.iter().enumerate() {
            if i != j {
                let _ = mine.shared_secret(theirs.public_key());
            }
        }
    }
    let widths = keypairs.iter().map(DhKeyPair::secret_bits).collect();
    (widths, metrics::MODPOW_WINDOW.get(), metrics::MONT_SQR.get(), metrics::MONT_MUL.get())
}

#[test]
fn key_agreement_runs_short_exponent_powers() {
    uldp_fl::telemetry::set_enabled(true);
    let powers = (SILOS * SILOS) as u64;

    let (widths, pows, sqr, mul) = agree(&DhGroup::rfc3526_2048(), 31);
    assert_eq!(widths, vec![256; SILOS], "group 14 draws 256-bit secrets");
    assert_eq!(pows, powers, "4 public keys and 12 shared secrets");
    assert_eq!((sqr, mul), (4048, 912), "group 14 Montgomery ops (mont_sqr, mont_mul)");

    let (widths, pows, sqr, mul) = agree(&DhGroup::rfc3526_3072(), 31);
    assert_eq!(widths, vec![320; SILOS], "group 15 draws 320-bit secrets");
    assert_eq!(pows, powers, "4 public keys and 12 shared secrets");
    assert_eq!((sqr, mul), (5068, 1064), "group 15 Montgomery ops (mont_sqr, mont_mul)");

    uldp_fl::telemetry::set_enabled(false);
}
