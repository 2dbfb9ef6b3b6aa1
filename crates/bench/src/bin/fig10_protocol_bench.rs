//! Figure 10: execution time of the private weighting protocol on the cross-silo FL
//! benchmark scenarios.
//!
//! Mirrors the paper's setup: the HeartDisease (4 silos) and TcgaBrca (6 silos) benchmark
//! scenarios with small models, |U| ∈ {10, 100} users and a skewed (zipf) record
//! distribution. Reports, per scenario, the wall-clock time of key exchange + blinded
//! histogram preparation (setup) and of the per-round phases (server encryption, silo-side
//! weighted encryption — the paper's "local training" overhead — and aggregation).
//!
//! Every round is executed twice — on the pooled runtime (`ULDP_THREADS` / available
//! parallelism) and on a 1-thread runtime — and the aggregates are asserted
//! bitwise-identical and within `1e-6` of the plaintext aggregate; the table reports
//! the pooled speedup next to the per-phase timings.
//!
//! The Paillier key size defaults to 768 bits at quick scale and 3072 bits (the paper's
//! security level) at full scale; the table reports the size actually used, and the
//! bits of the RFC 3526 group setup's key agreement ran in (group 14 up to 2048-bit keys,
//! group 15 above).
//!
//! ```bash
//! cargo run --release -p uldp-bench --bin fig10_protocol_bench
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_bench::{millis, pooled_vs_sequential_round, print_table, ResultRow, Scale};
use uldp_core::{PrivateWeightingProtocol, ProtocolConfig};
use uldp_datasets::heart_disease::{self, HeartDiseaseConfig};
use uldp_datasets::tcga_brca::{self, TcgaBrcaConfig};
use uldp_datasets::{Allocation, FederatedDataset};
use uldp_runtime::Runtime;

/// Largest deviation of a decrypted coordinate from the plaintext reference; each
/// fixed-point term carries at most `precision = 1e-10` of rounding.
const MAX_ERR: f64 = 1e-6;

fn bench_scenario(
    name: &str,
    dataset: &FederatedDataset,
    model_params: usize,
    paillier_bits: usize,
    rng: &mut StdRng,
) -> ResultRow {
    let histogram = dataset.histogram();
    let n_max = dataset.max_records_per_user().next_power_of_two().max(64) as u64;
    let config = ProtocolConfig {
        paillier_bits,
        dh_bits: 0,
        use_rfc_group: true,
        n_max,
        fresh_encrypt: true,
        ..Default::default()
    };
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, rng);

    // One round of clipped per-(silo, user) deltas and per-silo noise of the model size.
    let deltas: Vec<Vec<Vec<f64>>> = histogram
        .iter()
        .map(|row| {
            row.iter()
                .map(|&c| {
                    if c == 0 {
                        Vec::new()
                    } else {
                        (0..model_params).map(|_| rng.gen_range(-0.1..0.1)).collect()
                    }
                })
                .collect()
        })
        .collect();
    let noises: Vec<Vec<f64>> = (0..dataset.num_silos)
        .map(|_| (0..model_params).map(|_| rng.gen_range(-0.01..0.01)).collect())
        .collect();

    // Pooled round and a 1-thread round from an identically-seeded RNG clone: the
    // aggregates must match bit for bit (the runtime's determinism guarantee).
    let (protocol, cmp) = pooled_vs_sequential_round(protocol, &deltas, &noises, rng);
    let (aggregate, round) = (&cmp.aggregate, &cmp.timings);

    let reference = protocol.plaintext_reference(&deltas, &noises, None);
    let max_err =
        aggregate.iter().zip(reference.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    assert!(max_err <= MAX_ERR, "{name}: aggregate deviates from the plaintext one by {max_err:e}");

    let setup = protocol.setup_timings();
    let mut row = ResultRow::new(name);
    row.push_str("users", dataset.num_users.to_string());
    row.push_str("silos", dataset.num_silos.to_string());
    row.push_str("params", model_params.to_string());
    row.push_str("key bits", protocol.modulus_bits().to_string());
    row.push_str("DH bits", protocol.dh_group_bits().to_string());
    row.push_f64("setup ms", millis(setup.total()));
    row.push_f64("srv enc ms", millis(round.server_encryption));
    row.push_f64("silo enc ms", millis(round.silo_weighting));
    row.push_f64("agg ms", millis(round.aggregation));
    row.push_f64("speedup", cmp.speedup);
    row.push_str("max err", format!("{max_err:.1e}"));
    row
}

fn main() {
    let scale = Scale::from_env();
    let paillier_bits = scale.pick(768, 3072);
    let user_counts = [10usize, scale.pick(40, 100)];
    let mut rng = StdRng::seed_from_u64(10);
    let threads = Runtime::global().threads();

    println!(
        "Figure 10 — private weighting protocol on FL benchmark scenarios \
         ({paillier_bits}–bit Paillier, {threads} threads)"
    );

    let mut rows = Vec::new();
    for &num_users in &user_counts {
        let heart = heart_disease::generate(
            &mut rng,
            &HeartDiseaseConfig {
                num_users,
                allocation: Allocation::zipf_default(),
                ..Default::default()
            },
        );
        rows.push(bench_scenario(
            &format!("HeartDisease |U|={num_users}"),
            &heart,
            scale.pick(30, 60),
            paillier_bits,
            &mut rng,
        ));

        let tcga = tcga_brca::generate(
            &mut rng,
            &TcgaBrcaConfig {
                num_users,
                allocation: Allocation::zipf_default(),
                ..Default::default()
            },
        );
        rows.push(bench_scenario(
            &format!("TcgaBrca |U|={num_users}"),
            &tcga,
            scale.pick(39, 39),
            paillier_bits,
            &mut rng,
        ));
    }
    print_table("Figure 10: protocol execution time per phase", &rows);
    println!(
        "\nExpected shape (paper): the silo-side weighted encryption (the paper's 'local\n\
         training' bar) dominates and grows with the number of users; key exchange and\n\
         aggregation are comparatively small; everything remains in a practical range for\n\
         these small-model benchmark scenarios."
    );
}
