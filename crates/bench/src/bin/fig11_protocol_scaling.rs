//! Figure 11: scaling of the private weighting protocol with model size and user count.
//!
//! Mirrors the paper's artificial benchmark: 3 silos, 20 users, a model of 16 parameters
//! as the default, then (top row) parameter counts swept from 16 upwards and (bottom row)
//! user counts swept from 10 to 40. Reports the per-phase wall-clock time of one weighting
//! round; the dominant silo-side encryption must grow linearly in both sweeps.
//!
//! Every round also runs on a 1-thread runtime to verify bitwise-identical aggregates and
//! measure the pooled speedup, which the tables report next to the phase timings.
//!
//! ```bash
//! cargo run --release -p uldp-bench --bin fig11_protocol_scaling
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_bench::{millis, pooled_vs_sequential_round, print_table, ResultRow, Scale};
use uldp_core::{PrivateWeightingProtocol, ProtocolConfig};
use uldp_runtime::Runtime;

fn random_histogram(rng: &mut StdRng, num_silos: usize, num_users: usize) -> Vec<Vec<usize>> {
    (0..num_silos).map(|_| (0..num_users).map(|_| rng.gen_range(1..8usize)).collect()).collect()
}

fn one_round(
    label: &str,
    num_silos: usize,
    num_users: usize,
    params: usize,
    paillier_bits: usize,
    rng: &mut StdRng,
) -> ResultRow {
    let histogram = random_histogram(rng, num_silos, num_users);
    let config = ProtocolConfig {
        paillier_bits,
        dh_bits: 0,
        use_rfc_group: true,
        n_max: 64,
        fresh_encrypt: true,
        ..Default::default()
    };
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, rng);
    let deltas: Vec<Vec<Vec<f64>>> = histogram
        .iter()
        .map(|row| {
            row.iter().map(|_| (0..params).map(|_| rng.gen_range(-0.1..0.1)).collect()).collect()
        })
        .collect();
    let noises: Vec<Vec<f64>> =
        (0..num_silos).map(|_| (0..params).map(|_| rng.gen_range(-0.01..0.01)).collect()).collect();

    let (protocol, cmp) = pooled_vs_sequential_round(protocol, &deltas, &noises, rng);
    let timings = &cmp.timings;

    let setup = protocol.setup_timings();
    let mut row = ResultRow::new(label);
    row.push_str("key bits", protocol.modulus_bits().to_string());
    row.push_str("DH bits", protocol.dh_group_bits().to_string());
    row.push_f64("key exch ms", millis(setup.key_exchange));
    row.push_f64("srv enc ms", millis(timings.server_encryption));
    row.push_f64("silo enc ms", millis(timings.silo_weighting));
    row.push_f64("agg ms", millis(timings.aggregation));
    row.push_f64("round ms", millis(timings.total()));
    row.push_f64("speedup", cmp.speedup);
    row
}

fn main() {
    let scale = Scale::from_env();
    let paillier_bits = scale.pick(512, 3072);
    let mut rng = StdRng::seed_from_u64(11);
    let threads = Runtime::global().threads();

    println!(
        "Figure 11 — private weighting protocol scaling \
         (3 silos, {paillier_bits}–bit Paillier, {threads} threads)"
    );

    // Top row: parameter-count sweep at 20 users.
    let param_sweep = scale.pick(vec![16usize, 64, 256, 1024], vec![16usize, 100, 1000, 10_000]);
    let mut rows = Vec::new();
    for &params in &param_sweep {
        rows.push(one_round(&format!("params={params}"), 3, 20, params, paillier_bits, &mut rng));
    }
    print_table("Figure 11 (top): scaling with parameter count (|U|=20)", &rows);

    // Bottom row: user-count sweep at 16 parameters.
    let user_sweep = [10usize, 20, 30, 40];
    let mut rows = Vec::new();
    for &users in &user_sweep {
        rows.push(one_round(&format!("users={users}"), 3, users, 16, paillier_bits, &mut rng));
    }
    print_table("Figure 11 (bottom): scaling with user count (16 parameters)", &rows);
    println!(
        "\nExpected shape (paper): the silo-side encrypted weighting dominates and grows linearly\n\
         with the parameter count and with the number of users; server aggregation grows with the\n\
         parameter count as well; key exchange is flat."
    );
}
