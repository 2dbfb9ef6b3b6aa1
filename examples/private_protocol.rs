//! The private weighting protocol (Protocol 1) end to end: setup (Paillier + DH key
//! exchange, blinded histogram aggregation) followed by three encrypted weighting
//! rounds, each checked against the plaintext aggregation. The first two run over every
//! user: the first encrypts every user's inverse and the silos derive their
//! `[b_u, b_u⁻¹]` pairs; the second sends nothing and builds its tables from the pairs
//! the silos hold, which are all the state kept across rounds. The third samples users by oblivious transfer at q = 1/4 and is
//! checked against the plaintext aggregation of its realised selection. The phase
//! timings of the last two rounds are printed.
//!
//! With `ULDP_TRACE=1` the run also writes a chrome trace (to `ULDP_TRACE_OUT`, default
//! `ULDP_trace.json`; open it in Perfetto or `chrome://tracing`) and prints the flat
//! telemetry summary: spans per phase and operation counts.
//!
//! ```bash
//! cargo run --release --example private_protocol
//! ULDP_TRACE=1 cargo run --release --example private_protocol
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uldp_fl::core::{
    ObliviousSubsampling, PrivateWeightingProtocol, ProtocolConfig, SampleMask, Sampling,
};

fn main() {
    let mut rng = StdRng::seed_from_u64(3);

    // 3 silos, 20 users, a 16-parameter model: the small default scenario of Figure 11.
    let num_silos = 3;
    let num_users = 20;
    let dim = 16;

    // Per-silo user histograms n_{s,u} (each user at most N_max records in total).
    let histogram: Vec<Vec<usize>> = (0..num_silos)
        .map(|_| (0..num_users).map(|_| rng.gen_range(0..8usize)).collect())
        .collect();

    let config =
        ProtocolConfig { paillier_bits: 1024, dh_bits: 512, n_max: 64, ..Default::default() };
    println!(
        "setup: {} silos, {} users, {}-bit Paillier modulus requested",
        num_silos, num_users, config.paillier_bits
    );
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);
    let setup = protocol.setup_timings();
    println!(
        "  key exchange          {:>10.2?}\n  histogram blinding     {:>10.2?}\n  inverse computation    {:>10.2?}\n  total setup            {:>10.2?}",
        setup.key_exchange,
        setup.histogram_blinding,
        setup.inverse_computation,
        setup.total()
    );

    // Clipped per-(silo, user) model deltas and per-silo noise, as ULDP-AVG-w would
    // produce them in one round.
    let round_inputs = |rng: &mut StdRng| {
        let clipped_deltas: Vec<Vec<Vec<f64>>> = histogram
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&n_su| {
                        if n_su == 0 {
                            Vec::new()
                        } else {
                            (0..dim).map(|_| rng.gen_range(-0.1..0.1)).collect()
                        }
                    })
                    .collect()
            })
            .collect();
        let noises: Vec<Vec<f64>> = (0..num_silos)
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.01..0.01)).collect())
            .collect();
        (clipped_deltas, noises)
    };

    let reports: Vec<_> = (1..=3)
        .map(|round| {
            let (clipped_deltas, noises) = round_inputs(&mut rng);
            let sampling =
                if round < 3 { Sampling::All } else { ObliviousSubsampling::new(1, 4).into() };
            let (secure, report) =
                protocol.weighting_round(&clipped_deltas, &noises, sampling, &mut rng);
            let sampled = report.selected.clone().map(SampleMask::from_dense);
            let reference =
                protocol.plaintext_reference(&clipped_deltas, &noises, sampled.as_ref());
            let max_err = secure
                .iter()
                .zip(reference.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            println!(
                "\nround {round}: max |secure - plaintext| = {max_err:.3e} (precision P = {})",
                config.precision
            );
            assert!(max_err < 1e-6, "round {round}: protocol output diverged from the plaintext");
            if round == 2 {
                // Sent once: the server encrypts nothing, and the held state is two
                // n²-wide values per record holder, all of it with the silos.
                assert_eq!(protocol.round_cache_stats(), (0, num_users), "round 2 sends nothing");
                let holders =
                    (0..num_users).filter(|&u| histogram.iter().any(|row| row[u] > 0)).count();
                let value_bytes = (2 * protocol.modulus_bits()).div_ceil(64) * 8;
                assert_eq!(protocol.cached_state_bytes(), 2 * holders * value_bytes);
            }
            report
        })
        .collect();
    let sampled = reports[2].selected.iter().flatten().filter(|&&s| s).count();
    let titles = [
        format!("second weighting round ({dim} parameters, b_u pairs held, nothing sent)"),
        format!("third, oblivious round (q = 1/4, {sampled} of {num_users} users sampled)"),
    ];
    for (title, timings) in titles.iter().zip(&reports[1..]) {
        println!("\n{title}:");
        println!(
            "  server encryption      {:>10.2?}\n  silo weighted encryption {:>9.2?}\n  aggregation + decrypt  {:>10.2?}\n  total round            {:>10.2?}",
            timings.server_encryption,
            timings.silo_weighting,
            timings.aggregation,
            timings.total()
        );
    }
    println!(
        "correctness check passed: all three encrypted aggregates match the plaintext weighted sums."
    );

    if uldp_fl::telemetry::enabled() {
        match uldp_fl::telemetry::export::write_chrome_trace_default() {
            Ok(Some(path)) => println!("\nWrote chrome trace to {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("\nFailed to write chrome trace: {e}"),
        }
        print!("{}", uldp_fl::telemetry::export::summary());
    }
}
