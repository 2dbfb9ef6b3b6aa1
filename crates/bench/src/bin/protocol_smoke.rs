//! Release-mode smoke test of the pooled Protocol 1 runtime.
//!
//! Runs one full private weighting round at the acceptance-criteria workload — 512-bit
//! Paillier, 5 silos × 200 users by default — twice: on the pooled runtime (sized by
//! `ULDP_THREADS` / available parallelism) and on a 1-thread runtime. It then
//!
//! 1. asserts the two decrypted aggregates are **bitwise-identical** (the runtime's
//!    determinism guarantee),
//! 2. prints each aggregate coordinate as an `AGG <index> <f64-bits-hex>` line, so CI can
//!    `diff` the output of independent processes run at different `ULDP_THREADS`,
//! 3. reports the per-phase timings and the parallel speedup, and appends them to
//!    `BENCH_protocol.json`.
//!
//! It also records the round's peak transient fold-accumulator bytes (the streaming
//! engine's measured O(chunks × dim) footprint, next to the seed shape's
//! O(silos × dim) equivalent) as the `memory` section of the JSON, and runs the
//! `modpow` engine comparison (generic vs Montgomery vs fixed-base on a 2048-bit
//! `scalar_mul`-shaped batch, plus the re-randomisation and fused multi-exponentiation
//! rows, agreement asserted bitwise), appended as the `modpow` section; CI fails if
//! either section is missing.
//!
//! A `population_scaling` section (10⁴/10⁵/10⁶ users at q ∈ {0.01, 0.1}, 128-bit
//! Paillier) proves round cost tracks the *sampled* count q·|U|: per-phase times plus
//! the materialised per-user crypto state and peak fold bytes are recorded per row,
//! and the binary asserts the 10⁶-user q=0.01 round stays within 3× of the 10⁵-user
//! q=0.1 round (equal expected sample sizes). Skipped under `ULDP_DENSE_MASK=1`,
//! which deliberately forces the O(|U|) dense-mask path.
//!
//! An 8-round replay over the same federation exercises the cross-round ciphertext
//! cache: round 1 encrypts fresh, rounds 2..8 re-randomise, and each round's decrypted
//! aggregate is printed as an `MRD <round> <fnv-hex>` fingerprint line (diffable against
//! an `ULDP_FRESH_ENCRYPT=1` process, whose aggregates must be bitwise-identical). The
//! per-round server-side `server_encryption` (`roundN`) and silo-side `silo_weighting`
//! (`silo_roundN`) timings land in the `multi_round` report section, and — unless the
//! cache is bypassed or the generic engine forced — the binary asserts every cached
//! round's server encryption is at least 4x cheaper than round 1's. The silo column is
//! recorded, not gated: the cache serves the server only.
//!
//! The exit code is non-zero on any mismatch. Workload knobs: `ULDP_SMOKE_SILOS`,
//! `ULDP_SMOKE_USERS`, `ULDP_SMOKE_PARAMS`, `ULDP_SMOKE_BITS`, `ULDP_MODPOW_BITS`,
//! `ULDP_MODPOW_EXPS`. Setting `ULDP_GENERIC_MODPOW=1` forces the schoolbook
//! exponentiation path everywhere; setting `ULDP_FRESH_ENCRYPT=1` disables ciphertext
//! reuse. The AGG and MRD lines must not change under either knob (CI diffs them).
//!
//! ```bash
//! cargo run --release -p uldp-bench --bin protocol_smoke
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use uldp_bench::{
    millis, pipelined_vs_sequential_rounds, pooled_vs_sequential_round, BenchEntry, BenchSection,
};
use uldp_core::{
    ByzantineStrategy, FaultPlan, FlConfig, Method, PrivateWeightingProtocol, ProtocolConfig,
    RoundInput, SampleMask, Trainer, WeightingStrategy,
};
use uldp_datasets::creditcard::{self, CreditcardConfig};
use uldp_ml::LinearClassifier;
use uldp_runtime::Runtime;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// FNV-1a over the f64 bit patterns — the fingerprint CI diffs across processes.
fn fnv64(values: &[f64]) -> u64 {
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            fp ^= byte as u64;
            fp = fp.wrapping_mul(0x1000_0000_01b3);
        }
    }
    fp
}

fn main() {
    let num_silos = env_usize("ULDP_SMOKE_SILOS", 5);
    let num_users = env_usize("ULDP_SMOKE_USERS", 200);
    let params = env_usize("ULDP_SMOKE_PARAMS", 8);
    let paillier_bits = env_usize("ULDP_SMOKE_BITS", 512);
    let threads = Runtime::global().threads();
    println!(
        "protocol_smoke: {num_silos} silos x {num_users} users, {params} params, \
         {paillier_bits}-bit Paillier, {threads} threads"
    );

    // Everything below is seeded, so independent processes (at any ULDP_THREADS) must
    // print identical AGG lines.
    let mut rng = StdRng::seed_from_u64(1_000_003);
    let histogram: Vec<Vec<usize>> = (0..num_silos)
        .map(|_| (0..num_users).map(|_| rng.gen_range(0..6usize)).collect())
        .collect();
    let config = ProtocolConfig {
        paillier_bits,
        dh_bits: 0,
        use_rfc_group: true,
        n_max: (6 * num_silos as u64).next_power_of_two(),
        ..Default::default()
    };
    let protocol = PrivateWeightingProtocol::setup(&histogram, &config, &mut rng);

    let deltas: Vec<Vec<Vec<f64>>> = histogram
        .iter()
        .map(|row| {
            row.iter()
                .map(|&c| {
                    if c == 0 {
                        Vec::new()
                    } else {
                        (0..params).map(|_| rng.gen_range(-0.5..0.5)).collect()
                    }
                })
                .collect()
        })
        .collect();
    let noises: Vec<Vec<f64>> =
        (0..num_silos).map(|_| (0..params).map(|_| rng.gen_range(-0.01..0.01)).collect()).collect();

    let (protocol, cmp) = pooled_vs_sequential_round(protocol, &deltas, &noises, &mut rng);
    let pooled_bits: Vec<u64> = cmp.aggregate.iter().map(|v| v.to_bits()).collect();

    // Sanity: the secure aggregate matches the plaintext reference.
    let reference = protocol.plaintext_reference(&deltas, &noises, None);
    let max_err = cmp
        .aggregate
        .iter()
        .zip(reference.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 1e-6, "secure aggregate diverges from plaintext (max err {max_err:.3e})");

    for (j, bits) in pooled_bits.iter().enumerate() {
        println!("AGG {j} {bits:016x}");
    }

    println!(
        "pooled:     srv_enc {:9.1} ms | silo_enc {:9.1} ms | agg {:9.1} ms | total {:9.1} ms",
        millis(cmp.timings.server_encryption),
        millis(cmp.timings.silo_weighting),
        millis(cmp.timings.aggregation),
        millis(cmp.timings.total()),
    );
    println!(
        "sequential: srv_enc {:9.1} ms | silo_enc {:9.1} ms | agg {:9.1} ms | total {:9.1} ms",
        millis(cmp.seq_timings.server_encryption),
        millis(cmp.seq_timings.silo_weighting),
        millis(cmp.seq_timings.aggregation),
        millis(cmp.seq_timings.total()),
    );
    println!("SPEEDUP {:.2}x at {threads} threads (bitwise-identical aggregates)", cmp.speedup);

    // Transient delta-buffer footprint of the streaming cell fold (the measured
    // O(chunks × dim) claim): the peak accumulator bytes the round kept alive, next to
    // what the seed's materialise-then-reduce shape would have held (one ciphertext per
    // (silo, coordinate) cell). The counts are analytic — identical at any thread
    // count — so the section key carries no thread suffix.
    let ct_bytes = protocol.modulus_bits().div_ceil(32) * 8; // n² limbs of the ciphertext
    let materialised_equiv = num_silos * params * ct_bytes;
    println!(
        "MEMORY peak_fold_bytes={} materialised_equiv_bytes={materialised_equiv}",
        cmp.peak_fold_bytes
    );
    let mut memory = BenchSection::new("memory", threads, paillier_bits);
    let mut mem_entry =
        BenchEntry::new(format!("silos={num_silos} users={num_users} params={params}"));
    mem_entry
        .phase("peak_fold_bytes", cmp.peak_fold_bytes as f64)
        .phase("materialised_equiv_bytes", materialised_equiv as f64);
    memory.entries.push(mem_entry);
    match memory.write() {
        Ok(path) => println!("Wrote memory section to {}", path.display()),
        Err(e) => eprintln!("Failed to write memory section: {e}"),
    }

    // The thread count — and the engine mode — are part of the section key so CI's
    // 1-thread, 4-thread and generic-path runs all survive in the merged report instead
    // of later runs overwriting earlier ones.
    let engine_suffix = if uldp_bigint::montgomery::engine_disabled() { "_generic" } else { "" };
    let mut section = BenchSection::new(
        format!("protocol_smoke_t{threads}{engine_suffix}"),
        threads,
        paillier_bits,
    );
    let mut entry = BenchEntry::new(format!("silos={num_silos} users={num_users} params={params}"));
    entry
        .phase("srv_enc", millis(cmp.timings.server_encryption))
        .phase("silo_enc", millis(cmp.timings.silo_weighting))
        .phase("agg", millis(cmp.timings.aggregation))
        .phase("round", millis(cmp.timings.total()))
        .phase("round_seq", millis(cmp.seq_timings.total()));
    entry.speedup_vs_sequential = Some(cmp.speedup);
    entry.max_err = Some(max_err);
    section.entries.push(entry);
    match section.write() {
        Ok(path) => println!("Wrote machine-readable timings to {}", path.display()),
        Err(e) => eprintln!("Failed to write benchmark JSON: {e}"),
    }

    // Per-section gauge lifecycle: the memory section above already captured its peak,
    // so clear the shared gauge before the next measured sections — otherwise they
    // would inherit the round's high-water mark.
    Runtime::global().fold_gauge().reset();

    // Multi-round replay on the pooled runtime: the same federation runs 8 weighting
    // rounds back to back, so round 1 pays fresh encryption and rounds 2..8 hit the
    // cross-round ciphertext cache (or re-encrypt every round under
    // ULDP_FRESH_ENCRYPT=1 — the MRD fingerprints must not change, CI diffs them).
    let protocol = protocol.with_runtime(Runtime::global());
    protocol.reset_round_cache();
    let num_rounds = 8usize;
    let mut mrd_rng = StdRng::seed_from_u64(0x004d_5244); // "MRD"
    let mut multi_round = BenchSection::new("multi_round", threads, paillier_bits);
    let mut mrd_entry =
        BenchEntry::new(format!("silos={num_silos} users={num_users} params={params}"));
    let mut srv_enc_ms = Vec::with_capacity(num_rounds);
    let mut mrd_fps = Vec::with_capacity(num_rounds);
    for round in 1..=num_rounds {
        let (aggregate, timings) = protocol.weighting_round(&deltas, &noises, None, &mut mrd_rng);
        mrd_fps.push(fnv64(&aggregate));
        let (fresh, rerandomised) = protocol.round_cache_stats();
        let ms = millis(timings.server_encryption);
        let silo_ms = millis(timings.silo_weighting);
        println!(
            "mrd round={round} srv_enc {ms:9.1} ms | silo_enc {silo_ms:9.1} ms | fresh {fresh} \
             | rerandomised {rerandomised}"
        );
        mrd_entry.phase(&format!("round{round}"), ms);
        mrd_entry.phase(&format!("silo_round{round}"), silo_ms);
        srv_enc_ms.push(ms);
    }
    // Acceptance gate: with the cache active every re-randomised round must be at
    // least 4x cheaper than the fresh round 1. Skipped when the cache is bypassed,
    // when the generic engine removes the table-based fast path, or when the fresh
    // round is too small for the ratio to be meaningful.
    let cache_active =
        !uldp_core::protocol::fresh_encrypt_forced() && !uldp_bigint::montgomery::engine_disabled();
    if cache_active && srv_enc_ms[0] >= 5.0 {
        for (i, &ms) in srv_enc_ms.iter().enumerate().skip(1) {
            assert!(
                ms * 4.0 <= srv_enc_ms[0],
                "round {} server_encryption {ms:.1} ms is not 4x cheaper than round 1 \
                 ({:.1} ms)",
                i + 1,
                srv_enc_ms[0]
            );
        }
        println!(
            "MULTI_ROUND ok: cached rounds {:.1}..{:.1} ms vs fresh {:.1} ms (>= 4x)",
            srv_enc_ms[1..].iter().fold(f64::INFINITY, |a, &b| a.min(b)),
            srv_enc_ms[1..].iter().fold(0.0f64, |a, &b| a.max(b)),
            srv_enc_ms[0]
        );
    } else {
        println!("MULTI_ROUND gate skipped (cache bypassed, generic engine, or tiny workload)");
    }
    multi_round.entries.push(mrd_entry);
    match multi_round.write() {
        Ok(path) => println!("Wrote multi_round section to {}", path.display()),
        Err(e) => eprintln!("Failed to write multi_round section: {e}"),
    }

    // Replay B: the same 8 rounds again, this time through `run_rounds` — the round
    // pipeline, at the depth ULDP_PIPELINE / ULDP_PIPELINE_DEPTH resolve to — from an
    // identically-seeded RNG and a reset cache. The MRD fingerprint lines are printed
    // from THIS replay, so CI's diff of an ULDP_PIPELINE=0 process against a pipelined
    // one checks the overlapped rounds bit-for-bit; the in-process assert additionally
    // pins them to the sequential `weighting_round` loop above.
    let depth = uldp_runtime::resolve_pipeline_depth(0);
    protocol.reset_round_cache();
    let mut pipe_rng = StdRng::seed_from_u64(0x004d_5244);
    let inputs: Vec<RoundInput<'_>> =
        (0..num_rounds).map(|_| RoundInput::new(&deltas, &noises)).collect();
    let replay_start = Instant::now();
    let outputs = protocol.run_rounds(&inputs, &mut pipe_rng);
    let replay_ms = millis(replay_start.elapsed());
    for (i, output) in outputs.iter().enumerate() {
        let fp = fnv64(&output.aggregate);
        println!("MRD {} {fp:016x}", i + 1);
        assert_eq!(
            fp,
            mrd_fps[i],
            "pipelined replay (depth {depth}) diverged from the sequential loop at round {}",
            i + 1
        );
    }
    println!("MRD replay: {num_rounds} rounds in {replay_ms:9.1} ms at pipeline depth {depth}");
    Runtime::global().fold_gauge().reset();

    // Pipeline gate workload: a dedicated federation small enough that CRT decryption
    // is a large share of the cached round (few users to fold, many coordinates to
    // decrypt), so the fold/decrypt overlap of the round pipeline is measurable. The
    // acceptance gate asserts the 8-round cached replay is >= 1.2x faster pipelined
    // than sequential — only where the comparison is meaningful: pipeline enabled, a
    // multi-thread pool on real cores, cache active, and a sequential replay that is
    // not noise. The `pipeline` section records the comparison either way.
    let gate_silos = 2usize;
    let gate_users = 6usize;
    let gate_params = 32usize;
    let gate_rounds = 8usize;
    let mut gate_rng = StdRng::seed_from_u64(0x0050_4950); // "PIP"
    let gate_hist: Vec<Vec<usize>> = (0..gate_silos)
        .map(|_| (0..gate_users).map(|_| gate_rng.gen_range(1..4usize)).collect())
        .collect();
    let gate_config = ProtocolConfig {
        paillier_bits: 512,
        dh_bits: 0,
        use_rfc_group: true,
        n_max: 16,
        ..Default::default()
    };
    let gate_protocol = PrivateWeightingProtocol::setup(&gate_hist, &gate_config, &mut gate_rng);
    let gate_deltas: Vec<Vec<Vec<f64>>> = gate_hist
        .iter()
        .map(|row| {
            row.iter()
                .map(|_| (0..gate_params).map(|_| gate_rng.gen_range(-0.5..0.5)).collect())
                .collect()
        })
        .collect();
    let gate_noises: Vec<Vec<f64>> = (0..gate_silos)
        .map(|_| (0..gate_params).map(|_| gate_rng.gen_range(-0.01..0.01)).collect())
        .collect();
    let gate_inputs: Vec<RoundInput<'_>> =
        (0..gate_rounds).map(|_| RoundInput::new(&gate_deltas, &gate_noises)).collect();
    let gate_cmp =
        pipelined_vs_sequential_rounds(&gate_protocol, &gate_inputs, depth, &mut gate_rng);
    println!(
        "PIPELINE {gate_rounds} rounds: sequential {:9.1} ms | pipelined {:9.1} ms | \
         depth {} | {:.2}x (bitwise-identical aggregates)",
        gate_cmp.seq_ms, gate_cmp.pipe_ms, gate_cmp.depth, gate_cmp.speedup
    );
    let mut pipe_section = BenchSection::new("pipeline", threads, paillier_bits);
    let mut gate_entry = BenchEntry::new(format!(
        "silos={gate_silos} users={gate_users} params={gate_params} rounds={gate_rounds}"
    ));
    gate_entry
        .phase("seq_ms", gate_cmp.seq_ms)
        .phase("pipe_ms", gate_cmp.pipe_ms)
        .phase("depth", gate_cmp.depth as f64);
    gate_entry.speedup_vs_sequential = Some(gate_cmp.speedup);
    pipe_section.entries.push(gate_entry);
    // Informational row: wall-clock of the default-workload MRD replay above.
    let mut replay_entry = BenchEntry::new(format!(
        "silos={num_silos} users={num_users} params={params} rounds={num_rounds}"
    ));
    replay_entry.phase("pipe_ms", replay_ms).phase("depth", depth as f64);
    pipe_section.entries.push(replay_entry);
    match pipe_section.write() {
        Ok(path) => println!("Wrote pipeline section to {}", path.display()),
        Err(e) => eprintln!("Failed to write pipeline section: {e}"),
    }
    let phys = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if depth >= 1 && threads >= 2 && phys >= 2 && cache_active && gate_cmp.seq_ms >= 100.0 {
        assert!(
            gate_cmp.speedup >= 1.2,
            "pipelined replay speedup {:.2}x at depth {depth}, {threads} threads is below \
             the 1.2x gate (seq {:.1} ms, pipelined {:.1} ms)",
            gate_cmp.speedup,
            gate_cmp.seq_ms,
            gate_cmp.pipe_ms
        );
        println!(
            "PIPELINE ok: {:.2}x >= 1.2x at depth {depth}, {threads} threads",
            gate_cmp.speedup
        );
    } else {
        println!(
            "PIPELINE gate skipped (pipeline disabled, single-threaded, cache bypassed, \
             or tiny workload)"
        );
    }
    Runtime::global().fold_gauge().reset();

    // Single-core engine comparison on the acceptance workload: a 2048-bit
    // scalar_mul-shaped batch (fixed base, 64 half-width exponents), plus the
    // re-randomisation and fused multi-exponentiation rows. Every path pair is
    // asserted bitwise-identical inside its comparison.
    let modpow_bits = env_usize("ULDP_MODPOW_BITS", 2048);
    let modpow_exps = env_usize("ULDP_MODPOW_EXPS", 64);
    let cmp = uldp_bench::modpow::modpow_comparison(modpow_bits, modpow_exps, 1_000_033);
    println!(
        "MODPOW bits={} exps={}: generic {:9.1} ms | montgomery {:9.1} ms ({:.2}x) | \
         fixed_base {:9.1} ms ({:.2}x)",
        cmp.modulus_bits,
        cmp.num_exps,
        cmp.generic_ms,
        cmp.montgomery_ms,
        cmp.montgomery_speedup(),
        cmp.fixed_base_ms,
        cmp.fixed_base_speedup(),
    );
    // 64 ops so the one-off RerandCtx table build is amortised the way the per-
    // federation cache amortises it over users x rounds.
    let rerand = uldp_bench::modpow::rerand_comparison(modpow_bits / 2, 64, 1_000_037);
    println!(
        "RERAND bits={} ops={}: encrypt {:9.1} ms | rerandomise {:9.1} ms | \
         rerandomise_ctx {:9.1} ms ({:.2}x)",
        rerand.modulus_bits,
        rerand.num_ops,
        rerand.encrypt_ms,
        rerand.rerandomise_ms,
        rerand.ctx_rerandomise_ms,
        rerand.ctx_speedup(),
    );
    let fused = uldp_bench::modpow::multi_exp_comparison(modpow_bits, 4, 8, 1_000_039);
    println!(
        "MULTIEXP bits={} k={} products={}: unfused {:9.1} ms | fused {:9.1} ms ({:.2}x)",
        fused.modulus_bits,
        fused.k,
        fused.num_products,
        fused.unfused_ms,
        fused.fused_ms,
        fused.fused_speedup(),
    );
    // The chain length matches the squaring ladder of one half-width exponentiation,
    // so the row reads as "what the Karatsuba tier saves per scalar_mul".
    let karatsuba = uldp_bench::modpow::karatsuba_comparison(modpow_bits.max(2048), 256, 1_000_099);
    println!(
        "KARATSUBA bits={} muls={}: generic {:9.1} ms | karatsuba {:9.1} ms ({:.2}x)",
        karatsuba.modulus_bits,
        karatsuba.num_muls,
        karatsuba.generic_ms,
        karatsuba.karatsuba_ms,
        karatsuba.karatsuba_speedup(),
    );
    match uldp_bench::modpow::write_modpow_section(&cmp, &rerand, &fused, &karatsuba) {
        Ok(path) => println!("Wrote modpow section to {}", path.display()),
        Err(e) => eprintln!("Failed to write modpow section: {e}"),
    }

    // Population scaling: round cost must track the sampled count q·|U|, not the
    // population |U|. Three populations × two sampling rates at a small Paillier
    // modulus — the per-sampled-user crypto is constant across rows, so any
    // superlinear growth of the per-phase times or of the materialised per-user
    // state against q·|U| is a scaling regression. Setup (key generation, blinding,
    // inversion — inherently O(|U|)) is paid once per population and reported as its
    // own phase. The acceptance gate: the 10⁶-user q=0.01 round (10⁴ expected
    // sampled) must stay within 3× of the 10⁵-user q=0.1 round (same expected
    // sample size) on time, state bytes and peak fold bytes.
    if uldp_core::sampling::dense_mask_forced() {
        println!("POPULATION section skipped (ULDP_DENSE_MASK forces the O(|U|) path)");
    } else {
        Runtime::global().fold_gauge().reset();
        let pop_bits = 128usize;
        let pop_silos = 2usize;
        let pop_dim = 2usize;
        let mut pop_section = BenchSection::new("population_scaling", threads, pop_bits);
        // (population, q) → (round_ms, state_bytes, peak_fold_bytes) for the gate.
        let mut pop_rows: Vec<(usize, f64, f64, usize, usize)> = Vec::new();
        for &population in &[10_000usize, 100_000, 1_000_000] {
            let mut pop_rng = StdRng::seed_from_u64(0x0050_4f50 + population as u64); // "POP"
            let pop_hist: Vec<Vec<usize>> = (0..pop_silos)
                .map(|_| (0..population).map(|_| pop_rng.gen_range(0..4usize)).collect())
                .collect();
            let pop_config = ProtocolConfig {
                paillier_bits: pop_bits,
                dh_bits: 0,
                use_rfc_group: true,
                n_max: 8,
                ..Default::default()
            };
            let setup_start = Instant::now();
            let pop_protocol =
                PrivateWeightingProtocol::setup(&pop_hist, &pop_config, &mut pop_rng);
            let setup_ms = millis(setup_start.elapsed());
            for &q in &[0.01f64, 0.1] {
                let mask = SampleMask::poisson(&mut pop_rng, population, q);
                let mut pop_deltas: Vec<Vec<Vec<f64>>> =
                    vec![vec![Vec::new(); population]; pop_silos];
                for u in mask.iter() {
                    for (silo_row, hist_row) in pop_deltas.iter_mut().zip(pop_hist.iter()) {
                        if hist_row[u] > 0 {
                            silo_row[u] =
                                (0..pop_dim).map(|_| pop_rng.gen_range(-0.5..0.5)).collect();
                        }
                    }
                }
                let pop_noises: Vec<Vec<f64>> = (0..pop_silos)
                    .map(|_| (0..pop_dim).map(|_| pop_rng.gen_range(-0.01..0.01)).collect())
                    .collect();
                pop_protocol.reset_round_cache();
                Runtime::global().fold_gauge().reset();
                let (pop_agg, pop_timings) = pop_protocol.weighting_round(
                    &pop_deltas,
                    &pop_noises,
                    Some(&mask),
                    &mut pop_rng,
                );
                assert!(pop_agg.iter().all(|v| v.is_finite()));
                let state_bytes = pop_protocol.cached_state_bytes();
                let state_entries = pop_protocol.cached_entry_count();
                let peak_fold = Runtime::global().fold_gauge().peak();
                let round_ms = millis(pop_timings.total());
                println!(
                    "POP users={population} q={q}: sampled {} | srv_enc {:9.1} ms | \
                     silo_enc {:9.1} ms | agg {:9.1} ms | state {} B in {} entries | \
                     peak_fold {} B | setup {setup_ms:9.1} ms",
                    mask.sampled_count(),
                    millis(pop_timings.server_encryption),
                    millis(pop_timings.silo_weighting),
                    millis(pop_timings.aggregation),
                    state_bytes,
                    state_entries,
                    peak_fold,
                );
                let mut entry = BenchEntry::new(format!("users={population} q={q}"));
                entry
                    .phase("setup", setup_ms)
                    .phase("srv_enc", millis(pop_timings.server_encryption))
                    .phase("silo_enc", millis(pop_timings.silo_weighting))
                    .phase("agg", millis(pop_timings.aggregation))
                    .phase("round", round_ms)
                    .phase("sampled_users", mask.sampled_count() as f64)
                    .phase("state_bytes", state_bytes as f64)
                    .phase("state_entries", state_entries as f64)
                    .phase("peak_fold_bytes", peak_fold as f64);
                pop_section.entries.push(entry);
                pop_rows.push((population, q, round_ms, state_bytes, peak_fold));
            }
        }
        match pop_section.write() {
            Ok(path) => println!("Wrote population_scaling section to {}", path.display()),
            Err(e) => eprintln!("Failed to write population_scaling section: {e}"),
        }
        // The sub-linear-cost gate: equal expected sample sizes must cost alike even
        // though the populations differ 10×. Timing is gated only when large enough
        // to be meaningful; the byte gauges are analytic, so they are gated always.
        let small =
            pop_rows.iter().find(|r| r.0 == 100_000 && r.1 == 0.1).expect("10^5 q=0.1 row present");
        let large = pop_rows
            .iter()
            .find(|r| r.0 == 1_000_000 && r.1 == 0.01)
            .expect("10^6 q=0.01 row present");
        assert!(
            large.3 as f64 <= 3.0 * small.3 as f64,
            "10^6-user q=0.01 state {} B exceeds 3x the 10^5-user q=0.1 state {} B",
            large.3,
            small.3
        );
        assert!(
            large.4 as f64 <= 3.0 * small.4 as f64,
            "10^6-user q=0.01 peak fold {} B exceeds 3x the 10^5-user q=0.1 peak {} B",
            large.4,
            small.4
        );
        if small.2 >= 5.0 {
            assert!(
                large.2 <= 3.0 * small.2,
                "10^6-user q=0.01 round {:.1} ms exceeds 3x the 10^5-user q=0.1 round {:.1} ms",
                large.2,
                small.2
            );
        }
        println!(
            "POPULATION ok: 10^6 q=0.01 round {:.1} ms / {} B vs 10^5 q=0.1 round \
             {:.1} ms / {} B (within 3x)",
            large.2, large.3, small.2, small.3
        );
        Runtime::global().fold_gauge().reset();
    }

    // A tiny faulted training run (2 rounds, dropouts + stragglers + byzantine
    // corruption) so a single traced smoke also exercises the training-side spans, the
    // scenario fault events and the privacy ledger. It runs untraced too — the history
    // fingerprint below must be bitwise-identical with and without ULDP_TRACE, which CI
    // diffs the same way as the AGG lines.
    Runtime::global().fold_gauge().reset();
    let mut train_rng = StdRng::seed_from_u64(0x00fa_0175);
    let train_dataset = creditcard::generate(
        &mut train_rng,
        &CreditcardConfig {
            train_records: 150,
            test_records: 30,
            num_silos: 4,
            num_users: 20,
            ..Default::default()
        },
    );
    let method = Method::UldpAvg { weighting: WeightingStrategy::Uniform };
    let mut train_config = FlConfig::recommended(method, train_dataset.num_silos);
    train_config.rounds = 2;
    train_config.local_epochs = 1;
    train_config.sigma = 1.0;
    train_config.clip_bound = 1.0;
    train_config.fault_plan = FaultPlan {
        dropout_fraction: 0.5,
        delay_fraction: 0.25,
        delay_ms: 50,
        byzantine_fraction: 0.5,
        byzantine: ByzantineStrategy::SignFlip,
        seed: 7,
    };
    let model = Box::new(LinearClassifier::new(train_dataset.feature_dim(), 2));
    let history = Trainer::new(train_config, train_dataset, model).run();
    let train_fp = fnv64(&history.final_parameters);
    println!("TRN faulted_avg {train_fp:016x} (eps {:.3})", history.final_epsilon());

    // Traced runs additionally export everything the process recorded: the `telemetry`
    // report section, the chrome-trace JSON (ULDP_TRACE_OUT) and a flat summary.
    if uldp_telemetry::enabled() {
        match uldp_bench::telemetry_report::write_telemetry_section(threads, paillier_bits) {
            Ok(path) => println!("Wrote telemetry section to {}", path.display()),
            Err(e) => eprintln!("Failed to write telemetry section: {e}"),
        }
        match uldp_telemetry::export::write_chrome_trace_default() {
            Ok(Some(path)) => println!("Wrote chrome trace to {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("Failed to write chrome trace: {e}"),
        }
        print!("{}", uldp_telemetry::export::summary());
    }
}
