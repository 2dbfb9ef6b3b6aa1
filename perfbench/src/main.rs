//! `perfbench` — the end-to-end benchmark of the Uldp-FL workspace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats episodes of one workload, each in a fresh child process of this
//! binary, until `--seconds` are used up (at least two episodes). An episode is one
//! closed-loop caller: set-up, then every round in order, each round starting when the
//! previous one returned. All episodes of a run use the same seed, so they do the same
//! work and must produce bit-identical outputs. The run prints a summary and, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A traced run alternates traced and untraced episodes, which gives the tracing
//! overhead. `BENCHMARK.json` at the repository root records the workloads, the
//! metrics, which end-to-end metric each layer metric should move, and the baseline.

mod episode;
mod protocol;
mod report;
mod stats;
mod train;

use episode::Episode;
use report::{EpisodeOutput, RunReport};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["train_creditcard", "protocol_heart", "protocol_population"];

/// Process-wide settings of the program. Any of them would change what is measured,
/// so a run refuses to start while one is set.
const KNOBS: [&str; 9] = [
    "ULDP_THREADS",
    "ULDP_SHARDS",
    "ULDP_CHUNK",
    "ULDP_PIPELINE",
    "ULDP_PIPELINE_DEPTH",
    "ULDP_FRESH_ENCRYPT",
    "ULDP_DENSE_MASK",
    "ULDP_GENERIC_MODPOW",
    "ULDP_TRACE",
];

/// Episodes per run, however short `--seconds` is: two are needed to compare outputs.
const MIN_EPISODES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one episode and print its lines (the child side).
    episode: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut episode) =
            (None, None, None, None, false);
        while let Some(flag) = args.next() {
            if flag == "--episode" {
                episode = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number =
                || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = Some(number()?),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
        }
        let trace = match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        let seconds = seconds.unwrap_or(40);
        if seconds == 0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace, episode })
    }
}

fn run_episode(workload: &str, seed: u64, traced: bool) {
    let mut ep = Episode::new(traced);
    match workload {
        "train_creditcard" => train::run(seed, &mut ep),
        "protocol_heart" => protocol::run_heart(seed, &mut ep),
        "protocol_population" => protocol::run_population(seed, &mut ep),
        _ => unreachable!("workload validated by Args::parse"),
    }
    ep.print();
}

fn spawn_episode(args: &Args, traced: bool) -> Result<EpisodeOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--episode", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start episode: {e}"))?;
    if !output.status.success() {
        return Err(format!("episode exited with {}", output.status));
    }
    EpisodeOutput::parse(traced, &String::from_utf8_lossy(&output.stdout))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = KNOBS.iter().copied().filter(|k| std::env::var_os(k).is_some()).collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: unset {} first; the benchmark fixes these settings itself",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.episode {
        run_episode(&args.workload, args.seed, args.trace);
        return ExitCode::SUCCESS;
    }

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut episodes = Vec::new();
    loop {
        // A traced run alternates traced and untraced episodes, traced first.
        let traced = args.trace && episodes.len() % 2 == 0;
        let began = Instant::now();
        match spawn_episode(&args, traced) {
            Ok(ep) => episodes.push(ep),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        }
        if episodes.len() >= MIN_EPISODES && start.elapsed() + began.elapsed() > budget {
            break;
        }
    }
    let report = RunReport::build(&episodes, args.trace);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed {} trace {} ({cpus} CPUs available)",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for line in &report.summary {
        println!("  {line}");
    }
    for failure in &report.failures {
        println!("  FAILED {failure}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
