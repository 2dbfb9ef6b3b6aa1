//! The child side of a run: one episode of one workload, reported as plain text lines
//! on standard output for the parent process to collect.
//!
//! Line format (one record per line, fields separated by single spaces):
//!
//! ```text
//! sample <metric> <value>    one measurement of a metric
//! attempted <n>              checked operations: setups, rounds, evaluations
//! fail <message>             one failed operation
//! fingerprint <hex>          FNV-1a digest of the episode's outputs
//! ```

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use uldp_telemetry::metrics::{self, Counter};

/// Counters reported per steady round, under their own names.
const ROUND_COUNTERS: [&Counter; 10] = [
    &metrics::MONT_MUL,
    &metrics::MONT_SQR,
    &metrics::MODPOW_WINDOW,
    &metrics::MODPOW_FIXED_BASE,
    &metrics::MULTI_EXP,
    &metrics::PAILLIER_ENCRYPT,
    &metrics::PAILLIER_RERANDOMISE,
    &metrics::PAILLIER_SCALAR_MUL,
    &metrics::PAILLIER_DECRYPT,
    &metrics::POOL_JOBS,
];

/// FNV-1a offset basis; digests start here and fold values in with [`fnv64`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds the bit patterns of `values` into the FNV-1a digest `hash`.
pub fn fnv64(mut hash: u64, values: &[f64]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs one operation of the workload, turning a panic into `None`.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after it are fixed.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// What one episode measured. Per-layer samples are kept only in traced episodes.
pub struct Episode {
    traced: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failures: Vec<String>,
    fingerprint: u64,
    /// Setup, rounds and evaluations: the time a user of the program waits for.
    pub busy: Duration,
}

impl Episode {
    /// Starts an episode; a traced one switches the program's telemetry on.
    pub fn new(traced: bool) -> Episode {
        if traced {
            uldp_telemetry::set_enabled(true);
        }
        Episode {
            traced,
            samples: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
            fingerprint: FNV_OFFSET,
            busy: Duration::ZERO,
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Records an end-to-end sample (kept in every episode).
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Records a per-layer sample (dropped in untraced episodes).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        if self.traced {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Clears the program's telemetry so the next round's counts start from zero.
    pub fn start_round(&mut self) {
        if self.traced {
            uldp_telemetry::reset();
        }
    }

    /// Records the operation counts and pool times of the round just run, as read from
    /// the counters and histograms the program exports through `uldp_telemetry`.
    pub fn record_round_counters(&mut self) {
        if !self.traced {
            return;
        }
        for counter in ROUND_COUNTERS {
            self.layer(counter.name(), counter.get() as f64);
        }
        self.layer("runtime.job_queue_wait_ms", metrics::JOB_QUEUE_US.sum_us() as f64 / 1e3);
        self.layer("runtime.job_exec_ms", metrics::JOB_EXEC_US.sum_us() as f64 / 1e3);
    }

    /// Records the episode's end-to-end totals once its last operation has returned.
    pub fn finish(&mut self) {
        self.end_to_end("total_s", self.busy.as_secs_f64());
        self.end_to_end("peak_rss_mb", peak_rss_mb());
    }

    /// Folds output values into the episode's fingerprint.
    pub fn digest(&mut self, values: &[f64]) {
        self.fingerprint = fnv64(self.fingerprint, values);
    }

    /// Writes the episode's lines to standard output.
    pub fn print(&self) {
        let mut out = String::new();
        for (name, values) in &self.samples {
            for v in values {
                out.push_str(&format!("sample {name} {v}\n"));
            }
        }
        out.push_str(&format!("attempted {}\n", self.attempted));
        for f in &self.failures {
            out.push_str(&format!("fail {}\n", f.replace('\n', " ")));
        }
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        print!("{out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_digest_depends_on_every_bit() {
        let a = fnv64(FNV_OFFSET, &[1.0, 2.0]);
        assert_eq!(a, fnv64(FNV_OFFSET, &[1.0, 2.0]));
        assert_ne!(a, fnv64(FNV_OFFSET, &[2.0, 1.0]));
        assert_ne!(a, fnv64(FNV_OFFSET, &[1.0, f64::from_bits(2.0f64.to_bits() ^ 1)]));
        assert_eq!(fnv64(FNV_OFFSET, &[]), FNV_OFFSET);
    }

    #[test]
    fn proc_readers_return_positive_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
