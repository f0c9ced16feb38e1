//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Each paper artefact has its own binary (`cargo run --release -p
//! surf-bench --bin fig11a`, …); all of them print an aligned table to
//! stdout and write a CSV copy under `target/paper_results/`.
//!
//! Workload sizes are tuned to finish in seconds–minutes; environment
//! variables (`SHOTS`, `SAMPLES`, …, documented per binary) scale them up
//! to paper-grade statistics.
//!
//! **Multi-host sharding**: the shot-driven memory-experiment binaries
//! (`fig11a`, `fig14a`, `fig14b`, `ablations`, `calibrate` — everything
//! funnelling through [`logical_rate_with`] / [`sharded_stats`]) accept
//! `--shard k/n` (or `SHARD=k/n`). Batches are seeded by *global* batch
//! index, so shard `k` runs batches `k, k+n, k+2n, …` of each experiment
//! and the per-shard failure counts (printed to stderr) merge by
//! summation into exactly the single-host result — point `n` hosts at
//! the same invocation with `--shard 0/n` … `--shard n-1/n` and add the
//! counts. The sample-driven binaries (`fig11b`, `fig11c`, `fig12`,
//! `fig13a`, `fig13b`, `table2`) don't run shot batches and ignore the
//! flag; split those by `SAMPLES`/seed instead.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use surf_defects::DefectMap;
use surf_lattice::Patch;
use surf_sim::{
    DecoderKind, DecoderPrior, MemoryExperiment, MemoryStats, NoiseParams, Shard, StreamConfig,
};

/// Reads an environment variable as an integer with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Reads an environment variable as a `u32` with a default.
///
/// A value that parses as an integer but overflows `u32` aborts loudly:
/// the old `env_u64(..) as u32` idiom silently truncated, so e.g.
/// `ROUNDS=4294967336` would quietly run a 40-round experiment and
/// report it as the requested horizon. Unparseable values keep the
/// [`env_u64`] convention and fall back to the default.
pub fn env_u32(name: &str, default: u32) -> u32 {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    match raw.parse::<u64>() {
        Ok(v) => u32::try_from(v).unwrap_or_else(|_| {
            eprintln!("{name}={raw} overflows u32 (max {})", u32::MAX);
            std::process::exit(2);
        }),
        Err(_) => default,
    }
}

/// Reads an environment variable as a float with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The process-wide shard, parsed once from `--shard k/n` (argv) or
/// `SHARD=k/n` (env); defaults to the whole run. A malformed value
/// aborts rather than silently burning a farm slot on the wrong shots.
pub fn cli_shard() -> Shard {
    static SHARD: OnceLock<Shard> = OnceLock::new();
    *SHARD.get_or_init(|| {
        let mut requested: Option<String> = None;
        let mut args = std::env::args();
        while let Some(arg) = args.next() {
            if arg == "--shard" {
                requested = Some(args.next().unwrap_or_default());
            } else if let Some(v) = arg.strip_prefix("--shard=") {
                requested = Some(v.to_string());
            }
        }
        if requested.is_none() {
            requested = std::env::var("SHARD").ok();
        }
        match requested {
            None => Shard::solo(),
            Some(spec) => match Shard::parse(&spec) {
                Some(shard) => {
                    eprintln!(
                        "[shard {shard}] running batches {} mod {}; failure counts \
                         merge by summation across shards",
                        shard.index(),
                        shard.count()
                    );
                    shard
                }
                None => {
                    eprintln!("invalid shard spec {spec:?}: expected k/n with k < n");
                    std::process::exit(2);
                }
            },
        }
    })
}

/// Runs the experiment's shard of `shots` shots per basis and, when
/// sharded, prints the mergeable raw failure counts to stderr (stdout
/// stays clean for the results table / CSV).
pub fn sharded_stats(exp: &MemoryExperiment, shots: u64, seed: u64) -> MemoryStats {
    let shard = cli_shard();
    let config = StreamConfig::new(shots, seed, exp.rounds + 1).with_shard(shard);
    let stats = exp.run_stream(&config);
    if shard.count() > 1 {
        eprintln!(
            "[shard {shard}] seed={seed} shots={} z_failures={} x_failures={}",
            stats.shots, stats.failures_z_memory, stats.failures_x_memory
        );
    }
    stats
}

/// A results table that prints aligned columns and persists a CSV copy.
pub struct ResultsTable {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultsTable {
    /// Creates a table with column headers.
    pub fn new<S: Into<String>>(name: S, headers: &[&str]) -> Self {
        ResultsTable {
            name: name.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Prints to stdout and writes `target/paper_results/<name>.csv`.
    pub fn finish(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
        let dir = PathBuf::from("target/paper_results");
        let _ = fs::create_dir_all(&dir);
        let mut csv = self.headers.join(",") + "\n";
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let path = dir.join(format!("{}.csv", self.name));
        if fs::write(&path, csv).is_ok() {
            println!("\n[written {}]", path.display());
        }
    }
}

/// Runs a memory experiment through the batched sampling–decoding pipeline
/// with the given decoder backend and returns the combined per-round
/// logical error rate.
///
/// Honours [`cli_shard`]: under `--shard k/n` only this shard's batches
/// run, the mergeable counts go to stderr, and the returned rate is the
/// per-shard estimate.
pub fn logical_rate_with(
    patch: Patch,
    kept_defects: DefectMap,
    prior: DecoderPrior,
    decoder: DecoderKind,
    rounds: u32,
    shots: u64,
    seed: u64,
) -> f64 {
    let exp = MemoryExperiment {
        patch,
        rounds,
        noise: NoiseParams::paper(),
        kept_defects,
        prior,
        decoder,
    };
    sharded_stats(&exp, shots, seed).per_round_rate(rounds)
}

/// [`logical_rate_with`] using the default MWPM backend (the paper's
/// configuration for every figure).
pub fn logical_rate(
    patch: Patch,
    kept_defects: DefectMap,
    prior: DecoderPrior,
    rounds: u32,
    shots: u64,
    seed: u64,
) -> f64 {
    logical_rate_with(
        patch,
        kept_defects,
        prior,
        DecoderKind::Mwpm,
        rounds,
        shots,
        seed,
    )
}

/// Formats a rate in scientific notation, or a detection floor when no
/// failures were observed (zero rate — including a shard that owns zero
/// batches of a small experiment, whose stats report rate 0).
///
/// Under [`cli_shard`] the floor reflects the shots *this shard*
/// actually sampled, not the full requested count: a zero-failure cell
/// of a `1/n` shard only supports an upper bound `n×` looser than the
/// merged run's.
pub fn fmt_rate(rate: f64, shots: u64, rounds: u32) -> String {
    if rate > 0.0 {
        format!("{rate:.3e}")
    } else {
        let shard_shots = cli_shard().shots_of(shots).max(1);
        format!("<{:.1e}", 1.0 / (shard_shots as f64 * rounds as f64))
    }
}
