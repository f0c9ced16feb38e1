//! `perfbench` — the repository benchmark.
//!
//! ```bash
//! bash perfbench/run.sh --workload reaction_dense --seed 1 --seconds 8 --trace 0
//! ```
//!
//! Workloads: `avail_lownoise`, `reaction_dense` (Monte-Carlo decoding
//! through `surf-sim`) and `serve_strikes` (the `surf-service` daemon,
//! started by this binary as a child process). With `--trace 0` the last
//! stdout line reports the end-to-end metrics; with `--trace 1` it reports
//! the per-layer metrics measured from spans the benchmark records around
//! its own calls into each layer. See `perfbench/README.md`.

mod mc;
mod serve;
mod trace;

use trace::Report;

/// End-to-end metrics, reported with `--trace 0` (units as in
/// `BENCHMARK.json`).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("shot_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("commit_latency_p50_us", "us"),
    ("commit_latency_p99_us", "us"),
    ("saturated_rounds_per_s", "1/s"),
    ("defects.schedule_draws", "count"),
    ("core.adaptive_schedule_s", "s"),
    ("core.adaptive_schedule_calls", "count"),
    ("sim.model_build_s", "s"),
    ("sim.periodic_compiled", "count"),
    ("sim.expected_fires_per_round", "count"),
    ("session.open_s", "s"),
    ("session.fork_us", "us"),
    ("stream.begin_s", "s"),
    ("stream.next_s", "s"),
    ("stream.events", "count"),
    ("stream.silent_rounds", "count"),
    ("session.push_s", "s"),
    ("session.push_calls", "count"),
    ("session.commit_push_p50_us", "us"),
    ("session.commit_push_p99_us", "us"),
    ("session.plain_push_p50_us", "us"),
    ("session.windows_committed", "count"),
    ("session.silent_s", "s"),
    ("session.silent_rounds", "count"),
    ("session.ff_windows", "count"),
    ("session.ff_ratio", "ratio"),
    ("session.finish_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("proc.scaling_2v1", "ratio"),
    ("logical_error_per_round", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_out", "bytes"),
    ("wire.bytes_in", "bytes"),
    ("wire.opened_bytes", "bytes"),
    ("daemon.overhead_p50_us", "us"),
    ("daemon.overhead_p99_us", "us"),
    ("daemon.queue_depth_max", "count"),
    ("daemon.commit_lag_max", "count"),
    ("daemon.inject_stall_ms", "ms"),
    ("daemon.hol_p99_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("trace.overhead", "ratio"),
];

/// Operations attempted and failed, and why any failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Records one correctness check; a failure is printed.
    pub fn check(&mut self, what: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("  FAILED: {what} ({detail})");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 8.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            "--trace" => out.trace = value == "1",
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(out)
}

/// `perfbench daemon <socket> --workers N`: the decode daemon process the
/// `serve_strikes` workload talks to (the library's `Daemon`, as served by
/// `surf-deformer-daemon`).
fn daemon(mut args: impl Iterator<Item = String>) -> ! {
    let socket = args.next().expect("daemon needs a socket path");
    let mut config = surf_service::DaemonConfig::default();
    if let (Some(flag), Some(n)) = (args.next(), args.next()) {
        if flag == "--workers" {
            config.workers = n.parse().expect("worker count");
        }
    }
    let daemon = surf_service::Daemon::bind(&socket, config).expect("bind daemon socket");
    let code = i32::from(daemon.run().is_err());
    std::process::exit(code)
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("daemon") {
        argv.next();
        daemon(argv);
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Every reported metric starts at 0, so a failed run still prints a
    // complete result (with `correct: false`).
    let mut report = Report::default();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        report.put(name, 0.0, unit);
    }
    let outcome = match args.workload.as_str() {
        "avail_lownoise" => mc::run(
            &mc::McWorkload::avail_lownoise(),
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "reaction_dense" => mc::run(
            &mc::McWorkload::reaction_dense(),
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "serve_strikes" => serve::run(args.seed, args.seconds, args.trace, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!(
        "  {} operations and checks, {} failed",
        outcome.attempted, outcome.failed
    );
    let listed = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let names: Vec<&str> = listed.iter().map(|m| m.0).collect();
    report.print(
        &names,
        &format!(
            "{} (seed {}, {})",
            args.workload,
            args.seed,
            if args.trace { "traced" } else { "untraced" }
        ),
    );
    println!(
        "{}",
        report.json(&names, outcome.attempted.max(1), outcome.failed)
    );
}
