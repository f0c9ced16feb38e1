//! The two Monte-Carlo workloads: `avail_lownoise` and `reaction_dense`.
//!
//! Both decode a d = 5 rotated Z-memory under a Poisson cosmic-ray strike
//! schedule that the adaptive timeline deforms around. The end-to-end
//! throughput comes from `MemoryExperiment::run_stream_basis`; the
//! benchmark's own replica of that loop (fork → round stream → push /
//! advance → finish) provides the per-round latencies, the per-layer spans
//! and the correctness oracle.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::{CosmicRayModel, DefectDetector, DefectMap, DefectSchedule};
use surf_deformer_core::{EnlargeBudget, PatchTimeline};
use surf_lattice::{Basis, Coord, Patch};
use surf_matching::WindowConfig;
use surf_sim::{
    BitBatch, DecodeSession, DecoderPrior, MemoryExperiment, NoiseParams, PeriodicModel,
    StreamConfig, TimelineModel,
};

use crate::trace::{self, percentile, Report, Spans};
use crate::Outcome;

const D: usize = 5;
/// Seed of the strike-schedule search. The scenario (which strikes land
/// where, and the adaptive timeline around them) is fixed per workload so
/// that run-to-run spread measures the code, not the luck of the draw;
/// `--seed` draws the Monte-Carlo syndrome samples.
const SCENARIO_SEED: u64 = 0x14BB;
const REACTION: u32 = 2;
const SETUP_REPEATS: usize = 15;

/// One Monte-Carlo workload.
pub struct McWorkload {
    pub name: &'static str,
    pub rounds: u32,
    pub noise: NoiseParams,
    pub sparse: bool,
    pub threads: usize,
    /// Shots per `run_stream_basis` call (a whole number of 64-lane
    /// batches, one per worker thread at least).
    pub chunk_shots: u64,
    /// Fewest `run_stream_basis` calls in the decode phase, however long
    /// they take.
    pub min_chunks: usize,
    /// Whether the traced run also compares a one-thread run with the
    /// first chunk (and reports `proc.scaling_2v1`).
    pub compare_threads: bool,
}

impl McWorkload {
    pub fn avail_lownoise() -> McWorkload {
        McWorkload {
            name: "avail_lownoise",
            rounds: 100_000,
            noise: NoiseParams::uniform(1e-4),
            sparse: true,
            threads: 2,
            chunk_shots: 128,
            min_chunks: 3,
            compare_threads: true,
        }
    }

    pub fn reaction_dense() -> McWorkload {
        McWorkload {
            name: "reaction_dense",
            rounds: 120,
            noise: NoiseParams::paper(),
            sparse: false,
            threads: 2,
            chunk_shots: 2048,
            min_chunks: 4,
            compare_threads: false,
        }
    }

    fn window(&self) -> WindowConfig {
        WindowConfig::new(2 * D as u32)
    }

    fn experiment(&self) -> MemoryExperiment {
        let mut exp = MemoryExperiment::standard(Patch::rotated(D));
        exp.rounds = self.rounds;
        exp.noise = self.noise;
        exp.prior = DecoderPrior::Informed;
        exp
    }

    fn stream_config(
        &self,
        scenario: &Scenario,
        shots: u64,
        seed: u64,
        threads: usize,
        sparse: bool,
    ) -> StreamConfig {
        StreamConfig::new(shots, seed, self.window().window)
            .with_window(self.window())
            .with_threads(threads)
            .with_timeline(scenario.timeline.clone())
            .with_schedule(scenario.schedule.clone())
            .with_sparse(sparse)
    }
}

/// The set-up product: the strike schedule, the adaptive timeline around
/// it, and a compiled prototype session the replica loop forks from.
pub struct Scenario {
    pub schedule: DefectSchedule,
    pub timeline: PatchTimeline,
    /// The qualifying draw (draws made: `attempt + 1`).
    pub attempt: u64,
    pub proto: DecodeSession,
    /// The periodic template's expected fires per round, when the
    /// horizon has one (sparse sessions then compile it).
    pub fires: Option<f64>,
}

fn universe(patch: &Patch) -> Vec<Coord> {
    let mut universe = patch.data_qubits();
    universe.extend(patch.syndrome_qubits());
    universe
}

/// The adaptive timeline of `schedule` (imprecise detector, reaction 2,
/// enlargement budget 2).
fn adaptive(schedule: &DefectSchedule, rounds: u32) -> PatchTimeline {
    PatchTimeline::adaptive_schedule(
        Patch::rotated(D),
        DefectMap::new(),
        EnlargeBudget::uniform(2),
        schedule,
        &DefectDetector::paper_imprecise(),
        REACTION,
        rounds,
        &mut StdRng::seed_from_u64(SCENARIO_SEED),
    )
    .0
}

/// Inputs → compiled prototype: resample Poisson strike schedules until
/// one has at least three timely strikes whose adaptive timeline threads
/// the logical observable, then compile the session.
fn set_up(w: &McWorkload, spans: &mut Spans) -> Scenario {
    let patch = Patch::rotated(D);
    let universe = universe(&patch);
    // fig14b's time-compressed cosmic rays: radius-1 bursts at 50 %,
    // 40-round healing, about four strikes per horizon.
    let model = CosmicRayModel {
        event_rate_per_qubit_round: 4.0 / (universe.len() as f64 * f64::from(w.rounds)),
        duration_rounds: 40,
        region_radius: 1,
        defect_error_rate: 0.5,
    };
    let margin = 20u64;
    for attempt in 0..512u64 {
        let mut rng = StdRng::seed_from_u64(SCENARIO_SEED ^ attempt);
        let schedule = spans.time("defects.sample_cosmic_rays", attempt, || {
            DefectSchedule::sample_cosmic_rays(&model, &universe, w.rounds, &mut rng)
        });
        let timely = schedule
            .episodes()
            .iter()
            .filter(|e| e.start > 0 && u64::from(e.start) + margin < u64::from(w.rounds))
            .count();
        if schedule.len() < 3 || timely < 3 {
            continue;
        }
        let timeline = spans.time("core.adaptive_schedule", attempt, || {
            adaptive(&schedule, w.rounds)
        });
        let (threaded, fires) =
            spans.time("sim.model_build", attempt, || {
                match PeriodicModel::build(
                    &timeline,
                    Basis::Z,
                    w.rounds,
                    w.noise,
                    &schedule,
                    DecoderPrior::Informed,
                ) {
                    Some(m) => (m.observable_threaded(), Some(m.expected_fires_per_round())),
                    None => (
                        TimelineModel::build_scheduled(
                            &timeline,
                            Basis::Z,
                            w.rounds,
                            w.noise,
                            &schedule,
                            DecoderPrior::Informed,
                        )
                        .observable_threaded,
                        None,
                    ),
                }
            });
        if !threaded {
            continue;
        }
        let mut config = w.experiment().session_config(Basis::Z);
        config.timeline = timeline.clone();
        config.window = w.window();
        config.schedule = schedule.clone();
        config.sparse = w.sparse;
        let proto = spans.time("session.open", attempt, || config.open(1));
        return Scenario {
            schedule,
            timeline,
            attempt,
            proto,
            fires,
        };
    }
    panic!("no qualifying strike schedule in 512 draws");
}

/// The SplitMix64 stream `run_stream_basis` seeds batch `i` from.
fn splitmix64_stream(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one replica pass measured.
#[derive(Default)]
struct Replica {
    failures: u64,
    errors: u64,
    wall_s: f64,
    /// Per pushed round: push call duration in µs, and whether the push
    /// committed a window.
    pushes: Vec<(f64, bool)>,
    events: u64,
    silent_rounds: u64,
    windows_committed: u64,
    ff_windows: u64,
    spans: Spans,
}

/// The benchmark's copy of `run_stream_basis`'s per-batch loop, with every
/// call into the stream and session layers timed. It runs the batches one
/// after another on the calling thread, so per-call times are not
/// disturbed by a sibling worker.
fn replica(
    w: &McWorkload,
    proto: &DecodeSession,
    seed: u64,
    shots: u64,
    origin: Instant,
    traced: bool,
) -> Replica {
    let mut spans = Spans::new(traced, origin, 1);
    let mut out = Replica::default();
    let started = Instant::now();
    for index in 0..shots.div_ceil(64) {
        let lanes = (shots - index * 64).min(64) as usize;
        let mut rng = StdRng::seed_from_u64(splitmix64_stream(seed, index));
        if w.sparse {
            replica_batch_sparse(proto, &mut rng, lanes, index, &mut spans, &mut out);
        } else {
            replica_batch_dense(proto, &mut rng, lanes, index, &mut spans, &mut out);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.spans = spans;
    out
}

fn count_failures(predictions: &[u64], true_obs: u64, lanes: usize) -> u64 {
    let mut predicted = 0u64;
    for (lane, &p) in predictions.iter().enumerate() {
        predicted |= (p & 1) << lane;
    }
    u64::from(((predicted ^ true_obs) & BitBatch::mask_for(lanes)).count_ones())
}

fn replica_batch_sparse(
    proto: &DecodeSession,
    rng: &mut StdRng,
    lanes: usize,
    index: u64,
    spans: &mut Spans,
    out: &mut Replica,
) {
    let batch = spans.open("replica.batch", index, None);
    let mut stream = proto.sparse_round_stream();
    let s = spans.open("stream.begin", index, batch);
    stream.begin(rng, lanes);
    spans.close(s);
    let s = spans.open("session.fork", index, batch);
    let mut session = proto.fork(lanes);
    spans.close(s);
    let mut windows = 0u32;
    let total = session.total_rounds();
    loop {
        let s = spans.open("stream.next", index, batch);
        let event = stream.next_event();
        spans.close(s);
        let target = event.as_ref().map_or(total, |e| e.round);
        while session.filled_rounds() < target {
            let before = session.filled_rounds();
            let s = spans.open("session.silent", index, batch);
            let res = session.advance_silent(target - before);
            spans.close(s);
            match res {
                Ok(o) => {
                    out.silent_rounds += u64::from(session.filled_rounds() - before);
                    out.ff_windows += u64::from(o.windows_committed - windows);
                    windows = o.windows_committed;
                }
                Err(_) => {
                    out.errors += 1;
                    spans.close(batch);
                    return;
                }
            }
        }
        let Some(event) = event else { break };
        out.events += 1;
        let s = spans.open("session.push", index, batch);
        let t0 = Instant::now();
        let res = session.push_round_sparse(event.detectors, event.words);
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        spans.close(s);
        match res {
            Ok(o) => {
                out.pushes.push((dt, o.windows_committed > windows));
                windows = o.windows_committed;
            }
            Err(_) => {
                out.errors += 1;
                spans.close(batch);
                return;
            }
        }
    }
    out.windows_committed += u64::from(windows);
    let s = spans.open("session.finish", index, batch);
    let predictions = session.finish();
    spans.close(s);
    spans.close(batch);
    match predictions {
        Ok(p) => out.failures += count_failures(&p, stream.true_observables(), lanes),
        Err(_) => out.errors += 1,
    }
}

fn replica_batch_dense(
    proto: &DecodeSession,
    rng: &mut StdRng,
    lanes: usize,
    index: u64,
    spans: &mut Spans,
    out: &mut Replica,
) {
    let batch = spans.open("replica.batch", index, None);
    let mut stream = proto.round_stream();
    let s = spans.open("stream.begin", index, batch);
    stream.begin(rng, lanes);
    spans.close(s);
    let s = spans.open("session.fork", index, batch);
    let mut session = proto.fork(lanes);
    spans.close(s);
    let mut windows = 0u32;
    loop {
        let s = spans.open("stream.next", index, batch);
        let slice = stream.next_round();
        spans.close(s);
        let Some(slice) = slice else { break };
        out.events += 1;
        let s = spans.open("session.push", index, batch);
        let t0 = Instant::now();
        let res = session.push_round(slice.words);
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        spans.close(s);
        match res {
            Ok(o) => {
                out.pushes.push((dt, o.windows_committed > windows));
                windows = o.windows_committed;
            }
            Err(_) => {
                out.errors += 1;
                spans.close(batch);
                return;
            }
        }
    }
    out.windows_committed += u64::from(windows);
    let s = spans.open("session.finish", index, batch);
    let predictions = session.finish();
    spans.close(s);
    spans.close(batch);
    match predictions {
        Ok(p) => out.failures += count_failures(&p, stream.true_observables(), lanes),
        Err(_) => out.errors += 1,
    }
}

/// One `run_stream_basis` call: `(failures, wall seconds)`.
fn decode(
    w: &McWorkload,
    scenario: &Scenario,
    shots: u64,
    seed: u64,
    threads: usize,
    sparse: bool,
) -> (u64, f64) {
    let config = w.stream_config(scenario, shots, seed, threads, sparse);
    let exp = w.experiment();
    let t0 = Instant::now();
    let failures = exp.run_stream_basis(Basis::Z, &config);
    (failures, t0.elapsed().as_secs_f64())
}

fn describe(w: &McWorkload, scenario: &Scenario, seed: u64) {
    println!(
        "workload {}: d={D}, {} rounds, window {}/{}, {}, {} threads, shot seed {seed}",
        w.name,
        w.rounds,
        w.window().window,
        w.window().commit,
        if w.sparse { "sparse" } else { "dense" },
        w.threads,
    );
    println!(
        "  strike schedule: scenario seed {SCENARIO_SEED:#x} ^ attempt {} ({} draws), {} strikes, {} epochs",
        scenario.attempt,
        scenario.attempt + 1,
        scenario.schedule.len(),
        scenario.timeline.epochs().len()
    );
    for e in scenario.schedule.episodes() {
        println!(
            "    rounds [{}, {}): {} qubits at 50%",
            e.start,
            e.end.map_or("end".to_string(), |end| end.to_string()),
            e.defects.len()
        );
    }
}

pub fn run(w: &McWorkload, seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Outcome {
    let mut outcome = Outcome::default();
    let origin = Instant::now();

    // Set-up: once here for the scenario the run decodes, and again
    // between decode chunks until there are SETUP_REPEATS, spread over the
    // decode phase so that one slow spell of the host cannot cover them
    // all. The last one is traced.
    let mut setup_times = Vec::new();
    let mut setup_spans = Spans::new(false, origin, 0);
    let mut timed_set_up = |times: &mut Vec<f64>| {
        let mut spans = Spans::new(traced && times.len() + 1 == SETUP_REPEATS, origin, 0);
        let t0 = Instant::now();
        let s = set_up(w, &mut spans);
        times.push(t0.elapsed().as_secs_f64());
        if spans.enabled() {
            setup_spans = spans;
        }
        s
    };
    let scenario = timed_set_up(&mut setup_times);
    describe(w, &scenario, seed);

    // Decode phase: 64-lane batches through run_stream_basis, in chunks,
    // until the time budget is spent. Throughput is the upper quartile
    // (nearest rank) of the chunks' rates: on a shared host other tenants
    // only ever slow a chunk down. With three chunks it is the fastest.
    let phase = Instant::now();
    let mut chunks: Vec<(u64, u64, f64)> = Vec::new();
    let mut chunk_cpu_s = 0.0;
    loop {
        let chunk_seed = splitmix64_stream(seed, chunks.len() as u64);
        let cpu0 = trace::cpu_seconds("self");
        let (failures, dt) = decode(w, &scenario, w.chunk_shots, chunk_seed, w.threads, w.sparse);
        chunk_cpu_s += trace::cpu_seconds("self") - cpu0;
        chunks.push((chunk_seed, failures, dt));
        let elapsed = phase.elapsed().as_secs_f64();
        let due = 1 + ((SETUP_REPEATS - 1) as f64 * elapsed / seconds).ceil() as usize;
        while setup_times.len() < due.min(SETUP_REPEATS) {
            timed_set_up(&mut setup_times);
        }
        let elapsed = phase.elapsed().as_secs_f64();
        if chunks.len() >= w.min_chunks && elapsed + dt > seconds {
            break;
        }
    }
    while setup_times.len() < SETUP_REPEATS {
        timed_set_up(&mut setup_times);
    }
    // The lower quartile, for the same reason.
    report.put("setup_s", percentile(&mut setup_times, 0.25), "s");
    println!("  set-up times (s): {setup_times:.4?}");
    let chunk_s: f64 = chunks.iter().map(|c| c.2).sum();
    let cpu_util = chunk_cpu_s / (chunk_s * w.threads as f64);
    report.put("peak_rss_mb", trace::peak_rss_mb("self"), "MB");
    let shot_rounds = w.chunk_shots as f64 * f64::from(w.rounds);
    let mut rates: Vec<f64> = chunks.iter().map(|c| shot_rounds / c.2).collect();
    report.put("shot_rounds_per_s", percentile(&mut rates, 0.75), "1/s");
    println!("  chunk rates (shot-rounds/s, sorted): {rates:.0?}");
    let failures: u64 = chunks.iter().map(|c| c.1).sum();
    let ler = failures as f64 / (shot_rounds * chunks.len() as f64);
    outcome.attempted += chunks.len() as u64;
    report.put("logical_error_per_round", ler, "ratio");
    println!(
        "  decode phase: {} chunks of {} shots, {failures} failures, logical_error_per_round {ler:.4e}",
        chunks.len(),
        w.chunk_shots
    );

    // Oracles on the first chunk with a non-zero failure count:
    // run_stream_basis reports nothing else, and equal non-zero counts
    // show that both paths decoded the same sample.
    let (seed0, failures0, dt0) = chunks
        .iter()
        .copied()
        .find(|c| c.1 > 0)
        .unwrap_or(chunks[0]);
    println!("  oracle chunk seed {seed0:#x}: {failures0} failures");
    let untraced = replica(w, &scenario.proto, seed0, w.chunk_shots, origin, false);
    outcome.check(
        "replica loop equals run_stream_basis",
        untraced.errors == 0 && untraced.failures == failures0,
        format!(
            "replica {} (errors {}), run_stream_basis {failures0}",
            untraced.failures, untraced.errors
        ),
    );
    let mut scaling = 0.0;
    if traced && w.compare_threads {
        let (f1, dt1) = decode(w, &scenario, w.chunk_shots, seed0, 1, w.sparse);
        scaling = dt1 / dt0;
        outcome.check(
            "1-thread count equals 2-thread count",
            f1 == failures0,
            format!("1 thread {f1}, {} threads {failures0}", w.threads),
        );
    }
    if !w.sparse {
        let (fs, _) = decode(w, &scenario, w.chunk_shots, seed0, w.threads, true);
        outcome.check(
            "dense count equals sparse count",
            fs == failures0,
            format!("dense {failures0}, sparse {fs}"),
        );
    }

    if !traced {
        return outcome;
    }

    // Per-layer metrics from the traced set-up and the last traced replica
    // pass of the overhead measurement (the untraced oracle pass above
    // warmed the plans and scratch up).
    let mut last = None;
    let overhead = trace::overhead(|traced| {
        let pass = replica(w, &scenario.proto, seed0, w.chunk_shots, origin, traced);
        outcome.check(
            "repeated replica loop equals run_stream_basis",
            pass.errors == 0 && pass.failures == failures0,
            format!("replica {}, run_stream_basis {failures0}", pass.failures),
        );
        let wall = pass.wall_s;
        if traced {
            last = Some(pass);
        }
        wall
    });
    let traced_pass = last.expect("a traced pass");
    let setup_totals = trace::summarise(std::slice::from_ref(&setup_spans));
    let secs = |t: &std::collections::BTreeMap<&str, trace::SpanTotals>, name: &str| {
        t.get(name).map_or(0.0, |s| s.total_ns as f64 * 1e-9)
    };
    let calls = |t: &std::collections::BTreeMap<&str, trace::SpanTotals>, name: &str| {
        t.get(name).map_or(0.0, |s| s.count as f64)
    };
    report.put(
        "defects.schedule_draws",
        (scenario.attempt + 1) as f64,
        "count",
    );
    report.put(
        "core.adaptive_schedule_s",
        secs(&setup_totals, "core.adaptive_schedule"),
        "s",
    );
    report.put(
        "core.adaptive_schedule_calls",
        calls(&setup_totals, "core.adaptive_schedule"),
        "count",
    );
    report.put(
        "sim.model_build_s",
        secs(&setup_totals, "sim.model_build"),
        "s",
    );
    report.put(
        "sim.periodic_compiled",
        f64::from(u8::from(w.sparse && scenario.fires.is_some())),
        "count",
    );
    report.put(
        "sim.expected_fires_per_round",
        scenario.fires.unwrap_or(0.0),
        "count",
    );
    report.put("session.open_s", secs(&setup_totals, "session.open"), "s");

    let totals = trace::summarise(std::slice::from_ref(&traced_pass.spans));
    report.put(
        "session.fork_us",
        secs(&totals, "session.fork") * 1e6 / calls(&totals, "session.fork").max(1.0),
        "us",
    );
    report.put("stream.begin_s", secs(&totals, "stream.begin"), "s");
    report.put("stream.next_s", secs(&totals, "stream.next"), "s");
    report.put("stream.events", traced_pass.events as f64, "count");
    report.put(
        "stream.silent_rounds",
        traced_pass.silent_rounds as f64,
        "count",
    );
    report.put("session.push_s", secs(&totals, "session.push"), "s");
    report.put(
        "session.push_calls",
        calls(&totals, "session.push"),
        "count",
    );
    let mut commit: Vec<f64> = traced_pass
        .pushes
        .iter()
        .filter(|p| p.1)
        .map(|p| p.0)
        .collect();
    let mut plain: Vec<f64> = traced_pass
        .pushes
        .iter()
        .filter(|p| !p.1)
        .map(|p| p.0)
        .collect();
    let commit_s: f64 = commit.iter().sum::<f64>() * 1e-6;
    report.put(
        "session.commit_push_p50_us",
        percentile(&mut commit, 0.50),
        "us",
    );
    report.put(
        "session.commit_push_p99_us",
        percentile(&mut commit, 0.99),
        "us",
    );
    report.put(
        "session.plain_push_p50_us",
        percentile(&mut plain, 0.50),
        "us",
    );
    report.put(
        "session.windows_committed",
        traced_pass.windows_committed as f64,
        "count",
    );
    report.put("session.silent_s", secs(&totals, "session.silent"), "s");
    report.put(
        "session.silent_rounds",
        traced_pass.silent_rounds as f64,
        "count",
    );
    report.put("session.ff_windows", traced_pass.ff_windows as f64, "count");
    report.put(
        "session.ff_ratio",
        traced_pass.ff_windows as f64 / (traced_pass.windows_committed.max(1)) as f64,
        "ratio",
    );
    report.put("session.finish_s", secs(&totals, "session.finish"), "s");
    report.put("proc.cpu_util", cpu_util, "ratio");
    report.put("proc.scaling_2v1", scaling, "ratio");
    report.put("trace.overhead", overhead, "ratio");

    let push_s = secs(&totals, "session.push");
    println!(
        "  commit pushes take {:.1}% of session.push_s ({:.3} of {:.3} s)",
        100.0 * commit_s / push_s.max(1e-12),
        commit_s,
        push_s
    );
    let batches = w.chunk_shots.div_ceil(64) as f64;
    print_round_table(w.name, &totals, batches * f64::from(w.rounds + 1));
    let path = std::path::PathBuf::from(format!(
        ".bench_build/perfbench/spans-{}-{seed}.csv",
        w.name
    ));
    let all = [setup_spans, traced_pass.spans];
    if let Err(e) = trace::write_spans(&path, &all) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("  spans written to {}", path.display());
    }
    outcome
}

/// Where a 64-lane round's time goes: self time per span name, per round.
fn print_round_table(
    title: &str,
    totals: &std::collections::BTreeMap<&str, trace::SpanTotals>,
    rounds: f64,
) {
    let all: u64 = totals.values().map(|t| t.self_ns).sum();
    println!("  where a 64-lane round's time goes ({title}, {rounds:.0} rounds):");
    println!(
        "    {:<24} {:>10} {:>12} {:>7}",
        "span", "calls", "ns/round", "share"
    );
    for (name, t) in totals {
        println!(
            "    {:<24} {:>10} {:>12.1} {:>6.1}%",
            name,
            t.count,
            t.self_ns as f64 / rounds,
            100.0 * t.self_ns as f64 / all.max(1) as f64
        );
    }
}
