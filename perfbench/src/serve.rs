//! The `serve_strikes` workload: the decode daemon under strike-time
//! writes beside steady reads.
//!
//! A daemon process (two pool workers) serves eight sparse d = 5 sessions
//! over two unix-socket connections: six steady sessions share the first,
//! the two struck sessions the second. An open-loop generator pushes one
//! round per `Push` frame at a fixed rate per session and sleeps until
//! each round is due; two `Inject` frames report strikes mid-stream, which
//! makes a pool worker recompile and replay that session's history. A
//! closed-loop drain phase then measures saturated throughput. Every
//! served frame is compared with an in-process `DecodeSession` fed the
//! same words and the same injects, computed before the load starts.

use std::io::{BufReader, BufWriter, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::{CosmicRayModel, DefectEpisode, DefectEvent, DefectMap, DefectSchedule};
use surf_lattice::{Coord, Patch};
use surf_service::{
    decode_frame, encode_frame, Frame, SessionSpec, WireAvailability, WireDefect, MAX_FRAME_LEN,
};
use surf_sim::{DecodeSession, SessionConfig};

use crate::trace::{self, median, percentile, Report, Spans};
use crate::Outcome;

const D: u16 = 5;
const HORIZON: u32 = 100_000;
const LANES: u8 = 16;
const SESSIONS: usize = 8;
/// Sessions on the second connection; the rest share the first.
const STRUCK: [usize; 2] = [6, 7];
/// Rounds per second per session in the open-loop phase.
const RATE_HZ: f64 = 1000.0;
/// Strikes: `(session, strike round, struck centre)`. The client learns of
/// a strike `REACTION` rounds after it lands and sends the `Inject` right
/// after pushing that round.
const STRIKES: [(usize, u32, (i32, i32)); 2] = [(6, 400, (5, 5)), (7, 1200, (3, 7))];
const REACTION: u32 = 2;
const STRIKE_RADIUS: i32 = 0;
const STRIKE_RATE: f64 = 0.1;
/// Pushes in flight per session in the closed-loop drain phase.
const DRAIN_WINDOW: u32 = 12;
const DRAIN_ROUNDS: u32 = 14_000;
/// Acknowledgements per slice of the drain-throughput estimate.
const DRAIN_SLICE: usize = 2_000;
/// Set-ups per group; the run makes three groups.
const SETUP_GROUP: usize = 8;
const WORKERS: usize = 2;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn spec() -> SessionSpec {
    let mut spec = SessionSpec::standard(D, HORIZON);
    spec.window = 10;
    spec.commit = 5;
    spec.sparse = 1;
    spec
}

fn conn_of(session: usize) -> usize {
    usize::from(STRUCK.contains(&session))
}

fn strike_region(centre: (i32, i32)) -> Vec<Coord> {
    let patch = Patch::rotated(usize::from(D));
    let mut universe = patch.data_qubits();
    universe.extend(patch.syndrome_qubits());
    let model = CosmicRayModel {
        event_rate_per_qubit_round: 0.0,
        duration_rounds: u64::MAX,
        region_radius: STRIKE_RADIUS,
        defect_error_rate: STRIKE_RATE,
    };
    model.affected_region(Coord::new(centre.0, centre.1), &universe)
}

/// What the daemon must answer to one pushed round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Expected {
    committed_through: u32,
    windows_committed: u32,
    observable_flips: u64,
}

/// One session's precomputed traffic and expected answers.
struct Traffic {
    words: Vec<Vec<u64>>,
    expected: Vec<Expected>,
    /// Availability frames the daemon must send, in order.
    availability: Vec<(u32, WireAvailability)>,
    /// In-process `push_round` time of each round, µs.
    push_us: Vec<f64>,
    inject: Option<(u32, Vec<WireDefect>)>,
    /// Wall time of the reference pass.
    wall_s: f64,
}

/// Samples `rounds` rounds of dense `LANES`-lane words from `truth` (the
/// environment the hardware really sees), laid out like `layout`.
fn sample_words(
    truth: &SessionConfig,
    layout: &DecodeSession,
    rounds: u32,
    seed: u64,
    spans: &mut Spans,
) -> Vec<Vec<u64>> {
    let source = truth.open(1);
    let mut stream = source.sparse_round_stream();
    let mut rng = StdRng::seed_from_u64(seed);
    spans.time("stream.begin", seed, || {
        stream.begin(&mut rng, usize::from(LANES))
    });
    let mut words: Vec<Vec<u64>> = (0..rounds)
        .map(|r| vec![0u64; layout.detector_count_of(r)])
        .collect();
    loop {
        let s = spans.open("stream.next", seed, None);
        let event = stream.next_event();
        spans.close(s);
        let Some(event) = event else { break };
        if event.round >= rounds {
            break;
        }
        let dets = layout.detectors_of(event.round);
        for (&det, &word) in event.detectors.iter().zip(event.words) {
            let i = dets
                .binary_search(&det)
                .expect("sampled detector belongs to its round's layout");
            words[event.round as usize][i] = word;
        }
    }
    words
}

/// Feeds `words` to a fresh fork of `proto`, injecting `inject` after
/// pushing round `strike + REACTION`, and records every answer.
fn reference(
    proto: &DecodeSession,
    words: Vec<Vec<u64>>,
    inject: Option<(u32, DefectMap, Vec<WireDefect>)>,
    spans: &mut Spans,
    unit: u64,
) -> Traffic {
    let s = spans.open("session.fork", unit, None);
    let mut session = proto.fork(usize::from(LANES));
    spans.close(s);
    let mut expected = Vec::with_capacity(words.len());
    let mut availability = Vec::new();
    let mut push_us = Vec::with_capacity(words.len());
    let mut reported = None;
    let started = Instant::now();
    for w in &words {
        let s = spans.open("session.push", unit, None);
        let t0 = Instant::now();
        let out = session.push_round(w).expect("reference push");
        push_us.push(t0.elapsed().as_secs_f64() * 1e6);
        spans.close(s);
        let avail = WireAvailability::from(out.availability);
        if reported != Some(avail) {
            reported = Some(avail);
            availability.push((out.round, avail));
        }
        expected.push(Expected {
            committed_through: out.committed_through,
            windows_committed: out.windows_committed,
            observable_flips: out.observable_flips,
        });
        if let Some((strike, map, _)) = &inject {
            if out.round == strike + REACTION {
                spans.time("session.inject", unit, || {
                    session
                        .inject_event(&DefectEvent::new(*strike, map.clone()))
                        .expect("reference inject")
                });
            }
        }
    }
    Traffic {
        words,
        expected,
        availability,
        push_us,
        inject: inject.map(|(strike, _, wire)| (strike, wire)),
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Precomputes every session's words (an independent sample each, so
/// sessions do not hit expensive windows in lockstep) and answers.
///
/// When `spans` records, session 0's reference also runs untraced, and the
/// second return value is the tracing overhead on it.
fn precompute(seed: u64, rounds: u32, spans: &mut Spans) -> (Vec<Traffic>, f64) {
    let config = spec().to_config().expect("valid spec");
    let proto = spans.time("session.open", 0, || config.open(1));
    let mut overhead = 0.0;
    let mut out = Vec::with_capacity(SESSIONS);
    for s in 0..SESSIONS {
        let sample_seed = seed ^ ((s as u64 + 1) << 32);
        let traffic = if let Some(&(_, strike, centre)) = STRIKES.iter().find(|x| x.0 == s) {
            let region = strike_region(centre);
            let map = DefectMap::from_qubits(region.iter().copied(), STRIKE_RATE);
            let wire: Vec<WireDefect> = region
                .iter()
                .map(|q| WireDefect {
                    x: q.x,
                    y: q.y,
                    rate: STRIKE_RATE,
                })
                .collect();
            let mut truth = config.clone();
            truth.schedule =
                DefectSchedule::from_episodes([DefectEpisode::permanent(strike, map.clone())]);
            let words = sample_words(&truth, &proto, rounds, sample_seed, spans);
            reference(&proto, words, Some((strike, map, wire)), spans, s as u64)
        } else {
            let words = sample_words(&config, &proto, rounds, sample_seed, spans);
            if s == 0 && spans.enabled() {
                // Warm up, then measure the overhead; its last traced
                // pass is the one kept.
                reference(&proto, words.clone(), None, &mut Spans::default(), 0);
                let mut last = None;
                overhead = trace::overhead(|traced| {
                    let mut pass = spans.empty_like(traced);
                    let traffic = reference(&proto, words.clone(), None, &mut pass, 0);
                    let wall = traffic.wall_s;
                    if traced {
                        last = Some((traffic, pass));
                    }
                    wall
                });
                let (traffic, pass) = last.expect("a traced pass");
                spans.append(pass);
                traffic
            } else {
                reference(&proto, words, None, spans, s as u64)
            }
        };
        out.push(traffic);
    }
    (out, overhead)
}

/// The daemon child process. Dropping it kills the process if it is still
/// running and removes its socket.
struct DaemonProc {
    child: Child,
    socket: PathBuf,
}

impl DaemonProc {
    fn spawn(socket: &PathBuf) -> std::io::Result<DaemonProc> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(std::env::current_exe()?)
            .arg("daemon")
            .arg(socket)
            .arg("--workers")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(DaemonProc {
            child,
            socket: socket.clone(),
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Connects to the daemon. Reads and writes time out, so a daemon
    /// that stops answering fails the run instead of hanging it.
    fn connect(&mut self) -> std::io::Result<UnixStream> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => {
                    s.set_read_timeout(Some(IO_TIMEOUT))?;
                    s.set_write_timeout(Some(IO_TIMEOUT))?;
                    return Ok(s);
                }
                Err(e) => {
                    if Instant::now() > deadline || self.child.try_wait()?.is_some() {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Sends `Shutdown` on `conn` and waits for the process to exit.
    fn shutdown(mut self, conn: &mut UnixStream) -> bool {
        let _ = conn.write_all(&encode_frame(&Frame::Shutdown));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn read_one(r: &mut impl Read, decode_ns: Option<&mut u64>) -> std::io::Result<(Frame, usize)> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes"),
        ));
    }
    let len = len as usize;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let t0 = Instant::now();
    let frame = decode_frame(&payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    if let Some(ns) = decode_ns {
        *ns += t0.elapsed().as_nanos() as u64;
    }
    Ok((frame, 4 + len))
}

/// Set-up: start the daemon, connect both connections and open every
/// session. Returns the daemon, the connections, and `Opened` bytes.
/// `layout` is the in-process session's detector count per round.
fn set_up(
    socket: &PathBuf,
    layout: &[u32],
    outcome: &mut Outcome,
) -> std::io::Result<(DaemonProc, [UnixStream; 2], usize)> {
    let mut daemon = DaemonProc::spawn(socket)?;
    let mut conns = [daemon.connect()?, daemon.connect()?];
    for s in 0..SESSIONS {
        let frame = Frame::Open {
            session: s as u32,
            lanes: LANES,
            spec: spec(),
        };
        conns[conn_of(s)].write_all(&encode_frame(&frame))?;
    }
    // Read both connections at once: a pool worker blocked writing a
    // large `Opened` to one connection would otherwise stall the other.
    let replies: Vec<std::io::Result<Vec<(Frame, usize)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let want = (0..SESSIONS).filter(|&s| conn_of(s) == c).count();
                    (0..want).map(|_| read_one(conn, None)).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect()
    });
    let mut opened_bytes = 0;
    for reply in replies {
        for (frame, bytes) in reply? {
            opened_bytes = bytes;
            match frame {
                Frame::Opened {
                    session,
                    total_rounds,
                    round_counts,
                } => {
                    let layout_ok = (session as usize) < SESSIONS
                        && total_rounds == HORIZON + 1
                        && round_counts == layout;
                    outcome.check(
                        "Opened layout matches the in-process session",
                        layout_ok,
                        format!("session {session}"),
                    );
                }
                other => outcome.check("Open answered by Opened", false, format!("{other:?}")),
            }
        }
    }
    Ok((daemon, conns, opened_bytes))
}

/// Receiver-side record of one connection.
#[derive(Default)]
struct Received {
    /// `arrival[s][round]`: ns since the origin (0 = never arrived).
    arrival: Vec<Vec<u64>>,
    mismatches: u64,
    errors: u64,
    frames: u64,
    bytes_in: u64,
    decode_ns: u64,
    queue_depth_max: u32,
    commit_lag_max: u32,
    closed: Vec<(u32, bool, u64)>,
}

struct Shared {
    origin: Instant,
    traffic: Vec<Traffic>,
    /// Rounds acknowledged per session (drain flow control).
    acked: Vec<AtomicU32>,
}

fn receiver(
    shared: Arc<Shared>,
    stream: UnixStream,
    conn: usize,
    traced: bool,
    ack: mpsc::Sender<()>,
) -> Received {
    let mut r = BufReader::new(stream);
    let mut out = Received {
        arrival: shared
            .traffic
            .iter()
            .map(|t| vec![0u64; t.words.len()])
            .collect(),
        ..Received::default()
    };
    let mut avail_next = [0usize; SESSIONS];
    let mine = (0..SESSIONS).filter(|&s| conn_of(s) == conn).count();
    while out.closed.len() < mine {
        let mut decode_ns = 0;
        let (frame, bytes) = match read_one(&mut r, Some(&mut decode_ns)) {
            Ok(f) => f,
            Err(_) => {
                out.errors += 1;
                break;
            }
        };
        let now = shared.origin.elapsed().as_nanos() as u64;
        if traced {
            out.frames += 1;
            out.bytes_in += bytes as u64;
            out.decode_ns += decode_ns;
        }
        match frame {
            Frame::Corrections {
                session,
                round,
                committed_through,
                windows_committed,
                observable_flips,
            } => {
                let s = session as usize;
                let got = Expected {
                    committed_through,
                    windows_committed,
                    observable_flips,
                };
                let Some(slot) = out
                    .arrival
                    .get_mut(s)
                    .and_then(|a| a.get_mut(round as usize))
                else {
                    out.mismatches += 1;
                    continue;
                };
                if *slot != 0 || shared.traffic[s].expected[round as usize] != got {
                    out.mismatches += 1;
                }
                *slot = now.max(1);
                shared.acked[s].store(round + 1, Ordering::Release);
                let _ = ack.send(());
            }
            Frame::Availability {
                session,
                round,
                state,
            } => {
                let s = session as usize;
                let want = shared
                    .traffic
                    .get(s)
                    .and_then(|t| t.availability.get(avail_next[s]));
                if want == Some(&(round, state)) {
                    avail_next[s] += 1;
                } else {
                    out.mismatches += 1;
                }
            }
            Frame::SessionStats {
                queue_depth,
                commit_lag,
                ..
            } => {
                out.queue_depth_max = out.queue_depth_max.max(queue_depth);
                out.commit_lag_max = out.commit_lag_max.max(commit_lag);
            }
            Frame::Closed {
                session,
                complete,
                observable_flips,
            } => out.closed.push((session, complete, observable_flips)),
            _ => out.errors += 1,
        }
    }
    for s in (0..SESSIONS).filter(|&s| conn_of(s) == conn) {
        if avail_next[s] != shared.traffic[s].availability.len() {
            out.mismatches += 1;
        }
    }
    out
}

/// Sender-side record of one connection's open-loop phase.
#[derive(Default)]
struct Sent {
    /// `send[s][round]`: ns since the origin when the round's frame was written.
    send: Vec<Vec<u64>>,
    /// Per pushed round: how late the generator woke for it, µs.
    lag_us: Vec<f64>,
    inject_at: Vec<(usize, u64)>,
    bytes_out: u64,
    frames: u64,
    encode_ns: u64,
}

/// When round `k` of session `s` is due, after the open loop starts: every
/// session runs at `RATE_HZ`, and the sessions' phases are spread evenly
/// over the period, as independent clients' would be.
fn due_after_start(s: usize, k: usize) -> Duration {
    Duration::from_secs_f64((k as f64 + s as f64 / SESSIONS as f64) / RATE_HZ)
}

/// The open-loop generator of one connection: one round per session per
/// period, sleeping (never spinning) until each is due.
fn generator(
    shared: &Shared,
    stream: &UnixStream,
    conn: usize,
    start: Instant,
    rounds: u32,
    traced: bool,
) -> std::io::Result<Sent> {
    let mut w = BufWriter::new(stream);
    let sessions: Vec<usize> = (0..SESSIONS).filter(|&s| conn_of(s) == conn).collect();
    let mut out = Sent {
        send: vec![Vec::new(); SESSIONS],
        ..Sent::default()
    };
    for s in &sessions {
        out.send[*s] = vec![0; rounds as usize];
    }
    let origin = shared.origin;
    let mut frame_bytes = Vec::new();
    for k in 0..rounds {
        for &s in &sessions {
            let due = start + due_after_start(s, k as usize);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            out.lag_us
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            let frame = Frame::Push {
                session: s as u32,
                rounds: vec![shared.traffic[s].words[k as usize].clone()],
            };
            let t0 = Instant::now();
            frame_bytes.clear();
            frame_bytes.extend_from_slice(&encode_frame(&frame));
            if traced {
                out.encode_ns += t0.elapsed().as_nanos() as u64;
                out.frames += 1;
                out.bytes_out += frame_bytes.len() as u64;
            }
            out.send[s][k as usize] = origin.elapsed().as_nanos() as u64;
            w.write_all(&frame_bytes)?;
            w.flush()?;
            if let Some((strike, defects)) = &shared.traffic[s].inject {
                if k == strike + REACTION {
                    let frame = Frame::Inject {
                        session: s as u32,
                        round: *strike,
                        defects: defects.clone(),
                    };
                    out.inject_at.push((s, origin.elapsed().as_nanos() as u64));
                    w.write_all(&encode_frame(&frame))?;
                    w.flush()?;
                }
            }
            if traced && k % 100 == 99 {
                w.write_all(&encode_frame(&Frame::Stats { session: s as u32 }))?;
                w.flush()?;
            }
        }
    }
    Ok(out)
}

/// Closed-loop drain of one connection: keep `DRAIN_WINDOW` pushes in
/// flight per session until rounds `from..to` are all acknowledged.
fn drain(
    shared: &Shared,
    stream: &UnixStream,
    conn: usize,
    from: u32,
    to: u32,
    acks: &mpsc::Receiver<()>,
) -> std::io::Result<()> {
    let mut w = BufWriter::new(stream);
    let sessions: Vec<usize> = (0..SESSIONS).filter(|&s| conn_of(s) == conn).collect();
    let mut next = [from; SESSIONS];
    loop {
        let mut done = true;
        for &s in &sessions {
            let acked = shared.acked[s].load(Ordering::Acquire);
            while next[s] < to && next[s] < acked + DRAIN_WINDOW {
                let frame = Frame::Push {
                    session: s as u32,
                    rounds: vec![shared.traffic[s].words[next[s] as usize].clone()],
                };
                w.write_all(&encode_frame(&frame))?;
                next[s] += 1;
            }
            done &= acked >= to;
        }
        w.flush()?;
        if done {
            return Ok(());
        }
        match acks.recv_timeout(Duration::from_secs(20)) {
            Ok(()) => while acks.try_recv().is_ok() {},
            Err(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "drain stalled: no acknowledgement for 20 s",
                ))
            }
        }
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Outcome {
    let mut outcome = Outcome::default();
    let open_rounds = ((seconds * 0.5 * RATE_HZ) as u32).max(2 * STRIKES[1].1);
    let total_rounds = open_rounds + DRAIN_ROUNDS;
    println!(
        "workload serve_strikes: {SESSIONS} sparse d={D} sessions, horizon {HORIZON}, window 10/5, daemon with {WORKERS} workers, \
         open loop {open_rounds} rounds at {RATE_HZ} rounds/s per session, drain {DRAIN_ROUNDS} rounds per session, seed {seed}"
    );
    for (s, strike, centre) in STRIKES {
        println!(
            "  strike: session {s}, round {strike}, centre {centre:?}, injected after round {}",
            strike + REACTION
        );
    }

    let socket = PathBuf::from(format!(
        ".bench_build/perfbench/daemon-{}.sock",
        std::process::id()
    ));
    if let Some(dir) = socket.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    // Set-up, in three groups spread over the run (before and after the
    // precompute, and after the drain) so that one slow spell of the host
    // cannot cover them all. The last daemon of the second group serves
    // the run; every other one is shut down at once.
    let layout: Vec<u32> = {
        let proto = spec().to_config().expect("valid spec").open(1);
        (0..proto.total_rounds())
            .map(|r| proto.detector_count_of(r) as u32)
            .collect()
    };
    let mut setup_times = Vec::new();
    let mut opened_bytes = 0;
    let mut set_up_group = |outcome: &mut Outcome, keep_last: bool| {
        let mut live = None;
        for rep in 0..SETUP_GROUP {
            let t0 = Instant::now();
            let (daemon, mut conns, bytes) = match set_up(&socket, &layout, outcome) {
                Ok(x) => x,
                Err(e) => {
                    outcome.check("daemon set-up", false, e.to_string());
                    return None;
                }
            };
            setup_times.push(t0.elapsed().as_secs_f64());
            opened_bytes = bytes;
            if keep_last && rep + 1 == SETUP_GROUP {
                live = Some((daemon, conns));
            } else {
                let ok = daemon.shutdown(&mut conns[0]);
                outcome.check("daemon shuts down cleanly", ok, String::new());
            }
        }
        Some(live)
    };
    if set_up_group(&mut outcome, false).is_none() {
        return outcome;
    }

    let origin = Instant::now();
    let mut pre_spans = Spans::new(traced, origin, 0);
    let pre = Instant::now();
    let (traffic, trace_overhead) = precompute(seed, total_rounds, &mut pre_spans);
    let mean_push =
        |s: usize| traffic[s].push_us.iter().sum::<f64>() / traffic[s].push_us.len() as f64;
    println!(
        "  precomputed words and expected answers in {:.2} s (in-process push_round: steady {:.1}, struck {:.1} and {:.1} us/round)",
        pre.elapsed().as_secs_f64(),
        mean_push(0),
        mean_push(STRUCK[0]),
        mean_push(STRUCK[1]),
    );

    let Some(Some((daemon, mut conns))) = set_up_group(&mut outcome, true) else {
        return outcome;
    };
    let pid = daemon.pid();

    let shared = Arc::new(Shared {
        origin,
        traffic,
        acked: (0..SESSIONS).map(|_| AtomicU32::new(0)).collect(),
    });
    let mut ack_rx = Vec::new();
    let mut receivers = Vec::new();
    for (c, conn) in conns.iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        ack_rx.push(rx);
        let stream = conn.try_clone().expect("clone socket");
        let shared = Arc::clone(&shared);
        receivers.push(std::thread::spawn(move || {
            receiver(shared, stream, c, traced, tx)
        }));
    }

    // Open loop.
    let cpu0 = trace::cpu_seconds(&pid);
    let start = Instant::now() + Duration::from_millis(20);
    let start_ns = start.duration_since(origin).as_nanos() as u64;
    let sent: Vec<std::io::Result<Sent>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let shared = &*shared;
                scope.spawn(move || generator(shared, conn, c, start, open_rounds, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator panicked"))
            .collect()
    });
    let sent: Vec<Sent> = match sent.into_iter().collect() {
        Ok(s) => s,
        Err(e) => {
            outcome.check("open-loop generator", false, e.to_string());
            return outcome;
        }
    };
    // Wait for the open-loop answers before draining.
    let deadline = Instant::now() + Duration::from_secs(60);
    while (0..SESSIONS).any(|s| shared.acked[s].load(Ordering::Acquire) < open_rounds)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let open_wall = start.elapsed().as_secs_f64();
    let daemon_cpu = (trace::cpu_seconds(&pid) - cpu0) / (open_wall * WORKERS as f64);

    // Closed-loop drain.
    let t0 = Instant::now();
    let res: Vec<std::io::Result<()>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .zip(ack_rx.iter_mut())
            .enumerate()
            .map(|(c, (conn, rx))| {
                let shared = &*shared;
                scope.spawn(move || {
                    while rx.try_recv().is_ok() {}
                    drain(shared, conn, c, open_rounds, total_rounds, rx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("drain panicked"))
            .collect()
    });
    let drain_wall = t0.elapsed().as_secs_f64();
    if let Some(Err(e)) = res.into_iter().find(|r| r.is_err()) {
        outcome.check("closed-loop drain", false, e.to_string());
        return outcome;
    }
    let saturated = f64::from(DRAIN_ROUNDS * SESSIONS as u32) / drain_wall;
    report.put("saturated_rounds_per_s", saturated, "1/s");
    report.put("peak_rss_mb", trace::peak_rss_mb(&pid), "MB");

    // Close every session, then stop the daemon.
    for s in 0..SESSIONS {
        let _ = conns[conn_of(s)].write_all(&encode_frame(&Frame::Close { session: s as u32 }));
    }
    let received: Vec<Received> = receivers
        .into_iter()
        .map(|h| h.join().expect("receiver panicked"))
        .collect();
    let clean = daemon.shutdown(&mut conns[0]);
    outcome.check("daemon shuts down cleanly", clean, String::new());
    if set_up_group(&mut outcome, false).is_none() {
        return outcome;
    }
    // The lower quartile: other tenants only ever slow a set-up down.
    report.put("setup_s", percentile(&mut setup_times, 0.25), "s");
    println!("  set-up times (s): {setup_times:.4?}");

    // Correctness: every round answered exactly once and as expected.
    let mut arrival = vec![Vec::new(); SESSIONS];
    let (mut mismatches, mut errors) = (0, 0);
    for (c, r) in received.iter().enumerate() {
        mismatches += r.mismatches;
        errors += r.errors;
        for s in (0..SESSIONS).filter(|&s| conn_of(s) == c) {
            arrival[s] = r.arrival[s].clone();
        }
        for &(session, complete, flips) in &r.closed {
            let last = shared
                .traffic
                .get(session as usize)
                .map(|t| t.expected[total_rounds as usize - 1].observable_flips);
            if complete || last != Some(flips) {
                mismatches += 1;
            }
        }
    }
    // Drain throughput: the upper quartile over slices of `DRAIN_SLICE`
    // consecutive acknowledgements (other tenants only slow a slice down),
    // counted while every session is still draining, so each slice sees
    // the same session mix.
    let all_draining = arrival
        .iter()
        .map(|a| a[open_rounds as usize..].iter().copied().max().unwrap_or(0))
        .min()
        .unwrap_or(0);
    let mut acks: Vec<u64> = arrival
        .iter()
        .flat_map(|a| a[open_rounds as usize..].iter().copied())
        .filter(|&t| t > 0 && t <= all_draining)
        .collect();
    acks.sort_unstable();
    let mut slices: Vec<f64> = acks
        .chunks_exact(DRAIN_SLICE)
        .map(|c| (DRAIN_SLICE - 1) as f64 / ((c[DRAIN_SLICE - 1] - c[0]).max(1) as f64 * 1e-9))
        .collect();
    report.put(
        "shot_rounds_per_s",
        percentile(&mut slices, 0.75) * f64::from(LANES),
        "1/s",
    );
    let missing: usize = arrival
        .iter()
        .map(|a| a.iter().filter(|&&t| t == 0).count())
        .sum();
    outcome.attempted += (SESSIONS as u64) * u64::from(total_rounds) + STRIKES.len() as u64;
    outcome.failed += mismatches + errors + missing as u64;
    if mismatches + errors + missing as u64 > 0 {
        println!("  FAILED: {mismatches} mismatched frames, {errors} errors, {missing} rounds unanswered");
    }

    // Commit latency: for each open-loop round whose push commits a
    // window, from when the round was due to its Corrections. p50 is the
    // steady median over half-second windows (each holds 800 samples);
    // p99 is the median over one-second windows of each window's p99
    // (1600 samples, 16 beyond it).
    let due = |s: usize, k: usize| start_ns + due_after_start(s, k).as_nanos() as u64;
    let commit_latency = |window_rounds: usize| {
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); open_rounds as usize / window_rounds];
        for (s, a) in arrival.iter().enumerate() {
            let expected = &shared.traffic[s].expected;
            for k in 0..windows.len() * window_rounds {
                let before = if k == 0 {
                    0
                } else {
                    expected[k - 1].windows_committed
                };
                if expected[k].windows_committed > before {
                    windows[k / window_rounds].push(a[k].saturating_sub(due(s, k)) as f64 / 1e3);
                }
            }
        }
        windows
    };
    let mut p50: Vec<f64> = commit_latency(RATE_HZ as usize / 2)
        .iter_mut()
        .map(|w| percentile(w, 0.50))
        .collect();
    let mut second = commit_latency(RATE_HZ as usize);
    let samples: usize = second.iter().map(Vec::len).sum();
    let p99: Vec<f64> = second.iter_mut().map(|w| percentile(w, 0.99)).collect();
    report.put("commit_latency_p50_us", percentile(&mut p50, 0.25), "us");
    report.put("commit_latency_p99_us", median(&p99), "us");
    println!(
        "  open loop: {samples} committing rounds in {} one-second windows, p99 per window {p99:.0?} us",
        p99.len()
    );
    println!("  drain: saturated_rounds_per_s {saturated:.1} rounds/s acknowledged");
    if !traced {
        return outcome;
    }

    // Per-layer metrics.
    let sends: Vec<&Vec<u64>> = (0..SESSIONS).map(|s| &sent[conn_of(s)].send[s]).collect();
    let mut overhead = Vec::new();
    for s in 0..SESSIONS {
        for k in 0..open_rounds as usize {
            let (t_send, t_arr) = (sends[s][k], arrival[s][k]);
            if t_send > 0 && t_arr > t_send {
                overhead.push((t_arr - t_send) as f64 / 1e3 - shared.traffic[s].push_us[k]);
            }
        }
    }
    let overhead_p50 = percentile(&mut overhead, 0.50);
    report.put("daemon.overhead_p50_us", overhead_p50, "us");
    report.put(
        "daemon.overhead_p99_us",
        percentile(&mut overhead, 0.99),
        "us",
    );
    let mut stalls = Vec::new();
    let mut hol = Vec::new();
    for (s, at) in sent.iter().flat_map(|x| x.inject_at.iter().copied()) {
        // The first round pushed after the Inject.
        let strike = shared.traffic[s]
            .inject
            .as_ref()
            .map(|(r, _)| *r)
            .expect("struck session");
        let next = arrival[s][(strike + REACTION + 1) as usize].max(at);
        stalls.push((next - at) as f64 / 1e6);
        for (other, a) in arrival.iter().enumerate().filter(|(o, _)| *o != s) {
            for (k, &t) in a.iter().take(open_rounds as usize).enumerate() {
                if t > at && t <= next {
                    hol.push(t.saturating_sub(due(other, k)) as f64 / 1e3);
                }
            }
        }
    }
    report.put(
        "daemon.inject_stall_ms",
        stalls.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    report.put("daemon.hol_p99_us", percentile(&mut hol, 0.99), "us");
    report.put(
        "daemon.queue_depth_max",
        received
            .iter()
            .map(|r| r.queue_depth_max)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    report.put(
        "daemon.commit_lag_max",
        received.iter().map(|r| r.commit_lag_max).max().unwrap_or(0) as f64,
        "count",
    );
    let mut lag: Vec<f64> = sent.iter().flat_map(|x| x.lag_us.iter().copied()).collect();
    report.put("gen.lag_p99_us", percentile(&mut lag, 0.99), "us");
    let frames_out: u64 = sent.iter().map(|x| x.frames).sum();
    let frames_in: u64 = received.iter().map(|r| r.frames).sum();
    report.put(
        "wire.encode_us",
        sent.iter().map(|x| x.encode_ns).sum::<u64>() as f64 / 1e3 / frames_out.max(1) as f64,
        "us",
    );
    report.put(
        "wire.decode_us",
        received.iter().map(|r| r.decode_ns).sum::<u64>() as f64 / 1e3 / frames_in.max(1) as f64,
        "us",
    );
    report.put(
        "wire.bytes_out",
        sent.iter().map(|x| x.bytes_out).sum::<u64>() as f64,
        "bytes",
    );
    report.put(
        "wire.bytes_in",
        received.iter().map(|r| r.bytes_in).sum::<u64>() as f64,
        "bytes",
    );
    report.put("wire.opened_bytes", opened_bytes as f64, "bytes");
    report.put("proc.cpu_util", daemon_cpu, "ratio");
    report.put("trace.overhead", trace_overhead, "ratio");

    let totals = trace::summarise(std::slice::from_ref(&pre_spans));
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 * 1e-9);
    let calls = |name: &str| totals.get(name).map_or(0.0, |t| t.count as f64);
    report.put("session.open_s", secs("session.open"), "s");
    report.put(
        "session.fork_us",
        secs("session.fork") * 1e6 / calls("session.fork").max(1.0),
        "us",
    );
    report.put("stream.begin_s", secs("stream.begin"), "s");
    report.put("stream.next_s", secs("stream.next"), "s");
    report.put("stream.events", calls("stream.next"), "count");
    report.put("session.push_s", secs("session.push"), "s");
    report.put("session.push_calls", calls("session.push"), "count");
    let reference_pushes: Vec<(f64, bool)> = (0..SESSIONS)
        .flat_map(|s| {
            let t = &shared.traffic[s];
            t.push_us
                .iter()
                .zip(&t.expected)
                .scan(0u32, |w, (&us, e)| {
                    let commit = e.windows_committed > *w;
                    *w = e.windows_committed;
                    Some((us, commit))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let mut commit: Vec<f64> = reference_pushes
        .iter()
        .filter(|p| p.1)
        .map(|p| p.0)
        .collect();
    let mut plain: Vec<f64> = reference_pushes
        .iter()
        .filter(|p| !p.1)
        .map(|p| p.0)
        .collect();
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
        shared
            .traffic
            .iter()
            .map(|t| t.expected.last().map_or(0, |e| e.windows_committed) as f64)
            .sum(),
        "count",
    );

    // Where a served round's time goes, per open-loop round and session.
    let rounds = (SESSIONS as f64) * f64::from(open_rounds);
    let enc = sent.iter().map(|x| x.encode_ns).sum::<u64>() as f64 / frames_out.max(1) as f64;
    let dec = received.iter().map(|r| r.decode_ns).sum::<u64>() as f64 / frames_in.max(1) as f64;
    let push = reference_pushes.iter().map(|p| p.0).sum::<f64>() * 1e3
        / reference_pushes.len().max(1) as f64;
    println!("  where a served round's time goes (serve_strikes, {rounds:.0} rounds):");
    println!("    {:<24} {:>12}", "stage", "ns/round");
    println!("    {:<24} {:>12.1}", "client wire encode", enc);
    println!("    {:<24} {:>12.1}", "daemon push_round", push);
    println!(
        "    {:<24} {:>12.1}",
        "daemon other (median)",
        overhead_p50 * 1e3
    );
    println!("    {:<24} {:>12.1}", "client wire decode", dec);
    let path = PathBuf::from(format!(
        ".bench_build/perfbench/spans-serve_strikes-{seed}.csv"
    ));
    match trace::write_spans(&path, std::slice::from_ref(&pre_spans)) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    outcome
}
