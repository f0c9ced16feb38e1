//! In-process client ↔ daemon loopback: daemon-served corrections must
//! be bit-identical to driving a [`DecodeSession`] directly on the same
//! syndrome words — per committed chunk, not just at close — for
//! concurrent sessions with interleaved, unevenly chunked pushes.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_service::{
    Daemon, DaemonConfig, Frame, ServiceClient, SessionSpec, WireDefect, WireEpisode, PERMANENT,
};
use surf_sim::service::SessionOutput;

/// A per-test socket path that cannot collide across parallel tests.
fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("surf-service-{}-{name}.sock", std::process::id()))
}

fn start_daemon(name: &str, workers: usize) -> (PathBuf, std::thread::JoinHandle<()>) {
    let path = socket_path(name);
    let daemon = Daemon::bind(
        &path,
        DaemonConfig {
            workers,
            queue_capacity: 4,
        },
    )
    .expect("bind daemon socket");
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    // The listener exists before `bind` returns, so clients can connect
    // immediately; no sleep needed.
    (path, handle)
}

/// One directly-driven reference session: the sampled syndrome words,
/// the per-round outputs, and the final lane-packed flips.
struct Reference {
    slices: Vec<Vec<u64>>,
    outputs: Vec<SessionOutput>,
    final_flips: u64,
}

fn reference_for(spec: &SessionSpec, lanes: usize, seed: u64) -> Reference {
    let config = spec.to_config().expect("valid spec");
    let mut session = config.open(lanes);
    let mut stream = session.round_stream();
    let mut rng = StdRng::seed_from_u64(seed);
    stream.begin(&mut rng, lanes);
    let mut slices = Vec::new();
    while let Some(slice) = stream.next_round() {
        slices.push(slice.words.to_vec());
    }
    let outputs: Vec<SessionOutput> = slices
        .iter()
        .map(|words| session.push_round(words).expect("direct push"))
        .collect();
    let mut final_flips = 0u64;
    for (lane, &mask) in session.observables().iter().enumerate() {
        final_flips |= (mask & 1) << lane;
    }
    Reference {
        slices,
        outputs,
        final_flips,
    }
}

/// Receives frames for `session` until the post-push `Corrections`
/// frame arrives, ignoring interim `Availability`/`Deformed` traffic.
fn corrections_for(client: &mut ServiceClient, session: u32) -> (u32, u32, u32, u64) {
    loop {
        match client.recv_for(session).expect("daemon reply") {
            Frame::Corrections {
                round,
                committed_through,
                windows_committed,
                observable_flips,
                ..
            } => {
                return (
                    round,
                    committed_through,
                    windows_committed,
                    observable_flips,
                )
            }
            Frame::Availability { .. } | Frame::Deformed { .. } => continue,
            other => panic!("unexpected frame while pushing: {other:?}"),
        }
    }
}

/// The tentpole claim: three concurrent sessions, pushes interleaved
/// round-robin with uneven chunk sizes, every committed chunk and the
/// final flips bit-identical to direct `DecodeSession` drives.
#[test]
fn daemon_matches_direct_sessions_with_interleaved_pushes() {
    let (path, daemon) = start_daemon("interleaved", 3);
    let mut spec = SessionSpec::standard(3, 8);
    spec.window = 6;
    spec.commit = 3;

    let mut client = ServiceClient::connect(&path).expect("connect");
    let refs: Vec<Reference> = (0..3).map(|i| reference_for(&spec, 64, 100 + i)).collect();
    for (i, r) in refs.iter().enumerate() {
        let opened = client
            .open_session(i as u32, 64, spec.clone())
            .expect("open");
        assert_eq!(opened.total_rounds as usize, r.slices.len());
        assert_eq!(opened.round_counts.len(), r.slices.len());
        for (round, words) in r.slices.iter().enumerate() {
            assert_eq!(opened.round_counts[round] as usize, words.len());
        }
    }

    // Interleave: session 0 pushes 1 round per turn, session 1 two,
    // session 2 three — all three decode concurrently in the pool.
    let mut cursors = [0usize; 3];
    while cursors.iter().zip(&refs).any(|(&c, r)| c < r.slices.len()) {
        for (i, r) in refs.iter().enumerate() {
            if cursors[i] >= r.slices.len() {
                continue;
            }
            let end = (cursors[i] + i + 1).min(r.slices.len());
            client
                .push_rounds(i as u32, r.slices[cursors[i]..end].to_vec())
                .expect("push");
            let (round, committed, windows, flips) = corrections_for(&mut client, i as u32);
            let direct = r.outputs[end - 1];
            assert_eq!(round, direct.round, "session {i}");
            assert_eq!(committed, direct.committed_through, "session {i}");
            assert_eq!(windows, direct.windows_committed, "session {i}");
            assert_eq!(flips, direct.observable_flips, "session {i}");
            cursors[i] = end;
        }
    }

    for (i, r) in refs.iter().enumerate() {
        let (complete, served) = client.close_session(i as u32).expect("close");
        assert!(complete, "session {i} incomplete");
        assert_eq!(served, r.final_flips, "session {i} served ≠ direct");
    }

    client.shutdown_daemon().expect("shutdown");
    daemon.join().expect("daemon thread");
    assert!(!path.exists(), "socket file not cleaned up");
}

/// A mid-stream `Inject` through the daemon must land exactly like
/// `DecodeSession::inject_event` on a directly-driven session.
#[test]
fn mid_stream_inject_matches_direct_session() {
    let (path, daemon) = start_daemon("inject", 2);
    let spec = SessionSpec::standard(3, 10);
    let strike_round = 6u32;
    let defects = vec![WireDefect {
        x: 1,
        y: 1,
        rate: 0.2,
    }];

    // Reference: the same spec with the episode scheduled upfront — the
    // sim layer already proves inject ≡ upfront compile, so the daemon
    // path must match it too.
    let mut scheduled = spec.clone();
    scheduled.episodes = vec![WireEpisode {
        start: strike_round,
        end: PERMANENT,
        defects: defects.clone(),
    }];
    let reference = reference_for(&scheduled, 64, 41);

    let mut client = ServiceClient::connect(&path).expect("connect");
    client.open_session(7, 64, spec).expect("open");
    client
        .push_rounds(7, reference.slices[..4].to_vec())
        .expect("push head");
    corrections_for(&mut client, 7);
    client
        .send(&Frame::Inject {
            session: 7,
            round: strike_round,
            defects,
        })
        .expect("inject");
    client
        .push_rounds(7, reference.slices[4..].to_vec())
        .expect("push tail");
    corrections_for(&mut client, 7);

    let (complete, served) = client.close_session(7).expect("close");
    assert!(complete);
    assert_eq!(served, reference.final_flips, "inject ≠ upfront schedule");

    client.shutdown_daemon().expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// The metrics frame: `stats()` snapshots reflect every push queued
/// ahead of the request, match the directly-driven session's horizons,
/// and work over a sparse session — which must also serve committed
/// chunks bit-identical to the dense direct drive.
#[test]
fn stats_snapshots_match_direct_horizons_over_a_sparse_session() {
    let (path, daemon) = start_daemon("stats", 2);
    let mut spec = SessionSpec::standard(3, 12);
    spec.window = 6;
    spec.commit = 3;

    // Dense direct reference; the daemon session decodes the same words
    // in sparse mode, which the pipeline guarantees is bit-identical.
    let reference = reference_for(&spec, 64, 77);
    spec.sparse = 1;

    let mut client = ServiceClient::connect(&path).expect("connect");

    // Stats for a session that does not exist is an error frame.
    let err = client.stats(3).unwrap_err();
    assert!(err.to_string().contains("unknown session"), "{err}");

    client.open_session(3, 64, spec).expect("open");
    let head = reference.slices.len() / 2;
    client
        .push_rounds(3, reference.slices[..head].to_vec())
        .expect("push head");
    let stats = client.stats(3).expect("stats mid-stream");
    let direct = reference.outputs[head - 1];
    assert_eq!(stats.filled_rounds, head as u32);
    assert_eq!(stats.committed_through, direct.committed_through);
    assert_eq!(
        stats.commit_lag,
        head as u32 - direct.committed_through,
        "lag must be filled - committed"
    );
    assert_eq!(stats.queue_depth, 0, "nothing queued behind the request");
    // The interim Corrections frame was re-buffered, not eaten.
    let (_, committed, _, flips) = corrections_for(&mut client, 3);
    assert_eq!(committed, direct.committed_through);
    assert_eq!(flips, direct.observable_flips, "sparse ≠ dense mid-stream");

    client
        .push_rounds(3, reference.slices[head..].to_vec())
        .expect("push tail");
    let stats = client.stats(3).expect("stats at end");
    assert_eq!(stats.filled_rounds as usize, reference.slices.len());
    assert_eq!(
        stats.commit_lag,
        stats.filled_rounds - stats.committed_through
    );

    let (complete, served) = client.close_session(3).expect("close");
    assert!(complete);
    assert_eq!(
        served, reference.final_flips,
        "sparse served ≠ dense direct"
    );

    client.shutdown_daemon().expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// Hostile input gets an `Error` frame, never a daemon crash — and the
/// connection keeps serving valid sessions afterwards.
#[test]
fn daemon_survives_hostile_requests() {
    let (path, daemon) = start_daemon("hostile", 2);
    let mut client = ServiceClient::connect(&path).expect("connect");

    // A spec the validator must reject (distance below any real code).
    let bad = SessionSpec::standard(1, 4);
    let err = client.open_session(5, 64, bad).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // Pushing to a session that was never opened is an error frame.
    client.push_rounds(9, vec![vec![0; 4]]).expect("send push");
    match client.recv().expect("reply") {
        Frame::Error { session, message } => {
            assert_eq!(session, 9);
            assert!(message.contains("unknown session"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // The rejected id is forgotten, so the client may retry it — and the
    // daemon still serves bit-identical results.
    let spec = SessionSpec::standard(3, 5);
    let reference = reference_for(&spec, 16, 9);
    client.open_session(5, 16, spec).expect("retry open");
    client
        .push_rounds(5, reference.slices.clone())
        .expect("push");
    corrections_for(&mut client, 5);
    let (complete, served) = client.close_session(5).expect("close");
    assert!(complete);
    assert_eq!(served, reference.final_flips);

    client.shutdown_daemon().expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// A distance-13 sparse session — hundreds of carry targets per commit
/// cut at window `2·d` — on a one-worker daemon: the open succeeds, the
/// served corrections equal the directly-driven session, and the only
/// worker lives on to serve the next session.
#[test]
fn one_worker_daemon_serves_distance_13_and_the_next_session() {
    let (path, daemon) = start_daemon("distance13", 1);
    let mut spec = SessionSpec::standard(13, 27);
    spec.window = 26;
    spec.commit = 13;
    spec.sparse = 1;
    let reference = reference_for(&spec, 8, 1313);

    let mut client = ServiceClient::connect(&path).expect("connect");
    let opened = client.open_session(1, 8, spec).expect("d = 13 open");
    assert_eq!(opened.total_rounds as usize, reference.slices.len());
    client
        .push_rounds(1, reference.slices.clone())
        .expect("push");
    let (round, committed, windows, flips) = corrections_for(&mut client, 1);
    let direct = reference.outputs[reference.outputs.len() - 1];
    assert_eq!(round, direct.round);
    assert_eq!(committed, direct.committed_through);
    assert_eq!(windows, direct.windows_committed);
    assert_eq!(flips, direct.observable_flips);
    let (complete, served) = client.close_session(1).expect("close d = 13");
    assert!(complete);
    assert_eq!(served, reference.final_flips, "d = 13 served ≠ direct");

    let spec = SessionSpec::standard(3, 5);
    let reference = reference_for(&spec, 16, 9);
    client.open_session(2, 16, spec).expect("open after d = 13");
    client
        .push_rounds(2, reference.slices.clone())
        .expect("push");
    corrections_for(&mut client, 2);
    let (complete, served) = client.close_session(2).expect("close");
    assert!(complete);
    assert_eq!(served, reference.final_flips);

    client.shutdown_daemon().expect("shutdown");
    daemon.join().expect("daemon thread");
}
