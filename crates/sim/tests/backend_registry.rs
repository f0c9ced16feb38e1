//! The process-wide backend registry behind every windowed decoder.
//!
//! Window backends are keyed by (factory identity, window graph), so
//! sessions, Monte-Carlo calls and recompiles over one spec share the
//! compiled backends — and the MWPM pair tables they fill — while any of
//! them is live. These tests read process-wide counters, so they hold
//! one lock to run one at a time.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use surf_defects::{DefectEvent, DefectMap};
use surf_lattice::{Basis, Coord, Patch};
use surf_matching::{
    backend_stats, Decoder, DecoderFactory, DecodingGraph, MwpmDecoder, WindowConfig,
    WindowedDecoder,
};
use surf_sim::{
    DecoderKind, DecoderPrior, DetectorModel, MemoryExperiment, NoiseParams, QubitNoise,
    SessionConfig, StreamConfig,
};

const D: usize = 5;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A dense d = 5 fixed-patch spec: 40 rounds, window 10, commit 5.
fn dense_spec(kind: DecoderKind) -> SessionConfig {
    let mut exp = MemoryExperiment::standard(Patch::rotated(D));
    exp.rounds = 40;
    exp.decoder = kind;
    exp.session_config(Basis::Z)
        .with_window(WindowConfig::new(2 * D as u32).with_commit(D as u32))
}

#[test]
fn second_open_of_one_spec_compiles_no_backend() {
    let _serial = serial();
    let spec = dense_spec(DecoderKind::Mwpm);
    let first = spec.open(64);
    assert!(first.compiled_backends() >= 2);
    let before = backend_stats();
    let second = spec.open(64);
    let after = backend_stats();
    assert_eq!(after.compiled, before.compiled, "the second open compiled");
    assert_eq!(second.compiled_backends(), first.compiled_backends());
    assert_eq!(second.backends_shared(), second.compiled_backends());
    for index in 0..first.num_windows() {
        assert!(Arc::ptr_eq(
            &first.window_backend(index),
            &second.window_backend(index)
        ));
    }
}

#[test]
fn inject_shares_every_window_ending_before_the_episode() {
    let _serial = serial();
    let spec = dense_spec(DecoderKind::Mwpm);
    let mut session = spec.open(64);
    let windows = session.num_windows();
    let before: Vec<Arc<dyn Decoder>> = (0..windows).map(|i| session.window_backend(i)).collect();
    let at = 22;
    let event = DefectEvent::new(at, DefectMap::from_qubits([Coord::new(5, 5)], 0.3));
    session.inject_event(&event).unwrap();
    assert_eq!(session.num_windows(), windows);
    let WindowConfig { window, commit } = session.config().window;
    let mut unchanged = 0;
    for (index, old) in before.iter().enumerate() {
        let end = index as u32 * commit + window;
        let shared = Arc::ptr_eq(old, &session.window_backend(index));
        if end <= at {
            assert!(shared, "window {index} ends at {end}, before round {at}");
            unchanged += 1;
        }
        if index as u32 * commit > at {
            assert!(!shared, "window {index} starts after the strike");
        }
    }
    assert!(unchanged >= 2);
    assert!(session.backends_shared() >= 1);
    assert!(session.backends_shared() < session.compiled_backends());
}

#[test]
fn backend_kinds_and_custom_factories_never_share() {
    let _serial = serial();
    let mwpm = dense_spec(DecoderKind::Mwpm).open(1);
    let uf = dense_spec(DecoderKind::UnionFind).open(1);
    let d = 3;
    let model = DetectorModel::build(
        &Patch::rotated(d),
        Basis::Z,
        2 * d as u32,
        &QubitNoise::new(NoiseParams::paper(), DefectMap::new()),
        DecoderPrior::Informed,
    );
    let custom = |factory: DecoderFactory| {
        WindowedDecoder::new(
            model.graph.clone(),
            model.detector_rounds.clone(),
            WindowConfig::new(2 * d as u32).with_commit(d as u32),
            factory,
        )
    };
    for index in 0..mwpm.num_windows() {
        let (a, b) = (mwpm.window_backend(index), uf.window_backend(index));
        assert_eq!(a.graph().edges(), b.graph().edges(), "one window graph");
        assert!(
            !Arc::ptr_eq(&a, &b),
            "MWPM and union-find share window {index}"
        );
    }
    let kind = custom(DecoderKind::Mwpm.factory());
    let closure = custom(DecoderFactory::new(|g| Box::new(MwpmDecoder::new(g))));
    let again = custom(DecoderKind::Mwpm.factory());
    for index in 0..kind.num_windows() {
        assert!(!Arc::ptr_eq(
            &kind.window_backend(index),
            &closure.window_backend(index)
        ));
        assert!(Arc::ptr_eq(
            &kind.window_backend(index),
            &again.window_backend(index)
        ));
    }
    assert_eq!(closure.backends_shared(), 0);
    assert_eq!(again.backends_shared(), again.compiled_backends());
}

#[test]
fn live_entries_die_with_the_last_session() {
    let _serial = serial();
    let prior = backend_stats().live;
    let spec = dense_spec(DecoderKind::UnionFind);
    let session = spec.open(8);
    let fork = session.fork(8);
    let live = backend_stats().live;
    assert_eq!(live, prior + session.compiled_backends());
    drop(session);
    assert_eq!(backend_stats().live, live, "the fork still holds them");
    drop(fork);
    assert_eq!(backend_stats().live, prior);
}

#[test]
fn second_stream_call_fills_no_pair_table_row() {
    let _serial = serial();
    let mut exp = MemoryExperiment::standard(Patch::rotated(D));
    exp.rounds = 30;
    let config = StreamConfig::new(512, 0x5EED, 2 * D as u32)
        .with_window(WindowConfig::new(2 * D as u32).with_commit(D as u32))
        .with_threads(2);
    // What perfbench and the daemon do: a held session of the spec keeps
    // its backends (and their tables) live between calls.
    let mut spec = exp.session_config(Basis::Z);
    spec.window = config.session.window;
    let _held = spec.open(1);
    let start = backend_stats();
    let first = exp.run_stream_basis(Basis::Z, &config);
    let mid = backend_stats();
    assert!(
        mid.pair_rows_filled > start.pair_rows_filled,
        "no row filled"
    );
    let second = exp.run_stream_basis(Basis::Z, &config);
    let end = backend_stats();
    assert_eq!(second, first);
    assert_eq!(
        end.pair_rows_filled, mid.pair_rows_filled,
        "new rows filled"
    );
    assert_eq!(end.compiled, start.compiled, "a stream call compiled");
}

#[test]
fn a_panicking_compile_leaves_the_registry_serving() {
    let _serial = serial();
    let graph = |p: f64| {
        let mut g = DecodingGraph::new(2);
        g.add_edge(0, None, p, 1);
        g.add_edge(0, Some(1), p, 0);
        g.add_edge(1, None, p, 0);
        g
    };
    let factory = DecoderFactory::new(|g: DecodingGraph| {
        assert!(g.edges()[0].probability < 0.25, "refusing a hot graph");
        Box::new(MwpmDecoder::new(g)) as Box<dyn Decoder>
    });
    let rounds = vec![0, 0];
    let hot = {
        let factory = factory.clone();
        let g = graph(0.3);
        std::thread::spawn(move || {
            panic::catch_unwind(AssertUnwindSafe(|| {
                WindowedDecoder::new(g, vec![0, 0], WindowConfig::new(1), factory)
            }))
            .is_err()
        })
        .join()
        .unwrap()
    };
    assert!(hot, "the hot graph's compile panicked");
    let served = std::thread::spawn(move || {
        let decoder = WindowedDecoder::new(graph(0.01), rounds, WindowConfig::new(1), factory);
        (decoder.compiled_backends(), backend_stats().live > 0)
    })
    .join()
    .unwrap();
    assert_eq!(served, (1, true));
}
