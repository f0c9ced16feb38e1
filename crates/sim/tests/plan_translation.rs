//! Steady-state window plans served by translation equal direct assembly.
//!
//! A virtual windowed decoder over a [`PeriodicModel`] does not assemble
//! steady-state windows: it shifts a cached template plan by whole
//! template periods (`globals[k] + δ·stride[k]`, carry targets likewise)
//! and decodes through the template's shared backend. Results can only
//! stay bit-identical if every translated plan is exactly the plan a
//! direct assembly would produce. This suite checks that for every window
//! index of three models — a static patch, a mid-stream removal, and a
//! deformed timeline with a temporary and a permanent strike — over
//! several window splits, and that translation actually happens (a
//! regression that stops translating would otherwise pass vacuously).
//!
//! It also pins the decoder-health counters: plan assemblies per session
//! do not grow with the horizon, and every committed window is either
//! decoded or fast-forwarded.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::{DefectEpisode, DefectMap, DefectSchedule};
use surf_deformer_core::{Deformer, EnlargeBudget, PatchTimeline};
use surf_lattice::{Basis, Coord, Patch};
use surf_matching::{RoundModelSource, WindowConfig, WindowParts, WindowedDecoder};
use surf_sim::{
    DecodeSession, DecoderKind, DecoderPrior, NoiseParams, PeriodicModel, SessionConfig,
};

/// `base` until round `at`, then `base` with the centre-corner data qubit
/// removed.
fn removal_timeline(d: usize, at: u32) -> PatchTimeline {
    let base = Patch::rotated(d);
    let mut deformer = Deformer::with_budget(base.clone(), EnlargeBudget::default());
    deformer
        .remove_defects(&DefectMap::from_qubits(
            [Coord::new(d as i32, d as i32)],
            0.5,
        ))
        .unwrap();
    let mut timeline = PatchTimeline::fixed(base, DefectMap::new());
    timeline.push_epoch(at, deformer.patch().clone(), DefectMap::new());
    timeline
}

/// The three periodic fixtures, each as `(label, model)`.
fn models() -> Vec<(&'static str, PeriodicModel)> {
    let build = |timeline: &PatchTimeline, rounds: u32, schedule: &DefectSchedule| {
        PeriodicModel::build(
            timeline,
            Basis::Z,
            rounds,
            NoiseParams::paper(),
            schedule,
            DecoderPrior::Informed,
        )
        .expect("horizon long enough to compress")
    };
    let strikes = DefectSchedule::from_episodes([
        DefectEpisode {
            start: 20,
            end: Some(80),
            defects: DefectMap::from_qubits([Coord::new(1, 1)], 0.4),
        },
        DefectEpisode {
            start: 120,
            end: None,
            defects: DefectMap::from_qubits([Coord::new(3, 1)], 0.3),
        },
    ]);
    vec![
        (
            "static",
            build(
                &PatchTimeline::fixed(Patch::rotated(3), DefectMap::new()),
                75,
                &DefectSchedule::new(),
            ),
        ),
        (
            "removal",
            build(&removal_timeline(3, 40), 110, &DefectSchedule::new()),
        ),
        ("strikes", build(&removal_timeline(3, 50), 170, &strikes)),
    ]
}

fn assert_parts_equal(direct: &WindowParts, translated: &WindowParts, label: &str) {
    assert_eq!(translated.globals, direct.globals, "{label}: globals");
    assert_eq!(translated.carries, direct.carries, "{label}: carries");
    assert_eq!(
        translated.graph.num_nodes(),
        direct.graph.num_nodes(),
        "{label}: window nodes"
    );
    let (got, want) = (translated.graph.edges(), direct.graph.edges());
    assert_eq!(got.len(), want.len(), "{label}: edge count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!((g.a, g.b), (w.a, w.b), "{label}: edge {i} endpoints");
        assert_eq!(
            g.observables, w.observables,
            "{label}: edge {i} observables"
        );
        assert_eq!(
            g.probability.to_bits(),
            w.probability.to_bits(),
            "{label}: edge {i} probability"
        );
    }
}

#[test]
fn translated_plans_equal_direct_assembly_at_every_window() {
    for (name, model) in models() {
        let model: Arc<dyn RoundModelSource> = Arc::new(model);
        for (window, commit) in [(6u32, 3u32), (6, 2), (4, 1), (7, 4)] {
            let decoder = WindowedDecoder::virtual_source(
                Arc::clone(&model),
                WindowConfig::new(window).with_commit(commit),
                DecoderKind::Mwpm.factory(),
            );
            let windows = decoder.num_windows();
            let mut translated_windows = 0usize;
            for index in 0..windows {
                let (direct, translated) = decoder.window_parts(index);
                if let Some(translated) = translated {
                    let label = format!("{name} w={window} c={commit} window {index}");
                    assert_parts_equal(&direct, &translated, &label);
                    translated_windows += 1;
                }
            }
            // The fixtures are short and boundary-heavy (the strike one
            // has six structure rounds in 170), yet a sizeable share of
            // their windows must still be served by translation.
            assert!(
                8 * translated_windows >= windows,
                "{name} w={window} c={commit}: only {translated_windows} of \
                 {windows} windows translated"
            );
        }
    }
}

/// A d = 5 session config over `rounds` rounds at p = 1e-4, window 10.
fn low_noise_config(rounds: u32, sparse: bool) -> SessionConfig {
    let mut config = SessionConfig::new(
        PatchTimeline::fixed(Patch::rotated(5), DefectMap::new()),
        Basis::Z,
        rounds,
    )
    .with_window(WindowConfig::new(10))
    .with_sparse(sparse);
    config.noise = NoiseParams::uniform(1e-4);
    config
}

/// Feeds `session` one sampled stream (event feed, silent gaps skipped)
/// to its end.
fn drive(session: &mut DecodeSession, seed: u64) {
    let lanes = session.lanes();
    let mut events = session.sparse_round_stream();
    events.begin(&mut StdRng::seed_from_u64(seed), lanes);
    while let Some(event) = events.next_event() {
        while session.filled_rounds() < event.round {
            session
                .advance_silent(event.round - session.filled_rounds())
                .unwrap();
        }
        session
            .push_round_sparse(event.detectors, event.words)
            .unwrap();
    }
    while session.filled_rounds() < session.total_rounds() {
        session
            .advance_silent(session.total_rounds() - session.filled_rounds())
            .unwrap();
    }
}

/// Drives a 64-lane virtual session over `rounds` rounds of sampled
/// p = 1e-4 syndromes (event feed, silent gaps skipped) and returns
/// `(plan builds, windows decoded, windows fast-forwarded, windows)`.
fn low_noise_session(rounds: u32, lanes: usize) -> (u64, u64, u64, usize) {
    let mut session = low_noise_config(rounds, true).open(lanes);
    drive(&mut session, 5);
    let counts = (
        session.plan_builds(),
        session.windows_decoded(),
        session.windows_fast_forwarded(),
        session.num_windows(),
    );
    session.finish().unwrap();
    counts
}

#[test]
fn plan_builds_do_not_grow_with_the_horizon() {
    let short = low_noise_session(10_000, 64);
    let long = low_noise_session(100_000, 64);
    for (rounds, (_, decoded, skipped, windows)) in [(10_000, short), (100_000, long)] {
        assert_eq!(
            decoded + skipped,
            windows as u64,
            "{rounds} rounds: every window is decoded or fast-forwarded"
        );
    }
    assert!(short.1 > 1_000, "64 lanes at p = 1e-4 decode most windows");
    assert_eq!(
        short.0, long.0,
        "plan builds must not grow with the horizon (10^4: {}, 10^5: {})",
        short.0, long.0
    );
    assert!(short.0 < 32, "{} plan builds for one session", short.0);
    // One lane leaves most windows clean: both counters move.
    let (_, decoded, skipped, windows) = low_noise_session(10_000, 1);
    assert!(
        decoded > 0 && skipped > 0,
        "{decoded} decoded, {skipped} skipped"
    );
    assert_eq!(decoded + skipped, windows as u64);
}

#[test]
fn forks_reuse_resolved_plans() {
    // Plans are kept once resolved, so a second fork streaming a
    // different sample over the same compiled session assembles nothing:
    // boundary plans of a virtual session and the construction-time
    // plans of a materialised one alike.
    for sparse in [true, false] {
        let proto = low_noise_config(2_000, sparse).open(64);
        let mut fork_a = proto.fork(64);
        drive(&mut fork_a, 5);
        let builds = fork_a.plan_builds();
        assert!(builds > 0, "sparse={sparse}: no plan was ever built");
        fork_a.finish().unwrap();
        let mut fork_b = proto.fork(64);
        drive(&mut fork_b, 6);
        assert_eq!(
            fork_b.plan_builds(),
            builds,
            "sparse={sparse}: the second fork re-assembled plans"
        );
        assert_eq!(
            fork_b.windows_decoded() + fork_b.windows_fast_forwarded(),
            fork_b.num_windows() as u64
        );
        fork_b.finish().unwrap();
    }
}
