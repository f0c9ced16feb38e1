//! In-stream adaptive deformation, end to end.
//!
//! Two guarantees anchor the timeline pipeline:
//!
//! 1. **No-op equivalence** — a one-epoch [`PatchTimeline`] compiles to
//!    the exact fixed-patch model, so a [`StreamConfig`] with a pinned
//!    timeline is *bit-identical* to the fixed-patch stream (same seed ⇒
//!    same failure count), with and without a mid-stream defect event,
//!    for both decoder backends. A session's windowed decoder reads the
//!    timeline's one global graph, which for one epoch is the fixed-patch
//!    graph edge for edge.
//! 2. **The adaptive win** — the repo's first true reproduction of the
//!    paper's loop: a burst strikes at round 3, the detector reports it,
//!    `Deformer::mitigate` deforms the patch mid-stream, and the
//!    streamed adaptive run beats both the blind and the reweight-only
//!    (PR 3) baselines at fixed shots and seed, with the reaction-delay
//!    ordering the paper's Fig. 14b predicts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::{DefectDetector, DefectEvent, DefectMap};
use surf_deformer_core::{EnlargeBudget, PatchTimeline};
use surf_lattice::{Basis, Coord, Patch};
use surf_sim::{DecoderKind, DecoderPrior, MemoryExperiment, NoiseParams, StreamConfig};

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The burst used throughout: five qubits around the d=5 patch centre at
/// 50 % error rates from round 3 on.
fn burst_event() -> DefectEvent {
    DefectEvent::new(
        3,
        DefectMap::from_qubits(
            [
                Coord::new(5, 5),
                Coord::new(4, 4),
                Coord::new(5, 3),
                Coord::new(6, 4),
                Coord::new(6, 6),
            ],
            0.5,
        ),
    )
}

/// The adaptive timeline of `burst_event` on a fresh d=5 patch:
/// detect → mitigate with a 2-layer budget, deforming at round
/// `3 + reaction`.
fn adaptive_timeline(seed: u64, reaction: u32) -> PatchTimeline {
    let mut rng = StdRng::seed_from_u64(seed);
    let (timeline, _) = PatchTimeline::adaptive(
        Patch::rotated(5),
        DefectMap::new(),
        EnlargeBudget::uniform(2),
        &burst_event(),
        &DefectDetector::perfect(),
        reaction,
        &mut rng,
    );
    timeline
}

#[test]
fn noop_timeline_is_bit_identical_to_fixed_patch_stream() {
    let mut exp = MemoryExperiment::standard(Patch::rotated(3));
    exp.rounds = 8;
    exp.noise = NoiseParams::uniform(3e-3);
    let timeline = PatchTimeline::fixed(exp.patch.clone(), exp.kept_defects.clone());
    for kind in [DecoderKind::Mwpm, DecoderKind::UnionFind] {
        exp.decoder = kind;
        for seed in [7u64, 991] {
            let config = StreamConfig::new(512, seed, 6).with_threads(threads());
            let fixed = exp.run_stream_basis(Basis::Z, &config);
            let timed =
                exp.run_stream_basis(Basis::Z, &config.clone().with_timeline(timeline.clone()));
            assert_eq!(fixed, timed, "{kind:?} seed {seed}");
        }
    }
}

#[test]
fn noop_timeline_matches_the_spliced_event_path() {
    // Fixed geometry + mid-stream event: the timeline path must equal
    // the legacy `DetectorModel::splice` reweighting path bit for bit.
    let mut exp = MemoryExperiment::standard(Patch::rotated(3));
    exp.rounds = 8;
    exp.noise = NoiseParams::uniform(2e-3);
    let event = DefectEvent::new(4, DefectMap::from_qubits([Coord::new(3, 3)], 0.5));
    let timeline = PatchTimeline::fixed(exp.patch.clone(), exp.kept_defects.clone());
    for prior in [DecoderPrior::Informed, DecoderPrior::Nominal] {
        exp.prior = prior;
        let config = StreamConfig::new(512, 13, 6)
            .with_event(&event)
            .with_threads(threads());
        let fixed = exp.run_stream_basis(Basis::Z, &config);
        let timed = exp.run_stream_basis(Basis::Z, &config.clone().with_timeline(timeline.clone()));
        assert_eq!(fixed, timed, "{prior:?}");
    }
}

#[test]
fn timeline_failure_counts_are_thread_count_independent() {
    let mut exp = MemoryExperiment::standard(Patch::rotated(5));
    exp.rounds = 12;
    let timeline = adaptive_timeline(3, 2);
    let event = burst_event();
    // 500 shots: exercises the partial tail batch.
    let config = StreamConfig::new(500, 21, 10)
        .with_timeline(timeline)
        .with_event(&event);
    let reference = exp.run_stream_basis(Basis::Z, &config.clone().with_threads(1));
    for threads in [2usize, 5] {
        assert_eq!(
            exp.run_stream_basis(Basis::Z, &config.clone().with_threads(threads)),
            reference,
            "{threads} threads"
        );
    }
}

#[test]
fn adaptive_deformation_beats_blind_and_reweight_only() {
    // The acceptance scenario: d=5, 25 rounds, burst at round 3,
    // deformation at round 5. The adaptive run excises the struck
    // region after a 2-round reaction window and restores distance by
    // enlargement; the reweight-only run keeps operating the 50 %-noise
    // qubits for all 22 remaining rounds.
    let shots = 2000;
    let seed = 0xADA7;
    let mut exp = MemoryExperiment::standard(Patch::rotated(5));
    exp.rounds = 25;
    let event = burst_event();
    let config = StreamConfig::new(shots, seed, 10)
        .with_event(&event)
        .with_threads(threads());
    exp.prior = DecoderPrior::Nominal;
    let blind = exp.run_stream_basis(Basis::Z, &config);
    exp.prior = DecoderPrior::Informed;
    let reweight = exp.run_stream_basis(Basis::Z, &config);
    let timeline = adaptive_timeline(seed, 2);
    let adaptive = exp.run_stream_basis(Basis::Z, &config.clone().with_timeline(timeline));
    assert!(
        reweight < blind,
        "reweighting must beat the blind decoder: {reweight} vs {blind}"
    );
    assert!(
        adaptive < reweight,
        "mid-stream deformation must beat reweight-only: {adaptive} vs {reweight}"
    );
    assert!(
        adaptive < blind,
        "mid-stream deformation must beat the blind decoder: {adaptive} vs {blind}"
    );
}

#[test]
fn slower_reactions_cost_more_failures() {
    // Fig. 14b's mechanism: every extra round between strike and
    // deformation leaves the burst in the code longer.
    let shots = 2000;
    let seed = 0xF19;
    let mut exp = MemoryExperiment::standard(Patch::rotated(5));
    exp.rounds = 25;
    let event = burst_event();
    let failures_at = |reaction: u32| {
        let timeline = adaptive_timeline(seed, reaction);
        let config = StreamConfig::new(shots, seed, 10)
            .with_timeline(timeline)
            .with_event(&event)
            .with_threads(threads());
        exp.run_stream_basis(Basis::Z, &config)
    };
    let fast = failures_at(2);
    let slow = failures_at(16);
    assert!(
        fast < slow,
        "a 2-round reaction ({fast}) must beat a 16-round one ({slow})"
    );
}
