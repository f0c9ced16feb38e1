//! Periodic-template streaming against the monolithic model, end to end.
//!
//! The tentpole guarantee of the periodic compilation: whenever
//! [`PeriodicModel::build`] returns `Some`, the sparse streamed pipeline
//! — which routes through the periodic template and the virtual windowed
//! decoder — produces failure counts **bit-identical** to the dense
//! pipeline, whose sessions still decode the monolithic
//! `TimelineModel`. Since the dense path is itself pinned to
//! `run_basis`/full-history decoding by `streaming_equivalence.rs` and
//! `sparse_streaming.rs`, equality here chains the periodic path all the
//! way back to the reference batch decode.
//!
//! Every scenario below first asserts the horizon actually compresses
//! (`PeriodicModel::build(..).is_some()`), so a regression that silently
//! falls back to the monolithic path cannot vacuously pass.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::{DefectDetector, DefectEpisode, DefectEvent, DefectMap, DefectSchedule};
use surf_deformer_core::{EnlargeBudget, PatchTimeline};
use surf_lattice::{Basis, Coord, Patch};
use surf_sim::{
    DecoderKind, DecoderPrior, MemoryExperiment, NoiseParams, PeriodicModel, Shard, StreamConfig,
};

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The five-qubit burst used across the adaptive suites.
fn burst(round: u32) -> DefectEvent {
    DefectEvent::new(
        round,
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

/// Asserts the experiment's sparse (periodic) and dense (monolithic)
/// streamed failure counts agree exactly, after first proving the
/// periodic template compiles for this scenario.
fn assert_periodic_matches_dense(
    exp: &MemoryExperiment,
    timeline: &PatchTimeline,
    schedule: &DefectSchedule,
    shots: u64,
    seed: u64,
    window: u32,
    label: &str,
) {
    let periodic = PeriodicModel::build(
        timeline,
        Basis::Z,
        exp.rounds,
        exp.noise,
        schedule,
        exp.prior,
    );
    assert!(
        periodic.is_some(),
        "{label}: horizon must compress to a periodic template"
    );
    let config = StreamConfig::new(shots, seed, window)
        .with_timeline(timeline.clone())
        .with_schedule(schedule.clone())
        .with_threads(threads());
    let dense = exp.run_stream_basis(Basis::Z, &config.clone().with_sparse(false));
    let sparse = exp.run_stream_basis(Basis::Z, &config.with_sparse(true));
    assert_eq!(
        sparse, dense,
        "{label}: periodic sparse path diverged from the monolithic dense path"
    );
}

#[test]
fn clean_long_horizon_matches_across_decoders_and_seeds() {
    let timeline = PatchTimeline::fixed(Patch::rotated(3), DefectMap::new());
    let schedule = DefectSchedule::new();
    for kind in [DecoderKind::Mwpm, DecoderKind::UnionFind] {
        let mut exp = MemoryExperiment::standard(Patch::rotated(3));
        exp.rounds = 60;
        exp.noise = NoiseParams::uniform(2e-3);
        exp.decoder = kind;
        for seed in [3u64, 77, 0xC0FFEE] {
            assert_periodic_matches_dense(
                &exp,
                &timeline,
                &schedule,
                512,
                seed,
                6,
                &format!("{kind:?} seed {seed}"),
            );
        }
    }
}

#[test]
fn permanent_event_matches_under_both_priors() {
    // A permanent burst splits the horizon into two long epochs; both
    // compress independently and the straddle detectors stay explicit.
    let event = burst(20);
    let schedule = DefectSchedule::permanent_event(&event);
    let timeline = PatchTimeline::fixed(Patch::rotated(5), DefectMap::new());
    for prior in [DecoderPrior::Informed, DecoderPrior::Nominal] {
        let mut exp = MemoryExperiment::standard(Patch::rotated(5));
        exp.rounds = 80;
        exp.prior = prior;
        assert_periodic_matches_dense(
            &exp,
            &timeline,
            &schedule,
            512,
            0x5EED,
            10,
            &format!("{prior:?}"),
        );
    }
}

#[test]
fn temporary_episode_matches_through_strike_and_recovery() {
    // Strike at 30, heal at 50: three steady stretches (clean, struck,
    // recovered) each long enough to compress.
    let strike = DefectEpisode::temporary(30, 50, burst(30).defects.clone());
    let schedule = DefectSchedule::from_episodes([strike]);
    let timeline = PatchTimeline::fixed(Patch::rotated(5), DefectMap::new());
    let mut exp = MemoryExperiment::standard(Patch::rotated(5));
    exp.rounds = 100;
    assert_periodic_matches_dense(&exp, &timeline, &schedule, 512, 0xEA5E, 10, "temporary");
}

#[test]
fn adaptive_deformation_timeline_matches() {
    // The full paper loop at a long horizon: burst at 30, the timeline
    // deforms at 32, and the deformed steady state runs for ~90 rounds.
    // Geometry change + schedule change are epoch boundaries for the
    // periodic compile exactly as for `TimelineModel`.
    let event = burst(30);
    let schedule = DefectSchedule::permanent_event(&event);
    let (timeline, _) = PatchTimeline::adaptive(
        Patch::rotated(5),
        DefectMap::new(),
        EnlargeBudget::uniform(2),
        &event,
        &DefectDetector::perfect(),
        2,
        &mut StdRng::seed_from_u64(9),
    );
    let mut exp = MemoryExperiment::standard(Patch::rotated(5));
    exp.rounds = 120;
    assert_periodic_matches_dense(&exp, &timeline, &schedule, 512, 41, 10, "adaptive");
}

#[test]
fn periodic_counts_are_thread_and_shard_independent() {
    let mut exp = MemoryExperiment::standard(Patch::rotated(3));
    exp.rounds = 96;
    exp.noise = NoiseParams::uniform(3e-3);
    // 300 shots: 5 batches with a partial tail.
    let config = StreamConfig::new(300, 21, 6).with_sparse(true);
    let reference = exp.run_stream_basis(Basis::Z, &config.clone().with_threads(1));
    for threads in [2usize, 5] {
        assert_eq!(
            exp.run_stream_basis(Basis::Z, &config.clone().with_threads(threads)),
            reference,
            "{threads} threads"
        );
    }
    let merged: u64 = (0..2)
        .map(|k| exp.run_stream_basis(Basis::Z, &config.clone().with_shard(Shard::new(k, 2))))
        .sum();
    assert_eq!(merged, reference, "shards must merge exactly");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized sweep: seeds, decoder backends, horizon lengths, burst
    /// arrival rounds and window sizes. Sparse/periodic must equal
    /// dense/monolithic bit for bit in every draw.
    #[test]
    fn periodic_equivalence_holds_across_random_scenarios(
        seed in 0u64..1 << 48,
        kind in prop_oneof![Just(DecoderKind::Mwpm), Just(DecoderKind::UnionFind)],
        rounds in 48u32..128,
        event_round in 24u32..40,
        window in 6u32..12,
    ) {
        let mut exp = MemoryExperiment::standard(Patch::rotated(3));
        exp.rounds = rounds;
        exp.noise = NoiseParams::uniform(2e-3);
        exp.decoder = kind;
        let event = DefectEvent::new(
            event_round,
            DefectMap::from_qubits([Coord::new(3, 3)], 0.2),
        );
        let schedule = DefectSchedule::permanent_event(&event);
        let timeline = PatchTimeline::fixed(Patch::rotated(3), DefectMap::new());
        let config = StreamConfig::new(192, seed, window)
            .with_timeline(timeline)
            .with_schedule(schedule)
            .with_threads(2);
        let dense = exp.run_stream_basis(Basis::Z, &config.clone().with_sparse(false));
        let sparse = exp.run_stream_basis(Basis::Z, &config.with_sparse(true));
        prop_assert_eq!(sparse, dense);
    }
}
