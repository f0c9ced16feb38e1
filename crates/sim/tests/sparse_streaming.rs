//! Sparse event-driven streaming against the dense streamed pipeline.
//!
//! The sparse path must be an *exact* accelerator, never an
//! approximation:
//!
//! * a [`RoundStream`](surf_sim::RoundStream) samples each batch once
//!   and its event view (`next_event`) carries the same syndromes as its
//!   round view (`next_round`), so the same `(shots, seed, shard)`
//!   produces the same syndromes either way — only silent rounds are
//!   elided from the event list;
//! * a window with no defects and no incoming carries decodes to
//!   nothing, so fast-forwarding it commits bit-identical corrections
//!   to running the backend on the empty syndrome;
//! * carries landing inside (or beyond) a skipped stretch mark the
//!   target round dirty, so the affected window still decodes.
//!
//! Consequently `run_stream` with [`StreamConfig::sparse`] set must
//! reproduce the dense failure counts exactly — both backends, with and
//! without mid-stream deformation, with and without defect bursts. The
//! suites below lock that in at fixed seeds and under proptest.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::{DefectEvent, DefectMap};
use surf_deformer_core::{data_q_rm, PatchTimeline};
use surf_lattice::{Basis, Coord, Patch};
use surf_matching::WindowConfig;
use surf_sim::{DecoderKind, MemoryExperiment, StreamConfig};

const D: usize = 3;
const ROUNDS: u32 = 12;

/// A d=3 memory at paper noise over `ROUNDS` rounds.
fn experiment(kind: DecoderKind) -> MemoryExperiment {
    let mut exp = MemoryExperiment::standard(Patch::rotated(D));
    exp.rounds = ROUNDS;
    exp.decoder = kind;
    exp
}

/// A timeline that removes the centre data qubit mid-stream: the sparse
/// session must clamp its bulk advances at the epoch boundary and
/// replan exactly like the dense one.
fn deformed_timeline() -> PatchTimeline {
    let before = Patch::rotated(D);
    let mut after = before.clone();
    data_q_rm(&mut after, Coord::new(3, 3)).expect("centre data qubit is removable");
    let mut timeline = PatchTimeline::fixed(before, DefectMap::new());
    timeline.push_epoch(ROUNDS / 2, after, DefectMap::new());
    timeline
}

/// Runs `config` dense and sparse and asserts equal failure counts.
fn assert_sparse_matches_dense(exp: &MemoryExperiment, config: StreamConfig) {
    let dense = exp.run_stream(&config);
    let sparse = exp.run_stream(&config.with_sparse(true));
    assert_eq!(dense, sparse, "sparse streaming diverged from dense");
}

#[test]
fn sparse_run_matches_dense_run_mwpm() {
    let exp = experiment(DecoderKind::Mwpm);
    for seed in [1u64, 29, 997] {
        assert_sparse_matches_dense(&exp, StreamConfig::new(320, seed, 2 * D as u32));
    }
    // A partial tail batch (150 = 64 + 64 + 22 shots) under one
    // full-history window.
    assert_sparse_matches_dense(&exp, StreamConfig::new(150, 37, ROUNDS + 1));
}

#[test]
fn sparse_run_matches_dense_run_union_find() {
    let exp = experiment(DecoderKind::UnionFind);
    for seed in [3u64, 71] {
        assert_sparse_matches_dense(&exp, StreamConfig::new(320, seed, 2 * D as u32));
    }
}

#[test]
fn sparse_matches_dense_with_mid_stream_deformation() {
    for kind in [DecoderKind::Mwpm, DecoderKind::UnionFind] {
        let exp = experiment(kind);
        let config = StreamConfig::new(256, 47, 2 * D as u32).with_timeline(deformed_timeline());
        assert_sparse_matches_dense(&exp, config);
    }
}

#[test]
fn sparse_matches_dense_with_defect_burst() {
    // A mid-stream noise burst fills the event list around the struck
    // rounds while the clean tail stays skippable.
    let exp = experiment(DecoderKind::Mwpm);
    let burst = DefectMap::from_qubits([Coord::new(3, 3), Coord::new(2, 2)], 0.3);
    let config = StreamConfig::new(256, 58, 2 * D as u32).with_event(&DefectEvent::new(4, burst));
    assert_sparse_matches_dense(&exp, config);
}

#[test]
fn sparse_counts_are_thread_count_independent() {
    let exp = experiment(DecoderKind::Mwpm);
    let reference = exp.run_stream(
        &StreamConfig::new(500, 42, 2 * D as u32)
            .with_sparse(true)
            .with_threads(1),
    );
    for threads in [2usize, 5] {
        let counts = exp.run_stream(
            &StreamConfig::new(500, 42, 2 * D as u32)
                .with_sparse(true)
                .with_threads(threads),
        );
        assert_eq!(counts, reference, "sparse run with {threads} threads");
    }
}

#[test]
fn fast_forwarded_windows_match_densely_decoded_empty_windows() {
    // One lane at paper noise: most windows carry no defects, so the
    // sparse session fast-forwards them while the dense one runs the
    // backend on the empty syndrome. Every per-round output must agree.
    let base = experiment(DecoderKind::Mwpm)
        .session_config(Basis::Z)
        .with_window(WindowConfig::new(2 * D as u32));
    for seed in [5u64, 18, 333] {
        let mut dense = base.clone().open(1);
        let mut sparse = base.clone().with_sparse(true).open(1);
        let mut stream = dense.round_stream();
        let mut rng = StdRng::seed_from_u64(seed);
        stream.begin(&mut rng, 1);
        while let Some(slice) = stream.next_round() {
            let a = dense.push_round(slice.words).unwrap();
            let b = sparse.push_round(slice.words).unwrap();
            assert_eq!(a, b, "seed {seed} round {}", slice.round);
        }
        assert_eq!(dense.finish().unwrap(), sparse.finish().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sparse ≡ dense failure counts across random seeds, backends and
    /// geometry changes.
    #[test]
    fn sparse_equivalence_holds_across_seeds(
        seed in 0u64..1 << 48,
        kind in prop_oneof![Just(DecoderKind::Mwpm), Just(DecoderKind::UnionFind)],
        deform in any::<bool>(),
        shots in 65u64..192,
    ) {
        let exp = experiment(kind);
        let mut config = StreamConfig::new(shots, seed, 2 * D as u32).with_threads(2);
        if deform {
            config = config.with_timeline(deformed_timeline());
        }
        let dense = exp.run_stream(&config);
        let sparse = exp.run_stream(&config.with_sparse(true));
        prop_assert_eq!(dense, sparse);
    }

    /// Carry traffic across skipped stretches: a 2-round window with
    /// 1-round commits maximises carries, and at 1-4 lanes most windows
    /// are clean, so carries routinely land in fast-forwarded stretches
    /// and must re-dirty their target windows.
    #[test]
    fn carries_survive_skipped_stretches(
        seed in 0u64..1 << 48,
        shots in 1u64..5,
    ) {
        let exp = experiment(DecoderKind::Mwpm);
        let config = StreamConfig::new(shots, seed, 1)
            .with_window(WindowConfig::new(2).with_commit(1))
            .with_threads(1);
        let dense = exp.run_stream(&config);
        let sparse = exp.run_stream(&config.with_sparse(true));
        prop_assert_eq!(dense, sparse);
    }
}
