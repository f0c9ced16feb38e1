//! Streamed decoding against an independent whole-history decode.
//!
//! The headline guarantee of the streaming subsystem: for windows of at
//! least `2·d` rounds (commit `d`, look ahead `d`), the logical outcome
//! of windowed decoding is **bit-identical** to decoding each shot's
//! complete syndrome history with the inner backend's scalar `decode` —
//! for both decoder backends, with and without a defect landing
//! mid-stream. On top of that:
//!
//! * `run_basis` (the streamed runner with one full-history window)
//!   reproduces the failure count of a single-threaded sample → per-lane
//!   decode oracle (`common`) exactly, on clean and cosmic-ray-struck
//!   patches, in both bases, with both backends, and so does
//!   `run_stream_basis` at window `2·d` on a clean patch;
//! * the runner is *thread-count independent*: batches draw their RNG
//!   from a SplitMix64 stream indexed by batch number, so 1 worker and 8
//!   workers produce the oracle's count;
//! * the guarantee holds at the distances deformation targets (d = 13,
//!   17, 21), where a commit cut has hundreds of carry targets, and for
//!   a virtual session over the periodic model at d = 13.
//!
//! A note on ties: the window construction preserves the relative node
//! and edge order of the full graph, which keeps MWPM's tie resolution
//! identical between the windowed and full decodes (zero divergence over
//! hundreds of thousands of sampled lanes). Union-find is a greedy
//! decoder: when a syndrome admits two equal-weight corrections that
//! differ by a logical cycle (~10⁻⁴ of shots at p = 3·10⁻³, rarer at
//! lower noise), its full-history pass may resolve the tie differently
//! from its windowed passes — both answers are minimum-weight. The UF
//! suites below therefore run at the paper's noise scale, where the
//! fixed seeds are verified tie-free.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::{CosmicRayModel, DefectEvent, DefectMap, DefectSchedule};
use surf_deformer_core::{AscS, MitigationStrategy, PatchTimeline, Untreated};
use surf_lattice::{Basis, Coord, Patch};
use surf_matching::{Decoder, RoundModelSource, WindowConfig, WindowedDecoder};
use surf_sim::{
    BitBatch, DecoderKind, DecoderPrior, DetectorModel, MemoryExperiment, NoiseParams,
    PeriodicModel, QubitNoise, StreamConfig, TimelineModel,
};

mod common;

use common::whole_history_failures;

const D: usize = 3;
const ROUNDS: u32 = 8;

/// The clean d=3 model over `ROUNDS` rounds at noise `p`.
fn clean_model(p: f64) -> DetectorModel {
    let patch = Patch::rotated(D);
    let noise = QubitNoise::new(NoiseParams::uniform(p), DefectMap::new());
    DetectorModel::build(&patch, Basis::Z, ROUNDS, &noise, DecoderPrior::Informed)
}

/// The same model with a defect arriving at `round`: true rates *and*
/// decoder priors switch mid-history via the spliced model.
fn defect_model(p: f64, round: u32, rate: f64) -> DetectorModel {
    let patch = Patch::rotated(D);
    let clean = QubitNoise::new(NoiseParams::uniform(p), DefectMap::new());
    let struck = QubitNoise::new(
        NoiseParams::uniform(p),
        DefectMap::from_qubits([Coord::new(3, 3)], rate),
    );
    let base = DetectorModel::build(&patch, Basis::Z, ROUNDS, &clean, DecoderPrior::Informed);
    let late = DetectorModel::build(&patch, Basis::Z, ROUNDS, &struck, DecoderPrior::Informed);
    base.splice(&late, round)
}

/// The inner backend's scalar decode of each lane's whole syndrome.
fn decode_lanes(full: &dyn Decoder, batch: &BitBatch) -> Vec<u64> {
    (0..batch.lanes())
        .map(|lane| {
            let syndrome: Vec<usize> = batch.extract_lane(lane).iter_ones().collect();
            full.decode(&syndrome)
        })
        .collect()
}

/// Feeds `batch` round by round through a fresh session of `windowed`.
fn stream_batch(windowed: &Arc<WindowedDecoder>, batch: &BitBatch) -> Vec<u64> {
    let mut session = Arc::clone(windowed).into_session(batch.lanes());
    for round in 0..windowed.total_rounds() {
        let detectors = windowed.round_detectors(round);
        let words: Vec<u64> = detectors
            .iter()
            .map(|&det| batch.word(det as usize))
            .collect();
        session.push_round(round, detectors, &words);
    }
    session.finish()
}

/// Asserts that the windowed decoder commits, per lane, exactly the
/// whole-history prediction over `batches` sampled batches of `lanes`
/// shots.
fn assert_bit_identical(
    model: &DetectorModel,
    kind: DecoderKind,
    config: WindowConfig,
    seed: u64,
    batches: usize,
    lanes: usize,
) {
    let full = kind.build(model.graph.clone());
    let windowed = Arc::new(WindowedDecoder::new(
        model.graph.clone(),
        model.detector_rounds.clone(),
        config,
        kind.factory(),
    ));
    let sampler = model.batch_sampler();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = BitBatch::with_lanes(model.num_detectors, lanes);
    for index in 0..batches {
        sampler.sample_into(&mut rng, &mut batch);
        let reference = decode_lanes(full.as_ref(), &batch);
        let streamed = stream_batch(&windowed, &batch);
        assert_eq!(
            streamed, reference,
            "batch {index} diverged ({kind:?}, window {}, commit {})",
            config.window, config.commit
        );
    }
}

#[test]
fn window_2d_matches_full_decode_mwpm() {
    // 2·d = 6 rounds of window over a 9-slot history (8 rounds + readout).
    let config = WindowConfig::new(2 * D as u32);
    assert_bit_identical(&clean_model(1e-3), DecoderKind::Mwpm, config, 11, 24, 64);
    assert_bit_identical(&clean_model(3e-3), DecoderKind::Mwpm, config, 12, 24, 64);
}

#[test]
fn window_2d_matches_full_decode_union_find() {
    let config = WindowConfig::new(2 * D as u32);
    assert_bit_identical(
        &clean_model(1e-3),
        DecoderKind::UnionFind,
        config,
        13,
        24,
        64,
    );
    assert_bit_identical(
        &clean_model(2e-3),
        DecoderKind::UnionFind,
        config,
        14,
        24,
        64,
    );
}

#[test]
fn window_2d_matches_full_decode_with_mid_stream_defect() {
    // A defect lands at round 4: the spliced model elevates the sampler
    // *and* reweights the decoding graph from that round on; the windows
    // containing it must still commit the full decode's answer.
    let config = WindowConfig::new(2 * D as u32);
    let model = defect_model(1e-3, 4, 0.2);
    assert_bit_identical(&model, DecoderKind::Mwpm, config, 15, 24, 64);
    assert_bit_identical(&model, DecoderKind::UnionFind, config, 16, 24, 64);
}

/// The clean rotated distance-`d` memory over `2·d + 1` rounds at
/// `p = 1e-3`.
fn large_model(d: usize) -> DetectorModel {
    let noise = QubitNoise::new(NoiseParams::uniform(1e-3), DefectMap::new());
    let rounds = 2 * d as u32 + 1;
    DetectorModel::build(
        &Patch::rotated(d),
        Basis::Z,
        rounds,
        &noise,
        DecoderPrior::Informed,
    )
}

/// At window `2·d` a distance-`d` commit cut has about `(d² − 1) / 2`
/// carry targets — far more than 63 from d = 13 on. Both backends must
/// still commit the full decode, lane for lane; eight lanes keep the
/// debug-mode run short.
fn assert_large_distance_bit_identical(d: usize) {
    let model = large_model(d);
    let config = WindowConfig::new(2 * d as u32);
    for (kind, seed) in [(DecoderKind::Mwpm, 1300), (DecoderKind::UnionFind, 1700)] {
        assert_bit_identical(&model, kind, config, seed + d as u64, 1, 8);
    }
}

#[test]
fn window_2d_matches_full_decode_at_d13() {
    assert_large_distance_bit_identical(13);
}

#[test]
fn window_2d_matches_full_decode_at_d17() {
    assert_large_distance_bit_identical(17);
}

#[test]
fn window_2d_matches_full_decode_at_d21() {
    assert_large_distance_bit_identical(21);
}

/// A virtual session at d = 13 — windows assembled from the periodic
/// model, steady-state ones served by template translation, clean ones
/// fast-forwarded — fed round by round commits the whole-history decode
/// of the same backend over the equivalent monolithic model.
#[test]
fn virtual_session_at_d13_matches_full_decode() {
    let d = 13usize;
    let rounds = 80;
    let timeline = PatchTimeline::fixed(Patch::rotated(d), DefectMap::new());
    let (noise, schedule) = (NoiseParams::uniform(1e-3), DefectSchedule::new());
    let prior = DecoderPrior::Informed;
    let periodic = PeriodicModel::build(&timeline, Basis::Z, rounds, noise, &schedule, prior)
        .expect("a clean horizon compresses");
    let source = Arc::new(periodic);
    let model =
        TimelineModel::build_scheduled(&timeline, Basis::Z, rounds, noise, &schedule, prior).model;
    let lanes = 8;
    let mut batch = BitBatch::with_lanes(model.num_detectors, lanes);
    let mut rng = StdRng::seed_from_u64(2113);
    model.batch_sampler().sample_into(&mut rng, &mut batch);
    for kind in [DecoderKind::Mwpm, DecoderKind::UnionFind] {
        let reference = decode_lanes(kind.build(model.graph.clone()).as_ref(), &batch);
        let decoder = Arc::new(WindowedDecoder::virtual_source(
            Arc::clone(&source) as Arc<dyn RoundModelSource>,
            WindowConfig::new(2 * d as u32),
            kind.factory(),
        ));
        assert!(decoder.is_virtual());
        let mut session = Arc::clone(&decoder).into_session(lanes);
        let mut detectors = Vec::new();
        for round in 0..decoder.total_rounds() {
            detectors.clear();
            source.detectors_in(round..round + 1, &mut detectors);
            let words: Vec<u64> = detectors
                .iter()
                .map(|&det| batch.word(det as usize))
                .collect();
            session.push_round(round, &detectors, &words);
        }
        assert!(
            session.windows_decoded() > 1,
            "{kind:?}: windows must decode"
        );
        assert_eq!(
            session.finish(),
            reference,
            "{kind:?}: virtual session diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bit-identity at window ≥ 2·d across random seeds, decoder
    /// backends, and defect arrival rounds. The randomized defect burst
    /// is 10× nominal: strong enough to dominate the struck region's
    /// edges, short-chained enough that `d` rounds of lookahead always
    /// cover it (the 200× burst lives in the fixed-seed test above —
    /// union-find tie resolution under such a burst is only verified
    /// there, see the module docs).
    #[test]
    fn window_2d_bit_identity_holds_across_seeds(
        seed in 0u64..1 << 48,
        kind in prop_oneof![Just(DecoderKind::Mwpm), Just(DecoderKind::UnionFind)],
        defect_round in 1u32..8,
        lookahead_extra in 0u32..3,
    ) {
        let window = 2 * D as u32 + lookahead_extra;
        let config = WindowConfig::new(window);
        assert_bit_identical(&clean_model(1e-3), kind, config, seed, 4, 64);
        let model = defect_model(1e-3, defect_round, 0.01);
        assert_bit_identical(&model, kind, config, seed ^ 0xD1CE, 4, 64);
    }
}

#[test]
fn streamed_full_window_reproduces_run_basis() {
    // A full-history window decodes each shot's whole syndrome once: with
    // the shared per-batch seeding, `run_basis` and the explicit
    // full-window stream both reproduce the oracle's count exactly.
    for kind in [DecoderKind::Mwpm, DecoderKind::UnionFind] {
        let mut exp = MemoryExperiment::standard(Patch::rotated(D));
        exp.rounds = ROUNDS;
        exp.noise = NoiseParams::uniform(5e-3);
        exp.decoder = kind;
        for seed in [1u64, 29, 997] {
            let oracle = whole_history_failures(&exp, Basis::Z, 300, seed);
            let streamed =
                exp.run_stream_basis(Basis::Z, &StreamConfig::new(300, seed, ROUNDS + 1));
            assert_eq!(streamed, oracle, "{kind:?} seed {seed}");
            assert_eq!(
                exp.run_basis(Basis::Z, 300, seed),
                oracle,
                "{kind:?} seed {seed}"
            );
        }
    }
}

#[test]
fn streamed_window_2d_reproduces_run_basis() {
    let mut exp = MemoryExperiment::standard(Patch::rotated(D));
    exp.rounds = ROUNDS;
    exp.noise = NoiseParams::uniform(2e-3);
    let oracle = whole_history_failures(&exp, Basis::Z, 512, 7);
    let streamed = exp.run_stream_basis(Basis::Z, &StreamConfig::new(512, 7, 2 * D as u32));
    assert_eq!(streamed, oracle);
    assert_eq!(exp.run_basis(Basis::Z, 512, 7), oracle);
}

/// A d = 5 patch struck by the paper's cosmic ray at its centre, then
/// mitigated by `strategy`: the experiment keeps the strategy's resident
/// defects at their elevated rates.
fn struck_experiment(
    strategy: &dyn MitigationStrategy,
    prior: DecoderPrior,
    kind: DecoderKind,
) -> MemoryExperiment {
    let d = 5;
    let base = Patch::rotated(d);
    let mut universe = base.data_qubits();
    universe.extend(base.syndrome_qubits());
    let ray = CosmicRayModel::paper();
    let defects = DefectMap::from_qubits(
        ray.affected_region(Coord::new(d as i32, d as i32), &universe),
        ray.defect_error_rate,
    );
    let outcome = strategy.mitigate(&base, &defects);
    MemoryExperiment {
        patch: outcome.patch,
        rounds: d as u32,
        noise: NoiseParams::paper(),
        kept_defects: outcome.kept_defects,
        prior,
        decoder: kind,
    }
}

#[test]
fn full_history_runs_match_the_oracle_on_struck_patches() {
    // The cases `run` serves beyond a clean patch: an untreated strike
    // decoded blind (nominal prior, defects resident at 50 %) and an
    // ASC-S-deformed patch, in both bases, with both backends.
    let shots = 320;
    let untreated_kept = struck_experiment(&Untreated, DecoderPrior::Nominal, DecoderKind::Mwpm);
    assert!(
        !untreated_kept.kept_defects.is_empty(),
        "untreated keeps its defects"
    );
    let mut nonzero = 0;
    for kind in [DecoderKind::Mwpm, DecoderKind::UnionFind] {
        let cases = [
            (
                "untreated",
                struck_experiment(&Untreated, DecoderPrior::Nominal, kind),
            ),
            (
                "ASC-S",
                struck_experiment(&AscS, DecoderPrior::Informed, kind),
            ),
        ];
        for (name, exp) in &cases {
            for (basis, seed) in [(Basis::Z, 31u64), (Basis::X, 37)] {
                let oracle = whole_history_failures(exp, basis, shots, seed);
                let run = exp.run_basis(basis, shots, seed);
                assert_eq!(run, oracle, "{name} {kind:?} {basis:?}");
                nonzero += usize::from(oracle > 0);
            }
        }
    }
    assert!(
        nonzero > 0,
        "every count was zero: the check compared nothing"
    );
}

#[test]
fn failure_counts_are_thread_count_independent() {
    // Locks in the batch-indexed SplitMix64 seeding: the count is a pure
    // function of (shots, seed), never of the worker layout. The
    // single-threaded whole-history oracle fixes the count a full-history
    // window must reach at every thread count.
    let mut exp = MemoryExperiment::standard(Patch::rotated(D));
    exp.rounds = 4;
    exp.noise = NoiseParams::uniform(8e-3);
    let shots = 500; // not a multiple of 64: exercises the partial tail batch
    let reference = whole_history_failures(&exp, Basis::Z, shots, 42);
    assert_eq!(exp.run_basis(Basis::Z, shots, 42), reference);
    let full_history = StreamConfig::new(shots, 42, exp.rounds + 1);
    for threads in [1usize, 2, 3, 8] {
        assert_eq!(
            exp.run_stream_basis(Basis::Z, &full_history.clone().with_threads(threads)),
            reference,
            "full-history stream with {threads} threads"
        );
    }
    let config = StreamConfig::new(shots, 42, 2 * D as u32);
    let streamed_1 = exp.run_stream_basis(Basis::Z, &config.clone().with_threads(1));
    for threads in [2usize, 5] {
        assert_eq!(
            exp.run_stream_basis(Basis::Z, &config.clone().with_threads(threads)),
            streamed_1,
            "streamed run with {threads} threads"
        );
    }
}

#[test]
fn mid_stream_defect_event_raises_failure_rate() {
    // End-to-end wiring check: a cosmic-ray-style 50 %-noise burst
    // arriving at round 3 must hurt a decoder that is blind to it
    // (nominal prior), while an informed decoder — whose spliced graph
    // reweights the struck windows — must do strictly better.
    let mut exp = MemoryExperiment::standard(Patch::rotated(5));
    exp.rounds = 10;
    exp.prior = DecoderPrior::Nominal;
    let burst = DefectMap::from_qubits(
        [
            Coord::new(5, 5),
            Coord::new(4, 4),
            Coord::new(5, 3),
            Coord::new(6, 4),
            Coord::new(6, 6),
        ],
        0.5,
    );
    let event = DefectEvent::new(3, burst);
    let config = StreamConfig::new(2000, 23, 10).with_threads(4);
    let clean = exp.run_stream_basis(Basis::Z, &config);
    let struck_config = config.with_event(&event);
    let blind = exp.run_stream_basis(Basis::Z, &struck_config);
    assert!(
        blind > clean,
        "mid-stream burst must raise failures: clean {clean}, struck {blind}"
    );
    exp.prior = DecoderPrior::Informed;
    let informed = exp.run_stream_basis(Basis::Z, &struck_config);
    assert!(
        informed < blind,
        "reweighted windows must beat the blind decoder: informed {informed}, blind {blind}"
    );
}

#[test]
fn streamed_decoder_sees_reweighted_graph_after_event() {
    // The spliced model's late channels carry elevated priors: the edges
    // of rounds past the event differ from the clean graph's.
    let clean = clean_model(1e-3);
    let spliced = defect_model(1e-3, 4, 0.5);
    assert_eq!(clean.num_detectors, spliced.num_detectors);
    let changed = clean
        .graph
        .edges()
        .iter()
        .zip(spliced.graph.edges())
        .filter(|(a, b)| (a.probability - b.probability).abs() > 1e-12)
        .count();
    assert!(changed > 0, "event must reweight late edges");
    // Early-round channels are untouched.
    for (a, b) in clean.channels.iter().zip(&spliced.channels) {
        if a.round < 4 {
            assert_eq!(a.p_true, b.p_true);
            assert_eq!(a.p_prior, b.p_prior);
        }
    }
}
