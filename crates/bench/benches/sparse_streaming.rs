//! Criterion micro-benchmarks for sparse event-driven streaming: the
//! rounds-per-second of a long d=5 stream through a freshly built
//! windowed decoder, dense (eager per-window backends, every window
//! decoded) vs sparse (lazy structurally-shared plans, clean windows
//! fast-forwarded), plus the worst-case per-window commit latency in
//! sparse mode.
//!
//! The dense column pays what the pre-sparse pipeline paid on a fresh
//! horizon: one backend build per window up front, one backend decode
//! per window while streaming. The sparse column builds a handful of
//! structurally distinct backends on demand and, at low lane counts,
//! skips the mostly-clean windows outright — the ≥10× rounds/sec gap
//! that makes 10⁵-round availability sweeps tractable.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::DefectMap;
use surf_lattice::{Basis, Patch};
use surf_matching::{WindowConfig, WindowedDecoder};
use surf_sim::{
    DecoderKind, DecoderPrior, DetectorModel, NoiseParams, QubitNoise, RoundStream,
    SparseRoundStream,
};

const D: usize = 5;
/// Long enough that the eager path's quadratic construction cost (every
/// window build scans the full O(rounds) graph) dominates — the regime
/// the 10⁵-round availability sweeps live in.
const ROUNDS: u32 = 2048;

fn decoding_model(rounds: u32) -> DetectorModel {
    let patch = Patch::rotated(D);
    let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
    DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
}

fn build(model: &DetectorModel, sparse: bool) -> WindowedDecoder {
    let construct = if sparse {
        WindowedDecoder::sparse
    } else {
        WindowedDecoder::new
    };
    construct(
        model.graph.clone(),
        model.detector_rounds.clone(),
        WindowConfig::new(2 * D as u32),
        DecoderKind::Mwpm.factory(),
    )
}

/// Streams the whole horizon once: build the decoder, feed every round,
/// finish. Dense eagerly compiles ~`ROUNDS / d` MWPM backends and runs
/// each window through one; sparse compiles the few structurally
/// distinct windows and fast-forwards clean ones.
fn bench_rounds_per_sec(c: &mut Criterion) {
    let model = decoding_model(ROUNDS);
    let mut group = c.benchmark_group("sparse_streaming_rounds_per_sec");
    group.sample_size(10);
    for lanes in [1usize, 64] {
        group.bench_with_input(BenchmarkId::new("dense", lanes), &lanes, |b, &lanes| {
            let mut stream = RoundStream::new(&model);
            let mut rng = StdRng::seed_from_u64(31);
            b.iter(|| {
                let decoder = std::sync::Arc::new(build(&model, false));
                stream.begin(&mut rng, lanes);
                let mut session = decoder.into_session(lanes);
                while let Some(slice) = stream.next_round() {
                    session.push_round(slice.round, slice.detectors, slice.words);
                }
                std::hint::black_box(session.finish());
            });
        });
        group.bench_with_input(BenchmarkId::new("sparse", lanes), &lanes, |b, &lanes| {
            let mut events = SparseRoundStream::new(&model);
            let mut rng = StdRng::seed_from_u64(31);
            b.iter(|| {
                let decoder = std::sync::Arc::new(build(&model, true));
                events.begin(&mut rng, lanes);
                let total = events.total_rounds();
                let mut session = decoder.into_session(lanes);
                let mut filled = 0u32;
                while let Some(event) = events.next_event() {
                    if event.round > filled {
                        session.advance_silent(event.round - filled);
                    }
                    session.push_round(event.round, event.detectors, event.words);
                    filled = event.round + 1;
                }
                if filled < total {
                    session.advance_silent(total - filled);
                }
                std::hint::black_box(session.finish());
            });
        });
    }
    group.finish();
}

/// Worst-case wall-clock of the single push that completes (and decodes)
/// one window — the real-time latency bound — through a pre-built
/// decoder, dense vs sparse. Sparse must never regress the bound: a
/// dirty window decodes through the same backend; a clean one commits
/// in O(1).
fn bench_worst_commit_latency(c: &mut Criterion) {
    let rounds = 200u32;
    let model = decoding_model(rounds);
    let mut group = c.benchmark_group("sparse_commit_latency");
    for sparse in [false, true] {
        let decoder = build(&model, sparse);
        let label = if sparse { "sparse" } else { "dense" };
        let mut stream = RoundStream::new(&model);
        let mut rng = StdRng::seed_from_u64(17);
        group.bench_with_input(BenchmarkId::new("worst_commit", label), &(), |b, _| {
            b.iter(|| {
                stream.begin(&mut rng, 64);
                let mut session = decoder.session(64);
                let mut worst = Duration::ZERO;
                while let Some(slice) = stream.next_round() {
                    let before = session.windows_committed();
                    let t0 = Instant::now();
                    session.push_round(slice.round, slice.detectors, slice.words);
                    let dt = t0.elapsed();
                    if session.windows_committed() > before && dt > worst {
                        worst = dt;
                    }
                }
                std::hint::black_box(session.finish());
                std::hint::black_box(worst)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rounds_per_sec, bench_worst_commit_latency);
criterion_main!(benches);
