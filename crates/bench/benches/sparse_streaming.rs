//! Criterion micro-benchmarks for event-driven streaming: the
//! rounds-per-second of a long d=5 stream through a freshly built
//! windowed decoder, fed densely (every round pushed, read through
//! `RoundStream::next_round`) vs by events (only the rounds that fired,
//! read through `RoundStream::next_event`, silent gaps bridged by
//! `advance_silent`), plus the worst-case per-window commit latency of
//! the dense feed.
//!
//! Both feeds run the same decoder: plans resolve at construction with
//! one backend per structurally distinct window, and clean windows
//! fast-forward. The event feed additionally skips the per-round work of
//! silent rounds, which at low lane counts is nearly every round — the
//! gap that makes 10⁵-round availability sweeps tractable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::DefectMap;
use surf_lattice::{Basis, Patch};
use surf_matching::{WindowConfig, WindowedDecoder};
use surf_sim::{DecoderKind, DecoderPrior, DetectorModel, NoiseParams, QubitNoise, RoundStream};

const D: usize = 5;
/// A long horizon: construction is O(rounds), so the per-round feed cost
/// is what separates the two columns.
const ROUNDS: u32 = 2048;

fn decoding_model(rounds: u32) -> DetectorModel {
    let patch = Patch::rotated(D);
    let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
    DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
}

fn build(model: &DetectorModel) -> Arc<WindowedDecoder> {
    Arc::new(WindowedDecoder::new(
        model.graph.clone(),
        model.detector_rounds.clone(),
        WindowConfig::new(2 * D as u32),
        DecoderKind::Mwpm.factory(),
    ))
}

/// Streams the whole horizon once: build the decoder, feed it, finish.
/// `dense` pushes every round; `sparse` pushes only the rounds that
/// fired and advances over the silent ones.
fn bench_rounds_per_sec(c: &mut Criterion) {
    let model = decoding_model(ROUNDS);
    let mut group = c.benchmark_group("sparse_streaming_rounds_per_sec");
    group.sample_size(10);
    for lanes in [1usize, 64] {
        group.bench_with_input(BenchmarkId::new("dense", lanes), &lanes, |b, &lanes| {
            let mut stream = RoundStream::new(&model);
            let mut rng = StdRng::seed_from_u64(31);
            b.iter(|| {
                stream.begin(&mut rng, lanes);
                let mut session = build(&model).into_session(lanes);
                while let Some(slice) = stream.next_round() {
                    session.push_round(slice.round, slice.detectors, slice.words);
                }
                std::hint::black_box(session.finish());
            });
        });
        group.bench_with_input(BenchmarkId::new("sparse", lanes), &lanes, |b, &lanes| {
            let mut events = RoundStream::new(&model);
            let mut rng = StdRng::seed_from_u64(31);
            b.iter(|| {
                events.begin(&mut rng, lanes);
                let total = events.total_rounds();
                let mut session = build(&model).into_session(lanes);
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
/// decoder.
fn bench_worst_commit_latency(c: &mut Criterion) {
    let rounds = 200u32;
    let model = decoding_model(rounds);
    let mut group = c.benchmark_group("sparse_commit_latency");
    let decoder = build(&model);
    let mut stream = RoundStream::new(&model);
    let mut rng = StdRng::seed_from_u64(17);
    group.bench_with_input(BenchmarkId::new("worst_commit", "dense"), &(), |b, _| {
        b.iter(|| {
            stream.begin(&mut rng, 64);
            let mut session = Arc::clone(&decoder).into_session(64);
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
    group.finish();
}

criterion_group!(benches, bench_rounds_per_sec, bench_worst_commit_latency);
criterion_main!(benches);
