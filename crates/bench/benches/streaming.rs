//! Criterion micro-benchmarks for the streaming decode subsystem:
//! round-major sampling + windowed decoding against the full-batch path,
//! and the per-window commit latency as a function of window size (the
//! metric a real-time decoder must keep below the round cadence), down to
//! the steady-state commit of an unbounded-horizon (periodic) session.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::DefectMap;
use surf_deformer_core::PatchTimeline;
use surf_lattice::{Basis, Patch};
use surf_matching::{Decoder, WindowConfig, WindowedDecoder};
use surf_sim::{
    BitBatch, DecoderKind, DecoderPrior, DetectorModel, NoiseParams, QubitNoise, RoundStream,
    SessionConfig,
};

fn decoding_model(d: usize, rounds: u32) -> DetectorModel {
    let patch = Patch::rotated(d);
    let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
    DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
}

fn windowed(model: &DetectorModel, window: u32) -> WindowedDecoder {
    WindowedDecoder::new(
        model.graph.clone(),
        model.detector_rounds.clone(),
        1,
        WindowConfig::new(window),
        DecoderKind::Mwpm.factory(),
    )
}

/// Full-batch decode vs streamed (round-major feed + windowed decode) on
/// the same pre-sampled 64-shot batches.
fn bench_streamed_vs_batch_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_throughput_64_shots");
    for d in [3usize, 5] {
        let rounds = 2 * d as u32;
        let model = decoding_model(d, rounds);
        let sampler = model.batch_sampler();
        let mut rng = StdRng::seed_from_u64(5);
        let batches: Vec<BitBatch> = (0..8)
            .map(|_| {
                let mut b = BitBatch::zeros(model.num_detectors);
                sampler.sample_into(&mut rng, &mut b);
                b
            })
            .collect();
        let full = DecoderKind::Mwpm.build(model.graph.clone());
        let mut predictions = Vec::new();
        group.bench_with_input(BenchmarkId::new("full_batch", d), &d, |b, _| {
            b.iter(|| {
                for batch in &batches {
                    full.decode_batch(batch, &mut predictions);
                    std::hint::black_box(&predictions);
                }
            });
        });
        for window in [2 * d as u32, rounds + 1] {
            let streamer = windowed(&model, window);
            let label = if window > rounds {
                "window_full"
            } else {
                "window_2d"
            };
            group.bench_with_input(BenchmarkId::new(label, d), &d, |b, _| {
                b.iter(|| {
                    for batch in &batches {
                        streamer.decode_batch(batch, &mut predictions);
                        std::hint::black_box(&predictions);
                    }
                });
            });
        }
        // End-to-end streamed pipeline: sample round-major and feed the
        // session as rounds "arrive".
        let streamer = windowed(&model, 2 * d as u32);
        let mut stream = RoundStream::new(&model);
        let mut stream_rng = StdRng::seed_from_u64(6);
        group.bench_with_input(BenchmarkId::new("sample_and_stream", d), &d, |b, _| {
            b.iter(|| {
                stream.begin(&mut stream_rng, 64);
                let mut session = streamer.session(64);
                while let Some(slice) = stream.next_round() {
                    session.push_round(slice.round, slice.detectors, slice.words);
                }
                std::hint::black_box(session.finish());
            });
        });
    }
    group.finish();
}

/// Commit latency: the wall-clock cost of the single `push_round` that
/// completes (and therefore decodes) one window, per window size. This is
/// the latency bound a hardware syndrome link sees between delivering a
/// round and learning the committed correction of the oldest rounds.
fn bench_commit_latency(c: &mut Criterion) {
    let d = 5usize;
    let rounds = 20u32;
    let model = decoding_model(d, rounds);
    let mut group = c.benchmark_group("commit_latency_per_window");
    for window in [2u32, 6, 10, 21] {
        let streamer = windowed(&model, window);
        let mut stream = RoundStream::new(&model);
        let mut rng = StdRng::seed_from_u64(9);
        group.bench_with_input(BenchmarkId::new("commit", window), &window, |b, _| {
            b.iter(|| {
                stream.begin(&mut rng, 64);
                let mut session = streamer.session(64);
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
    // The steady state of an unbounded horizon: the 64-lane push that
    // completes a mid-horizon window of a 10⁴-round periodic (virtual)
    // session — the push a long availability run repeats thousands of
    // times. Setup (fork, silent advance, the window's first rounds) is
    // untimed; only the committing push is measured.
    let window = 2 * d as u32;
    let proto = SessionConfig::new(
        PatchTimeline::fixed(Patch::rotated(d), DefectMap::new()),
        Basis::Z,
        10_000,
    )
    .with_window(WindowConfig::new(window))
    .with_sparse(true)
    .open(64);
    let end = 5_000u32;
    let mut stream = proto.round_stream();
    stream.begin(&mut StdRng::seed_from_u64(11), 64);
    let mut rounds: Vec<Vec<u64>> = Vec::new();
    while let Some(slice) = stream.next_round() {
        if slice.round >= end - window {
            rounds.push(slice.words.to_vec());
        }
        if slice.round + 1 == end {
            break;
        }
    }
    let (lead, last) = rounds.split_at(rounds.len() - 1);
    group.bench_function(BenchmarkId::new("virtual_steady_push", d), |b| {
        b.iter_batched(
            || {
                let mut session = proto.fork(64);
                session.advance_silent(end - window).unwrap();
                for words in lead {
                    session.push_round(words).unwrap();
                }
                session
            },
            |mut session| {
                let out = session.push_round(&last[0]).unwrap();
                assert_eq!(out.committed_through, end - window / 2);
                out
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_streamed_vs_batch_throughput,
    bench_commit_latency
);
criterion_main!(benches);
