//! Criterion micro-benchmarks for the session decode arena: the
//! steady-state per-window commit latency of both backends once the
//! session's `DecodeWorkspace` has grown to its high-water mark.
//!
//! `streaming.rs` tracks the worst commit over a whole session including
//! the first window — which pays the arena's one-time growth. This bench
//! isolates the steady state the arena is designed for (every buffer
//! reused, zero heap traffic per window, proven by the `zero_alloc`
//! integration test in `surf-matching`) by discarding the first commit of
//! each session and reporting the worst of the rest.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::DefectMap;
use surf_lattice::{Basis, Patch};
use surf_matching::{WindowConfig, WindowedDecoder};
use surf_sim::{DecoderKind, DecoderPrior, DetectorModel, NoiseParams, QubitNoise, RoundStream};

fn decoding_model(d: usize, rounds: u32) -> DetectorModel {
    let patch = Patch::rotated(d);
    let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
    DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
}

/// Worst steady-state commit push per backend: sample a 64-lane stream,
/// feed it round by round, and track the slowest window-committing
/// `push_round` after the first commit has warmed the session arena.
fn bench_steady_state_commit_latency(c: &mut Criterion) {
    let d = 5usize;
    let rounds = 20u32;
    let model = decoding_model(d, rounds);
    let mut group = c.benchmark_group("workspace_commit_latency");
    for kind in [DecoderKind::Mwpm, DecoderKind::UnionFind] {
        let label = match kind {
            DecoderKind::Mwpm => "mwpm",
            DecoderKind::UnionFind => "union_find",
        };
        let streamer = Arc::new(WindowedDecoder::new(
            model.graph.clone(),
            model.detector_rounds.clone(),
            WindowConfig::new(2 * d as u32),
            kind.factory(),
        ));
        let mut stream = RoundStream::new(&model);
        let mut rng = StdRng::seed_from_u64(17);
        group.bench_with_input(BenchmarkId::new("steady_commit", label), &label, |b, _| {
            b.iter(|| {
                stream.begin(&mut rng, 64);
                let mut session = Arc::clone(&streamer).into_session(64);
                let mut commits = 0u32;
                let mut worst = Duration::ZERO;
                while let Some(slice) = stream.next_round() {
                    let before = session.windows_committed();
                    let t0 = Instant::now();
                    session.push_round(slice.round, slice.detectors, slice.words);
                    let dt = t0.elapsed();
                    if session.windows_committed() > before {
                        commits += 1;
                        if commits > 1 && dt > worst {
                            worst = dt;
                        }
                    }
                }
                std::hint::black_box(session.finish());
                std::hint::black_box(worst)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_steady_state_commit_latency);
criterion_main!(benches);
