//! Criterion micro-benchmarks for the bit-packed batch samplers: the
//! 64-lane detector-model and Pauli-frame samplers against their
//! per-shot counterparts (the acceptance target is the batch sampler
//! beating the scalar path by ≥ 5× at d = 5, r = 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::DefectMap;
use surf_lattice::{Basis, Patch};
use surf_pauli::BitBatch;
use surf_sim::{
    memory_circuit, sample_batch, sample_shot, DecoderPrior, DetectorModel, NoiseParams, QubitNoise,
};

fn decoding_model(d: usize, rounds: u32) -> DetectorModel {
    let patch = Patch::rotated(d);
    let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
    DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
}

/// 64 scalar `sample` calls vs one `sample_into` batch (equal shot counts).
fn bench_batch_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_sampling_64_shots");
    for d in [5usize, 9, 13] {
        let model = decoding_model(d, d as u32);
        let sampler = model.batch_sampler();
        let mut scalar_rng = StdRng::seed_from_u64(1);
        group.bench_with_input(BenchmarkId::new("scalar", d), &d, |b, _| {
            b.iter(|| {
                for _ in 0..64 {
                    std::hint::black_box(model.sample(&mut scalar_rng));
                }
            });
        });
        let mut batch_rng = StdRng::seed_from_u64(2);
        let mut batch = BitBatch::zeros(model.num_detectors);
        group.bench_with_input(BenchmarkId::new("batch", d), &d, |b, _| {
            b.iter(|| std::hint::black_box(sampler.sample_into(&mut batch_rng, &mut batch)));
        });
    }
    group.finish();
}

/// Circuit-level Pauli-frame sampling: 64 scalar shots vs one batch.
fn bench_frame_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_sampling_64_shots");
    for d in [3usize, 5] {
        let patch = Patch::rotated(d);
        let mc = memory_circuit(&patch, Basis::Z, d as u32, 1e-3);
        let mut scalar_rng = StdRng::seed_from_u64(4);
        group.bench_with_input(BenchmarkId::new("scalar", d), &d, |b, _| {
            b.iter(|| {
                for _ in 0..64 {
                    std::hint::black_box(sample_shot(&mc, &mut scalar_rng));
                }
            });
        });
        let mut batch_rng = StdRng::seed_from_u64(5);
        group.bench_with_input(BenchmarkId::new("batch", d), &d, |b, _| {
            b.iter(|| std::hint::black_box(sample_batch(&mc, &mut batch_rng)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_sampling, bench_frame_batch);
criterion_main!(benches);
