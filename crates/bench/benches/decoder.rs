//! Criterion micro-benchmarks for the matching decoders.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::DefectMap;
use surf_lattice::{Basis, Patch};
use surf_matching::{min_weight_perfect_matching, MwpmDecoder, UnionFindDecoder};
use surf_sim::{DecoderPrior, DetectorModel, NoiseParams, QubitNoise};

fn decoding_model(d: usize) -> DetectorModel {
    let patch = Patch::rotated(d);
    let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
    DetectorModel::build(&patch, Basis::Z, d as u32, &noise, DecoderPrior::Informed)
}

fn bench_mwpm_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("mwpm_decode");
    for d in [5usize, 9, 13] {
        let model = decoding_model(d);
        let decoder = MwpmDecoder::new(model.graph.clone());
        let mut rng = StdRng::seed_from_u64(1);
        // Pre-sample syndromes so the benchmark measures decoding only.
        let syndromes: Vec<Vec<usize>> = (0..64).map(|_| model.sample(&mut rng).0).collect();
        // One pass fills the pair-table rows these syndromes use, so the
        // timed decodes read a warm table (`mwpm_decode_cold` times the
        // fills).
        for s in &syndromes {
            decoder.decode(s);
        }
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let s = &syndromes[i % syndromes.len()];
                i += 1;
                std::hint::black_box(decoder.decode(s))
            });
        });
    }
    group.finish();
}

/// Every batch gets a fresh decoder and decodes `mwpm_decode`'s 64
/// syndromes once, pair-table fills included.
fn bench_mwpm_decode_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("mwpm_decode_cold");
    for d in [5usize, 9, 13] {
        let model = decoding_model(d);
        let mut rng = StdRng::seed_from_u64(1);
        let syndromes: Vec<Vec<usize>> = (0..64).map(|_| model.sample(&mut rng).0).collect();
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter_batched(
                || MwpmDecoder::new(model.graph.clone()),
                |decoder| {
                    for s in &syndromes {
                        std::hint::black_box(decoder.decode(s));
                    }
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_union_find_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_find_decode");
    for d in [5usize, 9, 13] {
        let model = decoding_model(d);
        let decoder = UnionFindDecoder::new(model.graph.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let syndromes: Vec<Vec<usize>> = (0..64).map(|_| model.sample(&mut rng).0).collect();
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let s = &syndromes[i % syndromes.len()];
                i += 1;
                std::hint::black_box(decoder.decode(s))
            });
        });
    }
    group.finish();
}

fn bench_blossom_complete_graph(c: &mut Criterion) {
    use rand::Rng;
    let mut group = c.benchmark_group("blossom_complete");
    for n in [8usize, 16, 32] {
        let mut rng = StdRng::seed_from_u64(3);
        let edges: Vec<(usize, usize, i64)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, rng.gen_range(1..1000)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(min_weight_perfect_matching(n, &edges)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mwpm_decode,
    bench_mwpm_decode_cold,
    bench_union_find_decode,
    bench_blossom_complete_graph
);
criterion_main!(benches);
