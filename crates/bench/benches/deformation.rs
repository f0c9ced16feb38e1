//! Criterion micro-benchmarks for the deformation instructions and the
//! code deformation unit (the paper claims deformations fit in one QEC
//! cycle — the classical planning cost here is the relevant budget).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::{
    sample_uniform_defects, CosmicRayModel, DefectDetector, DefectEvent, DefectMap, DefectSchedule,
};
use surf_deformer_core::{data_q_rm, syndrome_q_rm, Deformer, EnlargeBudget, PatchTimeline};
use surf_lattice::{Coord, Patch};

fn bench_instructions(c: &mut Criterion) {
    let mut group = c.benchmark_group("instructions");
    for d in [9usize, 15, 21] {
        group.bench_with_input(BenchmarkId::new("data_q_rm", d), &d, |b, &d| {
            b.iter_batched(
                || Patch::rotated(d),
                |mut p| {
                    data_q_rm(&mut p, Coord::new(d as i32, d as i32)).unwrap();
                    p
                },
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("syndrome_q_rm", d), &d, |b, &d| {
            b.iter_batched(
                || Patch::rotated(d),
                |mut p| {
                    syndrome_q_rm(&mut p, Coord::new(d as i32 - 1, d as i32 - 1)).unwrap();
                    p
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance");
    for d in [9usize, 15, 21, 27] {
        let patch = Patch::rotated(d);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| std::hint::black_box(patch.distance()));
        });
    }
    group.finish();
}

fn bench_full_mitigation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mitigate_cluster");
    group.sample_size(20);
    for d in [9usize, 15] {
        let base = Patch::rotated(d);
        let mut universe = base.data_qubits();
        universe.extend(base.syndrome_qubits());
        let mut rng = StdRng::seed_from_u64(4);
        let defects = sample_uniform_defects(&universe, 10, 0.5, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter_batched(
                || Deformer::with_budget(base.clone(), EnlargeBudget::uniform(4)),
                |mut deformer| deformer.mitigate(&defects).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_mitigate_latency(c: &mut Criterion) {
    // The reaction-time input of the streamed Fig. 14b ablation: once the
    // defect detector fires, `Deformer::mitigate` is the classical
    // planning latency between detection and the in-stream deformation —
    // its wall-clock time (divided by the QEC cycle time, ~1 µs) is the
    // `reaction_rounds` a real control system would pay in
    // `PatchTimeline::adaptive`.
    let mut group = c.benchmark_group("mitigate_latency");
    group.sample_size(20);
    let ray = CosmicRayModel::paper();
    for d in [5usize, 9, 13] {
        let base = Patch::rotated(d);
        let mut universe = base.data_qubits();
        universe.extend(base.syndrome_qubits());
        let center = Coord::new(d as i32, d as i32);
        let event = DefectEvent::from_cosmic_ray(&ray, center, 0, &universe);
        group.bench_with_input(BenchmarkId::new("cosmic_ray", d), &event, |b, event| {
            b.iter_batched(
                || Deformer::with_budget(base.clone(), EnlargeBudget::uniform(4)),
                |mut deformer| deformer.mitigate(&event.defects).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The fig14b strike scenario at distance `d` over `rounds` rounds:
/// radius-1 bursts at 50 %, 40-round healing, about four strikes per
/// horizon; the first draw (seed `0x14BB ^ attempt`) with three timely
/// strikes.
fn fig14b_schedule(d: usize, rounds: u32) -> DefectSchedule {
    let patch = Patch::rotated(d);
    let mut universe = patch.data_qubits();
    universe.extend(patch.syndrome_qubits());
    let model = CosmicRayModel {
        event_rate_per_qubit_round: 4.0 / (universe.len() as f64 * f64::from(rounds)),
        duration_rounds: 40,
        region_radius: 1,
        defect_error_rate: 0.5,
    };
    (0..512u64)
        .map(|attempt| {
            let mut rng = StdRng::seed_from_u64(0x14BB ^ attempt);
            DefectSchedule::sample_cosmic_rays(&model, &universe, rounds, &mut rng)
        })
        .find(|schedule| {
            let timely = schedule
                .episodes()
                .iter()
                .filter(|e| e.start > 0 && e.start + 20 < rounds)
                .count();
            schedule.len() >= 3 && timely >= 3
        })
        .expect("no qualifying strike schedule in 512 draws")
}

fn bench_adaptive_schedule(c: &mut Criterion) {
    // The whole per-event planning loop of the streamed Fig. 14b scenario
    // (one detection pass and one `Deformer::replan` per strike and per
    // recovery; imprecise detector, reaction 2, budget 2): the set-up
    // cost `perfbench`'s `reaction_dense` pays before decoding.
    let mut group = c.benchmark_group("adaptive_schedule");
    group.sample_size(10);
    let rounds = 120;
    for d in [5usize, 9, 13] {
        let schedule = fig14b_schedule(d, rounds);
        group.bench_with_input(BenchmarkId::from_parameter(d), &schedule, |b, schedule| {
            b.iter(|| {
                PatchTimeline::adaptive_schedule(
                    Patch::rotated(d),
                    DefectMap::new(),
                    EnlargeBudget::uniform(2),
                    schedule,
                    &DefectDetector::paper_imprecise(),
                    2,
                    rounds,
                    &mut StdRng::seed_from_u64(0x14BB),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_instructions,
    bench_distance,
    bench_full_mitigation,
    bench_mitigate_latency,
    bench_adaptive_schedule
);
criterion_main!(benches);
