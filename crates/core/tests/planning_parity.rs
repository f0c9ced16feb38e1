//! Deformation-planning parity.
//!
//! The planning kernels — gauge-group normalisation, the code-distance
//! search and `groups_on_data` — run over a dense qubit index. Their
//! all-pairs / hash-map predecessors are kept as `*_reference` oracles, and
//! this suite holds the two to the same output on every patch the
//! instruction set and the deformer produce: group ids and member order,
//! gauge-only flags, the next group id, both distances and the returned
//! shortest logicals.
//!
//! The golden test pins digests of whole adaptive timelines for the fig14b
//! strike scenario (seed `0x14BB`), computed before the kernels were
//! indexed, so a change to any plan — not only to the kernels — shows.

use std::fmt::Write;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::{CosmicRayModel, DefectDetector, DefectMap, DefectSchedule};
use surf_deformer_core::{
    data_q_rm, patch_q_rm, syndrome_q_rm, Deformer, EnlargeBudget, PatchTimeline,
};
use surf_lattice::{Basis, Coord, Patch};

/// Asserts that every indexed kernel agrees with its reference on `patch`.
fn assert_kernels_match_reference(patch: &Patch, context: &str) {
    for q in patch.data_qubits() {
        for basis in [Basis::X, Basis::Z] {
            assert_eq!(
                patch.groups_on_data(q, basis),
                patch.groups_on_data_reference(q, basis),
                "{context}: groups_on_data({q}, {basis:?})"
            );
        }
    }
    let reference_x = patch.shortest_chain_reference(Basis::Z, patch.logical_z());
    let reference_z = patch.shortest_chain_reference(Basis::X, patch.logical_x());
    assert_eq!(
        patch.shortest_logical_x(),
        reference_x,
        "{context}: logical X"
    );
    assert_eq!(
        patch.shortest_logical_z(),
        reference_z,
        "{context}: logical Z"
    );
    assert_eq!(
        patch.try_distance_x(),
        reference_x.map(|c| c.len()),
        "{context}: dx"
    );
    assert_eq!(
        patch.try_distance_z(),
        reference_z.map(|c| c.len()),
        "{context}: dz"
    );
    let (mut indexed, mut reference) = (patch.clone(), patch.clone());
    indexed.normalize_groups();
    reference.normalize_groups_reference();
    assert_eq!(
        format!("{indexed:?}"),
        format!("{reference:?}"),
        "{context}: normalize_groups"
    );
}

/// Checks `patch`, then a raw, not yet normalised edit of it: a duplicate
/// of one check plus the removal of one data qubit (off both logicals),
/// which leaves stale groups and anti-commuting checks behind.
fn assert_parity_with_raw_edit(patch: &Patch, pick: u32, context: &str) {
    assert_kernels_match_reference(patch, context);
    let mut raw = patch.clone();
    let checks: Vec<_> = raw.checks().map(|(_, c)| c.clone()).collect();
    if !checks.is_empty() {
        let dup = &checks[pick as usize % checks.len()];
        raw.add_check(dup.basis, dup.support.clone(), None, None);
    }
    let free: Vec<Coord> = raw
        .data_qubits()
        .into_iter()
        .filter(|q| !raw.logical_x().contains(q) && !raw.logical_z().contains(q))
        .collect();
    if !free.is_empty() {
        raw.remove_data(free[(pick as usize / 7) % free.len()]);
    }
    assert_kernels_match_reference(&raw, &format!("{context} + raw edit"));
}

/// Every qubit an enlarged deformer over a `d × d` patch may occupy.
fn device_universe(d: usize, budget: usize) -> Vec<Coord> {
    let b = budget as i32;
    let region = Patch::rectangle_at(-b, -b, d + 2 * budget, d + 2 * budget);
    let mut universe = region.data_qubits();
    universe.extend(region.syndrome_qubits());
    universe
}

/// One to three defects drawn from `universe` by the bits of `pick`.
fn defects_from(universe: &[Coord], pick: u32) -> DefectMap {
    let count = 1 + pick as usize % 3;
    let qubits = (0..count).map(|k| {
        let bits = (pick >> (2 + 9 * k)) as usize;
        universe[bits % universe.len()]
    });
    DefectMap::from_qubits(qubits, 0.5)
}

/// Distances the random walks run at: the deformer's d = 9 plans are
/// too slow for the reference oracles in an unoptimised build.
fn distances() -> Vec<usize> {
    if cfg!(debug_assertions) {
        vec![3, 5, 7]
    } else {
        vec![3, 5, 7, 9]
    }
}

fn cases() -> u32 {
    if cfg!(debug_assertions) {
        32
    } else {
        128
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random removal-instruction sequences on a rotated patch, checked
    /// after every step.
    #[test]
    fn instruction_sequences_plan_like_the_reference(
        d_pick in 0usize..4,
        ops in prop::collection::vec((0u8..4, any::<u32>()), 1..7),
    ) {
        let ds = distances();
        let d = ds[d_pick % ds.len()];
        let mut patch = Patch::rotated(d);
        assert_parity_with_raw_edit(&patch, 0, &format!("d={d} fresh"));
        for (step, &(kind, pick)) in ops.iter().enumerate() {
            let data = patch.data_qubits();
            let syndrome = patch.syndrome_qubits();
            if data.is_empty() || syndrome.is_empty() {
                break;
            }
            let any_qubit = if pick % 2 == 0 { &data } else { &syndrome };
            let target = |qubits: &[Coord]| qubits[(pick as usize / 2) % qubits.len()];
            // Failed instructions (severed logicals) are part of the walk.
            let _ = match kind {
                0 => data_q_rm(&mut patch, target(&data)).map(drop),
                1 => syndrome_q_rm(&mut patch, target(&syndrome)).map(drop),
                2 => patch_q_rm(&mut patch, target(any_qubit), Some(Basis::X)).map(drop),
                _ => patch_q_rm(&mut patch, target(any_qubit), Some(Basis::Z)).map(drop),
            };
            assert_parity_with_raw_edit(&patch, pick, &format!("d={d} step {step} op {kind}"));
        }
    }

    /// `Deformer::mitigate` / `replan` with enlargement budgets 0–2,
    /// checked after every pass.
    #[test]
    fn deformer_passes_plan_like_the_reference(
        d_pick in 0usize..4,
        budget in 0usize..3,
        passes in prop::collection::vec((any::<bool>(), any::<u32>()), 1..4),
    ) {
        let ds = distances();
        let d = ds[d_pick % ds.len()];
        let universe = device_universe(d, budget);
        let mut deformer = Deformer::with_budget(Patch::rotated(d), EnlargeBudget::uniform(budget));
        for (step, &(replan, pick)) in passes.iter().enumerate() {
            let defects = defects_from(&universe, pick);
            let report = if replan {
                deformer.replan(&defects)
            } else {
                deformer.mitigate(&defects)
            }
            .expect("mitigation is infallible");
            let patch = deformer.patch();
            assert_eq!(report.distance, patch.distance(), "d={d} step {step}: reported distance");
            assert_parity_with_raw_edit(patch, pick, &format!("d={d} budget {budget} step {step}"));
        }
    }
}

/// FNV-1a: a digest that does not depend on the toolchain's hasher.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The fig14b scenario at distance `d`: the first Poisson strike schedule
/// (seed `0x14BB ^ attempt`) with at least three timely strikes, and its
/// adaptive timeline (imprecise detector, reaction 2, budget 2). Returns
/// the qualifying attempt and the digest of every epoch's patch, defects,
/// distances, group ids and shortest logicals, plus every pass report.
fn fig14b_timeline_digest(d: usize, rounds: u32) -> (u64, u64) {
    const SCENARIO_SEED: u64 = 0x14BB;
    let patch = Patch::rotated(d);
    let mut universe = patch.data_qubits();
    universe.extend(patch.syndrome_qubits());
    let model = CosmicRayModel {
        event_rate_per_qubit_round: 4.0 / (universe.len() as f64 * f64::from(rounds)),
        duration_rounds: 40,
        region_radius: 1,
        defect_error_rate: 0.5,
    };
    for attempt in 0..512u64 {
        let mut rng = StdRng::seed_from_u64(SCENARIO_SEED ^ attempt);
        let schedule = DefectSchedule::sample_cosmic_rays(&model, &universe, rounds, &mut rng);
        let timely = schedule
            .episodes()
            .iter()
            .filter(|e| e.start > 0 && u64::from(e.start) + 20 < u64::from(rounds))
            .count();
        if schedule.len() < 3 || timely < 3 {
            continue;
        }
        let (timeline, passes) = PatchTimeline::adaptive_schedule(
            Patch::rotated(d),
            DefectMap::new(),
            EnlargeBudget::uniform(2),
            &schedule,
            &DefectDetector::paper_imprecise(),
            2,
            rounds,
            &mut StdRng::seed_from_u64(SCENARIO_SEED),
        );
        let mut text = String::new();
        for epoch in timeline.epochs() {
            let p = &epoch.patch;
            writeln!(text, "epoch {} {:?}", epoch.start, epoch.defects).unwrap();
            writeln!(text, "{p:?}").unwrap();
            writeln!(text, "{:?} {:?}", p.try_distance_x(), p.try_distance_z()).unwrap();
            writeln!(text, "{:?}", p.group_ids()).unwrap();
            writeln!(
                text,
                "{:?} {:?}",
                p.shortest_logical_x(),
                p.shortest_logical_z()
            )
            .unwrap();
        }
        for pass in &passes {
            writeln!(text, "{} {} {:?}", pass.round, pass.changed, pass.report).unwrap();
        }
        return (attempt, fnv1a(&text));
    }
    panic!("no qualifying strike schedule in 512 draws");
}

#[test]
fn fig14b_timelines_match_pinned_digests() {
    // (d, rounds, qualifying attempt, digest), pinned from the all-pairs
    // kernels. Attempt 0 is also the draw `perfbench`'s d = 5 workloads
    // use.
    let pinned: &[(usize, u32, u64, u64)] = &[
        (5, 120, 0, 0x2ee5_11ca_99b0_b7d9),
        (5, 100_000, 0, 0x854f_24fc_fcd9_0f25),
        (9, 120, 0, 0x5f74_8d6e_98f8_fafd),
        (9, 100_000, 0, 0x2d5d_a011_8d95_0b2f),
    ];
    for &(d, rounds, attempt, digest) in pinned {
        assert_eq!(
            fig14b_timeline_digest(d, rounds),
            (attempt, digest),
            "d={d} rounds={rounds}"
        );
    }
}
