//! The batch sampler against the scalar oracle.
//!
//! `DetectorModel::sample` (one `f64` draw per channel per shot) is the
//! reference implementation; the 64-lane batch paths must match it exactly
//! at `p = 0` and in aggregate statistics elsewhere. The same discipline
//! applies to the circuit-level Pauli-frame pair
//! `sample_shot` / `sample_batch`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::DefectMap;
use surf_lattice::{Basis, Patch};
use surf_matching::Decoder;
use surf_sim::{
    memory_circuit, sample_batch, sample_shot, DecoderPrior, DetectorModel, MemoryExperiment,
    NoiseParams, QubitNoise,
};

fn model(d: usize, rounds: u32, noise: NoiseParams) -> DetectorModel {
    let patch = Patch::rotated(d);
    let qn = QubitNoise::new(noise, DefectMap::new());
    DetectorModel::build(&patch, Basis::Z, rounds, &qn, DecoderPrior::Informed)
}

/// Mean detector flips and observable-flip rate of `shots` scalar samples.
fn scalar_stats(m: &DetectorModel, shots: u64, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flips = 0u64;
    let mut obs = 0u64;
    for _ in 0..shots {
        let (syndrome, o) = m.sample(&mut rng);
        flips += syndrome.len() as u64;
        obs += u64::from(o);
    }
    (flips as f64 / shots as f64, obs as f64 / shots as f64)
}

/// The same statistics from the batch sampler.
fn batch_stats(m: &DetectorModel, shots: u64, seed: u64) -> (f64, f64) {
    assert_eq!(shots % 64, 0);
    let sampler = m.batch_sampler();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = surf_sim::BitBatch::zeros(m.num_detectors);
    let mut flips = 0u64;
    let mut obs = 0u64;
    for _ in 0..shots / 64 {
        let obs_word = sampler.sample_into(&mut rng, &mut batch);
        flips += batch.count_ones() as u64;
        obs += obs_word.count_ones() as u64;
    }
    (flips as f64 / shots as f64, obs as f64 / shots as f64)
}

#[test]
fn noiseless_batch_is_exactly_silent() {
    let m = model(3, 3, NoiseParams::uniform(0.0));
    let sampler = m.batch_sampler();
    let mut rng = StdRng::seed_from_u64(1);
    let mut batch = surf_sim::BitBatch::zeros(m.num_detectors);
    for _ in 0..64 {
        let obs = sampler.sample_into(&mut rng, &mut batch);
        assert_eq!(obs, 0);
        assert_eq!(batch.count_ones(), 0);
    }
    // Circuit-level frame batch: exactly silent as well.
    let mc = memory_circuit(&Patch::rotated(3), Basis::Z, 4, 0.0);
    let (det, obs) = sample_batch(&mc, &mut rng);
    assert_eq!(det.count_ones(), 0);
    assert_eq!(obs, 0);
}

#[test]
fn batch_matches_scalar_oracle_at_paper_noise() {
    let m = model(5, 5, NoiseParams::paper());
    let shots = 64 * 400;
    let (s_flips, s_obs) = scalar_stats(&m, shots, 11);
    let (b_flips, b_obs) = batch_stats(&m, shots, 12);
    // ~0.4 flips/shot over 25.6k shots: 3σ ≈ 4 % relative; allow 12 %.
    assert!(
        (s_flips - b_flips).abs() < 0.12 * s_flips.max(0.05),
        "mean flips diverge: scalar {s_flips}, batch {b_flips}"
    );
    // Observable flips are rare; compare with an absolute band.
    assert!(
        (s_obs - b_obs).abs() < 0.02,
        "obs rate diverges: scalar {s_obs}, batch {b_obs}"
    );
}

#[test]
fn batch_matches_scalar_oracle_above_mask_threshold() {
    // p = 0.3 exercises the per-word Bernoulli-mask path.
    let m = model(3, 3, NoiseParams::uniform(0.3));
    let shots = 64 * 200;
    let (s_flips, s_obs) = scalar_stats(&m, shots, 21);
    let (b_flips, b_obs) = batch_stats(&m, shots, 22);
    assert!(
        (s_flips - b_flips).abs() < 0.05 * s_flips,
        "mean flips diverge: scalar {s_flips}, batch {b_flips}"
    );
    assert!(
        (s_obs - b_obs).abs() < 0.05,
        "obs rate diverges: scalar {s_obs}, batch {b_obs}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The batch sampler tracks the scalar oracle's aggregate statistics
    /// across distances, round counts, and noise levels spanning both
    /// sampling strategies (geometric skipping and per-word masks).
    #[test]
    fn batch_sampler_tracks_scalar_oracle(
        d in prop_oneof![Just(3usize), Just(5usize)],
        rounds in 2u32..5,
        p in 0.002f64..0.25,
    ) {
        let m = model(d, rounds, NoiseParams::uniform(p));
        let shots = 64 * 150;
        let seed = p.to_bits() ^ (d as u64) << 3 ^ u64::from(rounds);
        let (s_flips, s_obs) = scalar_stats(&m, shots, seed);
        let (b_flips, b_obs) = batch_stats(&m, shots, seed ^ 0xABCD);
        // Wide statistical bands: 9.6k shots each side.
        prop_assert!(
            (s_flips - b_flips).abs() < 0.2 * s_flips.max(0.1),
            "mean flips diverge at d={}, r={}, p={}: scalar {}, batch {}",
            d, rounds, p, s_flips, b_flips
        );
        prop_assert!(
            (s_obs - b_obs).abs() < 0.1 * s_obs.max(0.3),
            "obs rate diverges at d={}, r={}, p={}: scalar {}, batch {}",
            d, rounds, p, s_obs, b_obs
        );
    }
}

#[test]
fn frame_batch_matches_scalar_frame_in_aggregate() {
    let patch = Patch::rotated(3);
    let mc = memory_circuit(&patch, Basis::Z, 3, 8e-3);
    let mut rng = StdRng::seed_from_u64(31);
    let shots = 64 * 120;
    let mut s_flips = 0u64;
    for _ in 0..shots {
        let (det, _) = sample_shot(&mc, &mut rng);
        s_flips += det.len() as u64;
    }
    let mut b_flips = 0u64;
    for _ in 0..shots / 64 {
        let (det, _) = sample_batch(&mc, &mut rng);
        b_flips += det.count_ones() as u64;
    }
    let s = s_flips as f64 / shots as f64;
    let b = b_flips as f64 / shots as f64;
    assert!(
        (s - b).abs() < 0.15 * s,
        "frame batch diverges: scalar {s}, batch {b}"
    );
}

#[test]
fn pipeline_matches_scalar_reference() {
    // End-to-end: the batched, streamed `run` must reproduce the failure
    // rate of a hand-rolled scalar sample → per-shot decode loop.
    let mut exp = MemoryExperiment::standard(Patch::rotated(3));
    exp.noise = NoiseParams::uniform(0.01);
    exp.rounds = 3;
    let shots = 3000u64;
    let stats = exp.run(shots, 77);
    // Scalar reference for the Z basis.
    let qn = QubitNoise::new(exp.noise, DefectMap::new());
    let m = DetectorModel::build(&exp.patch, Basis::Z, exp.rounds, &qn, exp.prior);
    let decoder = exp.decoder.build(m.graph.clone());
    let mut rng = StdRng::seed_from_u64(78);
    let mut fails = 0u64;
    for _ in 0..shots {
        let (syndrome, true_obs) = m.sample(&mut rng);
        if (decoder.decode(&syndrome) & 1 == 1) != true_obs {
            fails += 1;
        }
    }
    let reference = fails as f64 / shots as f64;
    let batched = stats.p_fail_z();
    assert!(
        (batched - reference).abs() < 0.02,
        "batched pipeline {batched} vs scalar reference {reference}"
    );
}
