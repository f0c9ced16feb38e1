//! A whole-history Monte-Carlo oracle for the streamed runners.
//!
//! `MemoryExperiment::run_basis` is the streamed pipeline with one
//! full-history window, so a test that checks it (or a sharded or
//! multi-threaded run) needs a reference that never touches a session.
//! This one is single-threaded and decodes each shot's whole syndrome
//! with the backend's scalar `decode`, seeding batch `i` exactly as the
//! runners do.

use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_lattice::Basis;
use surf_sim::{BitBatch, DetectorModel, MemoryExperiment, QubitNoise};

/// The `i`-th output of the SplitMix64 stream seeded at `seed`: the RNG
/// seed of global batch `i` in every Monte-Carlo runner.
fn splitmix64_stream(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Failures of `exp`'s `memory_basis` memory over `shots` shots from
/// `seed`: per 64-shot batch, the model's batch sampler draws a history
/// from the batch's SplitMix64 seed, and each lane's whole syndrome is
/// decoded on its own by the experiment's backend.
pub fn whole_history_failures(
    exp: &MemoryExperiment,
    memory_basis: Basis,
    shots: u64,
    seed: u64,
) -> u64 {
    let noise = QubitNoise::new(exp.noise, exp.kept_defects.clone());
    let model = DetectorModel::build(&exp.patch, memory_basis, exp.rounds, &noise, exp.prior);
    let decoder = exp.decoder.build(model.graph.clone());
    let sampler = model.batch_sampler();
    let lanes_per_batch = BitBatch::LANES as u64;
    let mut failures = 0;
    for index in 0..shots.div_ceil(lanes_per_batch) {
        let lanes = (shots - index * lanes_per_batch).min(lanes_per_batch) as usize;
        let mut batch = BitBatch::with_lanes(model.num_detectors, lanes);
        let mut rng = StdRng::seed_from_u64(splitmix64_stream(seed, index));
        let true_observables = sampler.sample_into(&mut rng, &mut batch);
        for lane in 0..lanes {
            let syndrome: Vec<usize> = batch.extract_lane(lane).iter_ones().collect();
            let predicted = decoder.decode(&syndrome) & 1;
            failures += predicted ^ (true_observables >> lane & 1);
        }
    }
    failures
}
