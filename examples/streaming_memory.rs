//! Real-time streaming decoding under a mid-stream cosmic-ray strike.
//!
//! A d=5 memory runs for 2·d rounds; at round 4 a cosmic ray elevates a
//! neighbourhood of qubits to ~50 % error rates. Syndromes are decoded
//! *while they stream* — a sliding window commits corrections for old
//! rounds as new rounds arrive — and the windows containing the strike
//! decode on a reweighted graph (the informed prior). The run compares
//! window sizes against a full-history decode and a defect-blind
//! decoder, and reports per-window commit latency.
//!
//! ```bash
//! cargo run --release --example streaming_memory -- [shots]
//! ```

use surf_deformer::prelude::*;
use surf_deformer::sim::DecoderKind;

fn main() {
    let shots: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    let d = 5usize;
    let rounds = 2 * d as u32;
    let patch = Patch::rotated(d);
    let mut universe = patch.data_qubits();
    universe.extend(patch.syndrome_qubits());

    // A cosmic ray lands at round 4, striking the patch centre.
    let ray = CosmicRayModel::paper();
    let center = Coord::new(d as i32, d as i32);
    let event = DefectEvent::from_cosmic_ray(&ray, center, 4, &universe);
    println!(
        "d={d}, {rounds} rounds, {shots} shots/basis; cosmic ray at round {} striking {} qubits\n",
        event.round,
        event.defects.len()
    );

    let seed = 0xD5EA;
    let mut exp = MemoryExperiment::standard(patch);
    exp.rounds = rounds;
    exp.decoder = DecoderKind::Mwpm;

    // Clean reference: no strike, one full-history window.
    let clean = exp.run_basis(Basis::Z, shots, seed);
    println!("no strike, full-history decode:    {clean:6} failures");

    // Struck, decoder blind to the event (nominal prior): the baseline a
    // non-adaptive system pays.
    exp.prior = DecoderPrior::Nominal;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let blind = exp.run_stream_basis(
        Basis::Z,
        &StreamConfig::new(shots, seed, rounds + 1)
            .with_event(&event)
            .with_threads(threads),
    );
    println!("strike, defect-blind decoder:      {blind:6} failures");

    // Struck, informed: every window containing rounds >= 4 decodes on
    // the reweighted (spliced) graph.
    exp.prior = DecoderPrior::Informed;
    println!("strike, informed streaming decoder by window size:");
    for window in [2, d as u32, 2 * d as u32, rounds + 1] {
        let failures = exp.run_stream_basis(
            Basis::Z,
            &StreamConfig::new(shots, seed, window)
                .with_event(&event)
                .with_threads(threads),
        );
        let label = if window > rounds {
            "full history".to_string()
        } else {
            format!("w = {window}")
        };
        println!("  {label:>12}: {failures:6} failures");
    }

    println!("\ncommit cadence at w = 2d (one 64-shot batch):");
    let slots = rounds + 1; // detector slots incl. readout
    let (window, commit) = (2 * d as u32, d as u32);
    let windows = 1 + (slots.saturating_sub(window)).div_ceil(commit);
    println!(
        "  {slots} detector slots split into {windows} overlapping windows \
         (window {window}, commit {commit}, lookahead {})",
        window - commit
    );
    println!(
        "\nWindows of 2d rounds reproduce the full-history decode bit for bit\n\
         (see crates/sim/tests/streaming_equivalence.rs) while committing\n\
         corrections only d rounds behind the newest syndrome."
    );
}
