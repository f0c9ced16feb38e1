//! Pauli-frame simulation and detector-error-model extraction for
//! circuit-level noise.
//!
//! The frame simulator tracks an X/Z error frame through the Clifford
//! circuit (the noiseless reference outcomes are all-zero by detector
//! construction, so measurement-record *flips* are the full story — the
//! same trick Stim uses). [`sample_shot`] runs one shot; [`sample_batch`]
//! runs 64 bit-packed shots per instruction walk, with one frame word per
//! qubit. [`extract_dem`] propagates every elementary noise component
//! through the remaining circuit to its detector/observable signature,
//! producing a [`surf_matching::DecodingGraph`] for MWPM.

use rand::Rng;

use surf_matching::DecodingGraph;
use surf_pauli::BitBatch;

use crate::circuit::{Instruction, MemoryCircuit};
use crate::sampler::{bernoulli_mask, geometric_skip, GEOMETRIC_THRESHOLD};

/// An X/Z error frame over the circuit's qubits.
#[derive(Clone, Debug)]
struct Frame {
    x: Vec<bool>,
    z: Vec<bool>,
}

impl Frame {
    fn new(n: usize) -> Self {
        Frame {
            x: vec![false; n],
            z: vec![false; n],
        }
    }
}

/// Applies one noiseless instruction to the frame, appending measurement
/// flips to `record`. `flip_next_meas` carries pending classical
/// measurement flips (from `MeasFlip` or injected errors).
fn step(frame: &mut Frame, inst: &Instruction, record: &mut Vec<bool>, pending_flip: &mut [bool]) {
    match inst {
        Instruction::ResetZ(qs) | Instruction::ResetX(qs) => {
            for &q in qs {
                frame.x[q] = false;
                frame.z[q] = false;
            }
        }
        Instruction::H(qs) => {
            for &q in qs {
                std::mem::swap(&mut frame.x[q], &mut frame.z[q]);
            }
        }
        Instruction::Cx(pairs) => {
            for &(c, t) in pairs {
                frame.x[t] ^= frame.x[c];
                frame.z[c] ^= frame.z[t];
            }
        }
        Instruction::MeasureZ(qs) => {
            for &q in qs {
                record.push(frame.x[q] ^ pending_flip[q]);
                pending_flip[q] = false;
            }
        }
        Instruction::MeasureX(qs) => {
            for &q in qs {
                record.push(frame.z[q] ^ pending_flip[q]);
                pending_flip[q] = false;
            }
        }
        // Noise instructions are inert in the deterministic stepper; the
        // sampler and the DEM extractor interpret them.
        Instruction::Depolarize1(..) | Instruction::Depolarize2(..) | Instruction::MeasFlip(..) => {
        }
    }
}

/// Samples one noisy execution: returns the flipped detectors and the
/// observable flip.
pub fn sample_shot<R: Rng + ?Sized>(mc: &MemoryCircuit, rng: &mut R) -> (Vec<usize>, bool) {
    let n = mc.circuit.num_qubits;
    let mut frame = Frame::new(n);
    let mut record = Vec::with_capacity(mc.circuit.num_measurements());
    let mut pending = vec![false; n];
    for inst in &mc.circuit.instructions {
        match inst {
            Instruction::Depolarize1(qs, p) => {
                for &q in qs {
                    if rng.gen::<f64>() < *p {
                        match rng.gen_range(0..3) {
                            0 => frame.x[q] ^= true,
                            1 => frame.z[q] ^= true,
                            _ => {
                                frame.x[q] ^= true;
                                frame.z[q] ^= true;
                            }
                        }
                    }
                }
            }
            Instruction::Depolarize2(pairs, p) => {
                for &(a, b) in pairs {
                    if rng.gen::<f64>() < *p {
                        // Uniform non-identity two-qubit Pauli (15 cases).
                        let k = rng.gen_range(1..16);
                        apply_two_qubit_pauli(&mut frame, a, b, k);
                    }
                }
            }
            Instruction::MeasFlip(qs, p) => {
                for &q in qs {
                    if rng.gen::<f64>() < *p {
                        pending[q] ^= true;
                    }
                }
            }
            other => step(&mut frame, other, &mut record, &mut pending),
        }
    }
    finish(mc, &record)
}

/// Samples one full 64-shot batch of noisy executions, walking the
/// instruction list once: the X/Z frame holds one `u64` word per qubit
/// (lane `b` = shot `b`), gates act word-at-a-time, and noise sites fire
/// from per-rate geometric streams that persist across instructions
/// (`RateStreams`; per-word Bernoulli masks for dense rates). Returns
/// the detector batch and the observable-flip word.
pub fn sample_batch<R: Rng + ?Sized>(mc: &MemoryCircuit, rng: &mut R) -> (BitBatch, u64) {
    sample_batch_lanes(mc, rng, BitBatch::LANES)
}

/// [`sample_batch`] with only the first `lanes` shots active (tail
/// batches).
pub fn sample_batch_lanes<R: Rng + ?Sized>(
    mc: &MemoryCircuit,
    rng: &mut R,
    lanes: usize,
) -> (BitBatch, u64) {
    let n = mc.circuit.num_qubits;
    // Construct the result batch up front: validates `lanes` before any
    // simulation work and is the single source of the lane mask.
    let mut batch = BitBatch::with_lanes(mc.detectors.len(), lanes);
    let lane_mask = batch.lane_mask();
    let mut x = vec![0u64; n];
    let mut z = vec![0u64; n];
    let mut pending = vec![0u64; n];
    let mut record: Vec<u64> = Vec::with_capacity(mc.circuit.num_measurements());
    let mut streams = RateStreams::new();
    for inst in &mc.circuit.instructions {
        match inst {
            Instruction::ResetZ(qs) | Instruction::ResetX(qs) => {
                for &q in qs {
                    x[q] = 0;
                    z[q] = 0;
                }
            }
            Instruction::H(qs) => {
                for &q in qs {
                    std::mem::swap(&mut x[q], &mut z[q]);
                }
            }
            Instruction::Cx(pairs) => {
                for &(c, t) in pairs {
                    x[t] ^= x[c];
                    z[c] ^= z[t];
                }
            }
            Instruction::MeasureZ(qs) => {
                for &q in qs {
                    record.push(x[q] ^ pending[q]);
                    pending[q] = 0;
                }
            }
            Instruction::MeasureX(qs) => {
                for &q in qs {
                    record.push(z[q] ^ pending[q]);
                    pending[q] = 0;
                }
            }
            Instruction::Depolarize1(qs, p) => {
                let e = streams.entry(*p);
                streams.fires(e, rng, qs.len(), lanes, lane_mask, |rng, site, bit| {
                    let q = qs[site];
                    match rng.gen_range(0..3) {
                        0 => x[q] ^= bit,
                        1 => z[q] ^= bit,
                        _ => {
                            x[q] ^= bit;
                            z[q] ^= bit;
                        }
                    }
                })
            }
            Instruction::Depolarize2(pairs, p) => {
                let e = streams.entry(*p);
                streams.fires(e, rng, pairs.len(), lanes, lane_mask, |rng, site, bit| {
                    let (a, b) = pairs[site];
                    // Uniform non-identity two-qubit Pauli (15 cases).
                    let k = rng.gen_range(1..16usize);
                    for ((fx, fz), q) in two_qubit_pauli_xz(k).into_iter().zip([a, b]) {
                        if fx {
                            x[q] ^= bit;
                        }
                        if fz {
                            z[q] ^= bit;
                        }
                    }
                })
            }
            Instruction::MeasFlip(qs, p) => {
                let e = streams.entry(*p);
                streams.fires(e, rng, qs.len(), lanes, lane_mask, |_, site, bit| {
                    pending[qs[site]] ^= bit;
                })
            }
        }
    }
    for (i, det) in mc.detectors.iter().enumerate() {
        let w = det.records.iter().fold(0u64, |acc, &r| acc ^ record[r]);
        batch.set_word(i, w);
    }
    let obs = mc.observable.iter().fold(0u64, |acc, &r| acc ^ record[r]) & lane_mask;
    (batch, obs)
}

/// Per-rate geometric stream state for one batch walk, shared across all
/// of the walk's noise instructions: a single Bernoulli(`p`) trial
/// sequence spans the concatenated `sites × lanes` grids of every
/// instruction carrying that rate, and the skip cursor survives
/// instruction boundaries. The walk then pays ~one RNG draw per *firing*
/// plus one priming draw per rate — not the one-draw-per-instruction
/// minimum a fresh geometric enumeration would cost. For a mostly-silent
/// low-noise walk that minimum *is* the sampling bill; skipping straight
/// across silent instructions is what lets the walk's per-shot cost
/// approach its pure gate-op floor. The enumeration stays an exact iid
/// Bernoulli(`p`) sample per trial — geometric skipping does not care
/// where instruction boundaries fall in the trial sequence.
///
/// Dense rates (`p ≥ GEOMETRIC_THRESHOLD`) keep the per-word
/// Bernoulli-mask path and carry no cursor.
struct RateStreams(Vec<RateStream>);

struct RateStream {
    p: f64,
    inv_ln_q: f64,
    /// Absolute trial index of the next firing, once primed.
    next: u64,
    /// Absolute trials consumed so far.
    end: u64,
    primed: bool,
}

impl RateStreams {
    fn new() -> Self {
        RateStreams(Vec::new())
    }

    /// Index of the stream for rate `p`, created on first use. A walk
    /// carries a handful of distinct rates, so the linear scan also
    /// caches the libm `ln_1p` call per rate instead of per instruction.
    fn entry(&mut self, p: f64) -> usize {
        if let Some(i) = self.0.iter().position(|s| s.p == p) {
            return i;
        }
        self.0.push(RateStream {
            p,
            inv_ln_q: 1.0 / (-p).ln_1p(),
            next: 0,
            end: 0,
            primed: false,
        });
        self.0.len() - 1
    }

    /// Enumerates one instruction's Bernoulli successes over its
    /// `sites × lanes` trial grid, calling `fire(rng, site, lane_bit)`
    /// for each.
    fn fires<R: Rng + ?Sized>(
        &mut self,
        entry: usize,
        rng: &mut R,
        sites: usize,
        lanes: usize,
        lane_mask: u64,
        mut fire: impl FnMut(&mut R, usize, u64),
    ) {
        let s = &mut self.0[entry];
        if s.p <= 0.0 || sites == 0 {
            return;
        }
        if s.p >= GEOMETRIC_THRESHOLD {
            for site in 0..sites {
                let mut mask = bernoulli_mask(rng, s.p) & lane_mask;
                while mask != 0 {
                    let bit = mask & mask.wrapping_neg();
                    fire(rng, site, bit);
                    mask ^= bit;
                }
            }
            return;
        }
        let start = s.end;
        s.end = start + sites as u64 * lanes as u64;
        if !s.primed {
            s.next = geometric_skip(rng, s.inv_ln_q);
            s.primed = true;
        }
        while s.next < s.end {
            let local = s.next - start;
            let (site, lane) = if lanes == 64 {
                (local >> 6, local & 63)
            } else {
                (local / lanes as u64, local % lanes as u64)
            };
            fire(rng, site as usize, 1u64 << lane);
            s.next = s
                .next
                .saturating_add(1)
                .saturating_add(geometric_skip(rng, s.inv_ln_q));
        }
    }
}

/// Splits a two-qubit Pauli index `k` in `1..16` into per-qubit
/// `(x, z)` frame components (`0=I 1=X 2=Y 3=Z` per side) — the single
/// source of the mapping shared by the scalar sampler, the batch sampler,
/// and the DEM extractor.
fn two_qubit_pauli_xz(k: usize) -> [(bool, bool); 2] {
    let xz = |pp: usize| (pp == 1 || pp == 2, pp == 3 || pp == 2);
    [xz(k / 4), xz(k % 4)]
}

fn apply_two_qubit_pauli(frame: &mut Frame, a: usize, b: usize, k: usize) {
    for ((fx, fz), q) in two_qubit_pauli_xz(k).into_iter().zip([a, b]) {
        frame.x[q] ^= fx;
        frame.z[q] ^= fz;
    }
}

fn finish(mc: &MemoryCircuit, record: &[bool]) -> (Vec<usize>, bool) {
    let detectors = mc
        .detectors
        .iter()
        .enumerate()
        .filter(|(_, d)| d.records.iter().fold(false, |acc, &r| acc ^ record[r]))
        .map(|(i, _)| i)
        .collect();
    let obs = mc.observable.iter().fold(false, |acc, &r| acc ^ record[r]);
    (detectors, obs)
}

/// Propagates a single elementary error placed *just before* instruction
/// `at` and returns its (detectors, observable) signature.
fn propagate(
    mc: &MemoryCircuit,
    at: usize,
    seed_x: &[usize],
    seed_z: &[usize],
    meas_flip: Option<usize>,
) -> (Vec<usize>, bool) {
    let n = mc.circuit.num_qubits;
    let mut frame = Frame::new(n);
    for &q in seed_x {
        frame.x[q] = true;
    }
    for &q in seed_z {
        frame.z[q] = true;
    }
    let mut pending = vec![false; n];
    if let Some(q) = meas_flip {
        pending[q] = true;
    }
    // Records before `at` are unflipped.
    let mut record = Vec::new();
    for inst in &mc.circuit.instructions[..at] {
        if let Instruction::MeasureZ(qs) | Instruction::MeasureX(qs) = inst {
            record.extend(std::iter::repeat_n(false, qs.len()));
        }
    }
    for inst in &mc.circuit.instructions[at..] {
        step(&mut frame, inst, &mut record, &mut pending);
    }
    finish(mc, &record)
}

/// Extracts the detector error model of a memory circuit: every elementary
/// noise component becomes an edge in a [`DecodingGraph`]. Components
/// whose signature exceeds two detectors (Y-type errors straddling both
/// check bases) are decomposed into basis-aligned pairs when possible.
pub fn extract_dem(mc: &MemoryCircuit) -> DecodingGraph {
    let mut graph = DecodingGraph::new(mc.detectors.len());
    let mut add = |detectors: &[usize], obs: bool, p: f64| {
        let mask = obs as u64;
        // Split the signature by detector basis: a Y-type error flips up
        // to two detectors in each basis; each basis part is graphlike.
        let mut x_part = Vec::new();
        let mut z_part = Vec::new();
        for &d in detectors {
            match mc.detector_basis[d] {
                surf_lattice::Basis::X => x_part.push(d),
                surf_lattice::Basis::Z => z_part.push(d),
            }
        }
        let mut first = true;
        for part in [z_part, x_part] {
            let m = if first { mask } else { 0 };
            match part.as_slice() {
                [] => {}
                [a] => {
                    graph.add_edge(*a, None, p, m);
                    first = false;
                }
                [a, b] => {
                    graph.add_edge(*a, Some(*b), p, m);
                    first = false;
                }
                more => {
                    graph.add_edge(more[0], Some(more[1]), p, m);
                    first = false;
                    for pair in more[2..].chunks(2) {
                        match pair {
                            [a, b] => graph.add_edge(*a, Some(*b), p, 0),
                            [a] => graph.add_edge(*a, None, p, 0),
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }
    };
    for (at, inst) in mc.circuit.instructions.iter().enumerate() {
        match inst {
            Instruction::Depolarize1(qs, p) => {
                for &q in qs {
                    for (sx, sz) in [(vec![q], vec![]), (vec![], vec![q]), (vec![q], vec![q])] {
                        let (d, o) = propagate(mc, at, &sx, &sz, None);
                        add(&d, o, p / 3.0);
                    }
                }
            }
            Instruction::Depolarize2(pairs, p) => {
                for &(a, b) in pairs {
                    for k in 1..16usize {
                        let mut sx = Vec::new();
                        let mut sz = Vec::new();
                        for ((fx, fz), q) in two_qubit_pauli_xz(k).into_iter().zip([a, b]) {
                            if fx {
                                sx.push(q);
                            }
                            if fz {
                                sz.push(q);
                            }
                        }
                        let (d, o) = propagate(mc, at, &sx, &sz, None);
                        add(&d, o, p / 15.0);
                    }
                }
            }
            Instruction::MeasFlip(qs, p) => {
                for &q in qs {
                    let (d, o) = propagate(mc, at, &[], &[], Some(q));
                    add(&d, o, *p);
                }
            }
            _ => {}
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::memory_circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use surf_lattice::{Basis, Patch};
    use surf_matching::MwpmDecoder;

    #[test]
    fn noiseless_shots_are_silent() {
        let patch = Patch::rotated(3);
        for basis in [Basis::Z, Basis::X] {
            let mc = memory_circuit(&patch, basis, 4, 0.0);
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..20 {
                let (det, obs) = sample_shot(&mc, &mut rng);
                assert!(det.is_empty(), "{basis}: spurious detectors {det:?}");
                assert!(!obs);
            }
        }
    }

    #[test]
    fn injected_data_error_flips_expected_detectors() {
        // A single X on a data qubit before round 0 must flip exactly the
        // Z detectors of the checks containing it (round-0 + final pairs
        // collapse along the way, but the signature must be non-empty and
        // grow consistent records).
        let patch = Patch::rotated(3);
        let mc = memory_circuit(&patch, Basis::Z, 3, 1e-3);
        // Inject after the initial resets: right before the first CNOT
        // layer.
        let at = mc
            .circuit
            .instructions
            .iter()
            .position(|i| matches!(i, Instruction::Cx(_)))
            .unwrap();
        let (det, _obs) = propagate(&mc, at, &[0], &[], None);
        assert!(!det.is_empty());
        assert!(det.len() <= 2, "graphlike data error: {det:?}");
    }

    #[test]
    fn dem_has_edges_and_decodes_single_errors() {
        let patch = Patch::rotated(3);
        let mc = memory_circuit(&patch, Basis::Z, 3, 1e-3);
        let graph = extract_dem(&mc);
        assert!(graph.num_edges() > 50);
        let decoder = MwpmDecoder::new(graph);
        // Every depolarize-1 X component must be corrected.
        let mut checked = 0;
        for (at, inst) in mc.circuit.instructions.iter().enumerate() {
            if let Instruction::Depolarize1(qs, _) = inst {
                for &q in qs.iter().take(6) {
                    let (det, obs) = propagate(&mc, at, &[q], &[], None);
                    let predicted = decoder.decode(&det) & 1 == 1;
                    assert_eq!(predicted, obs, "X on {q} at {at}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 10);
    }

    #[test]
    fn circuit_level_memory_shows_error_suppression() {
        // p = 4e-3 (still below the circuit-level threshold) separates the
        // distances cleanly at moderate shot counts.
        let rate = |d: usize, shots: u64| {
            let patch = Patch::rotated(d);
            let mc = memory_circuit(&patch, Basis::Z, d as u32, 4e-3);
            let decoder = MwpmDecoder::new(extract_dem(&mc));
            let mut rng = StdRng::seed_from_u64(9);
            let mut fails = 0u64;
            for _ in 0..shots {
                let (det, obs) = sample_shot(&mc, &mut rng);
                if (decoder.decode(&det) & 1 == 1) != obs {
                    fails += 1;
                }
            }
            fails as f64 / shots as f64
        };
        let r3 = rate(3, 1500);
        let r5 = rate(5, 1500);
        assert!(
            r5 < r3 && r3 > 0.0,
            "circuit-level d=5 ({r5}) must beat d=3 ({r3})"
        );
    }

    #[test]
    fn frame_matches_tableau_on_clean_circuit() {
        // Cross-validate: run the noiseless circuit on the exact tableau
        // simulator and confirm every detector is deterministic (its
        // defining records XOR to a constant), which is what the frame
        // simulator assumes.
        use surf_pauli::PauliString;
        use surf_stabilizer::Tableau;
        for d in [3usize, 5] {
            let patch = Patch::rotated(d);
            let mc = memory_circuit(&patch, Basis::Z, 2, 0.0);
            let n = mc.circuit.num_qubits;
            let keys: Vec<u64> = (0..n as u64).collect();
            let mut rng = StdRng::seed_from_u64(3);
            let mut outcomes: Vec<bool> = Vec::new();
            let mut t = Tableau::new(n);
            for inst in &mc.circuit.instructions {
                match inst {
                    Instruction::ResetZ(_) => {} // fresh tableau is |0..0>
                    Instruction::ResetX(qs) => {
                        for &q in qs {
                            // Reset to |+>: measure X and correct.
                            let r = t.measure(&PauliString::xs([q as u64]), &keys, &mut rng);
                            if r.outcome {
                                t.apply_pauli(&PauliString::zs([q as u64]), &keys);
                            }
                        }
                    }
                    Instruction::H(qs) => {
                        for &q in qs {
                            t.h(q);
                        }
                    }
                    Instruction::Cx(pairs) => {
                        for &(c, tq) in pairs {
                            t.cnot(c, tq);
                        }
                    }
                    Instruction::MeasureZ(qs) => {
                        for &q in qs {
                            outcomes.push(
                                t.measure(&PauliString::zs([q as u64]), &keys, &mut rng)
                                    .outcome,
                            );
                        }
                    }
                    Instruction::MeasureX(qs) => {
                        for &q in qs {
                            outcomes.push(
                                t.measure(&PauliString::xs([q as u64]), &keys, &mut rng)
                                    .outcome,
                            );
                        }
                    }
                    _ => {}
                }
            }
            for (i, det) in mc.detectors.iter().enumerate() {
                let parity = det.records.iter().fold(false, |acc, &r| acc ^ outcomes[r]);
                assert!(
                    !parity,
                    "d={d}: detector {i} fired on the noiseless circuit"
                );
            }
            let obs = mc
                .observable
                .iter()
                .fold(false, |acc, &r| acc ^ outcomes[r]);
            assert!(!obs, "d={d}: observable flipped on the noiseless circuit");
        }
    }
}
