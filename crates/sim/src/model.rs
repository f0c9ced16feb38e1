//! Detector-error-model construction for (deformed) patches.
//!
//! A *detector* is the comparison of two consecutive measurements of one
//! gauge group's product (plus the initialisation and final-readout
//! comparisons in the memory basis). Every noise channel of the
//! phenomenological model flips at most two detectors by construction:
//!
//! * a data error flips, per affected group, exactly the one detector that
//!   straddles the error slot;
//! * a measurement flip on one check flips the two detectors adjacent to
//!   that measurement time;
//! * a correlated pair error flips the symmetric difference of its two
//!   qubits' detector sets (the shared group cancels).
//!
//! The model carries *true* probabilities (for sampling) and *prior*
//! probabilities (what the decoder believes) separately, implementing the
//! nominal/informed decoder distinction of the paper's baselines.

use std::collections::HashMap;

use surf_lattice::{Basis, Cadence, Coord, GroupId, MeasurementSchedule, Patch};
use surf_matching::DecodingGraph;
use surf_pauli::BitBatch;

use crate::noise::QubitNoise;
use crate::sampler::BatchSampler;

/// What the decoder knows about the defects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecoderPrior {
    /// The decoder uses nominal error rates everywhere (the "no treatment"
    /// baseline: it is unaware of the defects).
    Nominal,
    /// The decoder re-weights edges with the true defect rates (Q3DE's
    /// decoding strategy).
    Informed,
}

/// One independent error mechanism.
#[derive(Clone, Debug)]
pub struct Channel {
    /// Flipped detectors (0, 1 or 2).
    pub detectors: Vec<usize>,
    /// Whether the mechanism flips the logical observable.
    pub observable: bool,
    /// True firing probability (used by the sampler).
    pub p_true: f64,
    /// Prior probability (used for decoder edge weights).
    pub p_prior: f64,
    /// QEC round the mechanism occurs at (data errors: the slot just
    /// before that round; measurement errors: the measurement round;
    /// readout errors: `rounds`). Drives the streaming round order and
    /// mid-stream defect splicing.
    pub round: u32,
}

/// The sampled+decoded error model of one memory experiment.
#[derive(Clone, Debug)]
pub struct DetectorModel {
    /// Decoding graph weighted with prior probabilities.
    pub graph: DecodingGraph,
    /// All error mechanisms with true probabilities.
    pub channels: Vec<Channel>,
    /// Number of detectors.
    pub num_detectors: usize,
    /// The QEC round each detector becomes available at (the round of the
    /// later of the two compared measurements; final-readout detectors
    /// carry round `rounds`). Feeds windowed decoding and the round-major
    /// [`RoundStream`](crate::RoundStream).
    pub detector_rounds: Vec<u32>,
}

impl DetectorModel {
    /// Builds the detector model of a memory experiment in `memory_basis`
    /// over `rounds` noisy measurement rounds plus a final data readout.
    ///
    /// Only the detector graph of `memory_basis` is built (it detects the
    /// opposite-basis errors that can flip the logical readout).
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn build(
        patch: &Patch,
        memory_basis: Basis,
        rounds: u32,
        noise: &QubitNoise,
        prior: DecoderPrior,
    ) -> DetectorModel {
        assert!(rounds > 0, "at least one measurement round required");
        let schedule = MeasurementSchedule::for_patch(patch);
        let observable = match memory_basis {
            Basis::Z => patch.logical_z().clone(),
            Basis::X => patch.logical_x().clone(),
        };
        // Collect the detector-basis groups: the memory-basis checks detect
        // the anti-commuting errors AND their products are deterministic
        // from the initial product state & final readout.
        let groups: Vec<GroupInfo> = patch
            .stabilizer_group_ids()
            .into_iter()
            .filter(|&g| patch.group_basis(g) == Some(memory_basis))
            .filter_map(|g| GroupInfo::new(patch, g, schedule.cadence(g), rounds))
            .collect();
        // Assign detector indices and their round labels.
        let mut num_detectors = 0usize;
        let mut det_base: Vec<usize> = Vec::with_capacity(groups.len());
        let mut detector_rounds: Vec<u32> = Vec::new();
        for g in &groups {
            det_base.push(num_detectors);
            num_detectors += g.num_detectors();
            detector_rounds.extend((0..g.num_detectors()).map(|k| g.detector_round(k, rounds)));
        }
        // Map data qubit -> (group index, product membership).
        let mut on_qubit: HashMap<Coord, Vec<usize>> = HashMap::new();
        for (gi, g) in groups.iter().enumerate() {
            for q in &g.product {
                on_qubit.entry(*q).or_default().push(gi);
            }
        }
        let mut channels: Vec<Channel> = Vec::new();
        let nominal = crate::noise::QubitNoise::new(noise.params(), Default::default());
        let prior_noise: &QubitNoise = match prior {
            DecoderPrior::Nominal => &nominal,
            DecoderPrior::Informed => noise,
        };
        // --- Data errors: one channel per (qubit, slot).
        for q in patch.data_qubits() {
            let p_true = noise.data_flip(q);
            let p_prior = prior_noise.data_flip(q);
            let obs = observable.contains(&q);
            let incident = on_qubit.get(&q).map(Vec::as_slice).unwrap_or(&[]);
            for slot in 0..=rounds {
                let mut detectors = Vec::with_capacity(2);
                for &gi in incident {
                    if let Some(k) = groups[gi].detector_for_flip_from(slot) {
                        detectors.push(det_base[gi] + k);
                    }
                }
                if detectors.is_empty() && !obs {
                    continue;
                }
                channels.push(Channel {
                    detectors,
                    observable: obs,
                    p_true,
                    p_prior,
                    round: slot,
                });
            }
        }
        // --- Correlated pair errors (paper Fig. 14a): adjacent data qubits
        // sharing a check, both flipped.
        if noise.params().p_correlated > 0.0 {
            let p_pair = crate::noise::NoiseParams::basis_flip(noise.params().p_correlated);
            for (q1, q2) in adjacent_pairs(patch) {
                let obs = observable.contains(&q1) ^ observable.contains(&q2);
                for slot in 0..=rounds {
                    let mut flips: Vec<usize> = Vec::new();
                    for q in [q1, q2] {
                        for &gi in on_qubit.get(&q).map(Vec::as_slice).unwrap_or(&[]) {
                            if let Some(k) = groups[gi].detector_for_flip_from(slot) {
                                flips.push(det_base[gi] + k);
                            }
                        }
                    }
                    // Shared detectors cancel pairwise.
                    flips.sort_unstable();
                    cancel_pairs(&mut flips);
                    push_correlated_channel(&mut channels, flips, obs, p_pair, slot);
                }
            }
        }
        // --- Measurement errors: per member check, per measurement time.
        for (gi, g) in groups.iter().enumerate() {
            for (ancilla, _) in &g.members {
                let p_true = noise.meas_flip(*ancilla);
                let p_prior = prior_noise.meas_flip(*ancilla);
                for k in 0..g.times.len() {
                    let (a, b) = g.detectors_for_measurement(k);
                    let detectors: Vec<usize> = [a, b]
                        .into_iter()
                        .flatten()
                        .map(|d| det_base[gi] + d)
                        .collect();
                    if detectors.is_empty() {
                        continue;
                    }
                    channels.push(Channel {
                        detectors,
                        observable: false,
                        p_true,
                        p_prior,
                        round: g.times[k],
                    });
                }
            }
        }
        // --- Final readout errors on data qubits.
        for q in patch.data_qubits() {
            let p_true = noise.readout_flip(q);
            let p_prior = prior_noise.readout_flip(q);
            let obs = observable.contains(&q);
            let mut detectors = Vec::new();
            for &gi in on_qubit.get(&q).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(k) = groups[gi].final_detector() {
                    detectors.push(det_base[gi] + k);
                }
            }
            if detectors.is_empty() && !obs {
                continue;
            }
            channels.push(Channel {
                detectors,
                observable: obs,
                p_true,
                p_prior,
                round: rounds,
            });
        }
        // --- Assemble the decoding graph from prior probabilities.
        let graph = graph_from_channels(num_detectors, &channels);
        DetectorModel {
            graph,
            channels,
            num_detectors,
            detector_rounds,
        }
    }

    /// Splices this model (rounds before `at_round`) with `late` (rounds
    /// from `at_round` on): the result samples and decodes the early
    /// channels at this model's rates and the late channels at `late`'s —
    /// the detector model of a defect *arriving mid-experiment*. Both the
    /// sampler probabilities and the decoding-graph edge weights switch at
    /// the splice, so windowed decoders see the deformed/reweighted graph
    /// exactly for the windows containing the defect.
    ///
    /// # Panics
    ///
    /// Panics unless `late` was built from the same patch, basis, and
    /// round count (the channel structure must match one-to-one).
    pub fn splice(&self, late: &DetectorModel, at_round: u32) -> DetectorModel {
        assert_eq!(
            self.num_detectors, late.num_detectors,
            "spliced models must share the detector layout"
        );
        assert_eq!(
            self.channels.len(),
            late.channels.len(),
            "spliced models must share the channel structure"
        );
        let channels: Vec<Channel> = self
            .channels
            .iter()
            .zip(&late.channels)
            .map(|(early, late_ch)| {
                assert_eq!(
                    early.detectors, late_ch.detectors,
                    "spliced models must share the channel structure"
                );
                assert_eq!(
                    early.round, late_ch.round,
                    "spliced models must share the channel rounds"
                );
                if early.round < at_round {
                    early.clone()
                } else {
                    late_ch.clone()
                }
            })
            .collect();
        DetectorModel {
            graph: graph_from_channels(self.num_detectors, &channels),
            channels,
            num_detectors: self.num_detectors,
            detector_rounds: self.detector_rounds.clone(),
        }
    }

    /// Builds a reusable 64-shot batch sampler over this model's channels
    /// (the word-parallel fast path of the Monte-Carlo pipeline).
    pub fn batch_sampler(&self) -> BatchSampler {
        BatchSampler::new(&self.channels, self.num_detectors)
    }

    /// Samples one 64-shot batch: returns the detector batch (one row per
    /// detector, one lane per shot) and the observable-flip word.
    ///
    /// Convenience wrapper; hot loops should build one
    /// [`batch_sampler`](Self::batch_sampler) and call
    /// [`BatchSampler::sample_into`] to amortise the channel grouping.
    pub fn sample_batch<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> (BitBatch, u64) {
        let sampler = self.batch_sampler();
        let mut batch = BitBatch::zeros(self.num_detectors);
        let obs = sampler.sample_into(rng, &mut batch);
        (batch, obs)
    }

    /// Samples one shot: returns flagged detectors and the true observable
    /// flip.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> (Vec<usize>, bool) {
        let mut flips = vec![false; self.num_detectors];
        let mut obs = false;
        for ch in &self.channels {
            if rng.gen::<f64>() < ch.p_true {
                for &d in &ch.detectors {
                    flips[d] = !flips[d];
                }
                obs ^= ch.observable;
            }
        }
        let syndrome = flips
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i)
            .collect();
        (syndrome, obs)
    }
}

/// All unordered pairs of data qubits sharing a check of `patch`, sorted
/// and deduplicated — the sites of the correlated two-qubit channel.
pub(crate) fn adjacent_pairs(patch: &Patch) -> Vec<(Coord, Coord)> {
    let mut pairs: Vec<(Coord, Coord)> = Vec::new();
    for (_, c) in patch.checks() {
        let sup: Vec<Coord> = c.support.iter().copied().collect();
        for i in 0..sup.len() {
            for j in i + 1..sup.len() {
                pairs.push((sup[i].min(sup[j]), sup[i].max(sup[j])));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Removes XOR-cancelling duplicate pairs from a sorted detector list.
pub(crate) fn cancel_pairs(flips: &mut Vec<usize>) {
    let mut write = 0;
    let mut read = 0;
    while read < flips.len() {
        if read + 1 < flips.len() && flips[read] == flips[read + 1] {
            read += 2;
        } else {
            flips[write] = flips[read];
            write += 1;
            read += 1;
        }
    }
    flips.truncate(write);
}

/// Emits one correlated-pair channel from its cancelled detector flips:
/// graph-like sets go out as one channel, non-graph-like remnants (> 2
/// detectors) are decomposed conservatively into singletons plus a
/// detector-less observable channel. Shared by the fixed-patch and
/// timeline model builders — the one-epoch bit-identity guarantee
/// depends on the two paths using this exact decomposition.
pub(crate) fn push_correlated_channel(
    channels: &mut Vec<Channel>,
    detectors: Vec<usize>,
    obs: bool,
    p_pair: f64,
    round: u32,
) {
    if detectors.len() > 2 {
        for d in detectors {
            channels.push(Channel {
                detectors: vec![d],
                observable: false,
                p_true: p_pair,
                p_prior: p_pair,
                round,
            });
        }
        if obs {
            channels.push(Channel {
                detectors: vec![],
                observable: true,
                p_true: p_pair,
                p_prior: p_pair,
                round,
            });
        }
        return;
    }
    if detectors.is_empty() && !obs {
        return;
    }
    channels.push(Channel {
        detectors,
        observable: obs,
        p_true: p_pair,
        p_prior: p_pair,
        round,
    });
}

/// Assembles the prior-weighted decoding graph of a channel list.
///
/// Channels with more than two detectors (possible only in heavily damaged
/// patches where a qubit sits in ≥ 3 group products) are decomposed
/// conservatively: the sampler still fires them exactly, the decoder sees
/// a pair edge plus boundary edges.
pub(crate) fn graph_from_channels(num_detectors: usize, channels: &[Channel]) -> DecodingGraph {
    let mut graph = DecodingGraph::new(num_detectors);
    for ch in channels {
        let observables = ch.observable as u64;
        match ch.detectors.as_slice() {
            [] => {}
            [a] => graph.add_edge(*a, None, ch.p_prior, observables),
            [a, b] => graph.add_edge(*a, Some(*b), ch.p_prior, observables),
            more => {
                graph.add_edge(more[0], Some(more[1]), ch.p_prior, observables);
                for &d in &more[2..] {
                    graph.add_edge(d, None, ch.p_prior, 0);
                }
            }
        }
    }
    graph
}

/// Per-group measurement/detector bookkeeping.
struct GroupInfo {
    product: Vec<Coord>,
    /// Member checks: (ancilla, support) — supports currently unused but
    /// kept for future circuit-level extraction.
    members: Vec<(Option<Coord>, Vec<Coord>)>,
    /// Measurement rounds within the experiment.
    times: Vec<u32>,
    /// Whether init/final boundary detectors exist (memory basis only —
    /// this struct is only built for memory-basis groups, so always true).
    with_boundaries: bool,
}

impl GroupInfo {
    fn new(patch: &Patch, g: GroupId, cadence: Cadence, rounds: u32) -> Option<GroupInfo> {
        let times: Vec<u32> = cadence.rounds_up_to(rounds).collect();
        if times.is_empty() {
            return None;
        }
        let members = patch
            .group_members(g)
            .iter()
            .map(|&id| {
                let c = patch.check(id).unwrap();
                (c.ancilla, c.support.iter().copied().collect())
            })
            .collect();
        Some(GroupInfo {
            product: patch.group_product(g).into_iter().collect(),
            members,
            times,
            with_boundaries: true,
        })
    }

    /// Detector count: boundaries (init + final) plus internal diffs.
    fn num_detectors(&self) -> usize {
        if self.with_boundaries {
            self.times.len() + 1
        } else {
            self.times.len().saturating_sub(1)
        }
    }

    /// The detector flipped by a data error occurring just before round
    /// `slot` (`slot == rounds` means "after the last round, before
    /// readout").
    fn detector_for_flip_from(&self, slot: u32) -> Option<usize> {
        // First measurement index at time >= slot.
        let k = self.times.partition_point(|&t| t < slot);
        if self.with_boundaries {
            Some(k) // k == times.len() → final (readout) detector
        } else if k == 0 || k >= self.times.len() {
            None
        } else {
            Some(k - 1)
        }
    }

    /// The pair of detectors flipped by a measurement error at measurement
    /// index `k`.
    fn detectors_for_measurement(&self, k: usize) -> (Option<usize>, Option<usize>) {
        if self.with_boundaries {
            (Some(k), Some(k + 1))
        } else {
            let a = k.checked_sub(1);
            let b = if k + 1 < self.times.len() {
                Some(k)
            } else {
                None
            };
            (a, b)
        }
    }

    /// The final (readout-comparison) detector, if any.
    fn final_detector(&self) -> Option<usize> {
        self.with_boundaries.then_some(self.times.len())
    }

    /// The round detector `k` becomes available at: the round of the later
    /// of its two compared measurements (`rounds` for the final readout
    /// comparison).
    fn detector_round(&self, k: usize, rounds: u32) -> u32 {
        if self.with_boundaries {
            if k < self.times.len() {
                self.times[k]
            } else {
                rounds
            }
        } else if k + 1 < self.times.len() {
            self.times[k + 1]
        } else {
            rounds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseParams;
    use surf_defects::DefectMap;

    fn model(d: usize, rounds: u32) -> DetectorModel {
        let patch = Patch::rotated(d);
        let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
        DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
    }

    #[test]
    fn detector_count_fresh_patch() {
        // d=3 memory-Z: 4 Z groups, each measured every round over R rounds
        // → R+1 detectors each.
        let m = model(3, 5);
        assert_eq!(m.num_detectors, 4 * 6);
        assert!(m.graph.num_edges() > 0);
    }

    #[test]
    fn channels_are_graphlike() {
        let m = model(5, 4);
        for ch in &m.channels {
            assert!(ch.detectors.len() <= 2);
        }
    }

    #[test]
    fn noiseless_channels_have_positive_probability() {
        let m = model(3, 3);
        for ch in &m.channels {
            assert!(ch.p_true > 0.0 && ch.p_true <= 0.5);
        }
    }

    #[test]
    fn zero_noise_sampling_is_trivial() {
        let patch = Patch::rotated(3);
        let noise = QubitNoise::new(NoiseParams::uniform(0.0), DefectMap::new());
        let m = DetectorModel::build(&patch, Basis::Z, 3, &noise, DecoderPrior::Informed);
        // All channels have p = 0, so nothing fires.
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let (syn, obs) = m.sample(&mut rng);
        assert!(syn.is_empty());
        assert!(!obs);
    }

    #[test]
    fn single_data_error_flips_matched_detectors() {
        // Force exactly one mid-experiment data channel and check detector
        // arithmetic via the GroupInfo helpers.
        let g = GroupInfo {
            product: vec![],
            members: vec![],
            times: vec![0, 1, 2, 3],
            with_boundaries: true,
        };
        assert_eq!(g.num_detectors(), 5);
        assert_eq!(g.detector_for_flip_from(0), Some(0)); // before round 0: init detector
        assert_eq!(g.detector_for_flip_from(2), Some(2));
        assert_eq!(g.detector_for_flip_from(4), Some(4)); // after last round
        assert_eq!(g.detectors_for_measurement(0), (Some(0), Some(1)));
        assert_eq!(g.detectors_for_measurement(3), (Some(3), Some(4)));
        assert_eq!(g.final_detector(), Some(4));
    }

    #[test]
    fn period_two_groups_have_fewer_detectors() {
        use surf_deformer_core::data_q_rm;
        let mut patch = Patch::rotated(5);
        data_q_rm(&mut patch, Coord::new(5, 5)).unwrap();
        let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
        let m = DetectorModel::build(&patch, Basis::Z, 6, &noise, DecoderPrior::Informed);
        // The merged Z gauge group is measured on odd rounds only (3 times
        // in 6 rounds) → 4 detectors instead of 7; total is below the
        // undeformed count of (12-1 stabilizers... just sanity-check > 0
        // and < fresh count).
        let fresh = model(5, 6);
        assert!(m.num_detectors < fresh.num_detectors);
        assert!(m.num_detectors > 0);
    }

    #[test]
    fn informed_prior_reweights_defective_edges() {
        let patch = Patch::rotated(3);
        let q = Coord::new(3, 3);
        let defects = DefectMap::from_qubits([q], 0.5);
        let noise = QubitNoise::new(NoiseParams::paper(), defects);
        let informed = DetectorModel::build(&patch, Basis::Z, 3, &noise, DecoderPrior::Informed);
        let nominal = DetectorModel::build(&patch, Basis::Z, 3, &noise, DecoderPrior::Nominal);
        // True probabilities agree; prior probabilities differ.
        let truesum: f64 = informed.channels.iter().map(|c| c.p_true).sum();
        let truesum2: f64 = nominal.channels.iter().map(|c| c.p_true).sum();
        assert!((truesum - truesum2).abs() < 1e-9);
        let prior_inf: f64 = informed.channels.iter().map(|c| c.p_prior).sum();
        let prior_nom: f64 = nominal.channels.iter().map(|c| c.p_prior).sum();
        assert!(prior_inf > prior_nom);
    }

    #[test]
    fn correlated_channels_appear() {
        let patch = Patch::rotated(3);
        let noise = QubitNoise::new(NoiseParams::paper().with_correlated(4e-3), DefectMap::new());
        let with = DetectorModel::build(&patch, Basis::Z, 2, &noise, DecoderPrior::Informed);
        let without = model(3, 2);
        assert!(with.channels.len() > without.channels.len());
    }
}
