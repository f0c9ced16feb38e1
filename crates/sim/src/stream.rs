//! Round-major syndrome streaming.
//!
//! Batch sampling (`BatchSampler`) fills the whole experiment's detector
//! history at once — shot-major. Real-time decoding consumes the same
//! data *round-major*: all detectors of round `t` (64 shot lanes wide)
//! must be handed to the decoder before round `t + 1` exists. The
//! [`RoundStream`] bridges the two: it samples one 64-lane batch and
//! replays it in round order, through either of two views of the same
//! sample:
//!
//! * [`next_round`](RoundStream::next_round) emits every round with the
//!   words of all its detectors, in exactly the order a hardware syndrome
//!   link would deliver them — the input of a session's `push_round`
//!   (`surf_matching::WindowedSession`, `DecodeSession`);
//! * [`next_event`](RoundStream::next_event) emits only the rounds where
//!   some detector fired, with only the firing detectors — the input of
//!   `push_round_sparse`, with the silent gaps bridged by
//!   `advance_silent`, making a batch cost O(firings) instead of
//!   O(rounds · detectors).
//!
//! Each batch is sampled once, through [`BatchSampler::sample_sparse`]
//! over a materialised model or [`PeriodicModel::sample_sparse_into`] over
//! a periodic one. Both consume the RNG draw-for-draw like
//! [`BatchSampler::sample_into`], so a streamed experiment is bit-for-bit
//! reproducible against `MemoryExperiment::run_basis` with the same seed,
//! and the two views carry identical syndromes.
//!
//! # Periodic sources
//!
//! A stream over a [`PeriodicModel`] (`for_periodic`) keeps no O(rounds)
//! table: it samples from the compressed per-round template and reads
//! each round's detector ids from the model by index arithmetic, so its
//! resident state is O(epochs + firings) — which is what makes 10⁶-round
//! horizons stream.

use std::sync::Arc;

use rand::Rng;
use surf_matching::RoundModelSource;

use crate::model::DetectorModel;
use crate::periodic::{PeriodicEvent, PeriodicModel, PeriodicScratch};
use crate::sampler::{BatchSampler, SparseBatch};
use crate::timeline::TimelineModel;

/// The detector words of one round of one 64-lane shot batch.
///
/// `detectors[i]` fired in the shots whose lane bits are set in
/// `words[i]`.
#[derive(Debug)]
pub struct RoundSlice<'a> {
    /// The QEC round (final-readout comparisons appear as round `rounds`).
    pub round: u32,
    /// Global detector indices belonging to this round.
    pub detectors: &'a [u32],
    /// One 64-lane firing word per detector, aligned with `detectors`.
    pub words: &'a [u64],
}

/// A reusable round-major sampler: one 64-lane batch at a time, replayed
/// as consecutive [`RoundSlice`]s — every round
/// ([`next_round`](Self::next_round)) or only the firing ones
/// ([`next_event`](Self::next_event)).
///
/// The two views read the same sample through independent cursors.
/// Syndrome-silent rounds — the overwhelming majority at physical error
/// rates — never appear as events; the firing-round index is built on the
/// first `next_event` call of a batch, so dense consumers never pay for
/// it.
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use surf_defects::DefectMap;
/// use surf_lattice::{Basis, Patch};
/// use surf_sim::{DecoderPrior, DetectorModel, NoiseParams, QubitNoise, RoundStream};
///
/// let patch = Patch::rotated(3);
/// let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
/// let model = DetectorModel::build(&patch, Basis::Z, 3, &noise, DecoderPrior::Informed);
/// let mut stream = RoundStream::new(&model);
/// let mut rng = StdRng::seed_from_u64(7);
/// stream.begin(&mut rng, 64);
/// let mut rounds = 0;
/// while let Some(slice) = stream.next_round() {
///     rounds += 1;
///     assert_eq!(slice.round + 1, rounds);
/// }
/// assert_eq!(rounds, 4); // 3 noisy rounds + the readout comparison
/// let mut last = None;
/// while let Some(event) = stream.next_event() {
///     assert!(last < Some(event.round), "events ascend");
///     assert!(!event.detectors.is_empty(), "only firing rounds are emitted");
///     last = Some(event.round);
/// }
/// ```
pub struct RoundStream {
    source: Source,
    /// One past the largest round label.
    total_rounds: u32,
    /// Rounds at which the patch geometry deforms (ascending; empty for
    /// fixed-geometry models).
    boundaries: Vec<u32>,
    true_observables: u64,
    lanes: usize,
    /// Firing detectors of the current batch sorted by (round, id): filled
    /// by the periodic sampler, or from the sparse batch on the first
    /// [`next_event`](Self::next_event) over a materialised model.
    fired: Vec<PeriodicEvent>,
    /// Whether `event_dets`/`event_words` hold the current batch's events.
    events_indexed: bool,
    /// `fired` split into the detector ids and words events borrow.
    event_dets: Vec<u32>,
    event_words: Vec<u64>,
    /// Next entry of `fired` [`next_event`](Self::next_event) emits.
    event_cursor: usize,
    /// Next round [`next_round`](Self::next_round) emits.
    round_cursor: u32,
    /// Next entry of `fired` the dense view of a periodic source reads.
    fired_cursor: usize,
    /// Detector ids (periodic sources) and words of the last dense round.
    round_dets: Vec<u32>,
    round_words: Vec<u64>,
}

/// Sampling backend of a [`RoundStream`].
enum Source {
    /// A materialised model: its sampler and touched-set batch, the round
    /// of each detector, and the detector ids grouped by round (round `r`
    /// owns `order[round_start[r]..round_start[r + 1]]`, ascending).
    Mono {
        sampler: BatchSampler,
        batch: SparseBatch,
        rounds_of: Vec<u32>,
        order: Vec<u32>,
        round_start: Vec<usize>,
    },
    /// A compressed periodic template — resident state O(epochs +
    /// firings) regardless of horizon.
    Periodic {
        model: Arc<PeriodicModel>,
        scratch: PeriodicScratch,
    },
}

impl RoundStream {
    fn over(source: Source, total_rounds: u32, boundaries: Vec<u32>) -> Self {
        RoundStream {
            source,
            total_rounds,
            boundaries,
            true_observables: 0,
            lanes: 0,
            fired: Vec::new(),
            events_indexed: false,
            event_dets: Vec::new(),
            event_words: Vec::new(),
            event_cursor: 0,
            round_cursor: total_rounds,
            fired_cursor: 0,
            round_dets: Vec::new(),
            round_words: Vec::new(),
        }
    }

    /// Builds a stream over `model`'s channels and detector rounds.
    pub fn new(model: &DetectorModel) -> Self {
        let rounds_of = model.detector_rounds.clone();
        let total_rounds = rounds_of.iter().map(|&r| r + 1).max().unwrap_or(0);
        let mut order: Vec<u32> = (0..rounds_of.len() as u32).collect();
        order.sort_by_key(|&d| rounds_of[d as usize]);
        let mut round_start = vec![0usize; total_rounds as usize + 1];
        for &r in &rounds_of {
            round_start[r as usize + 1] += 1;
        }
        for r in 0..total_rounds as usize {
            round_start[r + 1] += round_start[r];
        }
        let source = Source::Mono {
            sampler: model.batch_sampler(),
            batch: SparseBatch::new(model.num_detectors),
            rounds_of,
            order,
            round_start,
        };
        RoundStream::over(source, total_rounds, Vec::new())
    }

    /// Builds an *epoch-aware* stream over a [`TimelineModel`]: identical
    /// replay semantics (the unified multi-epoch sampler draws one RNG
    /// sequence per batch, preserving the batch-indexed determinism
    /// contract), plus the deformation rounds so consumers can tell when
    /// the emitted detector layout changes geometry.
    pub fn for_timeline(timeline: &TimelineModel) -> Self {
        let mut stream = RoundStream::new(&timeline.model);
        stream.boundaries = timeline.deformation_rounds().to_vec();
        stream
    }

    /// Builds a stream straight over a [`PeriodicModel`] template: no
    /// O(rounds) table is ever materialised, and each batch samples from
    /// the compressed channels with the monolithic RNG draw order, so both
    /// views match [`for_timeline`](Self::for_timeline) over the
    /// equivalent monolithic model bit for bit.
    pub fn for_periodic(model: Arc<PeriodicModel>) -> Self {
        let total_rounds = RoundModelSource::total_rounds(&*model);
        let boundaries = model.deformation_rounds();
        let source = Source::Periodic {
            model,
            scratch: PeriodicScratch::default(),
        };
        RoundStream::over(source, total_rounds, boundaries)
    }

    /// Number of rounds each batch spans (noisy rounds plus the final
    /// readout comparison) — silent ones included.
    pub fn total_rounds(&self) -> u32 {
        self.total_rounds
    }

    /// Rounds at which the patch geometry deforms (empty for a
    /// fixed-geometry model).
    pub fn deformation_rounds(&self) -> &[u32] {
        &self.boundaries
    }

    /// `true` if the geometry deforms at the start of `round`.
    pub fn is_deformation_round(&self, round: u32) -> bool {
        self.boundaries.binary_search(&round).is_ok()
    }

    /// Samples a fresh batch of `lanes` shots and rewinds both views.
    /// Consumes exactly the RNG sequence of [`BatchSampler::sample_into`],
    /// so streamed experiments reproduce batch experiments bit for bit.
    pub fn begin<R: Rng + ?Sized>(&mut self, rng: &mut R, lanes: usize) {
        self.true_observables = match &mut self.source {
            Source::Mono { sampler, batch, .. } => {
                self.fired.clear();
                sampler.sample_sparse(rng, lanes, batch)
            }
            Source::Periodic { model, scratch } => {
                model.sample_sparse_into(rng, lanes, scratch, &mut self.fired)
            }
        };
        self.lanes = lanes;
        self.events_indexed = false;
        self.event_cursor = 0;
        self.round_cursor = 0;
        self.fired_cursor = 0;
    }

    /// Emits the next round of the current batch — every detector of the
    /// round, ascending, with its word — or `None` when the batch is
    /// exhausted (call [`begin`](Self::begin) again).
    pub fn next_round(&mut self) -> Option<RoundSlice<'_>> {
        if self.round_cursor >= self.total_rounds {
            return None;
        }
        let round = self.round_cursor;
        self.round_cursor += 1;
        self.round_words.clear();
        let detectors: &[u32] = match &self.source {
            Source::Mono {
                batch,
                order,
                round_start,
                ..
            } => {
                let dets = &order[round_start[round as usize]..round_start[round as usize + 1]];
                self.round_words
                    .extend(dets.iter().map(|&d| batch.word(d as usize)));
                dets
            }
            Source::Periodic { model, .. } => {
                self.round_dets.clear();
                model.detectors_in(round..round + 1, &mut self.round_dets);
                for &det in &self.round_dets {
                    let word = match self.fired.get(self.fired_cursor) {
                        Some(e) if e.round == round && e.det == det => {
                            self.fired_cursor += 1;
                            e.word
                        }
                        _ => 0,
                    };
                    self.round_words.push(word);
                }
                &self.round_dets
            }
        };
        Some(RoundSlice {
            round,
            detectors,
            words: &self.round_words,
        })
    }

    /// Emits the next firing round of the current batch, or `None` when
    /// the batch is exhausted (call [`begin`](Self::begin) again). Every
    /// emitted slice is non-empty and holds only firing detectors; rounds
    /// between consecutive events are syndrome-silent across all lanes.
    pub fn next_event(&mut self) -> Option<RoundSlice<'_>> {
        if !self.events_indexed {
            self.index_events();
        }
        let start = self.event_cursor;
        let round = self.fired.get(start)?.round;
        let len = self.fired[start..]
            .iter()
            .take_while(|e| e.round == round)
            .count();
        self.event_cursor = start + len;
        Some(RoundSlice {
            round,
            detectors: &self.event_dets[start..start + len],
            words: &self.event_words[start..start + len],
        })
    }

    /// Sorts the current batch's firings by (round, id) — the periodic
    /// sampler already did — and splits them into the event arrays.
    fn index_events(&mut self) {
        if let Source::Mono {
            batch, rounds_of, ..
        } = &self.source
        {
            self.fired.extend(batch.touched().iter().filter_map(|&det| {
                let word = batch.word(det as usize);
                (word != 0).then(|| PeriodicEvent {
                    round: rounds_of[det as usize],
                    det,
                    word,
                })
            }));
            self.fired.sort_unstable_by_key(|e| (e.round, e.det));
        }
        self.event_dets.clear();
        self.event_dets.extend(self.fired.iter().map(|e| e.det));
        self.event_words.clear();
        self.event_words.extend(self.fired.iter().map(|e| e.word));
        self.events_indexed = true;
    }

    /// The true observable-flip word of the current batch (ground truth
    /// for failure counting; conceptually the final logical readout).
    pub fn true_observables(&self) -> u64 {
        self.true_observables
    }

    /// Active lane count of the current batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DecoderPrior;
    use crate::noise::{NoiseParams, QubitNoise};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use surf_defects::DefectMap;
    use surf_lattice::{Basis, Patch};
    use surf_pauli::BitBatch;

    fn model(d: usize, rounds: u32, p: f64) -> DetectorModel {
        let patch = Patch::rotated(d);
        let noise = QubitNoise::new(NoiseParams::uniform(p), DefectMap::new());
        DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
    }

    #[test]
    fn rounds_partition_all_detectors() {
        let m = model(3, 4, 1e-2);
        let mut stream = RoundStream::new(&m);
        assert_eq!(stream.total_rounds(), 5);
        stream.begin(&mut StdRng::seed_from_u64(1), 64);
        let mut emitted = 0;
        while let Some(slice) = stream.next_round() {
            emitted += slice.detectors.len();
        }
        assert_eq!(emitted, m.num_detectors);
    }

    #[test]
    fn replay_reconstructs_the_batch_exactly() {
        let m = model(3, 5, 0.03);
        let mut stream = RoundStream::new(&m);
        // Reference batch with the same seed.
        let sampler = m.batch_sampler();
        let mut ref_rng = StdRng::seed_from_u64(99);
        let mut reference = BitBatch::zeros(m.num_detectors);
        let ref_obs = sampler.sample_into(&mut ref_rng, &mut reference);
        let mut rng = StdRng::seed_from_u64(99);
        stream.begin(&mut rng, 64);
        assert_eq!(stream.true_observables(), ref_obs);
        let mut seen = vec![false; m.num_detectors];
        let mut last_round = None;
        while let Some(slice) = stream.next_round() {
            assert!(last_round < Some(slice.round), "rounds must ascend");
            last_round = Some(slice.round);
            for (&d, &w) in slice.detectors.iter().zip(slice.words) {
                assert_eq!(m.detector_rounds[d as usize], slice.round);
                assert_eq!(w, reference.word(d as usize), "detector {d}");
                assert!(!seen[d as usize], "detector {d} emitted twice");
                seen[d as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every detector emitted once");
    }

    #[test]
    fn sparse_stream_matches_dense_stream_bit_for_bit() {
        let m = model(3, 6, 1e-3);
        let mut dense = RoundStream::new(&m);
        let mut sparse = RoundStream::new(&m);
        assert_eq!(sparse.total_rounds(), dense.total_rounds());
        for (seed, lanes) in [(99u64, 64usize), (7, 64), (13, 5)] {
            let mut dense_rng = StdRng::seed_from_u64(seed);
            let mut sparse_rng = StdRng::seed_from_u64(seed);
            dense.begin(&mut dense_rng, lanes);
            sparse.begin(&mut sparse_rng, lanes);
            assert_eq!(sparse.lanes(), lanes);
            assert_eq!(sparse.true_observables(), dense.true_observables());
            let mut last = None;
            while let Some(slice) = dense.next_round() {
                let firing: Vec<(u32, u64)> = slice
                    .detectors
                    .iter()
                    .zip(slice.words)
                    .filter(|&(_, &w)| w != 0)
                    .map(|(&d, &w)| (d, w))
                    .collect();
                if firing.is_empty() {
                    continue; // silent rounds are never emitted sparsely
                }
                let event = sparse.next_event().expect("firing round must be emitted");
                assert!(last < Some(event.round), "events must ascend");
                last = Some(event.round);
                assert_eq!(event.round, slice.round);
                let got: Vec<(u32, u64)> = event
                    .detectors
                    .iter()
                    .zip(event.words)
                    .map(|(&d, &w)| (d, w))
                    .collect();
                assert_eq!(got, firing, "round {}", slice.round);
            }
            assert!(sparse.next_event().is_none(), "no spurious events");
            // Both paths left their RNGs in the same state.
            assert_eq!(dense_rng.gen::<u64>(), sparse_rng.gen::<u64>());
        }
    }

    fn periodic_pair(rounds: u32, p: f64) -> (TimelineModel, Arc<PeriodicModel>) {
        use surf_defects::DefectSchedule;
        use surf_deformer_core::PatchTimeline;
        let timeline = PatchTimeline::fixed(Patch::rotated(3), DefectMap::new());
        let mono = TimelineModel::build_scheduled(
            &timeline,
            Basis::Z,
            rounds,
            NoiseParams::uniform(p),
            &DefectSchedule::new(),
            DecoderPrior::Informed,
        );
        let per = PeriodicModel::build(
            &timeline,
            Basis::Z,
            rounds,
            NoiseParams::uniform(p),
            &DefectSchedule::new(),
            DecoderPrior::Informed,
        )
        .expect("horizon long enough to compress");
        (mono, Arc::new(per))
    }

    #[test]
    fn periodic_sparse_stream_matches_monolithic_bit_for_bit() {
        let (mono, per) = periodic_pair(48, 1e-3);
        let mut m = RoundStream::for_timeline(&mono);
        let mut p = RoundStream::for_periodic(Arc::clone(&per));
        assert_eq!(p.total_rounds(), m.total_rounds());
        assert_eq!(p.deformation_rounds(), m.deformation_rounds());
        for (seed, lanes) in [(99u64, 64usize), (7, 64), (13, 5)] {
            let mut mono_rng = StdRng::seed_from_u64(seed);
            let mut per_rng = StdRng::seed_from_u64(seed);
            m.begin(&mut mono_rng, lanes);
            p.begin(&mut per_rng, lanes);
            assert_eq!(p.lanes(), lanes);
            assert_eq!(p.true_observables(), m.true_observables(), "seed {seed}");
            loop {
                match (m.next_event(), p.next_event()) {
                    (None, None) => break,
                    (Some(a), Some(b)) => {
                        assert_eq!(a.round, b.round, "seed {seed}");
                        assert_eq!(a.detectors, b.detectors, "round {}", a.round);
                        assert_eq!(a.words, b.words, "round {}", a.round);
                    }
                    _ => panic!("event streams diverged at seed {seed}"),
                }
            }
            // Both paths left their RNGs in the same state.
            assert_eq!(mono_rng.gen::<u64>(), per_rng.gen::<u64>());
        }
    }

    #[test]
    fn periodic_dense_streams_match_monolithic() {
        let (mono, per) = periodic_pair(40, 0.02);
        let mut m = RoundStream::for_timeline(&mono);
        let mut p = RoundStream::for_periodic(Arc::clone(&per));
        assert_eq!(p.total_rounds(), m.total_rounds());
        let mut mono_rng = StdRng::seed_from_u64(11);
        let mut per_rng = StdRng::seed_from_u64(11);
        m.begin(&mut mono_rng, 64);
        p.begin(&mut per_rng, 64);
        assert_eq!(p.true_observables(), m.true_observables());
        loop {
            match (m.next_round(), p.next_round()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.round, b.round);
                    assert_eq!(a.detectors, b.detectors, "round {}", a.round);
                    assert_eq!(a.words, b.words, "round {}", a.round);
                }
                _ => panic!("round streams diverged"),
            }
        }
        assert_eq!(mono_rng.gen::<u64>(), per_rng.gen::<u64>());
    }

    #[test]
    fn begin_resets_for_the_next_batch() {
        let m = model(3, 3, 0.05);
        let mut stream = RoundStream::new(&m);
        let mut rng = StdRng::seed_from_u64(5);
        stream.begin(&mut rng, 64);
        while stream.next_round().is_some() {}
        assert!(stream.next_round().is_none());
        stream.begin(&mut rng, 7);
        assert_eq!(stream.lanes(), 7);
        let slice = stream.next_round().expect("fresh batch streams again");
        assert_eq!(slice.round, 0);
        for &w in slice.words {
            assert_eq!(w & !0b111_1111, 0, "inactive lanes must stay clean");
        }
    }
}
