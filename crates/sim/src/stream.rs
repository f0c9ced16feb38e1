//! Round-major syndrome streaming.
//!
//! Batch sampling (`BatchSampler`) fills the whole experiment's detector
//! history at once — shot-major. Real-time decoding consumes the same
//! data *round-major*: all detectors of round `t` (64 shot lanes wide)
//! must be handed to the decoder before round `t + 1` exists. The
//! [`RoundStream`] bridges the two: it samples one 64-lane batch through
//! the model's [`BatchSampler`] and then replays it round by round, in
//! exactly the order a hardware syndrome link would deliver it, feeding
//! a windowed decoder session's `push_round`
//! (`surf_matching::WindowedSession`, `DecodeSession`) or any other
//! consumer.
//!
//! The stream draws the identical RNG sequence as the plain batch path,
//! so a streamed experiment is bit-for-bit reproducible against
//! `MemoryExperiment::run_basis` with the same seed.
//!
//! # Periodic sources
//!
//! Both streams can also be built over a [`PeriodicModel`]
//! (`for_periodic`). The sparse stream then samples straight from the
//! compressed per-round template — resident state O(epochs), not
//! O(rounds), while consuming the RNG draw-for-draw identically to the
//! monolithic sampler — which is what makes 10⁶-round horizons stream.
//! The dense stream expands the template once at construction (dense
//! replay materialises O(rounds) detector words by nature) and is
//! bit-identical thereafter.

use std::sync::Arc;

use rand::Rng;
use surf_matching::RoundModelSource;
use surf_pauli::BitBatch;

use crate::model::DetectorModel;
use crate::periodic::{PeriodicEvent, PeriodicModel, PeriodicScratch};
use crate::sampler::{BatchSampler, SparseBatch};
use crate::timeline::TimelineModel;

/// Detector ids sorted by round plus the per-round span table:
/// round `r` owns `order[round_start[r]..round_start[r + 1]]`. Returns
/// `(order, round_start, total_rounds)`.
fn round_index(model: &DetectorModel) -> (Vec<u32>, Vec<usize>, u32) {
    let total_rounds = model
        .detector_rounds
        .iter()
        .map(|&r| r + 1)
        .max()
        .unwrap_or(0);
    let mut order: Vec<u32> = (0..model.num_detectors as u32).collect();
    order.sort_by_key(|&d| model.detector_rounds[d as usize]);
    let mut round_start = Vec::with_capacity(total_rounds as usize + 1);
    round_start.push(0);
    for r in 0..total_rounds {
        let prev = *round_start.last().unwrap();
        let len = order[prev..]
            .iter()
            .take_while(|&&d| model.detector_rounds[d as usize] == r)
            .count();
        round_start.push(prev + len);
    }
    (order, round_start, total_rounds)
}

/// The [`round_index`] of a periodic model's *expanded* horizon. Only the
/// dense stream uses this — dense replay materialises every round's words
/// anyway, so the O(rounds) tables are not a new cost class. The sparse
/// stream stays on the compressed template.
fn periodic_round_index(model: &PeriodicModel) -> (Vec<u32>, Vec<usize>, u32) {
    let total_rounds = RoundModelSource::total_rounds(model);
    let n = RoundModelSource::num_detectors(model);
    let rounds_of: Vec<u32> = (0..n as u32)
        .map(|d| RoundModelSource::detector_round(model, d))
        .collect();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&d| rounds_of[d as usize]);
    let mut round_start = Vec::with_capacity(total_rounds as usize + 1);
    round_start.push(0);
    for r in 0..total_rounds {
        let prev = *round_start.last().unwrap();
        let len = order[prev..]
            .iter()
            .take_while(|&&d| rounds_of[d as usize] == r)
            .count();
        round_start.push(prev + len);
    }
    (order, round_start, total_rounds)
}

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

/// A reusable round-major sampler: one [`BatchSampler`] batch at a time,
/// emitted as consecutive [`RoundSlice`]s.
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
/// ```
pub struct RoundStream {
    sampler: BatchSampler,
    /// Detector ids sorted by round; round `r` owns
    /// `order[round_start[r]..round_start[r + 1]]`.
    order: Vec<u32>,
    round_start: Vec<usize>,
    /// One past the largest round label.
    total_rounds: u32,
    /// The current in-flight batch (shot-major backing store).
    batch: BitBatch,
    /// True observable-flip word of the current batch.
    true_observables: u64,
    /// Next round to emit.
    cursor: u32,
    /// Scratch for the emitted per-round words.
    words: Vec<u64>,
    /// Rounds at which the patch geometry deforms (ascending; empty for
    /// fixed-geometry models).
    boundaries: Vec<u32>,
}

impl RoundStream {
    /// Builds a stream over `model`'s channels and detector rounds.
    pub fn new(model: &DetectorModel) -> Self {
        let (order, round_start, total_rounds) = round_index(model);
        RoundStream {
            sampler: model.batch_sampler(),
            order,
            round_start,
            total_rounds,
            batch: BitBatch::zeros(model.num_detectors),
            true_observables: 0,
            cursor: total_rounds,
            words: Vec::new(),
            boundaries: Vec::new(),
        }
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

    /// Builds a dense stream over a [`PeriodicModel`] by expanding its
    /// template once (dense replay is O(rounds) by nature; the sparse
    /// streams are the O(epochs) path). Emits bit-for-bit what
    /// [`for_timeline`](Self::for_timeline) over the equivalent monolithic
    /// model would.
    pub fn for_periodic(model: &PeriodicModel) -> Self {
        let (order, round_start, total_rounds) = periodic_round_index(model);
        RoundStream {
            sampler: model.monolithic_sampler(),
            order,
            round_start,
            total_rounds,
            batch: BitBatch::zeros(model.num_detectors()),
            true_observables: 0,
            cursor: total_rounds,
            words: Vec::new(),
            boundaries: model.deformation_rounds(),
        }
    }

    /// Number of rounds each batch is emitted over (noisy rounds plus the
    /// final readout comparison).
    pub fn total_rounds(&self) -> u32 {
        self.total_rounds
    }

    /// Rounds at which the patch geometry deforms (empty unless built by
    /// [`for_timeline`](Self::for_timeline)).
    pub fn deformation_rounds(&self) -> &[u32] {
        &self.boundaries
    }

    /// `true` if the geometry deforms at the start of `round`.
    pub fn is_deformation_round(&self, round: u32) -> bool {
        self.boundaries.binary_search(&round).is_ok()
    }

    /// Samples a fresh batch of `lanes` shots and rewinds the round
    /// cursor. Draws exactly the RNG sequence of
    /// [`BatchSampler::sample_into`], so streamed experiments reproduce
    /// batch experiments bit for bit.
    pub fn begin<R: Rng + ?Sized>(&mut self, rng: &mut R, lanes: usize) {
        self.batch.set_lanes(lanes);
        self.true_observables = self.sampler.sample_into(rng, &mut self.batch);
        self.cursor = 0;
    }

    /// Emits the next round of the current batch, or `None` when the
    /// batch is exhausted (call [`begin`](Self::begin) again).
    pub fn next_round(&mut self) -> Option<RoundSlice<'_>> {
        if self.cursor >= self.total_rounds {
            return None;
        }
        let round = self.cursor;
        self.cursor += 1;
        let span = self.round_start[round as usize]..self.round_start[round as usize + 1];
        let detectors = &self.order[span.clone()];
        self.words.clear();
        self.words
            .extend(detectors.iter().map(|&d| self.batch.word(d as usize)));
        Some(RoundSlice {
            round,
            detectors,
            words: &self.words,
        })
    }

    /// The true observable-flip word of the current batch (ground truth
    /// for failure counting; conceptually the final logical readout).
    pub fn true_observables(&self) -> u64 {
        self.true_observables
    }

    /// Active lane count of the current batch.
    pub fn lanes(&self) -> usize {
        self.batch.lanes()
    }
}

/// The event-driven twin of [`RoundStream`]: samples each 64-lane batch
/// through [`BatchSampler::sample_sparse`] (draw-for-draw identical RNG
/// consumption, so the emitted syndromes match the dense stream bit for
/// bit) and replays only the rounds that actually fired, in ascending
/// round order, as [`RoundSlice`] *events*. Syndrome-silent rounds — the
/// overwhelming majority at physical error rates — are skipped entirely;
/// the consumer bridges the gaps with a session's `advance_silent`
/// (`surf_matching::WindowedSession`, `DecodeSession`), where clean
/// windows fast-forward, making a batch cost O(firings)
/// instead of O(rounds · detectors).
///
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use surf_defects::DefectMap;
/// use surf_lattice::{Basis, Patch};
/// use surf_sim::{DecoderPrior, DetectorModel, NoiseParams, QubitNoise, SparseRoundStream};
///
/// let patch = Patch::rotated(3);
/// let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
/// let model = DetectorModel::build(&patch, Basis::Z, 3, &noise, DecoderPrior::Informed);
/// let mut stream = SparseRoundStream::new(&model);
/// let mut rng = StdRng::seed_from_u64(7);
/// stream.begin(&mut rng, 64);
/// let mut last = None;
/// while let Some(event) = stream.next_event() {
///     assert!(last < Some(event.round), "events ascend");
///     assert!(!event.detectors.is_empty(), "only firing rounds are emitted");
///     last = Some(event.round);
/// }
/// ```
pub struct SparseRoundStream {
    source: SparseSource,
    /// One past the largest round label.
    total_rounds: u32,
    true_observables: u64,
    lanes: usize,
    /// Firing detectors of the current batch, sorted by (round, id).
    dets: Vec<u32>,
    /// Defect words aligned with `dets`.
    words: Vec<u64>,
    /// `(round, start offset into dets/words)` per firing round.
    events: Vec<(u32, u32)>,
    /// Next event to emit.
    cursor: usize,
    /// Rounds at which the patch geometry deforms (ascending; empty for
    /// fixed-geometry models).
    boundaries: Vec<u32>,
}

/// Sampling backend of a [`SparseRoundStream`].
enum SparseSource {
    /// Whole-horizon monolithic sampler plus its O(rounds) round table.
    Mono {
        sampler: BatchSampler,
        /// Round label of each detector.
        rounds_of: Vec<u32>,
        /// Touched-set sampling scratch, reused across batches.
        scratch: SparseBatch,
    },
    /// Compressed periodic template — resident state O(epochs + firings)
    /// regardless of horizon, RNG consumption draw-for-draw identical to
    /// the monolithic sampler.
    Periodic {
        model: Arc<PeriodicModel>,
        scratch: PeriodicScratch,
        /// Per-batch firings, already sorted by (round, det).
        fired: Vec<PeriodicEvent>,
    },
}

impl SparseRoundStream {
    /// Builds a sparse stream over `model`'s channels and detector rounds.
    pub fn new(model: &DetectorModel) -> Self {
        let total_rounds = model
            .detector_rounds
            .iter()
            .map(|&r| r + 1)
            .max()
            .unwrap_or(0);
        SparseRoundStream {
            source: SparseSource::Mono {
                sampler: model.batch_sampler(),
                rounds_of: model.detector_rounds.clone(),
                scratch: SparseBatch::new(model.num_detectors),
            },
            total_rounds,
            true_observables: 0,
            lanes: 0,
            dets: Vec::new(),
            words: Vec::new(),
            events: Vec::new(),
            cursor: 0,
            boundaries: Vec::new(),
        }
    }

    /// Epoch-aware construction over a [`TimelineModel`]; see
    /// [`RoundStream::for_timeline`].
    pub fn for_timeline(timeline: &TimelineModel) -> Self {
        let mut stream = SparseRoundStream::new(&timeline.model);
        stream.boundaries = timeline.deformation_rounds().to_vec();
        stream
    }

    /// Builds a sparse stream straight over a [`PeriodicModel`] template:
    /// no O(rounds) tables are ever materialised, and each batch samples
    /// from the compressed channels with the monolithic RNG draw order,
    /// so events match [`for_timeline`](Self::for_timeline) bit for bit.
    pub fn for_periodic(model: Arc<PeriodicModel>) -> Self {
        SparseRoundStream {
            total_rounds: RoundModelSource::total_rounds(&*model),
            boundaries: model.deformation_rounds(),
            source: SparseSource::Periodic {
                model,
                scratch: PeriodicScratch::default(),
                fired: Vec::new(),
            },
            true_observables: 0,
            lanes: 0,
            dets: Vec::new(),
            words: Vec::new(),
            events: Vec::new(),
            cursor: 0,
        }
    }

    /// Number of rounds each batch spans (noisy rounds plus the final
    /// readout comparison) — silent ones included, though never emitted.
    pub fn total_rounds(&self) -> u32 {
        self.total_rounds
    }

    /// Rounds at which the patch geometry deforms (empty unless built by
    /// [`for_timeline`](Self::for_timeline)).
    pub fn deformation_rounds(&self) -> &[u32] {
        &self.boundaries
    }

    /// `true` if the geometry deforms at the start of `round`.
    pub fn is_deformation_round(&self, round: u32) -> bool {
        self.boundaries.binary_search(&round).is_ok()
    }

    /// Samples a fresh batch of `lanes` shots and indexes its firings by
    /// round. Consumes exactly the RNG sequence of
    /// [`BatchSampler::sample_into`] (via
    /// [`sample_sparse`](BatchSampler::sample_sparse)), so sparse streamed
    /// experiments reproduce dense ones bit for bit at the same seed.
    pub fn begin<R: Rng + ?Sized>(&mut self, rng: &mut R, lanes: usize) {
        self.lanes = lanes;
        self.dets.clear();
        self.words.clear();
        self.events.clear();
        self.cursor = 0;
        match &mut self.source {
            SparseSource::Mono {
                sampler,
                rounds_of,
                scratch,
            } => {
                self.true_observables = sampler.sample_sparse(rng, lanes, scratch);
                self.dets.extend(
                    scratch
                        .touched()
                        .iter()
                        .copied()
                        .filter(|&d| scratch.word(d as usize) != 0),
                );
                self.dets
                    .sort_unstable_by_key(|&d| (rounds_of[d as usize], d));
                for &d in &self.dets {
                    let round = rounds_of[d as usize];
                    if self.events.last().map(|&(r, _)| r) != Some(round) {
                        self.events.push((round, self.words.len() as u32));
                    }
                    self.words.push(scratch.word(d as usize));
                }
            }
            SparseSource::Periodic {
                model,
                scratch,
                fired,
            } => {
                self.true_observables = model.sample_sparse_into(rng, lanes, scratch, fired);
                for e in fired.iter() {
                    if self.events.last().map(|&(r, _)| r) != Some(e.round) {
                        self.events.push((e.round, self.words.len() as u32));
                    }
                    self.dets.push(e.det);
                    self.words.push(e.word);
                }
            }
        }
    }

    /// Emits the next firing round of the current batch, or `None` when
    /// the batch is exhausted (call [`begin`](Self::begin) again). Every
    /// emitted slice is non-empty; rounds between consecutive events are
    /// syndrome-silent across all lanes.
    pub fn next_event(&mut self) -> Option<RoundSlice<'_>> {
        if self.cursor >= self.events.len() {
            return None;
        }
        let (round, start) = self.events[self.cursor];
        let end = self
            .events
            .get(self.cursor + 1)
            .map_or(self.dets.len(), |&(_, s)| s as usize);
        self.cursor += 1;
        Some(RoundSlice {
            round,
            detectors: &self.dets[start as usize..end],
            words: &self.words[start as usize..end],
        })
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

    fn model(d: usize, rounds: u32, p: f64) -> DetectorModel {
        let patch = Patch::rotated(d);
        let noise = QubitNoise::new(NoiseParams::uniform(p), DefectMap::new());
        DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
    }

    #[test]
    fn rounds_partition_all_detectors() {
        let m = model(3, 4, 1e-2);
        let stream = RoundStream::new(&m);
        assert_eq!(stream.total_rounds(), 5);
        assert_eq!(*stream.round_start.last().unwrap(), m.num_detectors);
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
        let mut sparse = SparseRoundStream::new(&m);
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
        let mut m = SparseRoundStream::for_timeline(&mono);
        let mut p = SparseRoundStream::for_periodic(Arc::clone(&per));
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
        let mut p = RoundStream::for_periodic(&per);
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
