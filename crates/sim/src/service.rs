//! Decode-as-a-service: owned, resumable streaming decode sessions.
//!
//! The figure binaries drive the streamed pipeline in a closed loop:
//! sample a batch, replay it round-major, decode, count. A decode
//! *service* inverts that control flow — syndrome rounds arrive from
//! outside (hardware, a socket, another process) per logical qubit, and
//! corrections plus availability must come back per round. This module
//! provides the seam: a [`SessionConfig`] compiles the experiment
//! (timeline geometry, defect schedule, decoder prior, window split)
//! once, and [`DecodeSession`]s opened from it accept rounds one at a
//! time via [`push_round`](DecodeSession::push_round), returning a
//! [`SessionOutput`] with the committed horizon, lane-packed observable
//! flips, the current [`Availability`] state and pending
//! [`DeformationNotice`]s.
//!
//! Sessions are fully owned (`Send`): the decoder is shared through an
//! [`Arc`], so a session can outlive the scope — or the request
//! handler — that created it, and [`fork`](DecodeSession::fork) opens
//! sibling sessions over the same compiled model for concurrent shot
//! batches.
//!
//! # Determinism contract
//!
//! A session's outputs are a pure function of its configuration and the
//! pushed detector words. When the words come from a [`RoundStream`]
//! seeded by global batch index (see
//! [`MemoryExperiment::run_stream`](crate::MemoryExperiment::run_stream)),
//! failure counts are therefore a pure function of `(seed, batch_index)`
//! — independent of thread count, of how rounds are chunked into wire
//! frames, and of whether a [`DefectSchedule`] was supplied upfront or
//! [injected](DecodeSession::inject_event) mid-stream (injection replays
//! the recorded history through the recompiled model).

use std::borrow::Cow;
use std::sync::Arc;

use surf_defects::{DefectEpisode, DefectEvent, DefectSchedule};
use surf_deformer_core::PatchTimeline;
use surf_lattice::Basis;
use surf_matching::{OwnedWindowedSession, RoundModelSource, WindowConfig, WindowedDecoder};

use crate::memory::DecoderKind;
use crate::model::DecoderPrior;
use crate::noise::NoiseParams;
use crate::periodic::PeriodicModel;
use crate::stream::RoundStream;
use crate::timeline::TimelineModel;

/// Everything needed to compile a decode session: the geometry timeline,
/// the basis and round budget, the noise/defect environment the decoder
/// should believe in, and the windowed-decoding split.
///
/// Build one with [`SessionConfig::new`] (fixed geometry) or from an
/// existing experiment via
/// [`MemoryExperiment::session_config`](crate::MemoryExperiment::session_config),
/// refine it with the `with_*` builders, then [`open`](SessionConfig::open)
/// sessions from it.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Patch geometry over time (one epoch per deformation).
    pub timeline: PatchTimeline,
    /// Which logical memory the session protects.
    pub basis: Basis,
    /// Noisy measurement rounds (the readout comparison adds one more
    /// detector round).
    pub rounds: u32,
    /// Nominal noise parameters.
    pub noise: NoiseParams,
    /// Decoder knowledge about defects.
    pub prior: DecoderPrior,
    /// Decoder backend.
    pub decoder: DecoderKind,
    /// Sliding-window split for streamed decoding.
    pub window: WindowConfig,
    /// Defect episodes known at compile time (more can be
    /// [injected](DecodeSession::inject_event) mid-stream).
    pub schedule: DefectSchedule,
    /// Compile the windowed decoder in sparse mode: window plans resolve
    /// lazily (structurally identical windows share one backend) and
    /// sessions fast-forward through defect-free windows — exact, and
    /// required for 10⁵+ round horizons where eager per-window compilation
    /// dominates. When the horizon is additionally long enough to prove
    /// periodic, sparse sessions compile a [`PeriodicModel`] template and
    /// a round-indexed virtual decoder instead of the monolithic model,
    /// making resident model memory O(epochs + window) instead of
    /// O(rounds) — outputs stay bit-identical either way. Dense mode
    /// keeps the eager decoder bit for bit.
    pub sparse: bool,
}

impl SessionConfig {
    /// A fixed-geometry session over `timeline`'s first patch: paper
    /// noise, informed prior, MWPM, one full-history window.
    pub fn new(timeline: PatchTimeline, basis: Basis, rounds: u32) -> Self {
        SessionConfig {
            timeline,
            basis,
            rounds,
            noise: NoiseParams::paper(),
            prior: DecoderPrior::Informed,
            decoder: DecoderKind::Mwpm,
            window: WindowConfig::new(rounds + 1),
            schedule: DefectSchedule::new(),
            sparse: false,
        }
    }

    /// Replaces the window split.
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        self.window = window;
        self
    }

    /// Replaces the defect schedule.
    pub fn with_schedule(mut self, schedule: DefectSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Replaces the schedule with one permanent event.
    pub fn with_event(self, event: &DefectEvent) -> Self {
        self.with_schedule(DefectSchedule::permanent_event(event))
    }

    /// Replaces the decoder backend.
    pub fn with_decoder(mut self, decoder: DecoderKind) -> Self {
        self.decoder = decoder;
        self
    }

    /// Switches sparse (event-driven) compilation on or off; see
    /// [`SessionConfig::sparse`].
    pub fn with_sparse(mut self, sparse: bool) -> Self {
        self.sparse = sparse;
        self
    }

    /// Compiles the config and opens a session over `lanes` parallel
    /// shots. Opening more sessions over the same compilation is cheap
    /// via [`DecodeSession::fork`].
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`, an epoch starts at or after `rounds`, or
    /// `lanes` is outside `1..=64`.
    pub fn open(&self, lanes: usize) -> DecodeSession {
        let shared = Arc::new(SessionShared::compile(self.clone()));
        DecodeSession::over(shared, lanes)
    }
}

/// Service-level health of the logical qubit at a given round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Availability {
    /// No active defect; original geometry (or a strike fully healed
    /// before any deformation).
    Nominal,
    /// A defect episode is active that the current epoch's geometry does
    /// not yet mitigate — the reaction window where logical fidelity is
    /// degraded.
    Degraded {
        /// Round the earliest such episode struck.
        since: u32,
    },
    /// Running on deformed geometry that post-dates every active strike:
    /// the mitigation is deployed.
    Mitigated {
        /// Index of the current timeline epoch (`>= 1`).
        epoch: u32,
    },
}

/// Advance notice that the patch geometry changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeformationNotice {
    /// First round measured on the new geometry (equals the session's
    /// current [`filled_rounds`](DecodeSession::filled_rounds): the
    /// *next* round to be pushed).
    pub at_round: u32,
    /// The timeline epoch that begins there.
    pub epoch: u32,
}

/// Per-push result: what the service reports back for one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionOutput {
    /// The round just consumed.
    pub round: u32,
    /// Corrections are final for rounds `0..committed_through` — the
    /// commit latency is `round + 1 - committed_through` rounds.
    pub committed_through: u32,
    /// Windows decoded so far.
    pub windows_committed: u32,
    /// Lane-packed committed observable-flip predictions (bit `b` =
    /// lane `b`'s observable 0). Stable once the final window commits.
    pub observable_flips: u64,
    /// Health state at the consumed round.
    pub availability: Availability,
    /// Present when the *next* round is measured on new geometry.
    pub deformation: Option<DeformationNotice>,
}

/// Why a session rejected an input (the daemon maps these to protocol
/// errors instead of crashing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// Pushed word count does not match the round's detector count.
    WordCount {
        /// The round being pushed.
        round: u32,
        /// Detectors in that round.
        expected: usize,
        /// Words supplied.
        got: usize,
    },
    /// All rounds already pushed; the stream is complete.
    StreamComplete,
    /// [`finish`](DecodeSession::finish) before every round was pushed.
    Incomplete {
        /// Rounds pushed so far.
        filled: u32,
        /// Rounds required.
        total: u32,
    },
    /// A [`replan`](DecodeSession::replan) changed the detector layout of
    /// an already-pushed round, so the history cannot be replayed.
    GeometryDiverged {
        /// First already-pushed round whose layout changed.
        round: u32,
    },
    /// A sparse push named a detector that does not belong to the round
    /// being filled.
    DetectorRound {
        /// The round being pushed.
        round: u32,
        /// The offending detector id.
        detector: u32,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::WordCount {
                round,
                expected,
                got,
            } => write!(f, "round {round} expects {expected} words, got {got}"),
            SessionError::StreamComplete => write!(f, "all rounds already pushed"),
            SessionError::Incomplete { filled, total } => {
                write!(f, "stream incomplete: {filled} of {total} rounds pushed")
            }
            SessionError::GeometryDiverged { round } => {
                write!(
                    f,
                    "replan changed the detector layout of pushed round {round}"
                )
            }
            SessionError::DetectorRound { round, detector } => {
                write!(f, "detector {detector} does not belong to round {round}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// The compiled detector model behind a session family: either the
/// monolithic whole-horizon [`TimelineModel`] with its O(rounds) round
/// tables, or a horizon-compressed [`PeriodicModel`] template served by
/// index arithmetic — O(epochs) resident regardless of the horizon.
enum SessionModel {
    Mono {
        tm: Box<TimelineModel>,
        /// Detector ids sorted by round (ascending ids within a round —
        /// the same canonical order [`RoundStream`] emits).
        order: Vec<u32>,
        /// Round `r` owns `order[round_start[r]..round_start[r + 1]]`.
        round_start: Vec<usize>,
    },
    Periodic(Arc<PeriodicModel>),
}

/// The compiled, immutable heart of a session family: the detector model
/// (monolithic or periodic), the shared windowed decoder and the epoch
/// boundaries. Shared by every [`fork`](DecodeSession::fork) through an
/// [`Arc`]. Per-round data (detector layouts, availability) is served on
/// demand so nothing here scales with the horizon on the periodic path.
struct SessionShared {
    config: SessionConfig,
    model: SessionModel,
    decoder: Arc<WindowedDecoder>,
    total_rounds: u32,
    /// Real rounds where each geometry epoch begins (`epoch_starts[0] == 0`).
    epoch_starts: Vec<u32>,
}

impl SessionShared {
    fn compile(config: SessionConfig) -> Self {
        if config.sparse {
            if let Some(pm) = PeriodicModel::build(
                &config.timeline,
                config.basis,
                config.rounds,
                config.noise,
                &config.schedule,
                config.prior,
            ) {
                let pm = Arc::new(pm);
                let decoder = Arc::new(WindowedDecoder::virtual_source(
                    Arc::clone(&pm) as Arc<dyn RoundModelSource>,
                    1,
                    config.window,
                    config.decoder.factory(),
                ));
                let total_rounds = RoundModelSource::total_rounds(&*pm);
                let epoch_starts = pm.epoch_starts().to_vec();
                return SessionShared {
                    config,
                    model: SessionModel::Periodic(pm),
                    decoder,
                    total_rounds,
                    epoch_starts,
                };
            }
        }
        let tm = TimelineModel::build_scheduled(
            &config.timeline,
            config.basis,
            config.rounds,
            config.noise,
            &config.schedule,
            config.prior,
        );
        let build = if config.sparse {
            WindowedDecoder::from_epochs_sparse
        } else {
            WindowedDecoder::from_epochs
        };
        let decoder = Arc::new(build(
            tm.model.num_detectors,
            &tm.graph_epochs(),
            1,
            config.window,
            config.decoder.factory(),
        ));
        let total_rounds = tm
            .model
            .detector_rounds
            .iter()
            .map(|&r| r + 1)
            .max()
            .unwrap_or(0);
        let mut order: Vec<u32> = (0..tm.model.num_detectors as u32).collect();
        order.sort_by_key(|&d| tm.model.detector_rounds[d as usize]);
        let mut round_start = Vec::with_capacity(total_rounds as usize + 1);
        round_start.push(0usize);
        for r in 0..total_rounds {
            let prev = *round_start.last().unwrap();
            let len = order[prev..]
                .iter()
                .take_while(|&&d| tm.model.detector_rounds[d as usize] == r)
                .count();
            round_start.push(prev + len);
        }
        let epoch_starts = tm.epoch_starts.clone();
        SessionShared {
            config,
            model: SessionModel::Mono {
                tm: Box::new(tm),
                order,
                round_start,
            },
            decoder,
            total_rounds,
            epoch_starts,
        }
    }

    fn detectors_of(&self, round: u32) -> Cow<'_, [u32]> {
        match &self.model {
            SessionModel::Mono {
                order, round_start, ..
            } => {
                let span = round_start[round as usize]..round_start[round as usize + 1];
                Cow::Borrowed(&order[span])
            }
            SessionModel::Periodic(_) => {
                let mut out = Vec::new();
                self.round_detectors(round, &mut out);
                Cow::Owned(out)
            }
        }
    }

    /// `round`'s detector ids: borrowed from the precomputed tables on the
    /// monolithic path, written into `scratch` on the periodic path — so
    /// a caller reusing one scratch buffer allocates nothing per round.
    fn round_detectors<'a>(&'a self, round: u32, scratch: &'a mut Vec<u32>) -> &'a [u32] {
        match &self.model {
            SessionModel::Mono {
                order, round_start, ..
            } => &order[round_start[round as usize]..round_start[round as usize + 1]],
            SessionModel::Periodic(pm) => {
                scratch.clear();
                RoundModelSource::detectors_in(&**pm, round..round + 1, scratch);
                scratch
            }
        }
    }

    /// Number of detectors in `round` — O(1), allocation-free on both
    /// model paths.
    fn detector_count_of(&self, round: u32) -> usize {
        match &self.model {
            SessionModel::Mono { round_start, .. } => {
                round_start[round as usize + 1] - round_start[round as usize]
            }
            SessionModel::Periodic(pm) => pm.detector_count_in_round(round),
        }
    }

    fn num_detectors(&self) -> usize {
        match &self.model {
            SessionModel::Mono { tm, .. } => tm.model.num_detectors,
            SessionModel::Periodic(pm) => pm.num_detectors(),
        }
    }

    /// The round `det` belongs to. `det` must be below
    /// [`num_detectors`](Self::num_detectors).
    fn detector_round(&self, det: u32) -> u32 {
        match &self.model {
            SessionModel::Mono { tm, .. } => tm.model.detector_rounds[det as usize],
            SessionModel::Periodic(pm) => RoundModelSource::detector_round(&**pm, det),
        }
    }

    /// The epoch beginning exactly at `round`, if any (epoch 0 "begins"
    /// before the stream and never announces).
    fn epoch_starting_at(&self, round: u32) -> Option<u32> {
        (round > 0)
            .then(|| self.epoch_starts.binary_search(&round).ok())
            .flatten()
            .map(|e| e as u32)
    }
}

/// Health at `round`: an active episode that struck at or after the
/// current epoch's start is not yet mitigated by that epoch's geometry.
fn availability_at(round: u32, epoch_starts: &[u32], schedule: &DefectSchedule) -> Availability {
    let epoch = epoch_starts.partition_point(|&s| s <= round).max(1) - 1;
    let epoch_start = epoch_starts[epoch];
    let since = schedule
        .episodes()
        .iter()
        .filter(|ep| ep.active_at(round) && ep.start >= epoch_start)
        .map(|ep| ep.start)
        .min();
    match since {
        Some(since) => Availability::Degraded { since },
        None if epoch > 0 => Availability::Mitigated {
            epoch: epoch as u32,
        },
        None => Availability::Nominal,
    }
}

/// One entry of a session's replay history. Silent rounds are stored
/// run-length-encoded and replay as empty pushes: a round with no defect
/// in any lane decodes identically under *any* detector layout, so
/// silent stretches are deliberately exempt from the
/// [`replan`](DecodeSession::replan) divergence check — the relaxation
/// that lets 10⁵-round sparse sessions keep O(events) history.
enum RoundRecord {
    /// Full detector words of one round, in canonical order.
    Dense(Vec<u64>),
    /// Only the firing detectors of one round.
    Sparse {
        detectors: Vec<u32>,
        words: Vec<u64>,
    },
    /// This many consecutive defect-free rounds.
    Silent(u32),
}

/// An owned, resumable streaming decode over up to 64 parallel shots of
/// one logical qubit. See the [module docs](self) for the determinism
/// contract and [`SessionConfig`] for construction.
pub struct DecodeSession {
    shared: Arc<SessionShared>,
    inner: OwnedWindowedSession,
    /// Pushed rounds, kept for replay on
    /// [`inject_event`](Self::inject_event)/[`replan`](Self::replan).
    history: Vec<RoundRecord>,
    /// Reusable detector-id buffer for dense pushes on the periodic path.
    round_dets: Vec<u32>,
}

impl DecodeSession {
    fn over(shared: Arc<SessionShared>, lanes: usize) -> Self {
        let inner = Arc::clone(&shared.decoder).into_session(lanes);
        DecodeSession {
            shared,
            inner,
            history: Vec::new(),
            round_dets: Vec::new(),
        }
    }

    /// Opens a sibling session over the same compiled model — fresh
    /// stream state, shared decoder. Cheap: no recompilation.
    pub fn fork(&self, lanes: usize) -> DecodeSession {
        DecodeSession::over(Arc::clone(&self.shared), lanes)
    }

    /// The configuration this session was compiled from (including any
    /// injected episodes).
    pub fn config(&self) -> &SessionConfig {
        &self.shared.config
    }

    /// Number of parallel shot lanes.
    pub fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    /// Rounds `0..filled_rounds()` have been pushed.
    pub fn filled_rounds(&self) -> u32 {
        self.inner.filled_rounds()
    }

    /// Total rounds the stream spans (noisy rounds plus readout).
    pub fn total_rounds(&self) -> u32 {
        self.shared.total_rounds
    }

    /// Corrections are final for rounds `0..committed_through()`.
    pub fn committed_through(&self) -> u32 {
        self.shared
            .decoder
            .commit_horizon(self.inner.windows_committed())
    }

    /// Windows the stream is decoded in.
    pub fn num_windows(&self) -> usize {
        self.shared.decoder.num_windows()
    }

    /// Committed windows decoded through the backend (since open, or
    /// since the last [`inject_event`](Self::inject_event)/
    /// [`replan`](Self::replan), which replay the history into a fresh
    /// decoder).
    pub fn windows_decoded(&self) -> u64 {
        self.inner.windows_decoded()
    }

    /// Committed windows fast-forwarded without the backend because no
    /// defect reached them; together with
    /// [`windows_decoded`](Self::windows_decoded) this accounts for every
    /// committed window.
    pub fn windows_fast_forwarded(&self) -> u64 {
        self.inner.windows_fast_forwarded()
    }

    /// Window-plan assemblies performed by the decoder this session
    /// shares with its forks (see [`WindowedDecoder::plan_builds`]).
    pub fn plan_builds(&self) -> u64 {
        self.shared.decoder.plan_builds()
    }

    /// Detector ids of `round`, in the canonical push order (ascending;
    /// the order [`RoundStream`] emits and the wire protocol assumes).
    /// Borrowed from the precomputed tables on the monolithic path;
    /// computed on demand (owned) on the periodic path.
    pub fn detectors_of(&self, round: u32) -> Cow<'_, [u32]> {
        self.shared.detectors_of(round)
    }

    /// Number of detectors in `round` — O(1) and allocation-free on both
    /// model paths (the daemon builds 10⁶-entry layout tables from this).
    pub fn detector_count_of(&self, round: u32) -> usize {
        self.shared.detector_count_of(round)
    }

    /// Health state at the most recently pushed round.
    pub fn availability(&self) -> Availability {
        let r = self.filled_rounds().saturating_sub(1);
        availability_at(r, &self.shared.epoch_starts, &self.shared.config.schedule)
    }

    /// Per-lane committed observable masks accumulated so far.
    pub fn observables(&self) -> &[u64] {
        self.inner.observables()
    }

    /// A round-major sampler over this session's compiled model — the
    /// Monte-Carlo stand-in for a hardware syndrome link, emitting
    /// detector words in exactly the order
    /// [`push_round`](Self::push_round) expects.
    pub fn round_stream(&self) -> RoundStream {
        match &self.shared.model {
            SessionModel::Mono { tm, .. } => RoundStream::for_timeline(tm),
            SessionModel::Periodic(pm) => RoundStream::for_periodic(pm),
        }
    }

    /// The event-driven twin of [`round_stream`](Self::round_stream):
    /// emits only firing rounds (bit-identical syndromes at the same
    /// seed), to be consumed with
    /// [`push_round_sparse`](Self::push_round_sparse) and
    /// [`advance_silent`](Self::advance_silent).
    pub fn sparse_round_stream(&self) -> crate::stream::SparseRoundStream {
        match &self.shared.model {
            SessionModel::Mono { tm, .. } => crate::stream::SparseRoundStream::for_timeline(tm),
            SessionModel::Periodic(pm) => {
                crate::stream::SparseRoundStream::for_periodic(Arc::clone(pm))
            }
        }
    }

    /// The width-`N` twin of [`round_stream`](Self::round_stream):
    /// samples `N·64` shot lanes per pass and emits per-sub-word word
    /// slices ([`WideRoundSlice::words_of`](crate::WideRoundSlice::words_of)),
    /// each shaped exactly for one forked base-width session's
    /// [`push_round`](Self::push_round).
    pub fn wide_round_stream<const N: usize>(&self) -> crate::stream::WideRoundStream<N> {
        match &self.shared.model {
            SessionModel::Mono { tm, .. } => crate::stream::WideRoundStream::for_timeline(tm),
            SessionModel::Periodic(pm) => crate::stream::WideRoundStream::for_periodic(pm),
        }
    }

    /// The width-`N` twin of
    /// [`sparse_round_stream`](Self::sparse_round_stream): events are the
    /// union of firing rounds across sub-words, to be striped into `N`
    /// forked sessions via
    /// [`push_round_sparse`](Self::push_round_sparse).
    pub fn wide_sparse_round_stream<const N: usize>(
        &self,
    ) -> crate::stream::WideSparseRoundStream<N> {
        match &self.shared.model {
            SessionModel::Mono { tm, .. } => crate::stream::WideSparseRoundStream::for_timeline(tm),
            SessionModel::Periodic(pm) => {
                crate::stream::WideSparseRoundStream::for_periodic(Arc::clone(pm))
            }
        }
    }

    /// Consumes the next round's detector words (`words[i]` is the
    /// 64-lane firing word of `self.detectors_of(round)[i]`), decodes
    /// every window now complete, and reports the committed horizon,
    /// lane-packed observable flips, availability and any pending
    /// deformation notice.
    pub fn push_round(&mut self, words: &[u64]) -> Result<SessionOutput, SessionError> {
        let round = self.inner.filled_rounds();
        if round >= self.shared.total_rounds {
            return Err(SessionError::StreamComplete);
        }
        let detectors = self.shared.round_detectors(round, &mut self.round_dets);
        if words.len() != detectors.len() {
            return Err(SessionError::WordCount {
                round,
                expected: detectors.len(),
                got: words.len(),
            });
        }
        self.inner.push_round(round, detectors, words);
        if words.iter().all(|&w| w == 0) {
            self.record_silent(1);
        } else {
            self.history.push(RoundRecord::Dense(words.to_vec()));
        }
        Ok(self.output_for(round))
    }

    /// [`push_round`](Self::push_round) for event-driven feeds: supplies
    /// only the *firing* detectors of the next round (`words[i]` is the
    /// 64-lane firing word of `detectors[i]`; omitted detectors are
    /// defect-free). The canonical source is
    /// [`sparse_round_stream`](Self::sparse_round_stream); combined with
    /// [`advance_silent`](Self::advance_silent) over the gaps, the
    /// decoded stream is bit-identical to dense pushes of the same
    /// sample.
    pub fn push_round_sparse(
        &mut self,
        detectors: &[u32],
        words: &[u64],
    ) -> Result<SessionOutput, SessionError> {
        let round = self.inner.filled_rounds();
        if round >= self.shared.total_rounds {
            return Err(SessionError::StreamComplete);
        }
        if words.len() != detectors.len() {
            return Err(SessionError::WordCount {
                round,
                expected: detectors.len(),
                got: words.len(),
            });
        }
        for &det in detectors {
            if det as usize >= self.shared.num_detectors()
                || self.shared.detector_round(det) != round
            {
                return Err(SessionError::DetectorRound {
                    round,
                    detector: det,
                });
            }
        }
        self.inner.push_round(round, detectors, words);
        if words.iter().all(|&w| w == 0) {
            self.record_silent(1);
        } else {
            self.history.push(RoundRecord::Sparse {
                detectors: detectors.to_vec(),
                words: words.to_vec(),
            });
        }
        Ok(self.output_for(round))
    }

    /// Feeds up to `rounds` consecutive defect-free rounds in one call —
    /// the bulk twin of pushing that many all-zero rounds. With a
    /// [sparse](SessionConfig::sparse) session, windows that complete
    /// inside the stretch and saw no defect commit without invoking the
    /// decoder backend, so skipping costs O(windows), not O(rounds).
    ///
    /// The advance clamps at the next geometry-epoch boundary (so every
    /// [`DeformationNotice`] still fires) and at the stream end; the
    /// returned output describes the *last* round consumed (`round + 1 -
    /// filled_rounds_before` tells how far it got — loop until the gap is
    /// closed). Per-round availability inside the stretch is not
    /// reported individually; it is constant between boundaries for
    /// defect-free rounds of an unchanged schedule.
    ///
    /// Errors with [`SessionError::StreamComplete`] if the stream is
    /// already full or `rounds == 0`.
    pub fn advance_silent(&mut self, rounds: u32) -> Result<SessionOutput, SessionError> {
        let filled = self.inner.filled_rounds();
        let total = self.shared.total_rounds;
        if rounds == 0 || filled >= total {
            return Err(SessionError::StreamComplete);
        }
        let mut step = rounds.min(total - filled);
        if let Some(&boundary) = self.shared.epoch_starts.iter().find(|&&s| s > filled) {
            step = step.min(boundary - filled);
        }
        self.inner.advance_silent(step);
        self.record_silent(step);
        Ok(self.output_for(filled + step - 1))
    }

    /// Appends `rounds` silent rounds to the replay history, merging
    /// adjacent silent runs.
    fn record_silent(&mut self, rounds: u32) {
        if let Some(RoundRecord::Silent(n)) = self.history.last_mut() {
            *n += rounds;
        } else {
            self.history.push(RoundRecord::Silent(rounds));
        }
    }

    fn output_for(&self, round: u32) -> SessionOutput {
        let next = round + 1;
        let mut flips = 0u64;
        for (lane, &mask) in self.inner.observables().iter().enumerate() {
            flips |= (mask & 1) << lane;
        }
        SessionOutput {
            round,
            committed_through: self.committed_through(),
            windows_committed: self.inner.windows_committed() as u32,
            observable_flips: flips,
            availability: availability_at(
                round,
                &self.shared.epoch_starts,
                &self.shared.config.schedule,
            ),
            deformation: self
                .shared
                .epoch_starting_at(next)
                .map(|epoch| DeformationNotice {
                    at_round: next,
                    epoch,
                }),
        }
    }

    /// Adds a permanent defect episode mid-stream — the service just
    /// learned of a strike — and recompiles: the schedule gains the
    /// episode, the decoder prior reweights, and the already-pushed
    /// history replays through the new model. Outputs from here on are
    /// identical to a session compiled with the episode upfront and fed
    /// the same words (committed corrections for past windows are
    /// re-derived under the new prior).
    pub fn inject_event(&mut self, event: &DefectEvent) -> Result<(), SessionError> {
        self.inject_episode(DefectEpisode::permanent(event.round, event.defects.clone()))
    }

    /// [`inject_event`](Self::inject_event) generalised to any episode
    /// (temporary strikes heal on schedule).
    pub fn inject_episode(&mut self, episode: DefectEpisode) -> Result<(), SessionError> {
        let mut config = self.shared.config.clone();
        config.schedule.push(episode);
        self.recompile(config)
    }

    /// Swaps in a new geometry timeline mid-stream — `mitigate` planned a
    /// deformation — and replays the pushed history through the
    /// recompiled model. The already-pushed rounds must lie in the shared
    /// geometry prefix: if the new timeline changes the detector layout
    /// of a pushed round, the replay is impossible and
    /// [`SessionError::GeometryDiverged`] is returned (the session is
    /// left untouched).
    pub fn replan(&mut self, timeline: PatchTimeline) -> Result<(), SessionError> {
        let mut config = self.shared.config.clone();
        config.timeline = timeline;
        self.recompile(config)
    }

    /// Rebuilds the shared model under `config` and replays the history.
    /// On any error the session is left untouched.
    ///
    /// Silent rounds replay as empty pushes and are compatible with any
    /// layout; dense rounds require an unchanged detector count, sparse
    /// rounds require every recorded detector to still belong to its
    /// round.
    fn recompile(&mut self, config: SessionConfig) -> Result<(), SessionError> {
        let shared = Arc::new(SessionShared::compile(config));
        let mut round: u32 = 0;
        for record in &self.history {
            match record {
                RoundRecord::Dense(words) => {
                    if words.len() != shared.detector_count_of(round) {
                        return Err(SessionError::GeometryDiverged { round });
                    }
                    round += 1;
                }
                RoundRecord::Sparse { detectors, .. } => {
                    for &det in detectors {
                        if det as usize >= shared.num_detectors()
                            || shared.detector_round(det) != round
                        {
                            return Err(SessionError::GeometryDiverged { round });
                        }
                    }
                    round += 1;
                }
                RoundRecord::Silent(n) => round += n,
            }
        }
        let mut inner = Arc::clone(&shared.decoder).into_session(self.inner.lanes());
        for record in &self.history {
            match record {
                RoundRecord::Dense(words) => {
                    let r = inner.filled_rounds();
                    inner.push_round(r, shared.round_detectors(r, &mut self.round_dets), words);
                }
                RoundRecord::Sparse { detectors, words } => {
                    let r = inner.filled_rounds();
                    inner.push_round(r, detectors, words);
                }
                RoundRecord::Silent(n) => inner.advance_silent(*n),
            }
        }
        self.shared = shared;
        self.inner = inner;
        Ok(())
    }

    /// Completes the stream and returns the per-lane predicted
    /// observable-flip masks. Fails (without consuming the session's
    /// usefulness — but the session *is* consumed) unless every round was
    /// pushed; check [`filled_rounds`](Self::filled_rounds) first when
    /// unsure.
    pub fn finish(self) -> Result<Vec<u64>, SessionError> {
        if self.inner.filled_rounds() != self.shared.total_rounds {
            return Err(SessionError::Incomplete {
                filled: self.inner.filled_rounds(),
                total: self.shared.total_rounds,
            });
        }
        Ok(self.inner.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use surf_defects::DefectMap;
    use surf_lattice::{Coord, Patch};

    fn fixed_config(d: usize, rounds: u32) -> SessionConfig {
        SessionConfig::new(
            PatchTimeline::fixed(Patch::rotated(d), DefectMap::new()),
            Basis::Z,
            rounds,
        )
        .with_window(WindowConfig::new(rounds))
    }

    #[test]
    fn session_round_layout_matches_round_stream() {
        let session = fixed_config(3, 4).open(64);
        let mut stream = session.round_stream();
        let mut rng = StdRng::seed_from_u64(3);
        stream.begin(&mut rng, 64);
        let mut rounds = 0;
        while let Some(slice) = stream.next_round() {
            assert_eq!(slice.detectors, &*session.detectors_of(slice.round));
            rounds += 1;
        }
        assert_eq!(rounds, session.total_rounds());
    }

    #[test]
    fn push_round_commits_and_finishes() {
        let mut session = fixed_config(3, 4).open(64);
        let mut stream = session.round_stream();
        let mut rng = StdRng::seed_from_u64(9);
        stream.begin(&mut rng, 64);
        let mut last = None;
        while let Some(slice) = stream.next_round() {
            let out = session.push_round(slice.words).unwrap();
            assert_eq!(out.round, slice.round);
            assert_eq!(out.availability, Availability::Nominal);
            assert!(out.committed_through <= out.round + 1);
            last = Some(out);
        }
        let last = last.unwrap();
        assert_eq!(last.committed_through, session.total_rounds());
        // The final output's packed flips agree with the full predictions.
        let predictions = session.finish().unwrap();
        let mut flips = 0u64;
        for (lane, &mask) in predictions.iter().enumerate() {
            flips |= (mask & 1) << lane;
        }
        assert_eq!(flips, last.observable_flips);
    }

    #[test]
    fn bad_inputs_are_rejected_not_panicked() {
        let mut session = fixed_config(3, 3).open(8);
        let n = session.detectors_of(0).len();
        assert_eq!(
            session.push_round(&vec![0u64; n + 1]).unwrap_err(),
            SessionError::WordCount {
                round: 0,
                expected: n,
                got: n + 1
            }
        );
        // Early finish is an error, not a panic.
        let early = fixed_config(3, 3).open(8);
        assert_eq!(
            early.finish().unwrap_err(),
            SessionError::Incomplete {
                filled: 0,
                total: 4
            }
        );
    }

    #[test]
    fn availability_tracks_strike_and_mitigation() {
        // Strike at round 2, deformation (mitigation) deployed at round 4.
        let before = Patch::rotated(5);
        let after = {
            use surf_deformer_core::data_q_rm;
            let mut p = before.clone();
            data_q_rm(&mut p, Coord::new(5, 5)).unwrap();
            p
        };
        let mut timeline = PatchTimeline::fixed(before, DefectMap::new());
        timeline.push_epoch(4, after, DefectMap::new());
        let schedule = DefectSchedule::from_episodes([DefectEpisode::permanent(
            2,
            DefectMap::from_qubits([Coord::new(5, 5)], 0.5),
        )]);
        let config = SessionConfig::new(timeline, Basis::Z, 8)
            .with_schedule(schedule)
            .with_window(WindowConfig::new(4));
        let mut session = config.open(64);
        let mut stream = session.round_stream();
        let mut rng = StdRng::seed_from_u64(17);
        stream.begin(&mut rng, 64);
        let mut notices = Vec::new();
        while let Some(slice) = stream.next_round() {
            let out = session.push_round(slice.words).unwrap();
            let expected = match out.round {
                0 | 1 => Availability::Nominal,
                2 | 3 => Availability::Degraded { since: 2 },
                _ => Availability::Mitigated { epoch: 1 },
            };
            assert_eq!(out.availability, expected, "round {}", out.round);
            if let Some(n) = out.deformation {
                notices.push(n);
            }
        }
        assert_eq!(
            notices,
            vec![DeformationNotice {
                at_round: 4,
                epoch: 1
            }]
        );
        session.finish().unwrap();
    }

    #[test]
    fn forks_share_compilation_and_decode_independently() {
        let proto = fixed_config(3, 4).open(1);
        let mut stream = proto.round_stream();
        let mut rng = StdRng::seed_from_u64(5);
        let mut a = proto.fork(64);
        let mut b = proto.fork(64);
        stream.begin(&mut rng, 64);
        let mut slices: Vec<Vec<u64>> = Vec::new();
        while let Some(slice) = stream.next_round() {
            slices.push(slice.words.to_vec());
        }
        for words in &slices {
            a.push_round(words).unwrap();
        }
        for words in &slices {
            b.push_round(words).unwrap();
        }
        assert_eq!(a.finish().unwrap(), b.finish().unwrap());
    }

    #[test]
    fn inject_event_matches_upfront_compile() {
        let d = 5;
        let rounds = 8u32;
        let event = DefectEvent {
            round: 4,
            defects: DefectMap::from_qubits([Coord::new(5, 5), Coord::new(4, 4)], 0.5),
        };
        let base = fixed_config(d, rounds);
        let upfront = base.clone().with_event(&event);

        // One batch of words sampled under the *struck* environment.
        let mut stream = upfront.open(1).round_stream();
        let mut rng = StdRng::seed_from_u64(31);
        stream.begin(&mut rng, 64);
        let mut slices: Vec<Vec<u64>> = Vec::new();
        while let Some(slice) = stream.next_round() {
            slices.push(slice.words.to_vec());
        }

        // (a) compiled with the event upfront.
        let mut direct = upfront.open(64);
        for words in &slices {
            direct.push_round(words).unwrap();
        }
        // (b) compiled blind; event injected mid-stream after 3 rounds.
        let mut late = base.open(64);
        for words in &slices[..3] {
            late.push_round(words).unwrap();
        }
        late.inject_event(&event).unwrap();
        // Injection preserves progress; the strike at round 4 is not yet
        // visible at the last pushed round (2).
        assert_eq!(late.filled_rounds(), 3);
        assert_eq!(late.availability(), Availability::Nominal);
        for words in &slices[3..] {
            late.push_round(words).unwrap();
        }
        assert_eq!(late.availability(), Availability::Degraded { since: 4 });
        assert_eq!(direct.finish().unwrap(), late.finish().unwrap());
    }

    #[test]
    fn sparse_session_matches_dense_session_output_for_output() {
        let base = fixed_config(3, 6).with_window(WindowConfig::new(4));
        let mut dense = base.clone().open(64);
        let mut sparse = base.with_sparse(true).open(64);
        let mut stream = dense.round_stream();
        let mut rng = StdRng::seed_from_u64(23);
        stream.begin(&mut rng, 64);
        while let Some(slice) = stream.next_round() {
            let a = dense.push_round(slice.words).unwrap();
            let b = sparse.push_round(slice.words).unwrap();
            assert_eq!(a, b, "round {}", slice.round);
        }
        assert_eq!(dense.finish().unwrap(), sparse.finish().unwrap());
    }

    #[test]
    fn sparse_event_feed_matches_dense_feed() {
        // One lane so most rounds are genuinely silent: the sparse
        // session jumps between events with advance_silent and must land
        // on the exact dense result (same seed → same sample).
        let base = fixed_config(3, 16).with_window(WindowConfig::new(4));
        let mut dense = base.clone().open(1);
        let mut sparse = base.with_sparse(true).open(1);
        let seed = 77;

        let mut stream = dense.round_stream();
        let mut rng = StdRng::seed_from_u64(seed);
        stream.begin(&mut rng, 1);
        while let Some(slice) = stream.next_round() {
            dense.push_round(slice.words).unwrap();
        }

        let mut events = sparse.sparse_round_stream();
        let mut rng = StdRng::seed_from_u64(seed);
        events.begin(&mut rng, 1);
        assert_eq!(events.true_observables(), stream.true_observables());
        while let Some(event) = events.next_event() {
            while sparse.filled_rounds() < event.round {
                sparse
                    .advance_silent(event.round - sparse.filled_rounds())
                    .unwrap();
            }
            sparse
                .push_round_sparse(event.detectors, event.words)
                .unwrap();
        }
        let total = sparse.total_rounds();
        while sparse.filled_rounds() < total {
            sparse
                .advance_silent(total - sparse.filled_rounds())
                .unwrap();
        }
        assert_eq!(dense.finish().unwrap(), sparse.finish().unwrap());
    }

    #[test]
    fn advance_silent_clamps_at_epoch_boundaries_and_reports_notices() {
        let before = Patch::rotated(5);
        let after = {
            use surf_deformer_core::data_q_rm;
            let mut p = before.clone();
            data_q_rm(&mut p, Coord::new(5, 5)).unwrap();
            p
        };
        let mut timeline = PatchTimeline::fixed(before, DefectMap::new());
        timeline.push_epoch(4, after, DefectMap::new());
        let config = SessionConfig::new(timeline, Basis::Z, 8)
            .with_window(WindowConfig::new(4))
            .with_sparse(true);
        let mut session = config.open(1);
        // The bulk advance stops at the deformation boundary so the
        // notice still fires...
        let out = session.advance_silent(100).unwrap();
        assert_eq!(out.round, 3);
        assert_eq!(
            out.deformation,
            Some(DeformationNotice {
                at_round: 4,
                epoch: 1
            })
        );
        // ...then runs to the end of the stream.
        let out = session.advance_silent(100).unwrap();
        assert_eq!(out.round, session.total_rounds() - 1);
        assert_eq!(out.deformation, None);
        assert!(matches!(
            session.advance_silent(1),
            Err(SessionError::StreamComplete)
        ));
        assert_eq!(session.finish().unwrap(), vec![0]);
    }

    #[test]
    fn sparse_push_rejects_foreign_detectors() {
        let mut session = fixed_config(3, 3).open(8);
        let det = session.detectors_of(1)[0];
        assert_eq!(
            session.push_round_sparse(&[det], &[1]).unwrap_err(),
            SessionError::DetectorRound {
                round: 0,
                detector: det
            }
        );
        assert!(matches!(
            session.push_round_sparse(&[u32::MAX], &[1]).unwrap_err(),
            SessionError::DetectorRound { .. }
        ));
        assert!(matches!(
            session.push_round_sparse(&[], &[1]).unwrap_err(),
            SessionError::WordCount { .. }
        ));
        // The rejections left the session untouched.
        assert_eq!(session.filled_rounds(), 0);
    }

    #[test]
    fn replan_rejects_geometry_that_rewrites_the_past() {
        let before = Patch::rotated(5);
        let after = {
            use surf_deformer_core::data_q_rm;
            let mut p = before.clone();
            data_q_rm(&mut p, Coord::new(5, 5)).unwrap();
            p
        };
        let mut session = fixed_config(5, 8).open(64);
        let mut stream = session.round_stream();
        let mut rng = StdRng::seed_from_u64(7);
        stream.begin(&mut rng, 64);
        for _ in 0..4 {
            let slice = stream.next_round().unwrap();
            let words = slice.words.to_vec();
            session.push_round(&words).unwrap();
        }
        // Deforming at round 2 would change already-pushed layouts.
        let mut bad = PatchTimeline::fixed(before.clone(), DefectMap::new());
        bad.push_epoch(2, after.clone(), DefectMap::new());
        let err = session.replan(bad).unwrap_err();
        assert!(matches!(err, SessionError::GeometryDiverged { .. }));
        // The session survives the rejection and keeps decoding.
        assert_eq!(session.filled_rounds(), 4);

        // Deforming at round 6 lies in the future: accepted.
        let mut good = PatchTimeline::fixed(before, DefectMap::new());
        good.push_epoch(6, after, DefectMap::new());
        session.replan(good).unwrap();
        assert_eq!(session.filled_rounds(), 4);
    }
}
