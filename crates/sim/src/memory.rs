//! Monte-Carlo memory experiments.
//!
//! A memory experiment initialises a logical eigenstate, runs `rounds`
//! noisy QEC rounds on the (possibly deformed) patch, reads out the data
//! qubits, decodes, and counts logical failures. X- and Z-basis memories
//! are simulated independently; the reported per-round logical error rate
//! is their sum (either basis failing fails the computation).

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;

use surf_defects::{DefectEvent, DefectMap, DefectSchedule};
use surf_deformer_core::PatchTimeline;
use surf_lattice::{Basis, Patch};
use surf_matching::{
    Decoder, DecoderFactory, DecodingGraph, MwpmDecoder, UnionFindDecoder, WindowConfig,
};
use surf_pauli::BitBatch;

use crate::model::DecoderPrior;
use crate::noise::NoiseParams;
use crate::service::SessionConfig;

/// Which decoder backend to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecoderKind {
    /// Exact minimum-weight perfect matching (default; the paper uses
    /// PyMatching).
    Mwpm,
    /// The union-find decoder (ablation/speed).
    UnionFind,
}

impl DecoderKind {
    /// Builds the corresponding decoder backend over `graph` as a trait
    /// object — the single dispatch point of the sim → matching pipeline.
    pub fn build(self, graph: DecodingGraph) -> Box<dyn Decoder> {
        match self {
            DecoderKind::Mwpm => Box::new(MwpmDecoder::new(graph)),
            DecoderKind::UnionFind => Box::new(UnionFindDecoder::new(graph)),
        }
    }

    /// The same dispatch as a reusable factory, in the shape
    /// [`surf_matching::WindowedDecoder`] consumes to build its per-window
    /// backends. Every call returns a clone of one per-kind factory, so
    /// all windowed decoders of a kind in the process share one backend
    /// per window graph (and MWPM and union-find never share).
    pub fn factory(self) -> DecoderFactory {
        static MWPM: OnceLock<DecoderFactory> = OnceLock::new();
        static UNION_FIND: OnceLock<DecoderFactory> = OnceLock::new();
        let kind = match self {
            DecoderKind::Mwpm => &MWPM,
            DecoderKind::UnionFind => &UNION_FIND,
        };
        kind.get_or_init(|| DecoderFactory::new(move |graph| self.build(graph)))
            .clone()
    }
}

/// The `i`-th output of the SplitMix64 stream seeded at `seed`: γ-spaced
/// states passed through the full avalanche mix. Used to derive
/// decorrelated per-thread RNG seeds (a plain `(seed + C) * (t + 1)`
/// collides across `(seed, thread)` pairs and leaves streams γ-aligned).
fn splitmix64_stream(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One shard of a multi-host run: this process owns every 64-shot batch
/// whose index is congruent to `index` modulo `count`.
///
/// Batches draw their RNG from a SplitMix64 stream indexed by the
/// *global* batch number, so the failure counts of the `count` shards sum
/// to exactly the single-host result for the same `(shots, seed)` — see
/// [`MemoryStats::merge`].
///
/// The fields are private so every `Shard` passes through
/// [`Shard::new`]'s `index < count` check: a zero `count` would never
/// finish a run, and `index >= count` would silently repeat another
/// shard's batches.
///
/// ```compile_fail
/// // Only `new`, `parse` and `solo` build a shard.
/// let unchecked = surf_sim::Shard { index: 0, count: 0 };
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    index: u64,
    count: u64,
}

impl Shard {
    /// The trivial single-shard split (the whole run).
    pub fn solo() -> Self {
        Shard { index: 0, count: 1 }
    }

    /// Shard `index` of `count`.
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn new(index: u64, count: u64) -> Self {
        assert!(index < count, "shard index {index} outside 0..{count}");
        Shard { index, count }
    }

    /// This shard's position, `0..count`.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Total number of shards.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Parses the `k/n` notation of the `--shard` flag.
    pub fn parse(s: &str) -> Option<Shard> {
        let (k, n) = s.split_once('/')?;
        let (index, count) = (k.trim().parse().ok()?, n.trim().parse().ok()?);
        (index < count).then_some(Shard { index, count })
    }

    /// Number of shots this shard owns out of a `shots`-shot run.
    pub fn shots_of(&self, shots: u64) -> u64 {
        let lanes = BitBatch::LANES as u64;
        let num_batches = shots.div_ceil(lanes);
        let mut owned = 0;
        let mut batch = self.index;
        while batch < num_batches {
            let first = batch * lanes;
            owned += (shots - first).min(lanes);
            batch += self.count;
        }
        owned
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One streamed Monte-Carlo run, fully specified: a [`SessionConfig`]
/// carrying the compile-time knobs (window split, defect schedule,
/// sparse mode, geometry timeline) plus the run-only knobs — shot
/// budget, seeding, worker threads and sharding.
///
/// [`run_stream_basis`](MemoryExperiment::run_stream_basis) projects the
/// experiment into [`session`](StreamConfig::session) at run time: basis,
/// rounds, noise, prior and decoder always come from the
/// [`MemoryExperiment`], and the timeline comes from the experiment's
/// fixed patch unless pinned with
/// [`with_timeline`](StreamConfig::with_timeline). The `with_*` builders
/// below delegate to the embedded session config, so the session and
/// stream surfaces share one builder vocabulary.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Session-level compilation knobs. Window, schedule, sparse (and the
    /// timeline, when pinned) are honoured as-is; the remaining fields
    /// are overwritten from the experiment at run time.
    pub session: SessionConfig,
    /// Shots per basis.
    pub shots: u64,
    /// RNG seed; failure counts are a pure function of
    /// `(shots, seed, shard)`.
    pub seed: u64,
    /// Worker threads (`0` = one per available core, capped by shots).
    pub threads: usize,
    /// Which 64-shot batches this process owns.
    pub shard: Shard,
    /// Whether [`with_timeline`](Self::with_timeline) pinned the session's
    /// geometry (otherwise the experiment's fixed patch is streamed).
    timeline_pinned: bool,
}

impl StreamConfig {
    /// `shots` per basis from `seed`, decoding over `window`-round
    /// sliding windows: fixed geometry, no defects, auto threads, the
    /// whole run.
    pub fn new(shots: u64, seed: u64, window: u32) -> Self {
        // Placeholder geometry/rounds — run_stream_basis projects the
        // experiment in before compiling (see the struct docs).
        let session = SessionConfig::new(
            PatchTimeline::fixed(Patch::rotated(3), DefectMap::new()),
            Basis::Z,
            1,
        )
        .with_window(WindowConfig::new(window));
        StreamConfig {
            session,
            shots,
            seed,
            threads: 0,
            shard: Shard::solo(),
            timeline_pinned: false,
        }
    }

    /// Replaces the window/commit split.
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        self.session.window = window;
        self
    }

    /// Pins the worker-thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Restricts the run to the batches owned by `shard`.
    pub fn with_shard(mut self, shard: Shard) -> Self {
        self.shard = shard;
        self
    }

    /// Streams over `timeline`'s time-varying geometry instead of the
    /// experiment's fixed patch.
    pub fn with_timeline(mut self, timeline: PatchTimeline) -> Self {
        self.session.timeline = timeline;
        self.timeline_pinned = true;
        self
    }

    /// Replaces the defect schedule.
    pub fn with_schedule(mut self, schedule: DefectSchedule) -> Self {
        self.session.schedule = schedule;
        self
    }

    /// Replaces the schedule with one permanent mid-stream event.
    pub fn with_event(self, event: &DefectEvent) -> Self {
        self.with_schedule(DefectSchedule::permanent_event(event))
    }

    /// Enables (or disables) sparse event-driven streaming — see
    /// [`SessionConfig::sparse`].
    pub fn with_sparse(mut self, sparse: bool) -> Self {
        self.session.sparse = sparse;
        self
    }
}

/// Configuration of a memory experiment on one patch.
#[derive(Clone, Debug)]
pub struct MemoryExperiment {
    /// The (possibly deformed) patch.
    pub patch: Patch,
    /// Number of noisy measurement rounds.
    pub rounds: u32,
    /// Nominal noise parameters.
    pub noise: NoiseParams,
    /// Defective qubits physically present in the patch.
    pub kept_defects: DefectMap,
    /// Decoder knowledge about the defects.
    pub prior: DecoderPrior,
    /// Decoder backend.
    pub decoder: DecoderKind,
}

/// Outcome counts of a batch of shots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Shots run per basis.
    pub shots: u64,
    /// Logical failures in the Z-basis memory (undetected X-type errors).
    pub failures_z_memory: u64,
    /// Logical failures in the X-basis memory.
    pub failures_x_memory: u64,
}

impl MemoryStats {
    /// Failure probability of the Z-basis memory over the whole window.
    pub fn p_fail_z(&self) -> f64 {
        self.failures_z_memory as f64 / self.shots as f64
    }

    /// Failure probability of the X-basis memory.
    pub fn p_fail_x(&self) -> f64 {
        self.failures_x_memory as f64 / self.shots as f64
    }

    /// Combined per-round logical error rate: converts each basis's window
    /// failure probability `P` to a per-round rate via
    /// `P = (1 − (1 − 2p)^R)/2` and sums the bases.
    ///
    /// Zero shots (e.g. a [`Shard`] owning no batches of a small run)
    /// yield `0.0` rather than the `NaN → 0.5` the clamp would otherwise
    /// silently produce; rate printers should show a detection floor.
    pub fn per_round_rate(&self, rounds: u32) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        per_round(self.p_fail_z(), rounds) + per_round(self.p_fail_x(), rounds)
    }

    /// Merges shard results by summation: merging every shard of a
    /// [`Shard::count`]-way split reproduces the single-host counts
    /// exactly (batch-indexed seeding makes the partition lossless).
    pub fn merge(self, other: MemoryStats) -> MemoryStats {
        MemoryStats {
            shots: self.shots + other.shots,
            failures_z_memory: self.failures_z_memory + other.failures_z_memory,
            failures_x_memory: self.failures_x_memory + other.failures_x_memory,
        }
    }
}

/// Inverts `P = (1 − (1 − 2p)^R)/2` for the per-round rate `p`.
pub fn per_round(p_window: f64, rounds: u32) -> f64 {
    let clamped = p_window.min(0.5 - 1e-12);
    (1.0 - (1.0 - 2.0 * clamped).powf(1.0 / rounds as f64)) / 2.0
}

impl MemoryExperiment {
    /// A standard experiment: `rounds = d`, paper noise, perfect knowledge.
    pub fn standard(patch: Patch) -> Self {
        let rounds = patch.distance().min().max(2) as u32;
        MemoryExperiment {
            patch,
            rounds,
            noise: NoiseParams::paper(),
            kept_defects: DefectMap::new(),
            prior: DecoderPrior::Informed,
            decoder: DecoderKind::Mwpm,
        }
    }

    /// Runs `shots` shots per basis, parallelised over available cores:
    /// [`run_stream`](Self::run_stream) with one full-history window
    /// (`rounds + 1`), so every shot is decoded over its whole syndrome
    /// history. For a shard of the run, use `run_stream` with
    /// [`StreamConfig::with_shard`].
    pub fn run(&self, shots: u64, seed: u64) -> MemoryStats {
        self.run_stream(&StreamConfig::new(shots, seed, self.rounds + 1))
    }

    /// Runs one basis over the full history and returns the failure count:
    /// [`run_stream_basis`](Self::run_stream_basis) with one
    /// `rounds + 1`-round window, so the count is a pure function of
    /// `(shots, seed)` whatever the thread count.
    pub fn run_basis(&self, memory_basis: Basis, shots: u64, seed: u64) -> u64 {
        self.run_stream_basis(
            memory_basis,
            &StreamConfig::new(shots, seed, self.rounds + 1),
        )
    }

    /// The [`SessionConfig`] this experiment streams under: its patch at
    /// fixed geometry (with `kept_defects` resident), its noise, prior,
    /// decoder and round budget, and a default full-history window. The
    /// bridge from the Monte-Carlo harness to the decode service — refine
    /// with the `with_*` builders and [`SessionConfig::open`] a
    /// [`DecodeSession`](crate::DecodeSession).
    pub fn session_config(&self, memory_basis: Basis) -> SessionConfig {
        let timeline = PatchTimeline::fixed(self.patch.clone(), self.kept_defects.clone());
        let mut config = SessionConfig::new(timeline, memory_basis, self.rounds);
        config.noise = self.noise;
        config.prior = self.prior;
        config.decoder = self.decoder;
        config
    }

    /// Runs both bases through the *streaming* pipeline — syndromes
    /// emitted round-major and decoded on the fly by sliding-window
    /// [`DecodeSession`](crate::DecodeSession)s, exactly as a real-time
    /// decoder would consume them — and returns the merged counts. The
    /// X-basis memory runs at `seed ^ 0x9E37_79B9_7F4A_7C15`, decorrelated
    /// from the Z basis. With [`StreamConfig::with_shard`] only the shard's
    /// batches run, [`MemoryStats::shots`] counts exactly those, and
    /// merging every shard with [`MemoryStats::merge`] reproduces the
    /// unsharded stats.
    pub fn run_stream(&self, config: &StreamConfig) -> MemoryStats {
        let failures_z = self.run_stream_basis(Basis::Z, config);
        let mut x_config = config.clone();
        x_config.seed ^= 0x9E37_79B9_7F4A_7C15;
        let failures_x = self.run_stream_basis(Basis::X, &x_config);
        MemoryStats {
            shots: config.shard.shots_of(config.shots),
            failures_z_memory: failures_z,
            failures_x_memory: failures_x,
        }
    }

    /// Runs one basis through the streaming pipeline and returns the
    /// failure count: the single convergent loop behind every streamed
    /// experiment.
    ///
    /// The experiment (or the pinned timeline's epochs) compiles once
    /// into a [`SessionConfig`]; each worker thread
    /// [forks](crate::DecodeSession::fork) a session per 64-shot batch,
    /// replays the batch round-major through it, and counts
    /// prediction/observable mismatches. Batches draw their RNG from a
    /// SplitMix64 stream indexed by the *global* batch number, so the
    /// count is a pure function of `(shots, seed, shard)` — thread count
    /// and frame chunking never change it, and shard counts sum to the
    /// single-host result exactly.
    ///
    /// For `window >= rounds + 1` the windowed decoder degenerates to one
    /// full-history window, which decodes each shot's whole syndrome
    /// history through the backend exactly once (this is
    /// [`run_basis`](Self::run_basis)); for `window >= 2·d` the count
    /// stays bit-identical to that at realistic noise (the equivalence
    /// suite in `tests/streaming_equivalence.rs` checks both against an
    /// independent per-lane decode).
    ///
    /// With [`StreamConfig::with_sparse`] set, rounds are sampled as sparse
    /// events, silent stretches are bulk-advanced, and defect-free
    /// windows fast-forward past the decoder backend — the count stays
    /// bit-identical to the dense path (`tests/sparse_streaming.rs`).
    pub fn run_stream_basis(&self, memory_basis: Basis, config: &StreamConfig) -> u64 {
        let threads = if config.threads == 0 {
            available_threads(config.shots)
        } else {
            config.threads
        };
        let mut session_config = self.session_config(memory_basis);
        if config.timeline_pinned {
            session_config.timeline = config.session.timeline.clone();
        }
        session_config.window = config.session.window;
        session_config.schedule = config.session.schedule.clone();
        session_config.sparse = config.session.sparse;
        let proto = session_config.open(1);
        if config.session.sparse {
            return run_batches(config.shots, config.seed, threads, config.shard, || {
                let proto = &proto;
                let mut stream = proto.round_stream();
                move |rng: &mut StdRng, lanes: usize| {
                    stream.begin(rng, lanes);
                    let mut session = proto.fork(lanes);
                    while let Some(event) = stream.next_event() {
                        while session.filled_rounds() < event.round {
                            let gap = event.round - session.filled_rounds();
                            session
                                .advance_silent(gap)
                                .expect("silent gap fits the stream");
                        }
                        session
                            .push_round_sparse(event.detectors, event.words)
                            .expect("event matches its own session layout");
                    }
                    let total = session.total_rounds();
                    while session.filled_rounds() < total {
                        let gap = total - session.filled_rounds();
                        session
                            .advance_silent(gap)
                            .expect("silent tail fits the stream");
                    }
                    let predictions = session.finish().expect("all rounds pushed");
                    count_failures(
                        &predictions,
                        stream.true_observables(),
                        BitBatch::mask_for(lanes),
                    )
                }
            });
        }
        run_batches(config.shots, config.seed, threads, config.shard, || {
            let proto = &proto;
            let mut stream = proto.round_stream();
            move |rng: &mut StdRng, lanes: usize| {
                stream.begin(rng, lanes);
                let mut session = proto.fork(lanes);
                while let Some(slice) = stream.next_round() {
                    session
                        .push_round(slice.words)
                        .expect("round stream matches its own session layout");
                }
                let predictions = session.finish().expect("all rounds pushed");
                count_failures(
                    &predictions,
                    stream.true_observables(),
                    BitBatch::mask_for(lanes),
                )
            }
        })
    }
}

/// Default worker-thread count for `shots` shots.
fn available_threads(shots: u64) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(shots.max(1) as usize)
}

/// Packs per-lane predictions into a word and counts mismatches against
/// the true observable word.
fn count_failures(predictions: &[u64], true_obs: u64, mask: u64) -> u64 {
    let mut predicted = 0u64;
    for (lane, &p) in predictions.iter().enumerate() {
        predicted |= (p & 1) << lane;
    }
    u64::from(((predicted ^ true_obs) & mask).count_ones())
}

/// Runs the `shard`-owned 64-lane batches of a `shots`-shot run spread
/// over `threads` workers.
///
/// Workers pull *global batch indices* from a shared counter (stepping by
/// `shard.count` from `shard.index`) and seed each batch's RNG from the
/// SplitMix64 stream at that global index, so the failure count is a pure
/// function of `(shots, seed, shard)` — the thread count only changes
/// wall-clock time, and summing all shards reproduces the single-host
/// count exactly. `setup` runs once per worker and returns the per-batch
/// closure (sample + decode + count), letting each worker keep its own
/// sampler/scratch state.
fn run_batches<S, F>(shots: u64, seed: u64, threads: usize, shard: Shard, setup: S) -> u64
where
    S: Fn() -> F + Sync,
    F: FnMut(&mut StdRng, usize) -> u64,
{
    if shots == 0 {
        return 0;
    }
    let num_batches = shots.div_ceil(BitBatch::LANES as u64);
    let owned_batches = num_batches
        .saturating_sub(shard.index)
        .div_ceil(shard.count);
    if owned_batches == 0 {
        return 0;
    }
    let threads = threads.clamp(1, owned_batches.min(1 << 16) as usize);
    let next_batch = std::sync::atomic::AtomicU64::new(0);
    let counter = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next_batch = &next_batch;
            let counter = &counter;
            let setup = &setup;
            scope.spawn(move || {
                let mut run_batch = setup();
                let mut local = 0u64;
                loop {
                    let slot = next_batch.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let index = shard.index + slot * shard.count;
                    if index >= num_batches {
                        break;
                    }
                    let first_shot = index * BitBatch::LANES as u64;
                    let lanes = (shots - first_shot).min(BitBatch::LANES as u64) as usize;
                    let mut rng = StdRng::seed_from_u64(splitmix64_stream(seed, index));
                    local += run_batch(&mut rng, lanes);
                }
                counter.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    counter.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_round_inversion() {
        // Small probability: per-round ≈ P/R.
        let p = per_round(0.01, 10);
        assert!((p - 0.001).abs() < 2e-4, "{p}");
        // Saturation clamps gracefully.
        assert!(per_round(0.5, 10) < 0.5);
        assert!(per_round(0.7, 10) < 0.5);
    }

    /// The window failure probability of a per-round rate `p` over `r`
    /// rounds: `P = (1 − (1 − 2p)^r) / 2` — the composition `per_round`
    /// inverts.
    fn window_failure(p: f64, rounds: u32) -> f64 {
        (1.0 - (1.0 - 2.0 * p).powi(rounds as i32)) / 2.0
    }

    #[test]
    fn per_round_oracle_small_rounds() {
        // r = 1 is the identity.
        for p in [1e-6, 1e-3, 0.01, 0.2, 0.4] {
            assert!((per_round(p, 1) - p).abs() < 1e-12, "r=1 p={p}");
        }
        // r = 2 by hand: P = 2p(1 − p), so per_round(2p(1 − p), 2) = p.
        for p in [1e-4, 5e-3, 0.05, 0.25] {
            let window = 2.0 * p * (1.0 - p);
            assert!(
                (per_round(window, 2) - p).abs() < 1e-12,
                "r=2 p={p}: {}",
                per_round(window, 2)
            );
        }
        // r = 3, p = 0.1: P = (1 − 0.8³)/2 = 0.244 exactly.
        assert!((per_round(0.244, 3) - 0.1).abs() < 1e-12);
        // Zero stays zero.
        assert_eq!(per_round(0.0, 7), 0.0);
    }

    #[test]
    fn per_round_round_trips_through_composition() {
        // per_round ∘ window_failure = id to 1e-12 on the sub-saturation
        // domain (the clamp at P = 0.5 − 1e-12 intentionally caps deeper
        // saturation, checked separately below).
        for rounds in [1u32, 2, 3, 5, 10, 50] {
            for p in [1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.45] {
                let window = window_failure(p, rounds);
                if window >= 0.5 - 1e-9 {
                    continue;
                }
                let recovered = per_round(window, rounds);
                assert!(
                    (recovered - p).abs() < 1e-12,
                    "rounds {rounds} p {p}: recovered {recovered}"
                );
                // And the other direction, starting from a window rate.
                let back = window_failure(per_round(window, rounds), rounds);
                assert!(
                    (back - window).abs() < 1e-12,
                    "rounds {rounds} P {window}: back {back}"
                );
            }
        }
        // At (and past) saturation the clamp takes over: the result is
        // finite, monotone-capped below 1/2, and insensitive to how far
        // past 1/2 the (noisy, estimated) window probability lies.
        for rounds in [1u32, 10] {
            let capped = per_round(0.5, rounds);
            assert!(capped < 0.5);
            assert_eq!(capped, per_round(0.9, rounds));
        }
    }

    #[test]
    fn per_round_rate_sums_both_bases() {
        let stats = MemoryStats {
            shots: 1000,
            failures_z_memory: 100,
            failures_x_memory: 50,
        };
        let expected = per_round(0.1, 5) + per_round(0.05, 5);
        assert!((stats.per_round_rate(5) - expected).abs() < 1e-15);
    }

    #[test]
    fn noiseless_experiment_never_fails() {
        let mut exp = MemoryExperiment::standard(Patch::rotated(3));
        exp.noise = NoiseParams::uniform(0.0);
        let stats = exp.run(50, 7);
        assert_eq!(stats.failures_z_memory, 0);
        assert_eq!(stats.failures_x_memory, 0);
    }

    #[test]
    fn low_noise_low_failure() {
        let mut exp = MemoryExperiment::standard(Patch::rotated(3));
        exp.noise = NoiseParams::uniform(1e-3);
        exp.rounds = 3;
        let stats = exp.run(300, 11);
        // d=3 at p=1e-3: logical error rate well below 1%.
        assert!(stats.p_fail_z() < 0.05, "{}", stats.p_fail_z());
        assert!(stats.p_fail_x() < 0.05);
    }

    #[test]
    fn high_noise_high_failure() {
        let mut exp = MemoryExperiment::standard(Patch::rotated(3));
        exp.noise = NoiseParams::uniform(0.2);
        exp.rounds = 3;
        let stats = exp.run(200, 13);
        assert!(
            stats.p_fail_z() > 0.1,
            "way above threshold must fail often: {}",
            stats.p_fail_z()
        );
    }

    #[test]
    fn larger_distance_suppresses_errors() {
        let rate = |d: usize, seed: u64| {
            let mut exp = MemoryExperiment::standard(Patch::rotated(d));
            exp.noise = NoiseParams::uniform(0.01);
            exp.rounds = d as u32;
            let shots = 400;
            exp.run(shots, seed).per_round_rate(d as u32)
        };
        let r3 = rate(3, 21);
        let r7 = rate(7, 22);
        assert!(
            r7 < r3,
            "d=7 rate {r7} must beat d=3 rate {r3} below threshold"
        );
    }

    #[test]
    fn union_find_also_decodes() {
        let mut exp = MemoryExperiment::standard(Patch::rotated(3));
        exp.noise = NoiseParams::uniform(1e-3);
        exp.decoder = DecoderKind::UnionFind;
        let stats = exp.run(200, 5);
        assert!(stats.p_fail_z() < 0.1);
    }

    #[test]
    fn deformed_patch_simulates() {
        use surf_deformer_core::data_q_rm;
        use surf_lattice::Coord;
        let mut patch = Patch::rotated(5);
        data_q_rm(&mut patch, Coord::new(5, 5)).unwrap();
        let mut exp = MemoryExperiment::standard(patch);
        exp.rounds = 6;
        let stats = exp.run(200, 17);
        // Deformed d≈4 code still corrects most errors at p=1e-3.
        assert!(stats.p_fail_z() < 0.1, "{}", stats.p_fail_z());
    }

    #[test]
    fn untreated_defects_hurt_much_more_than_removal() {
        use surf_deformer_core::{MitigationStrategy, SurfDeformerStrategy, Untreated};
        use surf_lattice::Coord;
        let base = Patch::rotated(5);
        let defects =
            DefectMap::from_qubits([Coord::new(5, 5), Coord::new(4, 4), Coord::new(5, 3)], 0.5);
        let rate = |strategy: &dyn MitigationStrategy, prior| {
            let out = strategy.mitigate(&base, &defects);
            let exp = MemoryExperiment {
                patch: out.patch,
                rounds: 5,
                noise: NoiseParams::paper(),
                kept_defects: out.kept_defects,
                prior,
                decoder: DecoderKind::Mwpm,
            };
            exp.run(400, 23).per_round_rate(5)
        };
        let untreated = rate(&Untreated, DecoderPrior::Nominal);
        let removed = rate(
            &SurfDeformerStrategy::removal_only(),
            DecoderPrior::Informed,
        );
        assert!(
            removed < untreated,
            "removal {removed} must beat untreated {untreated}"
        );
    }
}
