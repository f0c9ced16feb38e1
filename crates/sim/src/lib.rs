//! Monte-Carlo stabilizer memory simulation for (deformed) surface codes.
//!
//! This crate replaces the paper's Stim + PyMatching stack:
//!
//! * [`DetectorModel`] — builds a graph-like detector error model for any
//!   patch produced by the Surf-Deformer instructions, including
//!   super-stabilizer gauge groups with period-2 measurement cadences;
//! * [`MemoryExperiment`] — samples X-/Z-basis memory experiments in
//!   parallel, 64 bit-packed shots at a time, and decodes them through
//!   the shared [`Decoder`] trait (MWPM or union-find) on one path:
//!   [`run_stream`](MemoryExperiment::run_stream) with a
//!   [`StreamConfig`] (window split, defect schedules, time-varying
//!   geometry, sharding) feeds windowed decode sessions from one
//!   [`RoundStream`] read round by round or, in sparse mode, by firing
//!   events only. [`run`](MemoryExperiment::run) and
//!   [`run_basis`](MemoryExperiment::run_basis) are that path with one
//!   full-history window;
//! * [`TimelineModel`] / [`PeriodicModel`] — one detector model over a
//!   deforming patch's whole timeline, materialised or served by round
//!   from a periodic template;
//! * [`DecodeSession`] — the session-oriented streaming surface beneath
//!   `run_stream`: an owned, resumable per-logical-qubit decode loop
//!   (`push_round` → committed corrections, availability, deformation
//!   notices) that the `surf-service` daemon serves over a socket;
//! * [`LogicalRateModel`] — the `p_L = A·Λ^{-(d+1)/2}` scaling fit used to
//!   project large-distance points (the paper uses the same methodology);
//! * [`NoiseParams`]/[`QubitNoise`] — phenomenological noise with defect
//!   overlays, measurement flips and correlated two-qubit errors.
//!
//! # Example
//!
//! ```no_run
//! use surf_lattice::Patch;
//! use surf_sim::MemoryExperiment;
//!
//! let exp = MemoryExperiment::standard(Patch::rotated(3));
//! let stats = exp.run(1_000, 42);
//! println!("logical error rate per round: {:.2e}", stats.per_round_rate(3));
//! ```

pub mod circuit;
mod fit;
pub mod frame;
mod memory;
mod model;
mod noise;
mod periodic;
mod sampler;
pub mod service;
mod stream;
mod timeline;

pub use circuit::{memory_circuit, Circuit, Detector, Instruction, MemoryCircuit};
pub use fit::LogicalRateModel;
pub use frame::{extract_dem, sample_batch, sample_batch_lanes, sample_shot};
pub use memory::{per_round, DecoderKind, MemoryExperiment, MemoryStats, Shard, StreamConfig};
pub use model::{Channel, DecoderPrior, DetectorModel};
pub use noise::{NoiseParams, QubitNoise};
pub use periodic::{PeriodicEvent, PeriodicModel, PeriodicScratch};
pub use sampler::{bernoulli_mask, BatchSampler, SparseBatch, GEOMETRIC_THRESHOLD};
pub use service::{
    Availability, DecodeSession, DeformationNotice, SessionConfig, SessionError, SessionOutput,
};
pub use stream::{RoundSlice, RoundStream};
pub use timeline::{DetectorRemap, TimelineModel};

// Re-exported so downstream pipeline code can name the shared batch and
// decoder abstractions without extra dependency lines.
pub use surf_defects::{DefectEpisode, DefectEvent, DefectSchedule};
pub use surf_deformer_core::PatchTimeline;
pub use surf_matching::{Decoder, RoundModelSource, SourceEdge, WindowConfig, WindowedDecoder};
pub use surf_pauli::BitBatch;
