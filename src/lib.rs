//! # Surf-Deformer
//!
//! A reproduction of *"Surf-Deformer: Mitigating Dynamic Defects on Surface
//! Code via Adaptive Deformation"* (MICRO 2024).
//!
//! This facade crate re-exports every subsystem of the workspace so that
//! downstream users can depend on a single crate:
//!
//! * [`pauli`] — Pauli-operator algebra and GF(2) linear algebra.
//! * [`stabilizer`] — subsystem stabilizer codes, the four atomic gauge
//!   transformations (S2G/G2S/S2S/G2G), and a CHP tableau simulator.
//! * [`lattice`] — rotated surface-code patches, gauge groups, measurement
//!   schedules and code-distance computation.
//! * [`defects`] — dynamic defect models (cosmic rays, drift) and detectors.
//! * [`core`] — the Surf-Deformer instruction set (`DataQ_RM`,
//!   `SyndromeQ_RM`, `PatchQ_RM`, `PatchQ_ADD`), the defect-removal and
//!   adaptive-enlargement subroutines, and the ASC-S / Q3DE baselines.
//! * [`matching`] — exact minimum-weight perfect matching and union-find
//!   decoders.
//! * [`sim`] — Monte-Carlo memory experiments over (deformed) patches,
//!   including the session-oriented streaming API
//!   ([`DecodeSession`](sim::DecodeSession)).
//! * [`service`] — decode as a service: the `surf-deformer-daemon`
//!   reactor, its length-prefixed wire protocol, and a blocking client.
//! * [`layout`] — lattice-surgery layouts, routing, and throughput.
//! * [`programs`] — quantum-program workloads and end-to-end retry risk.
//!
//! ## Quickstart
//!
//! ```
//! use surf_deformer::prelude::*;
//!
//! // Build a distance-5 rotated surface code.
//! let patch = Patch::rotated(5);
//! assert_eq!(patch.distance(), Distances { x: 5, z: 5 });
//!
//! // Strike it with a defect and let Surf-Deformer repair it.
//! let defects = DefectMap::from_qubits([Coord::new(5, 5)], 0.5);
//! let mut deformer = Deformer::new(patch);
//! deformer.remove_defects(&defects).unwrap();
//! assert!(deformer.patch().distance().min() >= 4);
//! ```
pub use surf_defects as defects;
pub use surf_deformer_core as core;
pub use surf_lattice as lattice;
pub use surf_layout as layout;
pub use surf_matching as matching;
pub use surf_pauli as pauli;
pub use surf_programs as programs;
pub use surf_service as service;
pub use surf_sim as sim;
pub use surf_stabilizer as stabilizer;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use surf_defects::{
        CosmicRayModel, DefectDetector, DefectEpisode, DefectEvent, DefectMap, DefectSchedule,
    };
    pub use surf_deformer_core::{
        AscS, Deformer, EnlargeBudget, MitigationStrategy, PatchTimeline, Q3de,
        ScheduledMitigation, SurfDeformerStrategy, Untreated,
    };
    pub use surf_lattice::{diff_stabilizers, Basis, BoundarySide, Coord, Distances, Patch};
    pub use surf_layout::{LayoutParams, LayoutScheme, ThroughputSim};
    pub use surf_matching::{
        DecodeWorkspace, Decoder, MwpmDecoder, UnionFindDecoder, WindowConfig, WindowedDecoder,
    };
    pub use surf_pauli::BitBatch;
    pub use surf_programs::{Calibration, StrategyKind};
    pub use surf_service::{Daemon, DaemonConfig, ServiceClient, SessionSpec};
    pub use surf_sim::{
        Availability, BatchSampler, DecodeSession, DecoderKind, DecoderPrior, DetectorRemap,
        MemoryExperiment, NoiseParams, RoundStream, SessionConfig, SessionOutput, Shard,
        StreamConfig, TimelineModel,
    };
}
