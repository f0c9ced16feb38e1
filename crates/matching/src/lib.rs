//! Matching decoders for surface-code syndromes.
//!
//! Implemented from scratch (the paper used PyMatching):
//!
//! * [`max_weight_matching`] / [`min_weight_perfect_matching`] — an exact
//!   blossom (primal–dual) general-matching solver, property-tested against
//!   brute force.
//! * [`DecodingGraph`] — weighted detector graphs with an implicit boundary
//!   and per-edge observable masks.
//! * [`Decoder`] — the trait every decoder implements: scalar
//!   [`decode`](Decoder::decode) and a
//!   [`decode_correction`](Decoder::decode_correction) that also reports
//!   the correction's edges, reusing the scratch of a caller-owned
//!   [`DecodeWorkspace`] across shots.
//! * [`MwpmDecoder`] — the full minimum-weight perfect-matching decoder
//!   (local Dijkstra + boundary twins + blossom), with a reusable
//!   [`MwpmScratch`] workspace.
//! * [`UnionFindDecoder`] — the Delfosse–Nickerson union-find decoder, used
//!   for ablations and for dense 50 %-noise syndromes, with a reusable
//!   [`UfScratch`] workspace.
//! * [`WindowedDecoder`] — streaming decoding over overlapping
//!   round-windows of any backend: commits each window's reported
//!   correction and carries the defects it leaves at the commit cut
//!   forward, so corrections for old rounds are final while new rounds are
//!   still being sampled, at any code distance.
//! * [`DecoderFactory`] — builds window backends through one process-wide
//!   registry, so every decoder, session and recompile over an equal
//!   window graph shares one compiled backend ([`backend_stats`]).
//!
//! # Example
//!
//! ```
//! use surf_matching::{Decoder, DecodingGraph, MwpmDecoder};
//!
//! let mut g = DecodingGraph::new(2);
//! g.add_edge(0, None, 1e-3, 1);
//! g.add_edge(0, Some(1), 1e-3, 0);
//! g.add_edge(1, None, 1e-3, 0);
//! let decoder: Box<dyn Decoder> = Box::new(MwpmDecoder::new(g));
//! assert_eq!(decoder.decode(&[0, 1]), 0);
//! ```

mod blossom;
mod decoder;
mod graph;
mod mwpm;
mod registry;
mod source;
mod unionfind;
mod windowed;

pub use blossom::{
    max_weight_matching, max_weight_matching_with, min_weight_perfect_matching,
    min_weight_perfect_matching_with, BlossomScratch,
};
pub use decoder::{DecodeWorkspace, Decoder};
pub use graph::{xor_probability, DecodingGraph, Edge};
pub use mwpm::{MwpmDecoder, MwpmScratch};
pub use registry::{backend_stats, BackendStats, DecoderFactory};
pub use source::{RoundModelSource, SourceEdge, WindowTranslation};
pub use unionfind::{UfScratch, UnionFindDecoder};
pub use windowed::{WindowConfig, WindowParts, WindowedDecoder, WindowedSession};
