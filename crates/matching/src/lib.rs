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
//!   [`decode`](Decoder::decode) plus a batch path
//!   ([`decode_batch`](Decoder::decode_batch)) over 64-lane
//!   [`surf_pauli::BitBatch`]es that reuses scratch allocations across
//!   shots.
//! * [`MwpmDecoder`] — the full minimum-weight perfect-matching decoder
//!   (local Dijkstra + boundary twins + blossom), with a reusable
//!   [`MwpmScratch`] workspace.
//! * [`UnionFindDecoder`] — the Delfosse–Nickerson union-find decoder, used
//!   for ablations and for dense 50 %-noise syndromes, with a reusable
//!   [`UfScratch`] workspace.
//! * [`WindowedDecoder`] — streaming decoding over overlapping
//!   round-windows of either backend: commits matches window by window and
//!   carries boundary defects forward, so corrections for old rounds are
//!   final while new rounds are still being sampled.
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
mod source;
mod unionfind;
mod windowed;

pub use blossom::{
    max_weight_matching, max_weight_matching_with, min_weight_perfect_matching,
    min_weight_perfect_matching_with, BlossomScratch,
};
pub use decoder::{decode_wide_batch, decode_wide_batch_with, DecodeWorkspace, Decoder};
pub use graph::{xor_probability, DecodingGraph, Edge};
pub use mwpm::{MwpmDecoder, MwpmScratch};
pub use source::{RoundModelSource, SourceEdge, WindowTranslation};
pub use unionfind::{UfScratch, UnionFindDecoder};
pub use windowed::{
    DecoderFactory, GraphEpoch, OwnedWindowedSession, WindowConfig, WindowParts, WindowedDecoder,
    WindowedSession,
};
