//! Round-indexed model sources for windowed decoding.
//!
//! A [`RoundModelSource`] serves the decoding-relevant slice of a detector
//! model on demand — which detectors live in a round range and which merged
//! graph edges a window over that range must consider — without the decoder
//! holding a pre-materialised O(rounds) graph or detector-round table. The
//! monolithic path keeps one whole-timeline
//! [`DecodingGraph`](crate::DecodingGraph); a periodic model implements
//! this trait by index arithmetic and stays O(epochs) resident regardless
//! of the horizon.
//!
//! The contract is *bit-identity*: for any window, the edges yielded by
//! [`window_edges`](RoundModelSource::window_edges) must be exactly the
//! edges (same merged probabilities, same order) that the monolithic
//! graph would enumerate for that window's detectors, so window plans
//! built either way are interchangeable.

use std::ops::Range;

/// One merged decoding-graph edge served by a [`RoundModelSource`].
///
/// Mirrors [`Edge`](crate::Edge) but with `u32` detector ids (model sources
/// can span horizons whose detector count exceeds what a pre-built graph
/// would ever hold) and without the cached weight — windows recompute
/// weights when assembling their local graphs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SourceEdge {
    /// First endpoint (a global detector id).
    pub a: u32,
    /// Second endpoint, or `None` for the boundary.
    pub b: Option<u32>,
    /// Merged firing probability (XOR-combined across parallel mechanisms,
    /// exactly as [`DecodingGraph::add_edge`](crate::DecodingGraph::add_edge)
    /// combines them).
    pub probability: f64,
    /// Observable mask.
    pub observables: u64,
}

impl SourceEdge {
    /// Views a materialised graph edge as a source edge (the adapter the
    /// windowed decoder uses so materialised and virtual modes share one
    /// window-assembly path).
    pub fn from_graph_edge(e: &crate::graph::Edge) -> SourceEdge {
        SourceEdge {
            a: e.a as u32,
            b: e.b.map(|b| b as u32),
            probability: e.probability,
            observables: e.observables,
        }
    }
}

/// How a steady-state window relates to its canonical template window:
/// the window over `rounds` is the window over the same number of rounds
/// starting at `canonical_start`, shifted by `reps` template periods.
///
/// Shifting by one period moves every detector of the template (window
/// detectors and any carry target past the window end) to the id
/// `stride` higher, for a per-detector `stride` that does not depend on
/// the repetition — so a window `reps` periods on maps detector `d` to
/// `d + reps·stride(d)`, with identical merged edges in identical order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowTranslation {
    /// First round of the canonical window.
    pub canonical_start: u32,
    /// Template periods between the canonical window and this one.
    pub reps: u32,
    /// Rounds per template period.
    pub period: u32,
}

/// A detector model addressable by round, serving windows on demand.
///
/// All detector ids are global (whole-horizon) ids; rounds run from `0`
/// to `total_rounds() - 1` inclusive.
pub trait RoundModelSource: Send + Sync {
    /// One past the last detector round (final-readout detectors included).
    fn total_rounds(&self) -> u32;

    /// Total number of detectors over the whole horizon.
    fn num_detectors(&self) -> usize;

    /// The round detector `det` becomes available at.
    fn detector_round(&self, det: u32) -> u32;

    /// Appends the detector ids of every round in `rounds`, grouped by
    /// round in ascending round order and ascending id within each round.
    fn detectors_in(&self, rounds: Range<u32>, out: &mut Vec<u32>);

    /// Appends every merged graph edge a window over `rounds` must
    /// consider: at least all edges whose earlier endpoint's round falls in
    /// `rounds`, ordered exactly as the monolithic whole-timeline graph
    /// orders them (ascending graph epoch, then first-contribution order).
    /// Edges entirely outside the range may be included; the window
    /// assembler drops them.
    fn window_edges(&self, rounds: Range<u32>, out: &mut Vec<SourceEdge>);

    /// Reports that the window over `rounds` is a translate of a
    /// canonical template window (see [`WindowTranslation`]), or `None`
    /// when it must be assembled directly — the default, and the right
    /// answer for any window touching a boundary, a strike or the end of
    /// the stream.
    ///
    /// An implementation may answer `Some` only when both this window and
    /// the window one period after `canonical_start` are translates of
    /// the canonical one — detectors, merged edges (values and order) and
    /// every detector those edges reference — so a decoder can recover
    /// the per-detector strides by comparing the canonical window with
    /// its one-period translate.
    fn window_translation(&self, rounds: Range<u32>) -> Option<WindowTranslation> {
        let _ = rounds;
        None
    }
}
