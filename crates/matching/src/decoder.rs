//! The first-class decoder abstraction shared by the sim → matching
//! pipeline.
//!
//! Every syndrome decoder in the workspace implements [`Decoder`]:
//! a scalar [`decode`](Decoder::decode) over a sparse syndrome, a
//! [`decode_correction`](Decoder::decode_correction) that also reports
//! the correction's edges, and a
//! [`decode_batch`](Decoder::decode_batch) over a 64-lane [`BitBatch`]
//! whose implementations reuse their scratch allocations across shots.
//! Monte-Carlo drivers (`surf_sim::MemoryExperiment`) hold a
//! `Box<dyn Decoder>` and never match on the concrete backend.
//!
//! # Plugging in a new decoder
//!
//! Implement [`Decoder`] for your type (it must be `Send + Sync`, since
//! experiment drivers share one instance across worker threads). Both
//! `decode` and `decode_correction` are required: the streaming
//! [`WindowedDecoder`](crate::WindowedDecoder) commits windows from the
//! reported correction. The default `decode_batch` extracts each lane and
//! calls `decode`; override
//! it when your decoder can hoist per-shot allocations into a reusable
//! workspace, as [`MwpmDecoder`](crate::MwpmDecoder) and
//! [`UnionFindDecoder`](crate::UnionFindDecoder) do.

use surf_pauli::BitBatch;

use crate::graph::DecodingGraph;
use crate::mwpm::MwpmScratch;
use crate::unionfind::UfScratch;

/// One decode arena shared across windows, epochs, and sessions: the
/// scratch state of every decoder backend, plus the lane-extraction
/// buffer, in a single owner.
///
/// A long-lived holder (a windowed-decode session, a daemon connection)
/// creates exactly one workspace and passes it to every
/// [`Decoder::decode_batch_with`] call; each backend uses only its slice
/// of the arena, every buffer grows to its high-water mark and is then
/// reused, so steady-state decoding performs zero heap allocations. The
/// one-shot [`Decoder::decode_batch`] path allocates a fresh workspace
/// per call and produces bit-identical results.
#[derive(Clone, Debug, Default)]
pub struct DecodeWorkspace {
    /// Lane-extraction buffer (flagged detector indices of one shot).
    pub(crate) syndrome: Vec<usize>,
    /// MWPM backend arena: Dijkstra state, matching instance, and the
    /// blossom solver's tables.
    pub(crate) mwpm: MwpmScratch,
    /// Union-find backend arena: cluster tables and the peeling forest.
    pub(crate) uf: UfScratch,
    /// Edge ids (in the decoder's graph) of the corrections reported by
    /// [`Decoder::decode_correction`], which appends and never clears.
    pub correction: Vec<usize>,
}

/// A syndrome decoder over a [`DecodingGraph`].
///
/// # Example
///
/// ```
/// use surf_matching::{DecodeWorkspace, Decoder, DecodingGraph, MwpmDecoder, UnionFindDecoder};
///
/// let mut g = DecodingGraph::new(2);
/// g.add_edge(0, None, 1e-2, 1);
/// g.add_edge(0, Some(1), 1e-2, 0);
/// g.add_edge(1, None, 1e-2, 0);
/// let decoders: Vec<Box<dyn Decoder>> = vec![
///     Box::new(MwpmDecoder::new(g.clone())),
///     Box::new(UnionFindDecoder::new(g)),
/// ];
/// for d in &decoders {
///     assert_eq!(d.decode(&[0]), 1);
///     assert_eq!(d.decode(&[0, 1]), 0);
///     // The correction for {0, 1} is the single edge between them.
///     let mut workspace = DecodeWorkspace::default();
///     assert_eq!(d.decode_correction(&[0, 1], &mut workspace), 0);
///     assert_eq!(workspace.correction, vec![1]);
/// }
/// ```
pub trait Decoder: Send + Sync {
    /// The decoding graph this decoder operates on.
    fn graph(&self) -> &DecodingGraph;

    /// Decodes one syndrome (flagged detector indices; duplicates cancel
    /// pairwise) into the predicted observable-flip mask.
    fn decode(&self, syndrome: &[usize]) -> u64;

    /// Decodes one syndrome like [`decode`](Decoder::decode) and appends
    /// the correction — ids of [`graph`](Decoder::graph) edges whose
    /// flips explain the syndrome — to `workspace.correction`. An edge
    /// listed twice cancels: the XOR of the listed edges' observables is
    /// the returned mask, and their endpoints flip the syndrome.
    fn decode_correction(&self, syndrome: &[usize], workspace: &mut DecodeWorkspace) -> u64;

    /// Decodes all active lanes of `batch` (one detector row per graph
    /// node), pushing one observable-flip mask per shot into `predictions`
    /// (cleared first).
    ///
    /// The default implementation extracts each lane and calls
    /// [`decode`](Decoder::decode); backends override it to reuse scratch
    /// allocations across the batch so the per-shot path is
    /// allocation-free.
    fn decode_batch(&self, batch: &BitBatch, predictions: &mut Vec<u64>) {
        predictions.clear();
        let mut syndrome = Vec::new();
        for lane in 0..batch.lanes() {
            batch.lane_ones_into(lane, &mut syndrome);
            predictions.push(self.decode(&syndrome));
        }
    }

    /// Like [`decode_batch`](Decoder::decode_batch), but with every
    /// internal allocation drawn from the caller-owned `workspace` so a
    /// long-lived session reuses one arena across calls.
    ///
    /// The default implementation reuses the workspace's lane-extraction
    /// buffer around scalar [`decode`](Decoder::decode) calls; backends
    /// with real scratch state (MWPM, union-find) override it to route
    /// their whole decode through the arena. Results are bit-identical to
    /// `decode_batch`.
    fn decode_batch_with(
        &self,
        batch: &BitBatch,
        predictions: &mut Vec<u64>,
        workspace: &mut DecodeWorkspace,
    ) {
        predictions.clear();
        for lane in 0..batch.lanes() {
            batch.lane_ones_into(lane, &mut workspace.syndrome);
            predictions.push(self.decode(&workspace.syndrome));
        }
    }
}

impl<D: Decoder + ?Sized> Decoder for &D {
    fn graph(&self) -> &DecodingGraph {
        (**self).graph()
    }

    fn decode(&self, syndrome: &[usize]) -> u64 {
        (**self).decode(syndrome)
    }

    fn decode_correction(&self, syndrome: &[usize], workspace: &mut DecodeWorkspace) -> u64 {
        (**self).decode_correction(syndrome, workspace)
    }

    fn decode_batch(&self, batch: &BitBatch, predictions: &mut Vec<u64>) {
        (**self).decode_batch(batch, predictions)
    }

    fn decode_batch_with(
        &self,
        batch: &BitBatch,
        predictions: &mut Vec<u64>,
        workspace: &mut DecodeWorkspace,
    ) {
        (**self).decode_batch_with(batch, predictions, workspace)
    }
}

impl<D: Decoder + ?Sized> Decoder for Box<D> {
    fn graph(&self) -> &DecodingGraph {
        (**self).graph()
    }

    fn decode(&self, syndrome: &[usize]) -> u64 {
        (**self).decode(syndrome)
    }

    fn decode_correction(&self, syndrome: &[usize], workspace: &mut DecodeWorkspace) -> u64 {
        (**self).decode_correction(syndrome, workspace)
    }

    fn decode_batch(&self, batch: &BitBatch, predictions: &mut Vec<u64>) {
        (**self).decode_batch(batch, predictions)
    }

    fn decode_batch_with(
        &self,
        batch: &BitBatch,
        predictions: &mut Vec<u64>,
        workspace: &mut DecodeWorkspace,
    ) {
        (**self).decode_batch_with(batch, predictions, workspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A decoder that predicts a flip iff the syndrome is non-empty and
    /// reports no correction edges; used to exercise the default
    /// `decode_batch`.
    struct ParityStub(DecodingGraph);

    impl Decoder for ParityStub {
        fn graph(&self) -> &DecodingGraph {
            &self.0
        }

        fn decode(&self, syndrome: &[usize]) -> u64 {
            u64::from(!syndrome.is_empty())
        }

        fn decode_correction(&self, syndrome: &[usize], _: &mut DecodeWorkspace) -> u64 {
            self.decode(syndrome)
        }
    }

    #[test]
    fn default_batch_path_matches_scalar() {
        let stub = ParityStub(DecodingGraph::new(3));
        let mut batch = BitBatch::with_lanes(3, 5);
        batch.xor_word(1, 0b10010);
        batch.xor_word(2, 0b00010);
        let mut preds = vec![99]; // must be cleared
        stub.decode_batch(&batch, &mut preds);
        assert_eq!(preds, vec![0, 1, 0, 0, 1]);
    }

    #[test]
    fn trait_objects_and_references_delegate() {
        let stub = ParityStub(DecodingGraph::new(1));
        let by_ref: &dyn Decoder = &stub;
        assert_eq!(by_ref.decode(&[0]), 1);
        let boxed: Box<dyn Decoder> = Box::new(stub);
        assert_eq!(boxed.decode(&[]), 0);
        assert_eq!(boxed.graph().num_nodes(), 1);
    }
}
