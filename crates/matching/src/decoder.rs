//! The first-class decoder abstraction shared by the sim → matching
//! pipeline.
//!
//! Every syndrome decoder in the workspace implements [`Decoder`]:
//! a scalar [`decode`](Decoder::decode) over a sparse syndrome and a
//! [`decode_correction`](Decoder::decode_correction) that also reports
//! the correction's edges, drawing its scratch from a caller-owned
//! [`DecodeWorkspace`]. Monte-Carlo drivers (`surf_sim::MemoryExperiment`)
//! reach a backend through [`WindowedDecoder`](crate::WindowedDecoder)
//! sessions and never match on the concrete backend.
//!
//! # Plugging in a new decoder
//!
//! Implement [`Decoder`] for your type (it must be `Send + Sync`, since
//! experiment drivers share one instance across worker threads). Both
//! `decode` and `decode_correction` are required: the streaming
//! [`WindowedDecoder`](crate::WindowedDecoder) commits windows from the
//! reported correction, calling `decode_correction` once per lane and
//! window with the session's one workspace. Keep per-shot allocations
//! in the workspace (as [`MwpmDecoder`](crate::MwpmDecoder) and
//! [`UnionFindDecoder`](crate::UnionFindDecoder) do through their
//! slices of it) and the steady-state decode allocates nothing.

use crate::graph::DecodingGraph;
use crate::mwpm::MwpmScratch;
use crate::unionfind::UfScratch;

/// One decode arena shared across windows, epochs, and sessions: the
/// scratch state of every decoder backend in a single owner.
///
/// A long-lived holder (a windowed-decode session, a daemon connection)
/// creates exactly one workspace and passes it to every
/// [`Decoder::decode_correction`] call; each backend uses only its slice
/// of the arena, every buffer grows to its high-water mark and is then
/// reused, so steady-state decoding performs zero heap allocations.
/// Results do not depend on what the workspace decoded before.
#[derive(Clone, Debug, Default)]
pub struct DecodeWorkspace {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A decoder that predicts a flip iff the syndrome is non-empty and
    /// reports no correction edges.
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
    fn trait_objects_and_references_delegate() {
        let stub = ParityStub(DecodingGraph::new(1));
        let by_ref: &dyn Decoder = &stub;
        assert_eq!(by_ref.decode(&[0]), 1);
        let boxed: Box<dyn Decoder> = Box::new(stub);
        assert_eq!(boxed.decode(&[]), 0);
        assert_eq!(boxed.graph().num_nodes(), 1);
    }
}
