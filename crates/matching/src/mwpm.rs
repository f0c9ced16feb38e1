//! The minimum-weight perfect-matching decoder.
//!
//! Pipeline (PyMatching-style):
//!
//! 1. Dijkstra from every flagged detector through the decoding graph,
//!    recording distances and path observable parities to the other flagged
//!    detectors and to the boundary.
//! 2. Build a matching instance over the flagged detectors plus one virtual
//!    "boundary twin" per detector (twins are pairwise matchable at zero
//!    cost), optionally keeping only each node's nearest neighbours.
//! 3. Solve exactly with the blossom algorithm; XOR the observable parities
//!    of the matched paths.
//! 4. When the caller asks for the correction
//!    ([`Decoder::decode_correction`]), re-run step 1's Dijkstra from each
//!    matched source, stopping as soon as the partner (or the boundary) is
//!    final, and walk the predecessor edges of the very path whose
//!    observables step 3 XORed.
//!
//! All per-call allocations (Dijkstra distance/visited arrays, the heap,
//! and the matching-instance buffers) live in a reusable [`MwpmScratch`];
//! the batch path ([`Decoder::decode_batch`]) carries one scratch across
//! the whole batch so the per-shot decode is allocation-free.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use surf_pauli::BitBatch;

use crate::blossom::{min_weight_perfect_matching_with, BlossomScratch};
use crate::decoder::{DecodeWorkspace, Decoder};
use crate::graph::DecodingGraph;

/// Exact MWPM decoder over a [`DecodingGraph`].
///
/// # Example
///
/// ```
/// use surf_matching::{DecodingGraph, MwpmDecoder};
///
/// // A 3-detector repetition-code strip: D0 - D1 - D2 with boundaries.
/// let mut g = DecodingGraph::new(3);
/// g.add_edge(0, None, 1e-2, 1);
/// g.add_edge(0, Some(1), 1e-2, 0);
/// g.add_edge(1, Some(2), 1e-2, 0);
/// g.add_edge(2, None, 1e-2, 0);
/// let decoder = MwpmDecoder::new(g);
/// // A single flip on D0 is best explained by its boundary edge,
/// // which crosses the logical observable.
/// assert_eq!(decoder.decode(&[0]), 1);
/// assert_eq!(decoder.decode(&[0, 1]), 0); // interior pair
/// ```
#[derive(Clone, Debug)]
pub struct MwpmDecoder {
    graph: DecodingGraph,
    /// Keep at most this many nearest flagged neighbours per node in the
    /// matching instance (0 = unlimited). Bounds the blossom cost on dense
    /// syndromes with negligible accuracy loss.
    max_neighbors: usize,
}

/// When a Dijkstra run may stop.
#[derive(Clone, Copy, Debug)]
enum Until {
    /// Every flagged target and the boundary are final (the matching
    /// instance pass).
    AllTargets,
    /// The given detector is settled.
    Settled(usize),
    /// The boundary distance is final.
    Boundary,
}

/// Weight scale: f64 path weights are rounded to integers at this
/// resolution for the exact integer blossom solver.
const WEIGHT_SCALE: f64 = 1024.0;

/// Reusable MWPM decode workspace: Dijkstra state sized to the decoding
/// graph (reset via a touched-node list, so sparse syndromes pay only for
/// the region they explore) plus matching-instance buffers.
///
/// One scratch serves any number of sequential decodes, including against
/// different graphs (buffers grow on demand).
#[derive(Clone, Debug, Default)]
pub struct MwpmScratch {
    /// Parity-deduplicated flagged detectors of the current syndrome.
    flagged: Vec<usize>,
    /// Sort buffer for the dedup.
    sort_buf: Vec<usize>,
    /// Detector → index in `flagged` (`usize::MAX` = not flagged).
    target_idx: Vec<usize>,
    // --- Dijkstra state, reset via `touched`.
    dist: Vec<f64>,
    obs: Vec<u64>,
    /// Edge that last improved each node's distance (valid once settled).
    pred: Vec<usize>,
    settled: Vec<bool>,
    touched: Vec<usize>,
    heap: BinaryHeap<(Reverse<OrderedF64>, usize)>,
    // --- Matching instance.
    pair_info: Vec<Option<(f64, u64)>>,
    /// Best boundary (distance, path observables, boundary edge).
    boundary_info: Vec<Option<(f64, u64, usize)>>,
    edges: Vec<(usize, usize, i64)>,
    neigh: Vec<(usize, f64)>,
    /// Blossom-solver arena (dual variables, labels, tree pointers, …).
    blossom: BlossomScratch,
    /// Matching result buffer.
    mate: Vec<usize>,
}

impl MwpmScratch {
    /// Grows the graph-sized arrays to `n` nodes.
    fn ensure(&mut self, n: usize) {
        if self.target_idx.len() < n {
            self.target_idx.resize(n, usize::MAX);
            self.dist.resize(n, f64::INFINITY);
            self.obs.resize(n, 0);
            self.pred.resize(n, usize::MAX);
            self.settled.resize(n, false);
        }
    }

    /// Resets the Dijkstra arrays touched by the previous source.
    fn reset_touched(&mut self) {
        for &v in &self.touched {
            self.dist[v] = f64::INFINITY;
            self.obs[v] = 0;
            self.settled[v] = false;
        }
        self.touched.clear();
        self.heap.clear();
    }
}

impl MwpmDecoder {
    /// Creates a decoder that owns its graph.
    pub fn new(graph: DecodingGraph) -> Self {
        MwpmDecoder {
            graph,
            max_neighbors: 24,
        }
    }

    /// Sets the nearest-neighbour cap (0 = exact complete instance).
    pub fn with_max_neighbors(mut self, k: usize) -> Self {
        self.max_neighbors = k;
        self
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// Decodes a syndrome (list of flagged detector indices; duplicates
    /// cancel pairwise) and returns the predicted observable-flip mask.
    ///
    /// Allocates a fresh workspace; hot loops should hold an
    /// [`MwpmScratch`] and call [`decode_with`](Self::decode_with), or go
    /// through [`Decoder::decode_batch`].
    pub fn decode(&self, syndrome: &[usize]) -> u64 {
        self.decode_with(syndrome, &mut MwpmScratch::default())
    }

    /// Decodes a syndrome reusing `scratch` for every internal allocation.
    pub fn decode_with(&self, syndrome: &[usize], scratch: &mut MwpmScratch) -> u64 {
        self.decode_into(syndrome, scratch, None)
    }

    /// [`decode_with`](Self::decode_with), also appending the matched
    /// paths' edge ids to `correction` when one is given.
    fn decode_into(
        &self,
        syndrome: &[usize],
        scratch: &mut MwpmScratch,
        correction: Option<&mut Vec<usize>>,
    ) -> u64 {
        dedup_parity_into(syndrome, &mut scratch.sort_buf, &mut scratch.flagged);
        if scratch.flagged.is_empty() {
            return 0;
        }
        scratch.ensure(self.graph.num_nodes());
        let m = scratch.flagged.len();
        for (i, &d) in scratch.flagged.iter().enumerate() {
            scratch.target_idx[d] = i;
        }
        // Dijkstra from each flagged detector.
        scratch.pair_info.clear();
        scratch.pair_info.resize(m * m, None);
        scratch.boundary_info.clear();
        scratch.boundary_info.resize(m, None);
        // Source 0 runs last, so its search state survives for
        // `push_matched_paths` (the order does not change any result).
        for i in (0..m).rev() {
            scratch.boundary_info[i] = self.dijkstra(i, m, Until::AllTargets, scratch);
        }
        // Flagged registry is no longer needed; clean it for the next call.
        for &d in &scratch.flagged {
            scratch.target_idx[d] = usize::MAX;
        }
        // Assemble the blossom instance: nodes 0..m flagged, m..2m twins.
        scratch.edges.clear();
        for i in 0..m {
            // Candidate neighbours sorted by distance.
            scratch.neigh.clear();
            scratch.neigh.extend(
                (0..m)
                    .filter(|&j| j != i)
                    .filter_map(|j| scratch.pair_info[i * m + j].map(|(d, _)| (j, d))),
            );
            // Unstable sort to avoid the stable sort's temporary buffer;
            // the index tiebreak reproduces the stable order exactly
            // (candidates are generated in ascending j).
            scratch
                .neigh
                .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            if self.max_neighbors > 0 {
                scratch.neigh.truncate(self.max_neighbors);
            }
            for &(j, d) in &scratch.neigh {
                if i < j {
                    scratch.edges.push((i, j, scale(d)));
                } else {
                    // Ensure the pair appears even if j pruned it.
                    scratch.edges.push((j, i, scale(d)));
                }
            }
            if let Some((d, _, _)) = scratch.boundary_info[i] {
                scratch.edges.push((i, m + i, scale(d)));
            }
        }
        scratch.edges.sort_unstable();
        scratch.edges.dedup_by_key(|e| (e.0, e.1));
        // Twins are pairwise matchable at no cost.
        for i in 0..m {
            for j in i + 1..m {
                scratch.edges.push((m + i, m + j, 0));
            }
        }
        min_weight_perfect_matching_with(
            2 * m,
            &scratch.edges,
            &mut scratch.blossom,
            &mut scratch.mate,
        );
        let mut obs = 0u64;
        for (i, &partner) in scratch.mate.iter().enumerate().take(m) {
            if partner < m {
                if i < partner {
                    obs ^= scratch.pair_info[i * m + partner]
                        .expect("matched pair must be reachable")
                        .1;
                }
            } else {
                debug_assert_eq!(partner, m + i, "node may only use its own twin");
                obs ^= scratch.boundary_info[i]
                    .expect("matched boundary must be reachable")
                    .1;
            }
        }
        if let Some(correction) = correction {
            self.push_matched_paths(m, scratch, correction);
        }
        obs
    }

    /// Appends the edges of every matched path, replaying each one's
    /// Dijkstra from the matched source (the registry is clean, so the
    /// replay records nothing) up to the point where the path is final.
    /// Source 0's search is still in `scratch` and needs no replay.
    fn push_matched_paths(&self, m: usize, scratch: &mut MwpmScratch, correction: &mut Vec<usize>) {
        for i in 0..m {
            let partner = scratch.mate[i];
            let end = if partner < m {
                if partner < i {
                    continue;
                }
                let target = scratch.flagged[partner];
                if i > 0 {
                    self.dijkstra(i, m, Until::Settled(target), scratch);
                }
                target
            } else {
                let boundary = match i {
                    0 => scratch.boundary_info[0],
                    _ => self.dijkstra(i, m, Until::Boundary, scratch),
                };
                let (_, _, e) = boundary.expect("matched boundary must be reachable");
                correction.push(e);
                self.graph.edges()[e].a
            };
            let (src, mut v) = (scratch.flagged[i], end);
            while v != src {
                let edge = &self.graph.edges()[scratch.pred[v]];
                correction.push(scratch.pred[v]);
                v = if edge.a == v {
                    edge.b.expect("path edge")
                } else {
                    edge.a
                };
            }
        }
    }

    /// Dijkstra from flagged node `src_idx`, recording the best (distance,
    /// path-observables) to each registered flagged target in
    /// `scratch.pair_info` and returning the best boundary (distance,
    /// path-observables, boundary edge). Stops as `until` says; every run
    /// from the same source repeats the same steps, so a shorter run
    /// leaves the same predecessor edges on the nodes it settles.
    fn dijkstra(
        &self,
        src_idx: usize,
        m: usize,
        until: Until,
        scratch: &mut MwpmScratch,
    ) -> Option<(f64, u64, usize)> {
        scratch.reset_touched();
        let src = scratch.flagged[src_idx];
        let mut to_boundary: Option<(f64, u64, usize)> = None;
        let mut remaining = m;
        scratch.dist[src] = 0.0;
        scratch.touched.push(src);
        scratch.heap.push((Reverse(OrderedF64(0.0)), src));
        while let Some((Reverse(OrderedF64(d)), v)) = scratch.heap.pop() {
            if scratch.settled[v] {
                continue;
            }
            scratch.settled[v] = true;
            let idx = scratch.target_idx[v];
            if idx != usize::MAX {
                scratch.pair_info[src_idx * m + idx] = Some((d, scratch.obs[v]));
                remaining -= 1;
            }
            // The best known boundary distance is final once no future pop
            // can beat it (pops are non-decreasing in distance).
            let boundary_final = to_boundary.is_some_and(|(bd, _, _)| bd <= d);
            let done = match until {
                Until::AllTargets => remaining == 0 && boundary_final,
                Until::Settled(target) => v == target,
                Until::Boundary => boundary_final,
            };
            if done {
                break;
            }
            for &e in self.graph.incident(v) {
                let edge = &self.graph.edges()[e];
                let (next, w, eobs) = if edge.a == v {
                    (edge.b, edge.weight, edge.observables)
                } else {
                    (Some(edge.a), edge.weight, edge.observables)
                };
                match next {
                    Some(u) => {
                        let nd = d + w;
                        if nd < scratch.dist[u] {
                            if scratch.dist[u].is_infinite() {
                                scratch.touched.push(u);
                            }
                            scratch.dist[u] = nd;
                            scratch.obs[u] = scratch.obs[v] ^ eobs;
                            scratch.pred[u] = e;
                            scratch.heap.push((Reverse(OrderedF64(nd)), u));
                        }
                    }
                    None => {
                        let nd = d + w;
                        if to_boundary.is_none_or(|(bd, _, _)| nd < bd) {
                            to_boundary = Some((nd, scratch.obs[v] ^ eobs, e));
                        }
                    }
                }
            }
        }
        to_boundary
    }
}

impl Decoder for MwpmDecoder {
    fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    fn decode(&self, syndrome: &[usize]) -> u64 {
        MwpmDecoder::decode(self, syndrome)
    }

    fn decode_correction(&self, syndrome: &[usize], workspace: &mut DecodeWorkspace) -> u64 {
        self.decode_into(
            syndrome,
            &mut workspace.mwpm,
            Some(&mut workspace.correction),
        )
    }

    fn decode_batch(&self, batch: &BitBatch, predictions: &mut Vec<u64>) {
        self.decode_batch_with(batch, predictions, &mut DecodeWorkspace::default());
    }

    fn decode_batch_with(
        &self,
        batch: &BitBatch,
        predictions: &mut Vec<u64>,
        workspace: &mut DecodeWorkspace,
    ) {
        debug_assert_eq!(batch.num_bits(), self.graph.num_nodes());
        predictions.clear();
        for lane in 0..batch.lanes() {
            batch.lane_ones_into(lane, &mut workspace.syndrome);
            predictions.push(self.decode_with(&workspace.syndrome, &mut workspace.mwpm));
        }
    }
}

fn scale(w: f64) -> i64 {
    (w * WEIGHT_SCALE).round() as i64
}

/// Keeps detectors flagged an odd number of times, sorted.
#[cfg(test)]
fn dedup_parity(syndrome: &[usize]) -> Vec<usize> {
    let mut sort_buf = Vec::new();
    let mut out = Vec::new();
    dedup_parity_into(syndrome, &mut sort_buf, &mut out);
    out
}

/// Allocation-free variant of [`dedup_parity`] writing into `out`.
pub(crate) fn dedup_parity_into(
    syndrome: &[usize],
    sort_buf: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    sort_buf.clear();
    sort_buf.extend_from_slice(syndrome);
    sort_buf.sort_unstable();
    out.clear();
    let mut i = 0;
    while i < sort_buf.len() {
        let mut j = i;
        while j < sort_buf.len() && sort_buf[j] == sort_buf[i] {
            j += 1;
        }
        if (j - i) % 2 == 1 {
            out.push(sort_buf[i]);
        }
        i = j;
    }
}

/// Total-order wrapper for f64 heap keys (no NaNs by construction).
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-D repetition-code decoding graph with `n` detectors in a line,
    /// boundary edges at both ends. Observable bit 0 sits on the left
    /// boundary edge.
    fn strip(n: usize, p: f64) -> DecodingGraph {
        let mut g = DecodingGraph::new(n);
        g.add_edge(0, None, p, 1);
        for i in 0..n - 1 {
            g.add_edge(i, Some(i + 1), p, 0);
        }
        g.add_edge(n - 1, None, p, 0);
        g
    }

    #[test]
    fn empty_syndrome_no_flip() {
        let d = MwpmDecoder::new(strip(5, 1e-3));
        assert_eq!(d.decode(&[]), 0);
        assert_eq!(d.decode(&[2, 2]), 0); // duplicate cancels
    }

    #[test]
    fn single_defect_matches_nearest_boundary() {
        let d = MwpmDecoder::new(strip(5, 1e-3));
        assert_eq!(d.decode(&[0]), 1); // left boundary crosses observable
        assert_eq!(d.decode(&[4]), 0); // right boundary does not
    }

    #[test]
    fn pair_matches_internally() {
        let d = MwpmDecoder::new(strip(5, 1e-3));
        assert_eq!(d.decode(&[1, 2]), 0);
        // Far-apart pair splits to the two boundaries: obs crossed once.
        assert_eq!(d.decode(&[0, 4]), 1);
    }

    #[test]
    fn three_defects_mixed_matching() {
        let d = MwpmDecoder::new(strip(7, 1e-3));
        // {0} -> left boundary (obs), {3,4} -> internal pair.
        assert_eq!(d.decode(&[0, 3, 4]), 1);
        // {5,6} region: nearest boundary is right.
        assert_eq!(d.decode(&[6, 3, 4]), 0);
    }

    #[test]
    fn decoder_corrects_sampled_errors_majority() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // At low p the decoder must predict the sampled observable almost
        // always.
        let g = strip(9, 0.02);
        let d = MwpmDecoder::new(g.clone());
        let mut rng = StdRng::seed_from_u64(77);
        let mut failures = 0;
        let shots = 2000;
        for _ in 0..shots {
            let (syndrome, true_obs) = g.sample_errors(&mut rng);
            if d.decode(&syndrome) != true_obs {
                failures += 1;
            }
        }
        let rate = failures as f64 / shots as f64;
        assert!(rate < 0.02, "logical failure rate {rate} too high");
    }

    #[test]
    fn weighted_edges_steer_matching() {
        // Same strip but with a very unlikely (heavy) left boundary: a flip
        // on detector 0 prefers the 2-step path to... no — still boundary,
        // but make interior edges cheap so 0 matches through to the right.
        let mut g = DecodingGraph::new(3);
        g.add_edge(0, None, 1e-9, 1); // nearly impossible
        g.add_edge(0, Some(1), 0.4, 0);
        g.add_edge(1, Some(2), 0.4, 0);
        g.add_edge(2, None, 0.4, 0);
        let d = MwpmDecoder::new(g);
        assert_eq!(d.decode(&[0]), 0, "path through cheap edges wins");
    }

    #[test]
    fn neighbor_cap_preserves_simple_answers() {
        let d = MwpmDecoder::new(strip(9, 1e-3)).with_max_neighbors(1);
        assert_eq!(d.decode(&[1, 2]), 0);
        assert_eq!(d.decode(&[0]), 1);
    }

    #[test]
    fn dedup_parity_works() {
        assert_eq!(dedup_parity(&[3, 1, 3, 2, 2, 2]), vec![1, 2]);
        assert!(dedup_parity(&[5, 5]).is_empty());
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // A shared scratch across wildly different syndromes must give the
        // same answers as fresh decodes.
        let d = MwpmDecoder::new(strip(9, 1e-3));
        let mut scratch = MwpmScratch::default();
        let syndromes: Vec<Vec<usize>> = vec![
            vec![0, 3, 4],
            vec![],
            vec![8],
            vec![0, 8],
            vec![1, 2, 5, 6],
            vec![0],
        ];
        for s in &syndromes {
            assert_eq!(
                d.decode_with(s, &mut scratch),
                d.decode(s),
                "scratch decode diverged on {s:?}"
            );
        }
    }

    #[test]
    fn scratch_survives_graph_changes() {
        // The same scratch object reused against graphs of different size.
        let small = MwpmDecoder::new(strip(3, 1e-2));
        let large = MwpmDecoder::new(strip(20, 1e-2));
        let mut scratch = MwpmScratch::default();
        assert_eq!(small.decode_with(&[0], &mut scratch), 1);
        assert_eq!(large.decode_with(&[19], &mut scratch), 0);
        assert_eq!(small.decode_with(&[0, 1], &mut scratch), 0);
    }
}
