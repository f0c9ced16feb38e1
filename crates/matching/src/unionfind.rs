//! The union-find decoder (Delfosse–Nickerson).
//!
//! An almost-linear-time alternative to MWPM used in the ablation studies:
//! odd clusters of flagged detectors grow by half-edges until they merge
//! with another cluster or touch the boundary; fully-grown edges are then
//! *peeled* (leaf-first spanning-forest traversal) to produce a correction.
//! Edge weights participate as integer growth lengths, so informed
//! re-weighting (e.g. 50 % defect edges) still steers the decoder.
//!
//! The cluster tables (union-find arrays, growth counters, peeling forest)
//! live in a reusable [`UfScratch`]; [`Decoder::decode_correction`]
//! draws it from the caller's [`DecodeWorkspace`], so a session reusing
//! one workspace decodes every shot and window allocation-free.

use std::collections::VecDeque;

use crate::decoder::{DecodeWorkspace, Decoder};
use crate::graph::DecodingGraph;
use crate::mwpm::dedup_parity_into;

/// The union-find decoder.
///
/// # Example
///
/// ```
/// use surf_matching::{DecodingGraph, UnionFindDecoder};
///
/// let mut g = DecodingGraph::new(3);
/// g.add_edge(0, None, 1e-2, 1);
/// g.add_edge(0, Some(1), 1e-2, 0);
/// g.add_edge(1, Some(2), 1e-2, 0);
/// g.add_edge(2, None, 1e-2, 0);
/// let decoder = UnionFindDecoder::new(g);
/// assert_eq!(decoder.decode(&[0]), 1);
/// assert_eq!(decoder.decode(&[1, 2]), 0);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFindDecoder {
    graph: DecodingGraph,
    /// Integer growth length per edge (≥ 1), derived from weights.
    lengths: Vec<u32>,
}

/// Reusable union-find decode workspace: the weighted-union cluster tables,
/// per-edge growth state, and the peeling forest, all sized to the decoding
/// graph and reset in O(n + e) without reallocating.
#[derive(Clone, Debug, Default)]
pub struct UfScratch {
    /// Parity-deduplicated flagged detectors of the current syndrome.
    flagged: Vec<usize>,
    /// Sort buffer for the dedup.
    sort_buf: Vec<usize>,
    // --- Cluster tables.
    parent: Vec<usize>,
    rank: Vec<u32>,
    parity: Vec<bool>,
    boundary: Vec<bool>,
    boundary_edge: Vec<Option<usize>>,
    // --- Growth state.
    growth: Vec<u32>,
    grown: Vec<bool>,
    active: Vec<usize>,
    newly_grown: Vec<usize>,
    // --- Peeling forest.
    flag: Vec<bool>,
    parent_edge: Vec<Option<usize>>,
    visited: Vec<bool>,
    order: Vec<usize>,
    queue: VecDeque<usize>,
    /// Cluster root → peel root vertex (dense, `usize::MAX` = unset).
    peel_root: Vec<usize>,
}

impl UfScratch {
    /// Resets every table for a graph with `n` nodes and `e` edges.
    fn reset(&mut self, n: usize, e: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.parity.clear();
        self.parity.resize(n, false);
        self.boundary.clear();
        self.boundary.resize(n, false);
        self.boundary_edge.clear();
        self.boundary_edge.resize(n, None);
        self.growth.clear();
        self.growth.resize(e, 0);
        self.grown.clear();
        self.grown.resize(e, false);
        self.flag.clear();
        self.flag.resize(n, false);
        self.parent_edge.clear();
        self.parent_edge.resize(n, None);
        self.visited.clear();
        self.visited.resize(n, false);
        self.peel_root.clear();
        self.peel_root.resize(n, usize::MAX);
        self.order.clear();
        self.queue.clear();
    }
}

/// Iterative find with path compression over the scratch's parent table.
fn find(parent: &mut [usize], v: usize) -> usize {
    let mut root = v;
    while parent[root] != root {
        root = parent[root];
    }
    let mut cur = v;
    while parent[cur] != root {
        let next = parent[cur];
        parent[cur] = root;
        cur = next;
    }
    root
}

/// Weighted union merging parity, boundary contact, and boundary edges.
#[allow(clippy::too_many_arguments)]
fn union(
    parent: &mut [usize],
    rank: &mut [u32],
    parity: &mut [bool],
    boundary: &mut [bool],
    boundary_edge: &mut [Option<usize>],
    a: usize,
    b: usize,
) {
    let (mut ra, mut rb) = (find(parent, a), find(parent, b));
    if ra == rb {
        return;
    }
    if rank[ra] < rank[rb] {
        std::mem::swap(&mut ra, &mut rb);
    }
    parent[rb] = ra;
    if rank[ra] == rank[rb] {
        rank[ra] += 1;
    }
    parity[ra] ^= parity[rb];
    boundary[ra] |= boundary[rb];
    if boundary_edge[ra].is_none() {
        boundary_edge[ra] = boundary_edge[rb];
    }
}

impl UnionFindDecoder {
    /// Creates a decoder; edge weights are quantised into growth lengths.
    pub fn new(graph: DecodingGraph) -> Self {
        let min_w = graph
            .edges()
            .iter()
            .map(|e| e.weight)
            .fold(f64::INFINITY, f64::min);
        let unit = if min_w.is_finite() && min_w > 0.0 {
            min_w
        } else {
            1.0
        };
        let lengths = graph
            .edges()
            .iter()
            .map(|e| ((e.weight / unit).round() as u32).clamp(1, 64))
            .collect();
        UnionFindDecoder { graph, lengths }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// Decodes a syndrome, returning the predicted observable-flip mask.
    ///
    /// Allocates a fresh workspace; hot loops should hold a [`UfScratch`]
    /// and call [`decode_with`](Self::decode_with), or a
    /// [`DecodeWorkspace`] and call [`Decoder::decode_correction`].
    pub fn decode(&self, syndrome: &[usize]) -> u64 {
        self.decode_with(syndrome, &mut UfScratch::default())
    }

    /// Decodes a syndrome reusing `scratch` for every internal allocation.
    pub fn decode_with(&self, syndrome: &[usize], scratch: &mut UfScratch) -> u64 {
        self.decode_into(syndrome, scratch, None)
    }

    /// [`decode_with`](Self::decode_with), also appending the peeled
    /// edge ids to `correction` when one is given.
    fn decode_into(
        &self,
        syndrome: &[usize],
        scratch: &mut UfScratch,
        correction: Option<&mut Vec<usize>>,
    ) -> u64 {
        let n = self.graph.num_nodes();
        dedup_parity_into(syndrome, &mut scratch.sort_buf, &mut scratch.flagged);
        if scratch.flagged.is_empty() {
            return 0;
        }
        scratch.reset(n, self.graph.num_edges());
        for &f in &scratch.flagged {
            scratch.parity[f] = !scratch.parity[f];
        }
        // Growth stage: grow every odd, non-boundary cluster by one
        // half-unit per step.
        loop {
            scratch.active.clear();
            for v in 0..n {
                let r = find(&mut scratch.parent, v);
                if scratch.parity[r] && !scratch.boundary[r] {
                    scratch.active.push(v);
                }
            }
            if scratch.active.is_empty() {
                break;
            }
            // Grow all edges on the boundary of active clusters.
            scratch.newly_grown.clear();
            for &v in &scratch.active {
                for &e in self.graph.incident(v) {
                    if scratch.grown[e] {
                        continue;
                    }
                    scratch.growth[e] += 1;
                    if scratch.growth[e] >= 2 * self.lengths[e] {
                        scratch.grown[e] = true;
                        scratch.newly_grown.push(e);
                    }
                }
            }
            if scratch.newly_grown.is_empty()
                && scratch
                    .active
                    .iter()
                    .all(|&v| self.graph.incident(v).iter().all(|&e| scratch.grown[e]))
            {
                // No way to grow further (isolated odd cluster): give up on
                // it to guarantee termination.
                break;
            }
            for i in 0..scratch.newly_grown.len() {
                let e = scratch.newly_grown[i];
                let edge = &self.graph.edges()[e];
                match edge.b {
                    Some(b) => union(
                        &mut scratch.parent,
                        &mut scratch.rank,
                        &mut scratch.parity,
                        &mut scratch.boundary,
                        &mut scratch.boundary_edge,
                        edge.a,
                        b,
                    ),
                    None => {
                        let r = find(&mut scratch.parent, edge.a);
                        scratch.boundary[r] = true;
                        scratch.boundary_edge[r] = Some(e);
                    }
                }
            }
        }
        // Peeling stage: spanning forest over grown edges, leaves first.
        self.peel(scratch, correction)
    }

    fn peel(&self, scratch: &mut UfScratch, mut correction: Option<&mut Vec<usize>>) -> u64 {
        let n = self.graph.num_nodes();
        for &f in &scratch.flagged {
            scratch.flag[f] = true;
        }
        // Build spanning forests per cluster over grown edges, rooted at a
        // boundary-edge endpoint when available.
        for v in 0..n {
            let r = find(&mut scratch.parent, v);
            if scratch.boundary[r] {
                if let Some(e) = scratch.boundary_edge[r] {
                    if self.graph.edges()[e].a == v {
                        scratch.peel_root[r] = v;
                    }
                }
            }
        }
        for v in 0..n {
            let r = find(&mut scratch.parent, v);
            if scratch.peel_root[r] == usize::MAX {
                scratch.peel_root[r] = v;
            }
            let root = scratch.peel_root[r];
            if scratch.visited[root] {
                continue;
            }
            // BFS from root over grown edges within the cluster.
            scratch.visited[root] = true;
            scratch.queue.clear();
            scratch.queue.push_back(root);
            while let Some(u) = scratch.queue.pop_front() {
                scratch.order.push(u);
                for &e in self.graph.incident(u) {
                    if !scratch.grown[e] {
                        continue;
                    }
                    let edge = &self.graph.edges()[e];
                    let Some(w) = (if edge.a == u { edge.b } else { Some(edge.a) }) else {
                        continue;
                    };
                    if !scratch.visited[w]
                        && find(&mut scratch.parent, w) == find(&mut scratch.parent, u)
                    {
                        scratch.visited[w] = true;
                        scratch.parent_edge[w] = Some(e);
                        scratch.queue.push_back(w);
                    }
                }
            }
        }
        // Peel in reverse BFS order (leaves towards roots).
        let mut obs = 0u64;
        let mut flip = |e: usize| {
            obs ^= self.graph.edges()[e].observables;
            if let Some(correction) = correction.as_deref_mut() {
                correction.push(e);
            }
        };
        for i in (0..scratch.order.len()).rev() {
            let v = scratch.order[i];
            if !scratch.flag[v] {
                continue;
            }
            match scratch.parent_edge[v] {
                Some(e) => {
                    flip(e);
                    let edge = &self.graph.edges()[e];
                    let parent = if edge.a == v { edge.b.unwrap() } else { edge.a };
                    scratch.flag[v] = false;
                    scratch.flag[parent] = !scratch.flag[parent];
                }
                None => {
                    // Root carries a residual flag: discharge through the
                    // cluster's boundary edge if it has one.
                    let r = find(&mut scratch.parent, v);
                    if let Some(e) = scratch.boundary_edge[r] {
                        flip(e);
                        scratch.flag[v] = false;
                    }
                    // Otherwise the cluster was stuck; leave it (decoder
                    // failure, counted by the caller through the observable
                    // mismatch).
                }
            }
        }
        obs
    }
}

impl Decoder for UnionFindDecoder {
    fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    fn decode(&self, syndrome: &[usize]) -> u64 {
        UnionFindDecoder::decode(self, syndrome)
    }

    fn decode_correction(&self, syndrome: &[usize], workspace: &mut DecodeWorkspace) -> u64 {
        self.decode_into(syndrome, &mut workspace.uf, Some(&mut workspace.correction))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn basic_cases_match_mwpm() {
        let d = UnionFindDecoder::new(strip(5, 1e-3));
        assert_eq!(d.decode(&[]), 0);
        assert_eq!(d.decode(&[0]), 1);
        assert_eq!(d.decode(&[4]), 0);
        assert_eq!(d.decode(&[1, 2]), 0);
    }

    #[test]
    fn corrects_sampled_low_rate_errors() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = strip(9, 0.02);
        let d = UnionFindDecoder::new(g.clone());
        let mut rng = StdRng::seed_from_u64(123);
        let mut failures = 0;
        let shots = 2000;
        for _ in 0..shots {
            let (syndrome, true_obs) = g.sample_errors(&mut rng);
            if d.decode(&syndrome) != true_obs {
                failures += 1;
            }
        }
        let rate = failures as f64 / shots as f64;
        assert!(rate < 0.05, "UF failure rate {rate} too high");
    }

    #[test]
    fn agrees_with_mwpm_on_random_sparse_syndromes() {
        use crate::MwpmDecoder;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = strip(15, 1e-3);
        let uf = UnionFindDecoder::new(g.clone());
        let mw = MwpmDecoder::new(g);
        let mut rng = StdRng::seed_from_u64(5);
        let mut agree = 0;
        let trials = 300;
        for _ in 0..trials {
            // One or two flagged detectors.
            let a = rng.gen_range(0..15);
            let syndrome = if rng.gen::<bool>() {
                vec![a]
            } else {
                let b = (a + 1).min(14);
                if b == a {
                    vec![a]
                } else {
                    vec![a, b]
                }
            };
            if uf.decode(&syndrome) == mw.decode(&syndrome) {
                agree += 1;
            }
        }
        // UF and MWPM coincide on near-trivial syndromes.
        assert!(
            agree as f64 / trials as f64 > 0.95,
            "agreement {agree}/{trials}"
        );
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let d = UnionFindDecoder::new(strip(9, 1e-3));
        let mut scratch = UfScratch::default();
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
}
