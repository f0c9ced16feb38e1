//! The minimum-weight perfect-matching decoder.
//!
//! Pipeline (PyMatching-style):
//!
//! 1. Look up the shortest-path weight between every two flagged
//!    detectors, and from each to the boundary, in the decoder's shared
//!    pair table. The first time a detector is flagged, one Dijkstra from
//!    it, out to the largest weight the table's 16 bits hold, fills its
//!    row and its boundary weight; every later decode — on any thread,
//!    lane or session sharing the decoder — reads them. Graphs above a
//!    size cap, syndromes too dense for the neighbour cap, and pairs too
//!    far apart (or not connected) instead run one Dijkstra per flagged
//!    detector per decode (the searched path), with the same results bit
//!    for bit.
//! 2. Build a matching instance over the flagged detectors plus one virtual
//!    "boundary twin" per detector (twins are pairwise matchable at zero
//!    cost), optionally keeping only each node's nearest neighbours.
//! 3. Solve exactly with the blossom algorithm.
//! 4. Replay step 1's Dijkstra from each matched source, stopping as soon
//!    as the partner (or the boundary) is final. The path it reaches
//!    carries the observables the decode XORs (the searched path kept
//!    them from step 1), and its predecessor edges are the correction
//!    when the caller asks for it ([`Decoder::decode_correction`]).
//!
//! All per-call allocations (Dijkstra distance/visited arrays, the heap,
//! and the matching-instance buffers) live in a reusable [`MwpmScratch`];
//! the batch path ([`Decoder::decode_batch`]) carries one scratch across
//! the whole batch so the per-shot decode is allocation-free. The pair
//! table is allocated with the decoder, so filling it allocates nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};

use surf_pauli::BitBatch;

use crate::blossom::{min_weight_perfect_matching_with, BlossomScratch};
use crate::decoder::{DecodeWorkspace, Decoder};
use crate::graph::DecodingGraph;

/// Exact MWPM decoder over a [`DecodingGraph`].
///
/// Each decoder owns a pair table of shortest-path weights that its
/// decodes fill on first use and then share: wrap the decoder in an
/// `Arc` (as windowed decoders do with their backends) and every
/// thread, lane and session reads the same rows. A [`Clone`] starts
/// with an empty table.
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
/// assert_eq!(decoder.pair_rows_filled(), 2);
/// ```
#[derive(Debug)]
pub struct MwpmDecoder {
    graph: DecodingGraph,
    /// Keep at most this many nearest flagged neighbours per node in the
    /// matching instance (0 = unlimited). Bounds the blossom cost on dense
    /// syndromes with negligible accuracy loss.
    max_neighbors: usize,
    /// Shared shortest-path weights (`None` above [`TABLE_MAX_NODES`]).
    table: Option<PairTable>,
    /// Decodes that ran the searched path (see
    /// [`searched_decodes`](Self::searched_decodes)).
    searched: AtomicU64,
}

impl Clone for MwpmDecoder {
    fn clone(&self) -> Self {
        MwpmDecoder::new(self.graph.clone()).with_max_neighbors(self.max_neighbors)
    }
}

/// When a Dijkstra run may stop.
#[derive(Clone, Copy, Debug)]
enum Until {
    /// Every registered target and the boundary are final; the run
    /// records its targets in row `row` of the `m × m` pair buffer (the
    /// searched path's matching-instance pass).
    AllTargets { row: usize, m: usize },
    /// Every detector whose scaled distance fits the pair table is
    /// settled (a pair-table row fill).
    TableRange,
    /// The given detector is settled.
    Settled(usize),
    /// The boundary distance is final.
    Boundary,
}

/// Weight scale: f64 path weights are rounded to integers at this
/// resolution for the exact integer blossom solver.
const WEIGHT_SCALE: f64 = 1024.0;

/// Graphs with more detectors than this get no pair table (at the cap a
/// table is 4 MiB) and decode by the searched path.
const TABLE_MAX_NODES: usize = 2048;

/// Pair-table weights at or above this stand for a scaled weight that
/// does not fit below it, or for no path at all; a decode that looks one
/// up takes the searched path.
const SATURATED: u16 = u16::MAX - 1;

/// Shortest-path weights between detector pairs and to the boundary,
/// filled one row per detector on first use and shared by every decode.
///
/// Entry `(a, b)`, `a < b`, is the weight the searched path's matching
/// instance keeps for the pair, `min(scale(d_ab), scale(d_ba))` — the
/// two directions' float sums may round apart — when it is below
/// [`SATURATED`]. Diagonal entry `(a, a)` is `a`'s boundary weight,
/// clamped to [`SATURATED`], and is written last, when `a`'s row is
/// published. Entries are stored bit-inverted: a zero entry reads as
/// `u16::MAX` (no weight known) off the diagonal and as "unfilled" on
/// it (no published weight inverts to 0), and `fetch_max` keeps the
/// smaller weight, so each of a pair's two row fills writes its
/// direction, in either order, from any thread.
struct PairTable {
    n: usize,
    /// The upper triangle with its diagonal, row-major.
    entries: Box<[AtomicU16]>,
    /// Rows published (see [`MwpmDecoder::pair_rows_filled`]).
    filled: AtomicU64,
}

impl PairTable {
    fn new(n: usize) -> Self {
        PairTable {
            n,
            entries: (0..n * (n + 1) / 2).map(|_| AtomicU16::new(0)).collect(),
            filled: AtomicU64::new(0),
        }
    }

    /// The stored entry `(a, b)`, `a <= b`.
    fn entry(&self, a: usize, b: usize) -> &AtomicU16 {
        &self.entries[a * (2 * self.n - a + 1) / 2 + (b - a)]
    }

    /// The weight of pair `(a, b)`, `a < b`, once both rows are filled.
    fn weight(&self, a: usize, b: usize) -> u16 {
        !self.entry(a, b).load(Ordering::Relaxed)
    }

    /// Detector `a`'s boundary weight, or `None` while its row is
    /// unfilled. A published row's pair entries are visible to whoever
    /// reads its boundary weight.
    fn boundary(&self, a: usize) -> Option<u16> {
        match self.entry(a, a).load(Ordering::Acquire) {
            0 => None,
            stored => Some(!stored),
        }
    }
}

impl fmt::Debug for PairTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PairTable")
            .field("n", &self.n)
            .field("filled", &self.filled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

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
    /// Creates a decoder that owns its graph, with an empty pair table.
    pub fn new(graph: DecodingGraph) -> Self {
        let n = graph.num_nodes();
        MwpmDecoder {
            graph,
            max_neighbors: 24,
            table: (n <= TABLE_MAX_NODES).then(|| PairTable::new(n)),
            searched: AtomicU64::new(0),
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

    /// Pair-table rows published so far: detectors whose shortest paths
    /// have been computed, at most one row per detector however many
    /// threads share the decoder (0 for a graph above the size cap).
    pub fn pair_rows_filled(&self) -> u64 {
        self.table
            .as_ref()
            .map_or(0, |t| t.filled.load(Ordering::Relaxed))
    }

    /// Decodes that ran one Dijkstra per flagged detector instead of
    /// reading the pair table: every decode on a graph above the size
    /// cap, and otherwise only syndromes with more flagged detectors than
    /// the neighbour cap keeps plus one, or with a pair too far apart for
    /// the table's 16-bit weights (or not connected at all).
    pub fn searched_decodes(&self) -> u64 {
        self.searched.load(Ordering::Relaxed)
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
        self.decode_into(syndrome, scratch, None, self.table.as_ref())
    }

    /// [`Decoder::decode_correction`] forced onto the searched path, the
    /// reference the pair table must reproduce bit for bit.
    #[doc(hidden)]
    pub fn decode_correction_searched(
        &self,
        syndrome: &[usize],
        workspace: &mut DecodeWorkspace,
    ) -> u64 {
        self.decode_into(
            syndrome,
            &mut workspace.mwpm,
            Some(&mut workspace.correction),
            None,
        )
    }

    /// [`decode_with`](Self::decode_with), also appending the matched
    /// paths' edge ids to `correction` when one is given; reads `table`
    /// when one is given and the syndrome allows it.
    fn decode_into(
        &self,
        syndrome: &[usize],
        scratch: &mut MwpmScratch,
        mut correction: Option<&mut Vec<usize>>,
        table: Option<&PairTable>,
    ) -> u64 {
        dedup_parity_into(syndrome, &mut scratch.sort_buf, &mut scratch.flagged);
        if scratch.flagged.is_empty() {
            return 0;
        }
        scratch.ensure(self.graph.num_nodes());
        if let Some(table) = table {
            if let Some(obs) = self.decode_by_table(table, scratch, correction.as_deref_mut()) {
                return obs;
            }
        }
        self.searched.fetch_add(1, Ordering::Relaxed);
        self.decode_searched(scratch, correction)
    }

    /// The pair-table decode of `scratch.flagged`: fills the rows it
    /// lacks, builds the searched path's matching instance by lookup, and
    /// replays each matched path. `None` (before any output) when the
    /// syndrome needs the searched path.
    fn decode_by_table(
        &self,
        table: &PairTable,
        scratch: &mut MwpmScratch,
        mut correction: Option<&mut Vec<usize>>,
    ) -> Option<u64> {
        let m = scratch.flagged.len();
        // With no more candidates than the cap keeps, no neighbour list
        // is truncated and every reachable pair enters from both ends.
        if self.max_neighbors != 0 && m - 1 > self.max_neighbors {
            return None;
        }
        for i in 0..m {
            if table.boundary(scratch.flagged[i]).is_none() {
                self.fill_row(table, scratch.flagged[i], scratch);
            }
        }
        // The searched path's instance after its sort and dedup: pairs in
        // (i, j) order, each row closed by its boundary edge.
        scratch.edges.clear();
        for i in 0..m {
            let a = scratch.flagged[i];
            for j in i + 1..m {
                match table.weight(a, scratch.flagged[j]) {
                    SATURATED.. => return None,
                    w => scratch.edges.push((i, j, i64::from(w))),
                }
            }
            match table.boundary(a).expect("row filled above") {
                SATURATED => return None,
                w => scratch.edges.push((i, m + i, i64::from(w))),
            }
        }
        self.solve(m, scratch);
        let mut obs = 0u64;
        for i in 0..m {
            let (partner, src) = (scratch.mate[i], scratch.flagged[i]);
            if partner < m {
                if partner < i {
                    continue;
                }
                let target = scratch.flagged[partner];
                self.dijkstra(src, Until::Settled(target), scratch);
                obs ^= scratch.obs[target];
                if let Some(correction) = correction.as_deref_mut() {
                    self.push_path(src, target, scratch, correction);
                }
            } else {
                let (_, path_obs, e) = self
                    .dijkstra(src, Until::Boundary, scratch)
                    .expect("matched boundary must be reachable");
                obs ^= path_obs;
                if let Some(correction) = correction.as_deref_mut() {
                    correction.push(e);
                    self.push_path(src, self.graph.edges()[e].a, scratch, correction);
                }
            }
        }
        Some(obs)
    }

    /// Runs one Dijkstra from detector `src` over the table's weight
    /// range and publishes its table row, boundary weight last. Its
    /// weights are the ones the searched path's truncated runs from `src`
    /// settle: both repeat the same steps, and the truncated run stops
    /// only once every target it records and the boundary are final.
    /// Detectors the fill leaves unsettled, and a boundary it leaves
    /// unfinished, lie at scaled distances no smaller than its last pop,
    /// past the range.
    fn fill_row(&self, table: &PairTable, src: usize, scratch: &mut MwpmScratch) {
        let boundary = self.dijkstra(src, Until::TableRange, scratch);
        for &v in &scratch.touched {
            if v != src && scratch.settled[v] {
                let w = clamp(scale(scratch.dist[v]));
                table
                    .entry(src.min(v), src.max(v))
                    .fetch_max(!w, Ordering::Relaxed);
            }
        }
        let w = boundary.map_or(SATURATED, |(d, _, _)| clamp(scale(d)));
        let published =
            table
                .entry(src, src)
                .compare_exchange(0, !w, Ordering::Release, Ordering::Relaxed);
        if published.is_ok() {
            table.filled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The per-source decode of `scratch.flagged`: one Dijkstra from each
    /// flagged detector records its distances to the others and to the
    /// boundary, and the matching instance is built from those.
    fn decode_searched(
        &self,
        scratch: &mut MwpmScratch,
        correction: Option<&mut Vec<usize>>,
    ) -> u64 {
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
            scratch.boundary_info[i] =
                self.dijkstra(scratch.flagged[i], Until::AllTargets { row: i, m }, scratch);
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
        self.solve(m, scratch);
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

    /// Adds the zero-cost twin pairs to `scratch.edges` (the flagged and
    /// boundary edges of `m` detectors) and solves the instance into
    /// `scratch.mate`.
    fn solve(&self, m: usize, scratch: &mut MwpmScratch) {
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
    }

    /// Appends the edges of every matched path, replaying each one's
    /// Dijkstra from the matched source up to the point where the path is
    /// final. Source 0's search is still in `scratch` and needs no replay.
    fn push_matched_paths(&self, m: usize, scratch: &mut MwpmScratch, correction: &mut Vec<usize>) {
        for i in 0..m {
            let (partner, src) = (scratch.mate[i], scratch.flagged[i]);
            let end = if partner < m {
                if partner < i {
                    continue;
                }
                let target = scratch.flagged[partner];
                if i > 0 {
                    self.dijkstra(src, Until::Settled(target), scratch);
                }
                target
            } else {
                let boundary = match i {
                    0 => scratch.boundary_info[0],
                    _ => self.dijkstra(src, Until::Boundary, scratch),
                };
                let (_, _, e) = boundary.expect("matched boundary must be reachable");
                correction.push(e);
                self.graph.edges()[e].a
            };
            self.push_path(src, end, scratch, correction);
        }
    }

    /// Appends the predecessor edges from settled detector `end` back to
    /// the source `src` of the search in `scratch`.
    fn push_path(
        &self,
        src: usize,
        end: usize,
        scratch: &MwpmScratch,
        correction: &mut Vec<usize>,
    ) {
        let mut v = end;
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

    /// Dijkstra from detector `src`, returning the best boundary
    /// (distance, path-observables, boundary edge) and, under
    /// [`Until::AllTargets`], recording the best (distance,
    /// path-observables) to each registered flagged target in
    /// `scratch.pair_info`. Stops as `until` says; every run from the
    /// same source repeats the same steps, so a shorter run leaves the
    /// same distances and predecessor edges on the nodes it settles.
    fn dijkstra(
        &self,
        src: usize,
        until: Until,
        scratch: &mut MwpmScratch,
    ) -> Option<(f64, u64, usize)> {
        scratch.reset_touched();
        let mut to_boundary: Option<(f64, u64, usize)> = None;
        let mut remaining = match until {
            Until::AllTargets { m, .. } => m,
            _ => 0,
        };
        scratch.dist[src] = 0.0;
        scratch.touched.push(src);
        scratch.heap.push((Reverse(OrderedF64(0.0)), src));
        while let Some((Reverse(OrderedF64(d)), v)) = scratch.heap.pop() {
            if scratch.settled[v] {
                continue;
            }
            scratch.settled[v] = true;
            if let Until::AllTargets { row, m } = until {
                let idx = scratch.target_idx[v];
                if idx != usize::MAX {
                    scratch.pair_info[row * m + idx] = Some((d, scratch.obs[v]));
                    remaining -= 1;
                }
            }
            // The best known boundary distance is final once no future pop
            // can beat it (pops are non-decreasing in distance).
            let boundary_final = to_boundary.is_some_and(|(bd, _, _)| bd <= d);
            let done = match until {
                Until::AllTargets { .. } => remaining == 0 && boundary_final,
                Until::TableRange => scale(d) >= i64::from(SATURATED),
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
            self.table.as_ref(),
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

/// A scaled weight as a pair-table weight: itself below [`SATURATED`],
/// else [`SATURATED`].
fn clamp(w: i64) -> u16 {
    u16::try_from(w).map_or(SATURATED, |w| w.min(SATURATED))
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
    fn pair_table_keeps_the_smaller_rounded_direction() {
        // A path 0 - 1 - 2 - 3 whose length sums in a different order from
        // each end. Tune the last edge, ulp by ulp, until the two float
        // sums round to different scaled weights; the table must keep the
        // smaller, as the searched path's sort and dedup do, whichever
        // row fills first.
        let (p1, p2) = (0.01, 0.02);
        let (w1, w2) = (DecodingGraph::weight_of(p1), DecodingGraph::weight_of(p2));
        let target = ((w1 + w2 + 7.0) * WEIGHT_SCALE).round() + 0.5;
        let p3 = 1.0 / (1.0 + (target / WEIGHT_SCALE - w1 - w2).exp());
        let (p3, from_0, from_3) = (0..4000u64)
            .map(|k| f64::from_bits(p3.to_bits() - 2000 + k))
            .map(|p3| {
                let w3 = DecodingGraph::weight_of(p3);
                (p3, scale((w1 + w2) + w3), scale((w3 + w2) + w1))
            })
            .find(|&(_, a, b)| a != b)
            .expect("some ulp of p3 splits the two directions");
        let mut g = DecodingGraph::new(4);
        g.add_edge(0, None, 1e-3, 1);
        g.add_edge(0, Some(1), p1, 0);
        g.add_edge(1, Some(2), p2, 0);
        g.add_edge(2, Some(3), p3, 0);
        g.add_edge(3, None, 1e-3, 0);
        let expected = from_0.min(from_3) as u16;
        for first in [[0], [3]] {
            let decoder = MwpmDecoder::new(g.clone());
            decoder.decode(&first);
            let mut workspace = DecodeWorkspace::default();
            let mask = decoder.decode_correction(&[0, 3], &mut workspace);
            let table = decoder.table.as_ref().expect("small graph has a table");
            assert_eq!(table.weight(0, 3), expected, "row {first:?} filled first");
            let mut searched = DecodeWorkspace::default();
            assert_eq!(
                mask,
                decoder.decode_correction_searched(&[0, 3], &mut searched)
            );
            assert_eq!(workspace.correction, searched.correction);
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
