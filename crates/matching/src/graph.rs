//! Weighted decoding graphs.
//!
//! A [`DecodingGraph`] has one node per *detector* (a parity check that is
//! deterministic under no noise) plus an implicit boundary. Each edge is an
//! independent error mechanism: it flips its one or two endpoint detectors,
//! fires with some probability, and flips a mask of logical observables.
//! Edge weights are log-likelihood ratios `ln((1-p)/p)`.

/// XOR-combines two independent firing probabilities: the chance that
/// exactly one of the two mechanisms fires. This is *the* merge rule for
/// parallel edges — every path that folds mechanisms into edges
/// ([`DecodingGraph::add_edge`] and round-model sources replaying the same
/// merge) must call this one function so the results stay bit-identical.
#[inline]
pub fn xor_probability(p1: f64, p2: f64) -> f64 {
    p1 * (1.0 - p2) + p2 * (1.0 - p1)
}

/// One error mechanism in the decoding graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// First endpoint (a detector index).
    pub a: usize,
    /// Second endpoint, or `None` for the boundary.
    pub b: Option<usize>,
    /// Total probability that this mechanism fires.
    pub probability: f64,
    /// Matching weight `ln((1-p)/p)` (clamped to a small positive floor).
    pub weight: f64,
    /// Bitmask of logical observables flipped when the mechanism fires.
    pub observables: u64,
}

/// A decoding graph over detectors with an implicit boundary node.
///
/// # Example
///
/// ```
/// use surf_matching::DecodingGraph;
///
/// let mut g = DecodingGraph::new(3);
/// g.add_edge(0, Some(1), 1e-3, 0);
/// g.add_edge(1, Some(2), 1e-3, 0);
/// g.add_edge(0, None, 1e-3, 1); // boundary edge crossing observable 0
/// assert_eq!(g.num_edges(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DecodingGraph {
    num_nodes: usize,
    edges: Vec<Edge>,
    /// Adjacency: node -> indices into `edges`.
    adjacency: Vec<Vec<usize>>,
}

impl DecodingGraph {
    /// Minimum edge weight after clamping; keeps Dijkstra monotone even for
    /// error probabilities at or above 50 %.
    pub const MIN_WEIGHT: f64 = 1e-4;

    /// Creates a graph with `num_nodes` detectors and no edges.
    pub fn new(num_nodes: usize) -> Self {
        DecodingGraph {
            num_nodes,
            edges: Vec::new(),
            adjacency: vec![Vec::new(); num_nodes],
        }
    }

    /// Number of detector nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge indices incident to `node`.
    pub fn incident(&self, node: usize) -> &[usize] {
        &self.adjacency[node]
    }

    /// Adds an error mechanism between `a` and `b` (or the boundary).
    ///
    /// If an edge with identical endpoints *and* observable mask exists, the
    /// probabilities are XOR-combined (`p = p₁(1−p₂) + p₂(1−p₁)`) instead of
    /// adding a parallel edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the probability is outside
    /// `[0, 1)`... (probability 0 edges are ignored).
    pub fn add_edge(&mut self, a: usize, b: Option<usize>, probability: f64, observables: u64) {
        self.add_edge_where(a, b, probability, observables, |_| true);
    }

    /// [`add_edge`](Self::add_edge) that merges into an identical existing
    /// edge `e` only if `mergeable(e)` also holds, so callers can keep
    /// mechanisms apart that the graph cannot tell apart. Returns the id
    /// of the edge the mechanism landed in (`None` for probability 0).
    pub(crate) fn add_edge_where(
        &mut self,
        a: usize,
        b: Option<usize>,
        probability: f64,
        observables: u64,
        mergeable: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        assert!(a < self.num_nodes, "endpoint {a} out of range");
        if let Some(b) = b {
            assert!(b < self.num_nodes, "endpoint {b} out of range");
            assert_ne!(a, b, "self-loop detector edge");
        }
        assert!((0.0..=1.0).contains(&probability), "invalid probability");
        if probability == 0.0 {
            return None;
        }
        // Merge with an existing identical mechanism if present.
        let existing = self.adjacency[a].iter().copied().find(|&e| {
            let edge = &self.edges[e];
            let same_endpoints =
                (edge.a == a && edge.b == b) || (b == Some(edge.a) && edge.b == Some(a));
            edge.observables == observables && same_endpoints && mergeable(e)
        });
        match existing {
            Some(e) => {
                let p = xor_probability(self.edges[e].probability, probability);
                self.edges[e].probability = p;
                self.edges[e].weight = Self::weight_of(p);
                Some(e)
            }
            None => {
                let edge = Edge {
                    a,
                    b,
                    probability,
                    weight: Self::weight_of(probability),
                    observables,
                };
                let idx = self.edges.len();
                self.edges.push(edge);
                self.adjacency[a].push(idx);
                if let Some(b) = b {
                    self.adjacency[b].push(idx);
                }
                Some(idx)
            }
        }
    }

    /// The log-likelihood weight for an error probability.
    pub fn weight_of(p: f64) -> f64 {
        if p <= 0.0 {
            return f64::INFINITY;
        }
        (((1.0 - p) / p).ln()).max(Self::MIN_WEIGHT)
    }

    /// Re-weights every edge using a caller-supplied probability map (used
    /// by informed decoders that know true defect rates).
    pub fn reweight<F: Fn(&Edge) -> f64>(&mut self, probability: F) {
        for e in &mut self.edges {
            e.probability = probability(e);
            e.weight = Self::weight_of(e.probability);
        }
    }

    /// Samples a set of firing mechanisms, returning the flipped detectors
    /// (as XOR counts) and observable mask. Used by tests and by the
    /// simulator's graph-level sampling path.
    pub fn sample_errors<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> (Vec<usize>, u64) {
        let mut flips = vec![0usize; self.num_nodes];
        let mut obs = 0u64;
        for e in &self.edges {
            if rng.gen::<f64>() < e.probability {
                flips[e.a] ^= 1;
                if let Some(b) = e.b {
                    flips[b] ^= 1;
                }
                obs ^= e.observables;
            }
        }
        let syndrome = flips
            .iter()
            .enumerate()
            .filter(|(_, &f)| f == 1)
            .map(|(i, _)| i)
            .collect();
        (syndrome, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_formula() {
        let w = DecodingGraph::weight_of(1e-3);
        assert!((w - (999.0f64).ln()).abs() < 1e-9);
        // 50% and above clamp to the floor.
        assert_eq!(DecodingGraph::weight_of(0.5), DecodingGraph::MIN_WEIGHT);
        assert_eq!(DecodingGraph::weight_of(0.9), DecodingGraph::MIN_WEIGHT);
        assert_eq!(DecodingGraph::weight_of(0.0), f64::INFINITY);
    }

    #[test]
    fn parallel_edges_merge() {
        let mut g = DecodingGraph::new(2);
        g.add_edge(0, Some(1), 0.1, 0);
        g.add_edge(0, Some(1), 0.1, 0);
        assert_eq!(g.num_edges(), 1);
        let p = g.edges()[0].probability;
        assert!((p - (0.1 * 0.9 + 0.9 * 0.1)).abs() < 1e-12);
        // Different observables stay separate.
        g.add_edge(0, Some(1), 0.1, 1);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn zero_probability_ignored() {
        let mut g = DecodingGraph::new(2);
        g.add_edge(0, Some(1), 0.0, 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn adjacency_tracks_both_endpoints() {
        let mut g = DecodingGraph::new(3);
        g.add_edge(0, Some(1), 0.1, 0);
        g.add_edge(1, Some(2), 0.1, 0);
        g.add_edge(2, None, 0.1, 0);
        assert_eq!(g.incident(0).len(), 1);
        assert_eq!(g.incident(1).len(), 2);
        assert_eq!(g.incident(2).len(), 2);
    }

    #[test]
    fn sampling_parity_consistency() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut g = DecodingGraph::new(4);
        g.add_edge(0, Some(1), 0.5, 1);
        g.add_edge(1, Some(2), 0.5, 0);
        g.add_edge(2, Some(3), 0.5, 2);
        g.add_edge(3, None, 0.5, 0);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let (syndrome, _) = g.sample_errors(&mut rng);
            // Sum of detector flips has the same parity as the number of
            // boundary-edge firings; here just check dedup produced a set.
            let mut s = syndrome.clone();
            s.dedup();
            assert_eq!(s, syndrome);
        }
    }
}
