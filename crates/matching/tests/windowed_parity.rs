//! Parity and equivalence properties of the windowed streaming decoder.
//!
//! Three layers of guarantees, from structural to statistical:
//!
//! 1. **Self-parity** — `WindowedDecoder::decode_history` over a 64-lane
//!    batch must agree with single-lane decodes of each lane, for any
//!    window/commit split including the degenerate `w = 1` and
//!    `w = rounds`, any lane count, and both inner backends (lanes never
//!    leak into each other through the shared session state).
//! 2. **Degenerate-window equivalence** — with `w = rounds` there is a
//!    single window whose sub-graph *is* the full graph, so the streamed
//!    result must be bit-identical to the inner decoder's full-batch
//!    decode for arbitrary (even adversarial) syndromes.
//! 3. **Sampled equivalence** — on layered space-time graphs with
//!    realistic sparse noise, windows with at least as much lookahead as
//!    the typical error-chain length commit the same corrections as the
//!    full-history decode, bit for bit (the surface-code version of this
//!    statement — window ≥ 2·d — lives in
//!    `crates/sim/tests/streaming_equivalence.rs`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_matching::{
    Decoder, DecoderFactory, DecodingGraph, MwpmDecoder, UnionFindDecoder, WindowConfig,
    WindowedDecoder,
};
use surf_pauli::BitBatch;

/// Which inner backend a windowed decoder wraps.
#[derive(Clone, Copy, Debug)]
enum Backend {
    Mwpm,
    UnionFind,
}

impl Backend {
    fn factory(self) -> DecoderFactory {
        match self {
            Backend::Mwpm => DecoderFactory::new(|g| Box::new(MwpmDecoder::new(g))),
            Backend::UnionFind => DecoderFactory::new(|g| Box::new(UnionFindDecoder::new(g))),
        }
    }

    fn build(self, g: DecodingGraph) -> Box<dyn Decoder> {
        self.factory().build(g)
    }
}

/// A random layered space-time graph: `rounds × chains` detectors, node
/// `(t, c)` at index `t * chains + c` with round label `t`. Vertical
/// (time-like) and horizontal (space-like) edges with continuous random
/// probabilities (ties have measure zero), boundary edges at both chain
/// ends each round; the observable sits on the left boundary.
fn layered_graph_with(
    rng: &mut StdRng,
    rounds: usize,
    chains: usize,
    p_lo: f64,
    p_hi: f64,
) -> (DecodingGraph, Vec<u32>) {
    let mut g = DecodingGraph::new(rounds * chains);
    let id = |t: usize, c: usize| t * chains + c;
    for t in 0..rounds {
        for c in 0..chains {
            if t + 1 < rounds {
                g.add_edge(id(t, c), Some(id(t + 1, c)), rng.gen_range(p_lo..p_hi), 0);
            }
            if c + 1 < chains {
                g.add_edge(id(t, c), Some(id(t, c + 1)), rng.gen_range(p_lo..p_hi), 0);
            }
        }
        g.add_edge(id(t, 0), None, rng.gen_range(p_lo..p_hi), 1);
        g.add_edge(id(t, chains - 1), None, rng.gen_range(p_lo..p_hi), 0);
    }
    let rounds_of = (0..rounds * chains).map(|i| (i / chains) as u32).collect();
    (g, rounds_of)
}

fn layered_graph(rng: &mut StdRng, rounds: usize, chains: usize) -> (DecodingGraph, Vec<u32>) {
    layered_graph_with(rng, rounds, chains, 0.01, 0.2)
}

/// Whole-history decode of one syndrome as a single-lane batch.
fn decode_one(windowed: &WindowedDecoder, syndrome: &[usize]) -> u64 {
    let mut history = BitBatch::with_lanes(windowed.rounds_of().len(), 1);
    for &d in syndrome {
        history.xor_word(d, 1);
    }
    windowed.decode_history(&history)[0]
}

/// Random sparse syndromes, one per lane.
fn random_batch(rng: &mut StdRng, n: usize, lanes: usize) -> (BitBatch, Vec<Vec<usize>>) {
    let mut batch = BitBatch::with_lanes(n, lanes);
    let mut per_lane = vec![Vec::new(); lanes];
    for (lane, syndrome) in per_lane.iter_mut().enumerate() {
        for _ in 0..rng.gen_range(0..6) {
            let d = rng.gen_range(0..n);
            if !syndrome.contains(&d) {
                syndrome.push(d);
                batch.set(d, lane, true);
            }
        }
        syndrome.sort_unstable();
    }
    (batch, per_lane)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Self-parity over random graphs, window/commit splits (including
    /// w = 1 and w = rounds), lane masks, and both backends.
    #[test]
    fn windowed_batch_matches_windowed_scalar(
        seed in 0u64..1 << 48,
        rounds in 2usize..8,
        chains in 1usize..5,
        window in 1u32..9,
        backend in prop_oneof![Just(Backend::Mwpm), Just(Backend::UnionFind)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, rounds_of) = layered_graph(&mut rng, rounds, chains);
        let window = window.min(rounds as u32);
        let commit = rng.gen_range(1..window + 1);
        let windowed = WindowedDecoder::new(
            g,
            rounds_of,
            WindowConfig::new(window).with_commit(commit),
            backend.factory(),
        );
        let lanes = rng.gen_range(1..65);
        let (batch, per_lane) = random_batch(&mut rng, rounds * chains, lanes);
        let predictions = windowed.decode_history(&batch);
        prop_assert_eq!(predictions.len(), lanes);
        for (lane, syndrome) in per_lane.iter().enumerate() {
            prop_assert_eq!(
                predictions[lane],
                decode_one(&windowed, syndrome),
                "lane {} syndrome {:?} (w {} commit {} {:?})",
                lane, syndrome, window, commit, backend
            );
        }
    }

    /// One full-history window must be bit-identical to the inner
    /// decoder on arbitrary syndromes — the `w = rounds` degenerate case.
    #[test]
    fn full_window_equals_inner_backend(
        seed in 0u64..1 << 48,
        rounds in 2usize..7,
        chains in 1usize..5,
        backend in prop_oneof![Just(Backend::Mwpm), Just(Backend::UnionFind)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let (g, rounds_of) = layered_graph(&mut rng, rounds, chains);
        let inner = backend.build(g.clone());
        let windowed =
            WindowedDecoder::new(g, rounds_of, WindowConfig::new(rounds as u32), backend.factory());
        prop_assert_eq!(windowed.num_windows(), 1);
        let lanes = rng.gen_range(1..65);
        let (batch, _) = random_batch(&mut rng, rounds * chains, lanes);
        let streamed = windowed.decode_history(&batch);
        let mut full = Vec::new();
        inner.decode_batch(&batch, &mut full);
        prop_assert_eq!(streamed, full);
    }

    /// On sampled sparse noise, a window with ≥ 3 rounds of lookahead
    /// commits the same logical outcome as the full-history decode.
    #[test]
    fn sampled_noise_streams_bit_identically(
        seed in 0u64..1 << 48,
        chains in 2usize..5,
        backend in prop_oneof![Just(Backend::Mwpm), Just(Backend::UnionFind)],
    ) {
        let rounds = 10usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        // Sub-threshold noise: sampled error chains are short compared to
        // the 4 rounds of lookahead, the regime the guarantee covers.
        let (g, rounds_of) = layered_graph_with(&mut rng, rounds, chains, 0.002, 0.015);
        let inner = backend.build(g.clone());
        let windowed = WindowedDecoder::new(
            g.clone(),
            rounds_of,
            WindowConfig::new(6).with_commit(2),
            backend.factory(),
        );
        let mut batch = BitBatch::zeros(rounds * chains);
        for lane in 0..64 {
            let (syndrome, _) = g.sample_errors(&mut rng);
            for &d in &syndrome {
                batch.set(d, lane, true);
            }
        }
        let streamed = windowed.decode_history(&batch);
        let mut full = Vec::new();
        inner.decode_batch(&batch, &mut full);
        prop_assert_eq!(streamed, full, "{:?}", backend);
    }
}

/// A second observable bit must stream through the windows untouched.
#[test]
fn multiple_observable_bits_survive_windowing() {
    // Two chains; observable bit 0 on the left boundary, bit 1 on the
    // right boundary. Defects must pick up the boundary they match.
    let rounds = 8usize;
    let mut rng = StdRng::seed_from_u64(0x0B5);
    let mut g = DecodingGraph::new(rounds * 2);
    for t in 0..rounds {
        if t + 1 < rounds {
            g.add_edge(2 * t, Some(2 * t + 2), 0.01, 0);
            g.add_edge(2 * t + 1, Some(2 * t + 3), 0.012, 0);
        }
        g.add_edge(2 * t, Some(2 * t + 1), 0.008, 0);
        g.add_edge(2 * t, None, 0.005, 0b01);
        g.add_edge(2 * t + 1, None, 0.006, 0b10);
    }
    let rounds_of: Vec<u32> = (0..rounds * 2).map(|i| (i / 2) as u32).collect();
    let inner = MwpmDecoder::new(g.clone());
    let windowed = WindowedDecoder::new(
        g.clone(),
        rounds_of,
        WindowConfig::new(6).with_commit(2),
        DecoderFactory::new(|wg| Box::new(MwpmDecoder::new(wg))),
    );
    // Sampled noise: both observable bits stream bit-identically.
    let mut batch = BitBatch::zeros(rounds * 2);
    for lane in 0..64 {
        let (syndrome, _) = g.sample_errors(&mut rng);
        for &d in &syndrome {
            batch.set(d, lane, true);
        }
    }
    let streamed = windowed.decode_history(&batch);
    let mut full = Vec::new();
    inner.decode_batch(&batch, &mut full);
    assert_eq!(streamed, full);
    // Adversarial syndromes: the streamed result may differ from the full
    // decode, but only ever flips the graph's two observable bits.
    for trial in 0..200 {
        let n = rng.gen_range(0..6);
        let syndrome: Vec<usize> = (0..n).map(|_| rng.gen_range(0..rounds * 2)).collect();
        let prediction = decode_one(&windowed, &syndrome);
        assert_eq!(
            prediction & !0b11,
            0,
            "trial {trial}: stray observable bits for {syndrome:?}"
        );
    }
}
