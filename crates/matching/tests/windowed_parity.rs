//! Parity and equivalence properties of the windowed streaming decoder.
//!
//! Three layers of guarantees, from structural to statistical:
//!
//! 1. **Self-parity** — a session streaming up to 64 lanes round by
//!    round must agree with one-lane sessions of each lane, for any
//!    window/commit split including the degenerate `w = 1` and
//!    `w = rounds`, any lane count, and both inner backends (lanes never
//!    leak into each other through the shared session state).
//! 2. **Degenerate-window equivalence** — with `w = rounds` there is a
//!    single window whose sub-graph *is* the full graph, so the streamed
//!    result must be bit-identical to the inner decoder's per-lane
//!    whole-history decode for arbitrary (even adversarial) syndromes.
//! 3. **Sampled equivalence** — on layered space-time graphs with
//!    realistic sparse noise, windows with at least as much lookahead as
//!    the typical error-chain length commit the same corrections as the
//!    full-history decode, bit for bit (the surface-code version of this
//!    statement — window ≥ 2·d — lives in
//!    `crates/sim/tests/streaming_equivalence.rs`).

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_matching::{
    Decoder, DecoderFactory, DecodingGraph, MwpmDecoder, UnionFindDecoder, WindowConfig,
    WindowedDecoder,
};

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

/// Streams `per_lane` (lane `b` = shot `b`'s whole syndrome; duplicates
/// cancel pairwise) round by round through one fresh session and returns
/// each lane's committed observable mask.
fn stream(windowed: &Arc<WindowedDecoder>, per_lane: &[Vec<usize>]) -> Vec<u64> {
    let mut words = vec![0u64; windowed.rounds_of().len()];
    for (lane, syndrome) in per_lane.iter().enumerate() {
        for &d in syndrome {
            words[d] ^= 1 << lane;
        }
    }
    let mut session = Arc::clone(windowed).into_session(per_lane.len());
    for round in 0..windowed.total_rounds() {
        let detectors = windowed.round_detectors(round);
        let round_words: Vec<u64> = detectors.iter().map(|&d| words[d as usize]).collect();
        session.push_round(round, detectors, &round_words);
    }
    session.finish()
}

/// Whole-history decode of one syndrome through a one-lane session.
fn decode_one(windowed: &Arc<WindowedDecoder>, syndrome: &[usize]) -> u64 {
    stream(windowed, &[syndrome.to_vec()])[0]
}

/// The oracle: the inner decoder over each lane's whole syndrome.
fn decode_each(inner: &dyn Decoder, per_lane: &[Vec<usize>]) -> Vec<u64> {
    per_lane.iter().map(|s| inner.decode(s)).collect()
}

/// Random sparse syndromes, one per lane.
fn random_batch(rng: &mut StdRng, n: usize, lanes: usize) -> Vec<Vec<usize>> {
    let mut per_lane = vec![Vec::new(); lanes];
    for syndrome in per_lane.iter_mut() {
        for _ in 0..rng.gen_range(0..6) {
            let d = rng.gen_range(0..n);
            if !syndrome.contains(&d) {
                syndrome.push(d);
            }
        }
        syndrome.sort_unstable();
    }
    per_lane
}

/// `lanes` syndromes sampled from `g`'s own error model.
fn sampled_batch(rng: &mut StdRng, g: &DecodingGraph, lanes: usize) -> Vec<Vec<usize>> {
    (0..lanes).map(|_| g.sample_errors(rng).0).collect()
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
        let windowed = Arc::new(WindowedDecoder::new(
            g,
            rounds_of,
            WindowConfig::new(window).with_commit(commit),
            backend.factory(),
        ));
        let lanes = rng.gen_range(1..65);
        let per_lane = random_batch(&mut rng, rounds * chains, lanes);
        let predictions = stream(&windowed, &per_lane);
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
        let windowed = Arc::new(WindowedDecoder::new(
            g,
            rounds_of,
            WindowConfig::new(rounds as u32),
            backend.factory(),
        ));
        prop_assert_eq!(windowed.num_windows(), 1);
        let lanes = rng.gen_range(1..65);
        let per_lane = random_batch(&mut rng, rounds * chains, lanes);
        prop_assert_eq!(stream(&windowed, &per_lane), decode_each(inner.as_ref(), &per_lane));
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
        let windowed = Arc::new(WindowedDecoder::new(
            g.clone(),
            rounds_of,
            WindowConfig::new(6).with_commit(2),
            backend.factory(),
        ));
        let per_lane = sampled_batch(&mut rng, &g, 64);
        prop_assert_eq!(
            stream(&windowed, &per_lane),
            decode_each(inner.as_ref(), &per_lane),
            "{:?}",
            backend
        );
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
    let windowed = Arc::new(WindowedDecoder::new(
        g.clone(),
        rounds_of,
        WindowConfig::new(6).with_commit(2),
        DecoderFactory::new(|wg| Box::new(MwpmDecoder::new(wg))),
    ));
    // Sampled noise: both observable bits stream bit-identically.
    let per_lane = sampled_batch(&mut rng, &g, 64);
    assert_eq!(stream(&windowed, &per_lane), decode_each(&inner, &per_lane));
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
