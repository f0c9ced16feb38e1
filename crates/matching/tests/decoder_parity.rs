//! Parity between the scalar `decode` path and the scratch-reusing
//! `decode_batch` path, for both decoder backends, on random small graphs
//! — plus the contract of the correction each backend reports, and the
//! MWPM pair table against the per-source search it replaces.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_matching::{DecodeWorkspace, Decoder, DecodingGraph, MwpmDecoder, UnionFindDecoder};
use surf_pauli::BitBatch;

/// A random connected decoding graph: a weighted strip plus random chords,
/// boundary edges at both ends, observable on the left boundary.
fn random_graph(rng: &mut StdRng, n: usize) -> DecodingGraph {
    let mut g = DecodingGraph::new(n);
    g.add_edge(0, None, rng.gen_range(1e-3..0.3), 1);
    for i in 0..n - 1 {
        g.add_edge(i, Some(i + 1), rng.gen_range(1e-3..0.3), 0);
    }
    g.add_edge(n - 1, None, rng.gen_range(1e-3..0.3), 0);
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let obs = u64::from(rng.gen_bool(0.2));
            g.add_edge(a.min(b), Some(a.max(b)), rng.gen_range(1e-3..0.3), obs);
        }
    }
    g
}

/// Fills a batch with random sparse syndromes and returns the per-lane
/// syndrome lists.
fn random_batch(rng: &mut StdRng, n: usize, lanes: usize) -> (BitBatch, Vec<Vec<usize>>) {
    let mut batch = BitBatch::with_lanes(n, lanes);
    let mut per_lane = vec![Vec::new(); lanes];
    for (lane, syndrome) in per_lane.iter_mut().enumerate() {
        let flips = rng.gen_range(0..n.min(6) + 1);
        for _ in 0..flips {
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

fn check_parity(decoder: &dyn Decoder, batch: &BitBatch, per_lane: &[Vec<usize>], label: &str) {
    let mut predictions = Vec::new();
    decoder.decode_batch(batch, &mut predictions);
    assert_eq!(predictions.len(), batch.lanes(), "{label}: lane count");
    for (lane, syndrome) in per_lane.iter().enumerate() {
        assert_eq!(
            predictions[lane],
            decoder.decode(syndrome),
            "{label}: lane {lane} with syndrome {syndrome:?}"
        );
    }
}

#[test]
fn batch_decode_matches_scalar_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    for trial in 0..12 {
        let n = rng.gen_range(3..20);
        let g = random_graph(&mut rng, n);
        let mwpm = MwpmDecoder::new(g.clone());
        let uf = UnionFindDecoder::new(g);
        let lanes = rng.gen_range(1..65);
        let (batch, per_lane) = random_batch(&mut rng, n, lanes);
        check_parity(&mwpm, &batch, &per_lane, &format!("mwpm trial {trial}"));
        check_parity(&uf, &batch, &per_lane, &format!("uf trial {trial}"));
    }
}

#[test]
fn batch_decode_matches_scalar_on_sampled_noise() {
    // Dense-ish sampled syndromes exercise multi-defect matchings.
    let mut rng = StdRng::seed_from_u64(42);
    let mut g = DecodingGraph::new(12);
    g.add_edge(0, None, 0.05, 1);
    for i in 0..11 {
        g.add_edge(i, Some(i + 1), 0.05, 0);
    }
    g.add_edge(11, None, 0.05, 0);
    let mwpm = MwpmDecoder::new(g.clone());
    let uf = UnionFindDecoder::new(g.clone());
    let mut batch = BitBatch::zeros(12);
    let mut per_lane = Vec::new();
    for lane in 0..64 {
        let (syndrome, _) = g.sample_errors(&mut rng);
        for &d in &syndrome {
            batch.set(d, lane, true);
        }
        per_lane.push(syndrome);
    }
    check_parity(&mwpm, &batch, &per_lane, "mwpm sampled");
    check_parity(&uf, &batch, &per_lane, "uf sampled");
}

#[test]
fn empty_batch_predicts_no_flips() {
    let mut g = DecodingGraph::new(4);
    g.add_edge(0, None, 0.01, 1);
    g.add_edge(0, Some(1), 0.01, 0);
    g.add_edge(1, Some(2), 0.01, 0);
    g.add_edge(2, Some(3), 0.01, 0);
    g.add_edge(3, None, 0.01, 0);
    for decoder in [
        Box::new(MwpmDecoder::new(g.clone())) as Box<dyn Decoder>,
        Box::new(UnionFindDecoder::new(g)),
    ] {
        let batch = BitBatch::with_lanes(4, 7);
        let mut predictions = Vec::new();
        decoder.decode_batch(&batch, &mut predictions);
        assert_eq!(predictions, vec![0; 7]);
    }
}

#[test]
fn trait_object_dispatch_agrees_with_concrete_calls() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = random_graph(&mut rng, 10);
    let concrete = MwpmDecoder::new(g.clone());
    let boxed: Box<dyn Decoder> = Box::new(MwpmDecoder::new(g));
    for s in [vec![], vec![0], vec![2, 5], vec![1, 3, 7, 9]] {
        assert_eq!(concrete.decode(&s), boxed.decode(&s));
    }
    assert_eq!(boxed.graph().num_nodes(), 10);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both backends report a correction that matches their answer: the
    /// listed edges' observables XOR to the returned mask (which is the
    /// `decode` mask), and their endpoints flip exactly the syndrome's
    /// odd-count detectors. The random graphs are connected and touch the
    /// boundary, so no union-find cluster can get stuck.
    #[test]
    fn reported_correction_explains_mask_and_syndrome(
        seed in any::<u64>(),
        n in 2usize..24,
        raw in proptest::collection::vec(0usize..24, 0..16),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, n);
        let syndrome: Vec<usize> = raw.into_iter().filter(|&d| d < n).collect();
        let mut expected = vec![false; n];
        for &d in &syndrome {
            expected[d] ^= true;
        }
        let decoders: [Box<dyn Decoder>; 2] = [
            Box::new(MwpmDecoder::new(g.clone())),
            Box::new(UnionFindDecoder::new(g.clone())),
        ];
        let mut workspace = DecodeWorkspace::default();
        for decoder in &decoders {
            // Forced input: the empty syndrome decodes to nothing — the
            // premise of every session's clean-window fast-forward.
            workspace.correction.clear();
            prop_assert_eq!(decoder.decode_correction(&[], &mut workspace), 0);
            prop_assert!(
                workspace.correction.is_empty(),
                "empty syndrome produced correction {:?}",
                &workspace.correction
            );
            workspace.correction.clear();
            let mask = decoder.decode_correction(&syndrome, &mut workspace);
            prop_assert_eq!(mask, decoder.decode(&syndrome));
            let mut observables = 0u64;
            let mut flipped = vec![false; n];
            for &e in &workspace.correction {
                let edge = g.edges()[e];
                observables ^= edge.observables;
                flipped[edge.a] ^= true;
                if let Some(b) = edge.b {
                    flipped[b] ^= true;
                }
            }
            prop_assert_eq!(observables, mask, "correction {:?}", &workspace.correction);
            prop_assert_eq!(&flipped, &expected, "correction {:?}", &workspace.correction);
        }
    }
}

/// A random decoding graph of `parts` disjoint components — node `v`
/// belongs to part `v % parts`, each part a strip with random chords and
/// its own boundary edges, so pairs across parts are unreachable while
/// every syndrome stays matchable. With `heavy`, edge probabilities go
/// down to 1e-14 (weight ≈ 32), so paths of three or more such edges
/// overflow the pair table's 16-bit weights.
fn parity_graph(rng: &mut StdRng, n: usize, parts: usize, heavy: bool) -> DecodingGraph {
    let floor = if heavy { 14.0 } else { 3.0 };
    let p = |rng: &mut StdRng| 10f64.powf(-rng.gen_range(0.5..floor));
    let mut g = DecodingGraph::new(n);
    for part in 0..parts.min(n) {
        let nodes: Vec<usize> = (part..n).step_by(parts).collect();
        g.add_edge(nodes[0], None, p(rng), 1);
        for w in nodes.windows(2) {
            g.add_edge(w[0], Some(w[1]), p(rng), 0);
        }
        g.add_edge(nodes[nodes.len() - 1], None, p(rng), 0);
        for _ in 0..nodes.len() / 2 {
            let a = nodes[rng.gen_range(0..nodes.len())];
            let b = nodes[rng.gen_range(0..nodes.len())];
            if a != b {
                let obs = u64::from(rng.gen_bool(0.2));
                let prob = p(rng);
                g.add_edge(a.min(b), Some(a.max(b)), prob, obs);
            }
        }
    }
    g
}

/// `count` distinct random detectors below `n`, in random order.
fn distinct_syndrome(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut syndrome = Vec::new();
    while syndrome.len() < count.min(n) {
        let d = rng.gen_range(0..n);
        if !syndrome.contains(&d) {
            syndrome.push(d);
        }
    }
    syndrome
}

/// Asserts that `decoder`'s default path (the pair table where it
/// applies) reports the mask and the correction edge list of the
/// per-source search, bit for bit, and that `decode` agrees.
fn assert_table_matches_search(decoder: &MwpmDecoder, syndrome: &[usize]) {
    let mut table = DecodeWorkspace::default();
    let mut searched = DecodeWorkspace::default();
    let mask = decoder.decode_correction(syndrome, &mut table);
    let reference = decoder.decode_correction_searched(syndrome, &mut searched);
    assert_eq!(mask, reference, "mask of syndrome {syndrome:?}");
    assert_eq!(
        table.correction, searched.correction,
        "correction of syndrome {syndrome:?}"
    );
    assert_eq!(
        decoder.decode(syndrome),
        reference,
        "decode of {syndrome:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The pair table reproduces the per-source search on disconnected
    /// graphs, saturating weights, dense syndromes (26–40 flagged, past
    /// the default neighbour cap) and every neighbour cap, including the
    /// unlimited `0`; rows filled by earlier syndromes serve later ones.
    #[test]
    fn pair_table_matches_per_source_search(
        seed in any::<u64>(),
        n in 2usize..64,
        parts in 1usize..4,
        heavy in any::<bool>(),
        cap in prop_oneof![Just(0usize), Just(1usize), Just(3usize), Just(24usize)],
        counts in proptest::collection::vec(0usize..41, 1..6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = parity_graph(&mut rng, n, parts, heavy);
        let decoder = MwpmDecoder::new(g).with_max_neighbors(cap);
        for count in counts {
            let syndrome = distinct_syndrome(&mut rng, n, count);
            assert_table_matches_search(&decoder, &syndrome);
        }
        prop_assert!(decoder.pair_rows_filled() <= n as u64);
    }
}

#[test]
fn pair_table_saturation_takes_the_searched_path() {
    // Interior edges of weight ≈ 32 and light boundary edges: detectors 0
    // and 3 are three heavy edges apart, a scaled weight (≈ 99 000) the
    // table cannot hold, so that decode searches.
    let mut g = DecodingGraph::new(4);
    g.add_edge(0, None, 1e-3, 1);
    for i in 0..3 {
        g.add_edge(i, Some(i + 1), 1e-14, 0);
    }
    g.add_edge(3, None, 1e-3, 0);
    let decoder = MwpmDecoder::new(g);
    assert_table_matches_search(&decoder, &[0, 1]);
    assert_eq!(decoder.searched_decodes(), 1, "only the forced search");
    // The forced reference plus both default decodes.
    assert_table_matches_search(&decoder, &[0, 3]);
    assert_eq!(decoder.searched_decodes(), 4, "the saturated pair searched");
    assert_eq!(decoder.pair_rows_filled(), 3);
}

#[test]
fn pair_table_is_skipped_above_the_size_cap() {
    let n = 5000;
    let mut g = DecodingGraph::new(n);
    g.add_edge(0, None, 0.01, 1);
    for i in 0..n - 1 {
        g.add_edge(i, Some(i + 1), 0.01, 0);
    }
    g.add_edge(n - 1, None, 0.01, 0);
    let decoder = MwpmDecoder::new(g);
    let mut rng = StdRng::seed_from_u64(5);
    for count in [1, 2, 5, 30] {
        assert_table_matches_search(&decoder, &distinct_syndrome(&mut rng, n, count));
    }
    assert_eq!(decoder.pair_rows_filled(), 0);
    // Each syndrome searched three times: table-less default, the forced
    // reference and `decode`.
    assert_eq!(decoder.searched_decodes(), 12);
}

#[test]
fn pair_table_clone_starts_empty() {
    let mut rng = StdRng::seed_from_u64(17);
    let g = parity_graph(&mut rng, 30, 2, false);
    let decoder = MwpmDecoder::new(g);
    let syndromes: Vec<Vec<usize>> = (0..20)
        .map(|_| distinct_syndrome(&mut rng, 30, 4))
        .collect();
    for s in &syndromes {
        decoder.decode(s);
    }
    assert!(decoder.pair_rows_filled() > 0);
    let clone = decoder.clone();
    assert_eq!(clone.pair_rows_filled(), 0, "a clone shares no rows");
    assert_eq!(clone.searched_decodes(), 0);
    for s in &syndromes {
        assert_eq!(clone.decode(s), decoder.decode(s), "syndrome {s:?}");
    }
    assert_eq!(clone.pair_rows_filled(), decoder.pair_rows_filled());
}

#[test]
fn pair_table_fills_consistently_from_two_threads() {
    let mut rng = StdRng::seed_from_u64(23);
    let n = 48;
    let decoder = Arc::new(MwpmDecoder::new(parity_graph(&mut rng, n, 1, true)));
    let syndromes: Vec<Vec<usize>> = (0..300)
        .map(|_| {
            let count = rng.gen_range(1..12);
            distinct_syndrome(&mut rng, n, count)
        })
        .collect();
    let reference: Vec<(u64, Vec<usize>)> = syndromes
        .iter()
        .map(|s| {
            let mut workspace = DecodeWorkspace::default();
            let mask = decoder.decode_correction_searched(s, &mut workspace);
            (mask, workspace.correction)
        })
        .collect();
    assert_eq!(decoder.pair_rows_filled(), 0, "the search fills no rows");
    // Both threads start cold, together, and race on every row, in
    // opposite orders.
    let start = Barrier::new(2);
    let decode_all = |reverse: bool| {
        let decoder = Arc::clone(&decoder);
        let (syndromes, start) = (&syndromes, &start);
        move || {
            start.wait();
            let mut order: Vec<usize> = (0..syndromes.len()).collect();
            if reverse {
                order.reverse();
            }
            let mut workspace = DecodeWorkspace::default();
            let mut out = vec![(0, Vec::new()); syndromes.len()];
            for i in order {
                workspace.correction.clear();
                let mask = decoder.decode_correction(&syndromes[i], &mut workspace);
                out[i] = (mask, workspace.correction.clone());
            }
            out
        }
    };
    let (forward, backward) = std::thread::scope(|scope| {
        let forward = scope.spawn(decode_all(false));
        let backward = scope.spawn(decode_all(true));
        (forward.join().unwrap(), backward.join().unwrap())
    });
    assert_eq!(forward, reference);
    assert_eq!(backward, reference);
    // Every flagged detector's row is published exactly once.
    let flagged: BTreeSet<usize> = syndromes.iter().flatten().copied().collect();
    assert_eq!(decoder.pair_rows_filled(), flagged.len() as u64);
}
