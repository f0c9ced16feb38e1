//! Parity between the scalar `decode` path and the scratch-reusing
//! `decode_batch` path, for both decoder backends, on random small graphs
//! — plus the contract of the correction each backend reports.

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
