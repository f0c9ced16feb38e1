//! Decoder validation: exhaustive single-error correction and Monte-Carlo
//! sanity on fresh and deformed codes.

use surf_defects::DefectMap;
use surf_deformer::core::{data_q_rm, syndrome_q_rm};
use surf_deformer::lattice::{Basis, Coord, Patch};
use surf_deformer::matching::{MwpmDecoder, UnionFindDecoder};
use surf_deformer::sim::{DecoderPrior, DetectorModel, NoiseParams, QubitNoise};

fn model(patch: &Patch, rounds: u32) -> DetectorModel {
    let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
    DetectorModel::build(patch, Basis::Z, rounds, &noise, DecoderPrior::Informed)
}

/// Every *single* error mechanism must be corrected by MWPM: feed each
/// channel's detector signature to the decoder and demand the predicted
/// observable matches the channel's. This is the exhaustive distance-≥3
/// check of the decoding pipeline.
#[test]
fn mwpm_corrects_every_single_error_fresh_codes() {
    for d in [3usize, 5] {
        let patch = Patch::rotated(d);
        let m = model(&patch, d as u32);
        let decoder = MwpmDecoder::new(m.graph.clone());
        for (i, ch) in m.channels.iter().enumerate() {
            let predicted = decoder.decode(&ch.detectors) & 1 == 1;
            assert_eq!(
                predicted, ch.observable,
                "d={d}: channel {i} ({:?}, obs={}) mispredicted",
                ch.detectors, ch.observable
            );
        }
    }
}

/// The same exhaustive check on a deformed patch (one super-stabilizer
/// hole + one octagon, well separated on d=7). The deformed code keeps
/// distance ≥ 3, so single errors must remain correctable.
#[test]
fn mwpm_corrects_every_single_error_deformed_code() {
    let mut patch = Patch::rotated(7);
    data_q_rm(&mut patch, Coord::new(3, 3)).unwrap();
    syndrome_q_rm(&mut patch, Coord::new(10, 10)).unwrap();
    patch.verify().unwrap();
    assert!(patch.distance().min() >= 3, "{}", patch.distance());
    let m = model(&patch, 6);
    let decoder = MwpmDecoder::new(m.graph.clone());
    for (i, ch) in m.channels.iter().enumerate() {
        let predicted = decoder.decode(&ch.detectors) & 1 == 1;
        assert_eq!(
            predicted, ch.observable,
            "deformed: channel {i} ({:?}) mispredicted",
            ch.detectors
        );
    }
}

/// Union-find corrects the overwhelming majority of single errors too
/// (its cluster growth can mis-handle a few boundary cases, so this is a
/// 95% bar rather than exhaustive).
#[test]
fn union_find_corrects_most_single_errors() {
    let patch = Patch::rotated(5);
    let m = model(&patch, 5);
    let decoder = UnionFindDecoder::new(m.graph.clone());
    let mut wrong = 0usize;
    for ch in &m.channels {
        let predicted = decoder.decode(&ch.detectors) & 1 == 1;
        if predicted != ch.observable {
            wrong += 1;
        }
    }
    let rate = wrong as f64 / m.channels.len() as f64;
    assert!(rate < 0.05, "UF single-error miss rate {rate}");
}

/// Two well-separated errors are also corrected at d = 5 (distance-5 code
/// corrects any two errors).
#[test]
fn mwpm_corrects_error_pairs_at_d5() {
    let patch = Patch::rotated(5);
    let m = model(&patch, 5);
    let decoder = MwpmDecoder::new(m.graph.clone());
    // Sample channel pairs deterministically (every 17th pair to bound
    // runtime while covering the space).
    let n = m.channels.len();
    let mut checked = 0usize;
    let mut idx = 0usize;
    while idx < n * (n - 1) / 2 && checked < 4000 {
        let (i, j) = pair_from_index(idx, n);
        idx += 17;
        let a = &m.channels[i];
        let b = &m.channels[j];
        let mut detectors: Vec<usize> = a.detectors.iter().chain(&b.detectors).copied().collect();
        detectors.sort_unstable();
        let predicted = decoder.decode(&detectors) & 1 == 1;
        assert_eq!(
            predicted,
            a.observable ^ b.observable,
            "channels {i}+{j} mispredicted"
        );
        checked += 1;
    }
    assert!(checked > 1000);
}

fn pair_from_index(mut idx: usize, n: usize) -> (usize, usize) {
    for i in 0..n {
        let row = n - 1 - i;
        if idx < row {
            return (i, i + 1 + idx);
        }
        idx -= row;
    }
    unreachable!()
}
