//! Decoder health of the MWPM pair table behind a windowed decoder.
//!
//! A windowed decoder shares one MWPM backend per distinct window graph
//! across every window, lane and pass. Each backend's pair table holds
//! at most one row per detector, and a row, once filled, serves every
//! later decode: streaming the same d = 5 history a second time decodes
//! the same answers and fills no new row.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_defects::DefectMap;
use surf_lattice::{Basis, Patch};
use surf_matching::{
    DecodeWorkspace, Decoder, DecoderFactory, DecodingGraph, MwpmDecoder, WindowConfig,
    WindowedDecoder,
};
use surf_sim::{BitBatch, DecoderPrior, DetectorModel, NoiseParams, QubitNoise};

/// A backend handle the test keeps a second reference to.
struct Shared(Arc<MwpmDecoder>);

impl Decoder for Shared {
    fn graph(&self) -> &DecodingGraph {
        self.0.graph()
    }

    fn decode(&self, syndrome: &[usize]) -> u64 {
        self.0.decode(syndrome)
    }

    fn decode_correction(&self, syndrome: &[usize], workspace: &mut DecodeWorkspace) -> u64 {
        self.0.decode_correction(syndrome, workspace)
    }
}

/// An MWPM factory that records every backend it compiles.
fn recording_factory(backends: Arc<Mutex<Vec<Arc<MwpmDecoder>>>>) -> DecoderFactory {
    DecoderFactory::new(move |g| {
        let decoder = Arc::new(MwpmDecoder::new(g));
        backends.lock().unwrap().push(Arc::clone(&decoder));
        Box::new(Shared(decoder))
    })
}

/// Pair-table rows filled per recorded backend.
fn rows_filled(backends: &Mutex<Vec<Arc<MwpmDecoder>>>) -> Vec<u64> {
    backends
        .lock()
        .unwrap()
        .iter()
        .map(|b| b.pair_rows_filled())
        .collect()
}

/// Feeds `batch` round by round through a fresh session of `windowed`.
fn stream(windowed: &Arc<WindowedDecoder>, batch: &BitBatch) -> Vec<u64> {
    let mut session = Arc::clone(windowed).into_session(batch.lanes());
    for round in 0..windowed.total_rounds() {
        let detectors = windowed.round_detectors(round);
        let words: Vec<u64> = detectors
            .iter()
            .map(|&det| batch.word(det as usize))
            .collect();
        session.push_round(round, detectors, &words);
    }
    session.finish()
}

#[test]
fn pair_rows_fill_once_per_backend_detector() {
    let d = 5;
    let patch = Patch::rotated(d);
    let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
    let model = DetectorModel::build(&patch, Basis::Z, 30, &noise, DecoderPrior::Informed);
    let backends = Arc::new(Mutex::new(Vec::new()));
    let windowed = Arc::new(WindowedDecoder::new(
        model.graph.clone(),
        model.detector_rounds.clone(),
        WindowConfig::new(10).with_commit(5),
        recording_factory(Arc::clone(&backends)),
    ));
    let sampler = model.batch_sampler();
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    let batches: Vec<BitBatch> = (0..8)
        .map(|_| {
            let mut batch = BitBatch::with_lanes(model.num_detectors, 64);
            sampler.sample_into(&mut rng, &mut batch);
            batch
        })
        .collect();
    let first: Vec<Vec<u64>> = batches.iter().map(|b| stream(&windowed, b)).collect();
    let filled = rows_filled(&backends);
    assert!(
        (2..=8).contains(&filled.len()),
        "{} backends compiled",
        filled.len()
    );
    for (backend, &rows) in backends.lock().unwrap().iter().zip(&filled) {
        let nodes = backend.graph().num_nodes() as u64;
        assert!(rows <= nodes, "{rows} rows filled for {nodes} detectors");
    }
    assert!(
        filled.iter().sum::<u64>() > 0,
        "no decode reached the pair table"
    );
    // The same stream again: same answers, no new backend, no new row.
    let second: Vec<Vec<u64>> = batches.iter().map(|b| stream(&windowed, b)).collect();
    assert_eq!(second, first);
    assert_eq!(
        rows_filled(&backends),
        filled,
        "a second pass filled new rows"
    );
}
