//! Multi-host sharding: batch-indexed seeding makes shot ranges shard
//! losslessly.
//!
//! The runner seeds each 64-shot batch from a SplitMix64 stream at the
//! *global* batch index, so shard `k` of `n` (owning batches `k`, `k+n`,
//! `k+2n`, …) samples exactly the lanes the single-host run would — the
//! shards' failure counts sum to the unsharded count, bit for bit.

use surf_lattice::{Basis, Patch};
use surf_sim::{MemoryExperiment, MemoryStats, NoiseParams, Shard, StreamConfig};

mod common;

use common::whole_history_failures;

fn experiment() -> MemoryExperiment {
    let mut exp = MemoryExperiment::standard(Patch::rotated(3));
    exp.rounds = 4;
    exp.noise = NoiseParams::uniform(8e-3);
    exp
}

#[test]
fn shards_merge_to_the_unsharded_count_exactly() {
    let exp = experiment();
    // Every tail alignment a 64-lane batch can end on: a lone partial
    // batch, exact multiples, one-past boundaries, and 500 shots = 7 full
    // batches + a partial tail, where shards split unevenly and one shard
    // owns the tail. Both a full-history window (whose merge must reach
    // the single-threaded whole-history oracle) and a sliding window must
    // hand the partial tail to exactly one shard.
    for shots in [1u64, 63, 64, 65, 127, 128, 129, 500] {
        let reference = whole_history_failures(&exp, Basis::Z, shots, 42);
        let full_history = StreamConfig::new(shots, 42, exp.rounds + 1);
        let stream = StreamConfig::new(shots, 42, 2 * exp.rounds);
        let stream_reference = exp.run_stream_basis(Basis::Z, &stream);
        for count in [2u64, 3, 16] {
            let mut merged = 0;
            let mut stream_merged = 0;
            let mut owned = 0;
            for index in 0..count {
                let shard = Shard::new(index, count);
                merged += exp.run_stream_basis(Basis::Z, &full_history.clone().with_shard(shard));
                stream_merged += exp.run_stream_basis(Basis::Z, &stream.clone().with_shard(shard));
                owned += shard.shots_of(shots);
            }
            assert_eq!(merged, reference, "{shots} shots, {count}-way shard");
            assert_eq!(
                stream_merged, stream_reference,
                "{shots} shots, {count}-way streamed shard"
            );
            assert_eq!(owned, shots, "{shots} shots, {count}-way shot partition");
        }
    }
}

#[test]
fn sharded_stream_stats_merge_exactly() {
    let exp = experiment();
    let shots = 300;
    let full = exp.run(shots, 7);
    let config = StreamConfig::new(shots, 7, exp.rounds + 1);
    let merged = (0..3)
        .map(|k| exp.run_stream(&config.clone().with_shard(Shard::new(k, 3))))
        .fold(MemoryStats::default(), MemoryStats::merge);
    assert_eq!(merged, full);
    assert_eq!(
        full.failures_z_memory,
        whole_history_failures(&exp, Basis::Z, shots, 7)
    );
}

#[test]
fn oversized_shard_counts_yield_empty_shards() {
    let exp = experiment();
    // 100 shots = 2 batches; shards 2.. of 5 own nothing.
    for index in 2..5 {
        let shard = Shard::new(index, 5);
        assert_eq!(shard.shots_of(100), 0);
        let config = StreamConfig::new(100, 3, exp.rounds + 1).with_shard(shard);
        assert_eq!(exp.run_stream_basis(Basis::Z, &config), 0);
    }
}

#[test]
fn empty_shard_stats_report_a_zero_rate() {
    // A shard owning no batches has zero shots; its rate must be 0.0
    // (shown as a detection floor by printers), not the NaN → 0.5 the
    // saturation clamp would otherwise smuggle through `f64::min`.
    let stats = MemoryStats::default();
    assert_eq!(stats.shots, 0);
    assert_eq!(stats.per_round_rate(7), 0.0);
}

#[test]
fn shard_parsing() {
    assert_eq!(Shard::parse("0/4"), Some(Shard::new(0, 4)));
    assert_eq!(Shard::parse("3/4"), Some(Shard::new(3, 4)));
    assert_eq!(Shard::parse("4/4"), None);
    assert_eq!(Shard::parse("1"), None);
    assert_eq!(Shard::parse("a/b"), None);
    assert_eq!(format!("{}", Shard::new(1, 8)), "1/8");
}

#[test]
fn shards_only_exist_inside_their_count() {
    let shard = Shard::new(2, 3);
    assert_eq!((shard.index(), shard.count()), (2, 3));
    assert_eq!(Shard::solo(), Shard::new(0, 1));
    // A zero count would never finish a run and an index past the count
    // would silently repeat another shard's batches: neither constructs.
    assert_eq!(Shard::parse("0/0"), None);
    assert_eq!(Shard::parse("5/3"), None);
    for (index, count) in [(0u64, 0u64), (5, 3), (3, 3)] {
        let built = std::panic::catch_unwind(|| Shard::new(index, count));
        assert!(built.is_err(), "Shard::new({index}, {count}) must panic");
    }
}
