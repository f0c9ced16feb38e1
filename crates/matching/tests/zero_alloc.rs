//! Proof that the streaming decode hot path is allocation-free at steady
//! state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase has grown every arena to its high-water mark, the test
//! streams another hundred rounds — defect-carrying and silent alike —
//! through a windowed session of each backend and asserts the allocation
//! counter does not move at all. This pins the PR 8 arena design: one
//! [`DecodeWorkspace`] per session feeds the MWPM pipeline (Dijkstra,
//! matching instance, blossom tables) and the union-find peeling forest,
//! and every buffer is reset by clearing, never by reallocating.
//!
//! A decoder over a materialised graph resolves every window plan at
//! construction (a plan resolution legitimately allocates), and resolved
//! plans are never evicted, so the push path must be exactly zero — for
//! decoded and fast-forwarded windows alike.
//!
//! Both backends run inside one `#[test]` — the counter is global, so
//! concurrent tests in the same binary would pollute each other's deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use surf_matching::{
    DecoderFactory, DecodingGraph, MwpmDecoder, UnionFindDecoder, WindowConfig, WindowedDecoder,
    WindowedSession,
};

/// Counts every `alloc` / `alloc_zeroed` / `realloc`; frees are not
/// counted (a free in the hot path would be paired with an allocation
/// elsewhere, which the counter does catch).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A `rounds × chains` space-time strip: node `(t, c)` at `t * chains + c`
/// with round label `t`, time-like and space-like edges, boundary edges
/// on both outer chains, observable on the left boundary.
fn strip(rounds: usize, chains: usize) -> (DecodingGraph, Vec<u32>) {
    let mut g = DecodingGraph::new(rounds * chains);
    let id = |t: usize, c: usize| t * chains + c;
    for t in 0..rounds {
        for c in 0..chains {
            if t + 1 < rounds {
                g.add_edge(id(t, c), Some(id(t + 1, c)), 0.02, 0);
            }
            if c + 1 < chains {
                g.add_edge(id(t, c), Some(id(t, c + 1)), 0.03, 0);
            }
        }
        g.add_edge(id(t, 0), None, 0.01, 1);
        g.add_edge(id(t, chains - 1), None, 0.015, 0);
    }
    let rounds_of = (0..rounds * chains).map(|i| (i / chains) as u32).collect();
    (g, rounds_of)
}

const ROUNDS: u32 = 200;
const CHAINS: usize = 3;

/// The per-round defect pattern: a time-like defect pair (rounds `3` and
/// `4` of every 10-round period) on the first two chains, two lanes with
/// different masks — enough to exercise multi-defect matching, boundary
/// competition, and cross-cut carries at every window phase.
fn push_pattern(session: &mut WindowedSession, t: u32) {
    let base = t * CHAINS as u32;
    if matches!(t % 10, 3 | 4) {
        session.push_round(t, &[base, base + 1], &[0b11, 0b01]);
    } else {
        session.push_round(t, &[], &[]);
    }
}

fn assert_steady_state_is_allocation_free(factory: DecoderFactory, label: &str) {
    let (g, rounds_of) = strip(ROUNDS as usize, CHAINS);
    let decoder = WindowedDecoder::new(g, rounds_of, WindowConfig::new(8).with_commit(4), factory);
    let mut session = Arc::new(decoder).into_session(2);
    // Warm-up: every arena (lane buffer, backend scratch, blossom tables,
    // window sub-batch) grows to its high-water mark. The pattern period
    // (10) and the commit stride (4) realign every 20 rounds, so 100
    // warm-up rounds cover each window/defect phase several times.
    for t in 0..ROUNDS / 2 {
        push_pattern(&mut session, t);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for t in ROUNDS / 2..ROUNDS {
        push_pattern(&mut session, t);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "{label}: {} heap allocations across {} steady-state push_round calls",
        after - before,
        ROUNDS / 2
    );
    // The stream still decodes correctly: every pair cancels time-like.
    assert_eq!(session.finish(), vec![0, 0]);
}

#[test]
fn steady_state_push_round_never_allocates() {
    assert_steady_state_is_allocation_free(
        DecoderFactory::new(|g| Box::new(MwpmDecoder::new(g))),
        "mwpm",
    );
    assert_steady_state_is_allocation_free(
        DecoderFactory::new(|g| Box::new(UnionFindDecoder::new(g))),
        "union-find",
    );
}
