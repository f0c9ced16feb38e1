//! Resident-memory bound for long-horizon sparse sessions.
//!
//! The periodic compilation's reason to exist: a sparse
//! [`SessionConfig`] compiles one steady-state round per epoch plus
//! boundary tables, so a session's live allocation high-water mark is
//! O(epochs + window) — independent of the horizon. This test pins that
//! with a live-byte-counting `#[global_allocator]`: opening a 10⁵-round
//! session and its round stream and driving the session end to end must
//! not allocate materially more than a 10⁴-round one. The monolithic
//! model is O(rounds); a silent fallback to it (or any per-round table
//! sneaking back into the session or the stream) shows up as a ~10× jump
//! and fails the factor-2 bound loudly.
//!
//! The allocator is global to the test binary, so this file holds a
//! single `#[test]` — concurrent tests would pollute the high-water
//! mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use surf_defects::DefectMap;
use surf_deformer_core::PatchTimeline;
use surf_lattice::{Basis, Patch};
use surf_matching::WindowConfig;
use surf_sim::SessionConfig;

/// Tracks live heap bytes and their high-water mark.
struct HighWaterAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for HighWaterAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        out
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }
}

#[global_allocator]
static GLOBAL: HighWaterAlloc = HighWaterAlloc;

/// Compiles a sparse session over `horizon` rounds, drives it end to
/// end (two deterministic defect rounds, silence elsewhere) and returns
/// the high-water mark of live bytes allocated along the way.
fn session_high_water(horizon: u32) -> usize {
    let config = SessionConfig::new(
        PatchTimeline::fixed(Patch::rotated(3), DefectMap::new()),
        Basis::Z,
        horizon,
    )
    .with_window(WindowConfig::new(6))
    .with_sparse(true);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut session = config.open(64);
    // The Monte-Carlo stream over the same compile must not expand the
    // horizon either.
    let stream = session.round_stream();
    // A couple of firing rounds keep the decoder honest: plans resolve,
    // windows decode, corrections commit — all inside the measured span.
    for fire_at in [37u32, 911] {
        while session.filled_rounds() < fire_at {
            session
                .advance_silent(fire_at - session.filled_rounds())
                .expect("advance to firing round");
        }
        let detector = session.detectors_of(fire_at)[0];
        session
            .push_round_sparse(&[detector], &[0x5])
            .expect("push firing round");
    }
    while session.filled_rounds() < session.total_rounds() {
        let gap = session.total_rounds() - session.filled_rounds();
        session.advance_silent(gap).expect("advance to stream end");
    }
    session.finish().expect("finish");
    drop(stream);
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

#[test]
fn sparse_session_memory_does_not_scale_with_horizon() {
    // Warm-up: one-time lazy state (thread locals, runtime tables) must
    // not be charged to either measured run.
    let _ = session_high_water(2_000);
    let short = session_high_water(10_000);
    let long = session_high_water(100_000);
    assert!(
        long < short.saturating_mul(2),
        "10^5-round session high-water ({long} B) must stay within 2x the \
         10^4-round one ({short} B): resident model memory is O(epochs + \
         window), not O(rounds)"
    );
}
