//! The process-wide backend registry: one compiled decoder backend per
//! (factory, window graph), shared by every windowed decoder, session,
//! Monte-Carlo chunk and recompile in the process.
//!
//! A [`DecoderFactory`] carries an identity. [`DecoderFactory::new`]
//! draws a fresh one, so each closure has its own namespace, while
//! clones of one factory (e.g. one per backend kind, as `surf_sim`'s
//! `DecoderKind::factory` hands out) share theirs. A window graph asked
//! of a factory resolves to the live backend of an equal graph under the
//! same identity, if any, and is compiled otherwise:
//!
//! * **Key.** Factory identity plus a hash of the graph (node count and
//!   edge list: endpoints, `probability.to_bits()`, observables). A hit
//!   still confirms full node-count and edge-list equality, so a hash
//!   collision can only cost a compile.
//! * **Lifetime.** The registry holds [`Weak`] references: an entry dies
//!   with the last plan (and so the last session) that uses it. Dead
//!   entries are pruned when their bucket is touched, and in an
//!   amortised sweep as the table grows.
//! * **Locking.** Factories run outside the registry lock; if another
//!   thread registers the same graph first, its backend wins. The lock
//!   is poison-tolerant: a panicking factory never poisons anyone else's
//!   compiles.
//!
//! Backends are pure functions of their graph, and decoder-internal
//! caches such as the MWPM pair table are fill-order independent, so
//! sharing never changes a decode.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use crate::decoder::Decoder;
use crate::graph::DecodingGraph;

/// Builds the inner decoder backend over each window sub-graph. Backends
/// are shared process-wide per (factory identity, window graph): clones
/// share the identity, every [`new`](Self::new) draws a fresh one.
#[derive(Clone)]
pub struct DecoderFactory {
    id: u64,
    build: Arc<dyn Fn(DecodingGraph) -> Box<dyn Decoder> + Send + Sync>,
}

impl DecoderFactory {
    /// A factory with a fresh identity around `build`, which must be a
    /// pure function of its graph (a backend is compiled once and shared
    /// by every window, decoder and thread asking for an equal graph).
    pub fn new<F>(build: F) -> Self
    where
        F: Fn(DecodingGraph) -> Box<dyn Decoder> + Send + Sync + 'static,
    {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        DecoderFactory {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            build: Arc::new(build),
        }
    }

    /// Compiles a private backend over `graph`, bypassing the registry.
    pub fn build(&self, graph: DecodingGraph) -> Box<dyn Decoder> {
        (self.build)(graph)
    }

    /// The shared backend over `graph`: the live registered one when an
    /// equal graph was compiled under this identity, else compiled (with
    /// no lock held) and registered. The flag tells whether this call
    /// compiled the backend it returns.
    pub(crate) fn backend(&self, graph: DecodingGraph) -> (Arc<dyn Decoder>, bool) {
        let key = (self.id, graph_hash(&graph));
        if let Some(hit) = registry().find(key, &graph) {
            SHARED.fetch_add(1, Ordering::Relaxed);
            return (hit, false);
        }
        let compiled: Arc<dyn Decoder> = Arc::from(self.build(graph));
        let mut registry = registry();
        if let Some(hit) = registry.find(key, compiled.graph()) {
            SHARED.fetch_add(1, Ordering::Relaxed);
            return (hit, false);
        }
        registry.insert(key, &compiled);
        COMPILED.fetch_add(1, Ordering::Relaxed);
        (compiled, true)
    }
}

/// Process-wide backend counters (see [`backend_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Backends compiled through the registry.
    pub compiled: u64,
    /// Backend requests served by an already-live backend.
    pub shared: u64,
    /// Registered backends still in use.
    pub live: usize,
    /// MWPM pair-table rows published, over every MWPM decoder.
    pub pair_rows_filled: u64,
}

/// Reads the process-wide backend counters. `compiled` and `shared` are
/// relaxed running totals; `live` is counted by sweeping dead entries
/// (under the registry lock), so it drops as soon as the last plan over a
/// backend is gone.
pub fn backend_stats() -> BackendStats {
    BackendStats {
        compiled: COMPILED.load(Ordering::Relaxed),
        shared: SHARED.load(Ordering::Relaxed),
        live: registry().sweep(),
        pair_rows_filled: crate::mwpm::PAIR_ROWS_FILLED.load(Ordering::Relaxed),
    }
}

static COMPILED: AtomicU64 = AtomicU64::new(0);
static SHARED: AtomicU64 = AtomicU64::new(0);

/// The sweep threshold never falls below this many entries.
const MIN_SWEEP: usize = 64;

/// (factory identity, graph hash) → weak backends; a bucket holds more
/// than one only on a hash collision.
type Key = (u64, u64);

#[derive(Default)]
struct Registry {
    buckets: HashMap<Key, Vec<Weak<dyn Decoder>>>,
    /// Entries over all buckets, dead ones included.
    entries: usize,
    /// `entries` at which the next insert sweeps every bucket.
    sweep_at: usize,
}

/// The registry, locked. No update under the lock can stop part-way
/// (factories run outside it), so a poisoned lock still guards a valid
/// table and is recovered rather than spread to every later compile.
fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// The live backend registered under `key` over a graph equal to
    /// `graph`, pruning the bucket's dead entries.
    fn find(&mut self, key: Key, graph: &DecodingGraph) -> Option<Arc<dyn Decoder>> {
        let bucket = self.buckets.get_mut(&key)?;
        let before = bucket.len();
        bucket.retain(|w| w.strong_count() > 0);
        self.entries -= before - bucket.len();
        let hit = bucket
            .iter()
            .filter_map(Weak::upgrade)
            .find(|d| same_graph(d.graph(), graph));
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        hit
    }

    fn insert(&mut self, key: Key, backend: &Arc<dyn Decoder>) {
        if self.entries >= self.sweep_at {
            self.sweep();
            self.sweep_at = (2 * self.entries).max(MIN_SWEEP);
        }
        self.buckets
            .entry(key)
            .or_default()
            .push(Arc::downgrade(backend));
        self.entries += 1;
    }

    /// Drops every dead entry; returns the live count.
    fn sweep(&mut self) -> usize {
        self.buckets.retain(|_, bucket| {
            bucket.retain(|w| w.strong_count() > 0);
            !bucket.is_empty()
        });
        self.entries = self.buckets.values().map(Vec::len).sum();
        self.entries
    }
}

fn same_graph(a: &DecodingGraph, b: &DecodingGraph) -> bool {
    a.num_nodes() == b.num_nodes() && a.edges() == b.edges()
}

/// A multiply-rotate (Fx-style) fold over the node count and every
/// edge's endpoints, probability bits and observables: cheap next to
/// the window assembly it follows, and only a pre-filter for
/// [`same_graph`].
fn graph_hash(graph: &DecodingGraph) -> u64 {
    let fold = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    graph.edges().iter().fold(graph.num_nodes() as u64, |h, e| {
        let h = fold(h, e.a as u64);
        let h = fold(h, e.b.map_or(u64::MAX, |b| b as u64));
        let h = fold(h, e.probability.to_bits());
        fold(h, e.observables)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MwpmDecoder, UnionFindDecoder};

    fn graph(p: f64) -> DecodingGraph {
        graph_with(p, 1)
    }

    fn graph_with(p: f64, observables: u64) -> DecodingGraph {
        let mut g = DecodingGraph::new(2);
        g.add_edge(0, None, p, observables);
        g.add_edge(0, Some(1), p, 0);
        g.add_edge(1, None, p, 0);
        g
    }

    #[test]
    fn equal_graphs_share_one_backend_per_identity() {
        let mwpm = DecoderFactory::new(|g| Box::new(MwpmDecoder::new(g)));
        let (a, compiled_a) = mwpm.backend(graph(1e-2));
        let (b, compiled_b) = mwpm.clone().backend(graph(1e-2));
        assert!(compiled_a && !compiled_b);
        assert!(Arc::ptr_eq(&a, &b), "a clone shares the identity");
        let (c, compiled_c) = mwpm.backend(graph(2e-2));
        assert!(compiled_c && !Arc::ptr_eq(&a, &c), "another graph compiles");
        let uf = DecoderFactory::new(|g| Box::new(UnionFindDecoder::new(g)));
        let (d, compiled_d) = uf.backend(graph(1e-2));
        assert!(compiled_d && !Arc::ptr_eq(&a, &d), "identities never share");
    }

    #[test]
    fn entries_die_with_their_last_user() {
        let factory = DecoderFactory::new(|g| Box::new(MwpmDecoder::new(g)));
        let (a, _) = factory.backend(graph(3e-2));
        let weak = Arc::downgrade(&a);
        drop(a);
        assert_eq!(
            weak.strong_count(),
            0,
            "the registry holds no strong reference"
        );
        let (_, compiled) = factory.backend(graph(3e-2));
        assert!(compiled, "a dead entry is compiled afresh");
    }

    #[test]
    fn hash_separates_probability_bits_and_observables() {
        let base = graph_hash(&graph(1e-2));
        assert_eq!(base, graph_hash(&graph(1e-2)));
        let next_up = f64::from_bits(1e-2f64.to_bits() + 1);
        assert_ne!(base, graph_hash(&graph(next_up)));
        assert_ne!(base, graph_hash(&graph_with(1e-2, 2)));
        assert_ne!(
            graph_hash(&DecodingGraph::new(2)),
            graph_hash(&DecodingGraph::new(3))
        );
    }
}
