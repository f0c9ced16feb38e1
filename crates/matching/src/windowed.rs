//! Streaming windowed decoding over round-structured decoding graphs.
//!
//! A real-time decoder cannot wait for the full syndrome history: rounds
//! keep arriving while old corrections must already be committed (the
//! Surf-Deformer scenario — a cosmic ray lands mid-computation and the
//! code deforms while measurement keeps running). The [`WindowedDecoder`]
//! decodes overlapping round-windows `[t, t + w)`:
//!
//! 1. every detector carries a *round* label; each window decodes the
//!    sub-graph of its rounds through an inner [`Decoder`] built by a
//!    caller-supplied factory (MWPM, union-find, anything);
//! 2. only the matches touching the *commit region* (the first `commit`
//!    rounds of the window) are final; the remaining rounds are lookahead
//!    context that the next window re-decodes;
//! 3. a committed match whose path crosses the commit boundary leaves a
//!    half-explained chain behind — the crossing is recorded and the
//!    partner detector's defect is flipped before the next window runs
//!    (the "artificial time boundary" carry);
//! 4. edges leaving the window towards not-yet-streamed rounds become
//!    zero-observable *open-boundary* edges, so a defect whose partner is
//!    still in the future can park against the future boundary instead of
//!    forcing a wrong spatial match.
//!
//! The trick that makes this work through the *opaque* [`Decoder`] trait
//! (which returns only an observable-flip mask, never the matching
//! itself) is observable-bit instrumentation: in each window sub-graph,
//! committed edges keep their real observable bits, non-committed edges
//! are zeroed, and every committed edge that crosses the commit cut
//! additionally sets a private high bit identifying the detector the
//! residual defect must be carried to. One `decode` call then returns the
//! committed observable parity *and* the full carry set.
//!
//! With the window at least `2·d` rounds (commit `d`, lookahead `d`) the
//! committed corrections coincide with the full-history batch decode —
//! `crates/sim/tests/streaming_equivalence.rs` proves the logical outcome
//! bit-identical — while `w = rounds` reduces exactly to the inner
//! decoder and `w = 1` degenerates to greedy round-by-round commitment.
//!
//! # Sparse mode
//!
//! [`WindowedDecoder::sparse`] / [`from_epochs_sparse`]
//! (WindowedDecoder::from_epochs_sparse) build the same decoder in an
//! event-driven shape for very long, mostly-silent streams (the 10⁵–10⁶
//! round availability horizons of the cosmic-ray ride-through scenario):
//!
//! * **Lazy window plans.** Window sub-graphs and inner decoders are built
//!   on first use instead of eagerly for every window, and windows whose
//!   instrumented sub-graphs are structurally identical (the steady state
//!   between geometry epochs — almost all of a long stream) *share* one
//!   inner decoder. A 10⁵-round session compiles a handful of backends
//!   instead of tens of thousands.
//! * **Fast-forward.** Sessions track which rounds have ever seen a
//!   nonzero defect word (including carry targets). A ready window whose
//!   rounds are all clean must decode to an empty matching with zero
//!   observable flips, so it is committed trivially without touching the
//!   backend — the skip is *exact*, not approximate. Dense-built decoders
//!   never skip, so the eager path remains a bit-identical baseline.
//! * **Bulk advance.** [`WindowedSession::advance_silent`] /
//!   [`OwnedWindowedSession::advance_silent`] feed `n` defect-free rounds
//!   in one call, letting sparse samplers jump from event to event in
//!   O(windows touched) instead of O(rounds).
//!
//! Both modes run the identical window assembly and decode sequence, so
//! eager and sparse decoders agree bit for bit on every stream (see the
//! `sparse_*` tests below); the eager path additionally surfaces carry-bit
//! overflow at construction time, while the sparse path surfaces it on
//! first decode of the offending window.
//!
//! # Virtual mode
//!
//! [`WindowedDecoder::virtual_source`] goes one step further for
//! unbounded horizons: instead of a pre-materialised graph + round table
//! (O(rounds) memory before the first shot), the decoder holds a
//! [`RoundModelSource`] and builds each window's detectors and candidate
//! edges on demand. Sessions keep their defect and dirty state in sparse
//! maps pruned at the commit frontier, so a virtual session's resident
//! memory is O(in-flight windows + events), independent of the horizon.
//! Virtual decoders are session-only: the whole-history [`Decoder`] entry
//! points ([`graph`](Decoder::graph), [`decode`](Decoder::decode),
//! [`decode_batch`](Decoder::decode_batch)) panic, because the full graph
//! is never materialised. Window assembly replays the identical edge
//! sequence the materialised sparse path would visit, so committed
//! results stay bit-identical.
//!
//! ## Template translation
//!
//! Between boundaries, a periodic source proves every window a translate
//! of a canonical one ([`RoundModelSource::window_translation`]). Such
//! steady-state windows are not assembled at all: the decoder builds one
//! *template* plan per canonical start on first touch (assembling the
//! canonical window and its one-period translate, whose difference gives
//! each local detector's stride), keeps it for the decoder's lifetime,
//! and decodes a window `δ` periods on by reading detector
//! `globals[k] + δ·stride[k]` and carrying to targets shifted the same
//! way — through the very backend a direct assembly would have shared.
//! Sessions cache the templates they use, so steady-state pushes and
//! silent advances take no lock; boundary, strike and final windows are
//! assembled on demand as before. Plan assemblies per session therefore
//! stop growing with the horizon
//! ([`plan_builds`](WindowedDecoder::plan_builds)).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use surf_pauli::BitBatch;

use crate::decoder::{DecodeWorkspace, Decoder};
use crate::graph::DecodingGraph;
use crate::source::{RoundModelSource, SourceEdge, WindowTranslation};

/// Template plans a session keeps locally: a stretch uses one template
/// per commit phase modulo the period, so a handful covers the windows in
/// flight.
const SESSION_TEMPLATES: usize = 4;

/// Factory building the inner decoder backend over each window sub-graph.
pub type DecoderFactory = Box<dyn Fn(DecodingGraph) -> Box<dyn Decoder> + Send + Sync>;

/// One geometry epoch's share of a spliced decoding graph: a
/// locally-indexed sub-graph plus the translation of its local detector
/// ids into the stream's global detector space.
///
/// This is the graph-swap input of in-stream adaptive deformation: the
/// pre- and post-deformation models are compiled separately (the late one
/// only exists once the deformation is decided), each carrying the
/// detector-remap shim's `global_of` table. Edges that straddle the
/// deformation boundary — the merge detectors comparing pre-deformation
/// stabilizer values with the first post-deformation super-stabilizer
/// measurement — live in the late epoch's piece and reference early
/// detectors through the same table.
#[derive(Clone, Debug)]
pub struct GraphEpoch {
    /// The epoch's sub-graph over local node ids.
    pub graph: DecodingGraph,
    /// Round label of each local node.
    pub rounds_of: Vec<u32>,
    /// Local node id → global detector id.
    pub global_of: Vec<u32>,
}

/// Shape of the sliding window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowConfig {
    /// Rounds decoded together, `[t, t + window)`.
    pub window: u32,
    /// Rounds committed per window (the step between windows). Must be
    /// `1..=window`; the tail `window - commit` rounds are lookahead.
    pub commit: u32,
}

impl WindowConfig {
    /// A window of `window` rounds committing half of it per step (the
    /// classic "commit d, look ahead d" split for `window = 2·d`).
    pub fn new(window: u32) -> Self {
        assert!(window > 0, "window must be at least one round");
        WindowConfig {
            window,
            commit: (window / 2).max(1),
        }
    }

    /// Overrides the commit step.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= commit <= window`.
    pub fn with_commit(mut self, commit: u32) -> Self {
        assert!(
            (1..=self.window).contains(&commit),
            "commit {commit} outside 1..={}",
            self.window
        );
        self.commit = commit;
        self
    }
}

/// One window's bookkeeping: its sub-graph decoder (possibly shared with
/// structurally identical windows in sparse mode) plus the translation
/// between global detectors and window-local node ids.
struct WindowPlan {
    /// Window detectors in global ids; local node `i` = `globals[i]`.
    globals: Vec<u32>,
    /// Inner decoder over the instrumented window sub-graph.
    decoder: Arc<dyn Decoder>,
    /// Carry instrumentation: `(observable bit, global detector)` — if the
    /// decode result has the bit set, the detector's defect is flipped
    /// before the next window.
    carries: Vec<(u32, u32)>,
    /// Template plans only (empty otherwise): in the window `shift`
    /// periods past the template, local node `k` is global detector
    /// `globals[k] + shift · strides[k]`.
    strides: Vec<u32>,
    /// Template plans only: the stride of each carry target, in
    /// `carries` order.
    carry_strides: Vec<u32>,
}

impl WindowPlan {
    /// Global id of local node `k` in the window `shift` periods on
    /// (`shift` is 0 for directly assembled plans).
    fn global(&self, k: usize, shift: u32) -> u32 {
        match shift {
            0 => self.globals[k],
            _ => self.globals[k] + shift * self.strides[k],
        }
    }

    /// Global id of carry `j`'s target in the window `shift` periods on.
    fn carry_target(&self, j: usize, shift: u32) -> u32 {
        match shift {
            0 => self.carries[j].1,
            _ => self.carries[j].1 + shift * self.carry_strides[j],
        }
    }
}

impl std::fmt::Debug for WindowPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowPlan")
            .field("globals", &self.globals.len())
            .field("carries", &self.carries.len())
            .field("template", &!self.strides.is_empty())
            .finish_non_exhaustive()
    }
}

/// Where window plans come from: built eagerly up front (dense mode),
/// resolved on demand with structural decoder sharing (sparse mode, over
/// a round-major detector index), or assembled from a
/// [`RoundModelSource`] (virtual mode, no materialised graph at all).
enum PlanStore {
    Eager(Vec<Arc<WindowPlan>>),
    Lazy {
        table: Mutex<PlanTable>,
        /// All detectors sorted by `(round, detector)`.
        dets: Vec<u32>,
        /// `dets[round_start[r]..round_start[r + 1]]` are round `r`'s
        /// detectors in ascending id order.
        round_start: Vec<u32>,
    },
    Virtual(Mutex<PlanTable>),
}

/// The on-demand plan state behind the sparse and virtual stores.
struct PlanTable {
    factory: DecoderFactory,
    /// Plans already resolved, keyed by window index. A session evicts
    /// the entries below its own commit frontier after each drain, so the
    /// table stays O(in-flight windows) on 10⁵⁺-round streams instead of
    /// O(windows).
    resolved: HashMap<usize, Arc<WindowPlan>>,
    /// Distinct inner decoders built so far, most recently used first;
    /// a candidate window whose instrumented sub-graph equals a canonical
    /// decoder's graph reuses it instead of compiling a new backend.
    canon: Vec<Arc<dyn Decoder>>,
    /// Steady-state template plans keyed by canonical start round
    /// (virtual mode only): built on first touch, never evicted.
    templates: HashMap<u32, Arc<WindowPlan>>,
}

impl PlanTable {
    fn new(factory: DecoderFactory) -> Self {
        PlanTable {
            factory,
            resolved: HashMap::new(),
            canon: Vec::new(),
            templates: HashMap::new(),
        }
    }

    fn lock(table: &Mutex<PlanTable>) -> MutexGuard<'_, PlanTable> {
        table
            .lock()
            .expect("plan table poisoned: a session panicked while resolving a plan")
    }
}

/// One assembled window: detectors in global ids, the instrumented
/// window sub-graph, and the carry table.
type Parts = (Vec<u32>, DecodingGraph, Vec<(u32, u32)>);

/// One window plan laid open for equivalence tests (see
/// [`WindowedDecoder::window_parts`]).
#[doc(hidden)]
#[derive(Clone, Debug)]
pub struct WindowParts {
    /// Window detectors in global ids, local node order.
    pub globals: Vec<u32>,
    /// The instrumented window sub-graph.
    pub graph: DecodingGraph,
    /// `(observable bit, global carry target)` pairs.
    pub carries: Vec<(u32, u32)>,
}

/// A streaming decoder: decodes overlapping round-windows of a decoding
/// graph whose detectors carry round labels, committing matches in each
/// window's commit region and carrying boundary defects forward.
///
/// Implements [`Decoder`] itself (over the full-history graph), so any
/// code consuming a `Box<dyn Decoder>` can be switched to streaming
/// decoding transparently; [`session`](WindowedDecoder::session) exposes
/// the round-by-round feed used by `surf_sim`'s streaming experiments.
///
/// # Example
///
/// ```
/// use surf_matching::{Decoder, DecodingGraph, MwpmDecoder, WindowConfig, WindowedDecoder};
///
/// // Two detectors in consecutive rounds joined by a measurement edge
/// // (cheaper than the boundaries, so the matching is unique).
/// let mut g = DecodingGraph::new(2);
/// g.add_edge(0, None, 1e-2, 1);
/// g.add_edge(0, Some(1), 5e-2, 0);
/// g.add_edge(1, None, 1e-2, 0);
/// let windowed = WindowedDecoder::new(
///     g,
///     vec![0, 1],
///     1,
///     WindowConfig::new(1),
///     Box::new(|wg| Box::new(MwpmDecoder::new(wg))),
/// );
/// // The measurement-error pair is matched across the window cut: the
/// // first window commits the pair edge and carries the residual defect
/// // into round 1, where it cancels the sampled one.
/// assert_eq!(windowed.decode(&[0, 1]), 0);
/// ```
pub struct WindowedDecoder {
    graph: DecodingGraph,
    rounds_of: Vec<u32>,
    /// Round-indexed model source (virtual mode); `None` when the graph
    /// and round table above are materialised.
    source: Option<Arc<dyn RoundModelSource>>,
    /// One past the largest round label.
    total_rounds: u32,
    obs_mask: u64,
    num_observables: u32,
    config: WindowConfig,
    store: PlanStore,
    /// Window assemblies so far (see [`plan_builds`](Self::plan_builds)).
    plan_builds: AtomicU64,
    /// Lowest window index holding a resolved on-demand plan
    /// (`usize::MAX` when none). Written only under the plan-store lock;
    /// read without it, so eviction skips the lock when nothing resolved
    /// lies below the frontier.
    lowest_resolved: AtomicUsize,
}

impl WindowedDecoder {
    /// Builds a windowed decoder over `graph`, whose detector `i` belongs
    /// to round `rounds_of[i]`, with `num_observables` real observable
    /// bits (bits above them are reserved for carry instrumentation) and
    /// an inner backend built per window by `factory`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds_of` does not match the graph, if
    /// `num_observables` is 0 or ≥ 64, or if a window needs more carry
    /// bits than the `64 - num_observables` available ones (only possible
    /// for very wide time-cuts; d ≤ 9 surface-code memories fit easily).
    pub fn new(
        graph: DecodingGraph,
        rounds_of: Vec<u32>,
        num_observables: u32,
        config: WindowConfig,
        factory: DecoderFactory,
    ) -> Self {
        WindowedDecoder::build(graph, rounds_of, num_observables, config, factory, false)
    }

    /// [`new`](WindowedDecoder::new) in sparse mode: window plans are
    /// resolved lazily on first use, structurally identical windows share
    /// one inner decoder, and sessions fast-forward through defect-free
    /// windows without invoking the backend.
    ///
    /// Decodes bit-identically to the eager construction on every stream;
    /// the only behavioural difference is that a carry-bit overflow (see
    /// [`new`](WindowedDecoder::new)) panics on first decode of the
    /// offending window instead of at construction.
    pub fn sparse(
        graph: DecodingGraph,
        rounds_of: Vec<u32>,
        num_observables: u32,
        config: WindowConfig,
        factory: DecoderFactory,
    ) -> Self {
        WindowedDecoder::build(graph, rounds_of, num_observables, config, factory, true)
    }

    fn build(
        graph: DecodingGraph,
        rounds_of: Vec<u32>,
        num_observables: u32,
        config: WindowConfig,
        factory: DecoderFactory,
        sparse: bool,
    ) -> Self {
        assert_eq!(
            rounds_of.len(),
            graph.num_nodes(),
            "one round label per detector required"
        );
        assert!(
            (1..64).contains(&num_observables),
            "num_observables {num_observables} outside 1..=63"
        );
        // Re-validate the config: its fields are `pub`, so a struct
        // literal can bypass the constructor asserts. commit = 0 would
        // produce infinitely many windows; commit > window would leave
        // rounds that belong to no window (silently undecoded defects).
        assert!(config.window > 0, "window must be at least one round");
        assert!(
            (1..=config.window).contains(&config.commit),
            "commit {} outside 1..={}",
            config.commit,
            config.window
        );
        let total_rounds = rounds_of.iter().map(|&r| r + 1).max().unwrap_or(0);
        let obs_mask = (1u64 << num_observables) - 1;
        let mut decoder = WindowedDecoder {
            graph,
            rounds_of,
            source: None,
            total_rounds,
            obs_mask,
            num_observables,
            config,
            store: PlanStore::Eager(Vec::new()),
            plan_builds: AtomicU64::new(0),
            lowest_resolved: AtomicUsize::new(usize::MAX),
        };
        decoder.store = if sparse {
            let mut dets: Vec<u32> = (0..decoder.graph.num_nodes() as u32).collect();
            dets.sort_unstable_by_key(|&d| (decoder.rounds_of[d as usize], d));
            let mut round_start = vec![0u32; total_rounds as usize + 1];
            for &d in &dets {
                round_start[decoder.rounds_of[d as usize] as usize + 1] += 1;
            }
            for r in 0..total_rounds as usize {
                round_start[r + 1] += round_start[r];
            }
            PlanStore::Lazy {
                table: Mutex::new(PlanTable::new(factory)),
                dets,
                round_start,
            }
        } else {
            let mut plans = Vec::with_capacity(decoder.num_windows());
            for index in 0..decoder.num_windows() {
                let (start, end, cut) = decoder.window_bounds(index);
                let (globals, window_graph, carries) = decoder.build_parts(start, end, cut);
                plans.push(Arc::new(WindowPlan {
                    globals,
                    decoder: Arc::from(factory(window_graph)),
                    carries,
                    strides: Vec::new(),
                    carry_strides: Vec::new(),
                }));
            }
            PlanStore::Eager(plans)
        };
        decoder
    }

    /// Builds a windowed decoder over epoch pieces spliced into one
    /// `num_detectors`-wide global space — the graph-swap path of
    /// in-stream adaptive deformation.
    ///
    /// Every epoch's edges and round labels are translated through its
    /// [`GraphEpoch::global_of`] table, so a window straddling the
    /// deformation round decodes against the spliced multi-epoch graph
    /// and its commit-cut carry bits land on translated (global) detector
    /// ids — residual defects flow correctly from pre- into
    /// post-deformation windows.
    ///
    /// # Panics
    ///
    /// Panics if a global detector is left without a round label, labelled
    /// inconsistently across epochs, or out of range — plus everything
    /// [`WindowedDecoder::new`] checks.
    pub fn from_epochs(
        num_detectors: usize,
        epochs: &[GraphEpoch],
        num_observables: u32,
        config: WindowConfig,
        factory: DecoderFactory,
    ) -> Self {
        let (graph, rounds_of) = WindowedDecoder::splice_epochs(num_detectors, epochs);
        WindowedDecoder::new(graph, rounds_of, num_observables, config, factory)
    }

    /// [`from_epochs`](WindowedDecoder::from_epochs) in sparse mode; see
    /// [`sparse`](WindowedDecoder::sparse).
    pub fn from_epochs_sparse(
        num_detectors: usize,
        epochs: &[GraphEpoch],
        num_observables: u32,
        config: WindowConfig,
        factory: DecoderFactory,
    ) -> Self {
        let (graph, rounds_of) = WindowedDecoder::splice_epochs(num_detectors, epochs);
        WindowedDecoder::sparse(graph, rounds_of, num_observables, config, factory)
    }

    fn splice_epochs(num_detectors: usize, epochs: &[GraphEpoch]) -> (DecodingGraph, Vec<u32>) {
        let mut graph = DecodingGraph::new(num_detectors);
        let mut rounds_of = vec![u32::MAX; num_detectors];
        for (i, epoch) in epochs.iter().enumerate() {
            assert_eq!(
                epoch.global_of.len(),
                epoch.graph.num_nodes(),
                "epoch {i}: one global id per local node required"
            );
            assert_eq!(
                epoch.rounds_of.len(),
                epoch.graph.num_nodes(),
                "epoch {i}: one round label per local node required"
            );
            for (local, (&global, &round)) in
                epoch.global_of.iter().zip(&epoch.rounds_of).enumerate()
            {
                let slot = &mut rounds_of[global as usize];
                assert!(
                    *slot == u32::MAX || *slot == round,
                    "epoch {i}: detector {global} (local {local}) relabelled \
                     from round {slot} to {round}"
                );
                *slot = round;
            }
            for edge in epoch.graph.edges() {
                graph.add_edge(
                    epoch.global_of[edge.a] as usize,
                    edge.b.map(|b| epoch.global_of[b] as usize),
                    edge.probability,
                    edge.observables,
                );
            }
        }
        assert!(
            rounds_of.iter().all(|&r| r != u32::MAX),
            "every global detector needs a round label from some epoch"
        );
        (graph, rounds_of)
    }

    /// Builds a windowed decoder over a round-indexed model source, with
    /// no materialised graph: window detectors and candidate edges are
    /// asked of `source` on demand, and sessions keep sparse defect state
    /// pruned at the commit frontier — resident memory O(in-flight
    /// windows + events) regardless of the horizon.
    ///
    /// Virtual decoders are always sparse (lazy plans, structural backend
    /// sharing, clean-window fast-forward) and serve *sessions only*: the
    /// whole-history [`Decoder`] entry points panic.
    ///
    /// # Panics
    ///
    /// Panics if `num_observables` is outside `1..=63` or the window
    /// config is degenerate, like [`new`](WindowedDecoder::new).
    pub fn virtual_source(
        source: Arc<dyn RoundModelSource>,
        num_observables: u32,
        config: WindowConfig,
        factory: DecoderFactory,
    ) -> Self {
        assert!(
            (1..64).contains(&num_observables),
            "num_observables {num_observables} outside 1..=63"
        );
        assert!(config.window > 0, "window must be at least one round");
        assert!(
            (1..=config.window).contains(&config.commit),
            "commit {} outside 1..={}",
            config.commit,
            config.window
        );
        let total_rounds = source.total_rounds();
        WindowedDecoder {
            graph: DecodingGraph::new(0),
            rounds_of: Vec::new(),
            source: Some(source),
            total_rounds,
            obs_mask: (1u64 << num_observables) - 1,
            num_observables,
            config,
            store: PlanStore::Virtual(Mutex::new(PlanTable::new(factory))),
            plan_builds: AtomicU64::new(0),
            lowest_resolved: AtomicUsize::new(usize::MAX),
        }
    }

    /// Whether this decoder was built in sparse (lazy-plan, fast-forward)
    /// mode; virtual decoders are always sparse.
    pub fn is_sparse(&self) -> bool {
        self.table().is_some()
    }

    /// The on-demand plan table (sparse and virtual stores).
    fn table(&self) -> Option<&Mutex<PlanTable>> {
        match &self.store {
            PlanStore::Eager(_) => None,
            PlanStore::Lazy { table, .. } | PlanStore::Virtual(table) => Some(table),
        }
    }

    /// Whether this decoder serves windows from a [`RoundModelSource`]
    /// with no materialised whole-history graph.
    pub fn is_virtual(&self) -> bool {
        self.source.is_some()
    }

    /// The round label of a global detector (table lookup when
    /// materialised, source arithmetic when virtual).
    fn round_of_det(&self, det: u32) -> u32 {
        match &self.source {
            Some(source) => source.detector_round(det),
            None => self.rounds_of[det as usize],
        }
    }

    /// Number of distinct inner decoder backends compiled so far: eager
    /// decoders compile one per window up front; sparse decoders compile
    /// one per *structurally distinct* window, on demand. Useful for
    /// asserting (and benchmarking) plan sharing.
    pub fn compiled_backends(&self) -> usize {
        match &self.store {
            PlanStore::Eager(plans) => plans.len(),
            PlanStore::Lazy { table, .. } | PlanStore::Virtual(table) => {
                PlanTable::lock(table).canon.len()
            }
        }
    }

    /// Number of resolved window plans currently retained. Eager decoders
    /// hold every window's plan for their whole lifetime; sparse decoders
    /// resolve plans on demand and evict them once committed, so this
    /// stays bounded on arbitrarily long streams. Virtual template plans
    /// are not counted: there are a few per steady stretch, whatever the
    /// horizon.
    pub fn live_plans(&self) -> usize {
        match &self.store {
            PlanStore::Eager(plans) => plans.len(),
            PlanStore::Lazy { table, .. } | PlanStore::Virtual(table) => {
                PlanTable::lock(table).resolved.len()
            }
        }
    }

    /// Window assemblies performed so far, across every session of this
    /// decoder: one per eager window at construction, one per on-demand
    /// plan resolution (including re-resolution of an evicted plan), and
    /// two per virtual template (the canonical window and its one-period
    /// translate). Steady-state windows served by translation assemble
    /// nothing, so on a periodic source this stops growing with the
    /// horizon.
    pub fn plan_builds(&self) -> u64 {
        self.plan_builds.load(Ordering::Relaxed)
    }

    /// Drops resolved on-demand plans for windows below `floor` — the
    /// *calling* session's commit frontier, not that of every live
    /// session. A concurrent session lagging behind it that still needs
    /// an evicted window re-resolves it: a full window assembly (about
    /// 250 µs at d = 5) plus a structural lookup that finds the same
    /// shared backend, so eviction costs time but never changes results.
    /// Template plans are never evicted. Takes no lock when nothing
    /// resolved lies below `floor`.
    fn evict_plans_below(&self, floor: usize) {
        if self.lowest_resolved.load(Ordering::Relaxed) >= floor {
            return;
        }
        let Some(table) = self.table() else {
            return;
        };
        let mut table = PlanTable::lock(table);
        table.resolved.retain(|&i, _| i >= floor);
        let lowest = table.resolved.keys().copied().min().unwrap_or(usize::MAX);
        self.lowest_resolved.store(lowest, Ordering::Relaxed);
    }

    /// `(start, end, cut)` of window `index`: it decodes rounds
    /// `[start, end)` and commits matches whose earlier endpoint is below
    /// `cut` (`u32::MAX` for the last window, which commits everything).
    fn window_bounds(&self, index: usize) -> (u32, u32, u32) {
        let start = index as u32 * self.config.commit;
        let end = start
            .saturating_add(self.config.window)
            .min(self.total_rounds);
        let cut = if index + 1 == self.num_windows() {
            u32::MAX
        } else {
            start + self.config.commit
        };
        (start, end, cut)
    }

    /// The template translation serving window `(start, end, cut)`, if
    /// the model source reports one. Only full, non-final windows of a
    /// virtual decoder qualify (every non-final window spans exactly
    /// `config.window` rounds).
    fn translation(&self, start: u32, end: u32, cut: u32) -> Option<WindowTranslation> {
        if cut == u32::MAX {
            return None;
        }
        self.source.as_ref()?.window_translation(start..end)
    }

    /// Resolves window `index`'s plan: a direct lookup for eager
    /// decoders; for sparse ones, builds (or re-uses a structurally
    /// identical) plan on first touch.
    fn plan(&self, index: usize) -> Arc<WindowPlan> {
        let table = match &self.store {
            PlanStore::Eager(plans) => return Arc::clone(&plans[index]),
            PlanStore::Lazy { table, .. } | PlanStore::Virtual(table) => table,
        };
        if let Some(plan) = PlanTable::lock(table).resolved.get(&index) {
            return Arc::clone(plan);
        }
        // Assemble outside the lock so sessions resolving other windows
        // never wait on it; a racing twin assembles the identical plan
        // and the first insert wins.
        let (start, end, cut) = self.window_bounds(index);
        let (globals, window_graph, carries) = self.build_parts(start, end, cut);
        let mut table = PlanTable::lock(table);
        let table = &mut *table;
        if let Some(plan) = table.resolved.get(&index) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(WindowPlan {
            globals,
            decoder: Self::canon_decoder(&mut table.canon, &table.factory, window_graph),
            carries,
            strides: Vec::new(),
            carry_strides: Vec::new(),
        });
        table.resolved.insert(index, Arc::clone(&plan));
        self.lowest_resolved.fetch_min(index, Ordering::Relaxed);
        plan
    }

    /// Resolves the template plan serving the steady-state windows that
    /// translate to `t.canonical_start`. Built on first touch from the
    /// canonical window and its one-period translate — their difference
    /// is each local detector's (and carry target's) stride — then shared
    /// by every session and never evicted. The backend is the one
    /// [`canon_decoder`](Self::canon_decoder) picks for the canonical
    /// window graph, i.e. the one a direct assembly would have shared.
    ///
    /// # Panics
    ///
    /// Panics if the source's translation claim is false (the two windows
    /// differ in shape).
    fn template(&self, t: WindowTranslation) -> Arc<WindowPlan> {
        let table = self.table().expect("templates need an on-demand store");
        if let Some(plan) = PlanTable::lock(table).templates.get(&t.canonical_start) {
            return Arc::clone(plan);
        }
        let WindowConfig { window, commit } = self.config;
        let (s0, s1) = (t.canonical_start, t.canonical_start + t.period);
        let (globals, window_graph, carries) = self.build_parts(s0, s0 + window, s0 + commit);
        let (next_globals, next_graph, next_carries) =
            self.build_parts(s1, s1 + window, s1 + commit);
        assert!(
            globals.len() == next_globals.len()
                && window_graph.edges() == next_graph.edges()
                && carries
                    .iter()
                    .map(|c| c.0)
                    .eq(next_carries.iter().map(|c| c.0)),
            "model source claims window [{s1}, {}) translates window [{s0}, {}), \
             but their graphs differ",
            s1 + window,
            s0 + window
        );
        let stride = |a: u32, b: u32| b.checked_sub(a).expect("translation moves detectors up");
        let strides = globals
            .iter()
            .zip(&next_globals)
            .map(|(&a, &b)| stride(a, b))
            .collect();
        let carry_strides = carries
            .iter()
            .zip(&next_carries)
            .map(|(a, b)| stride(a.1, b.1))
            .collect();
        let mut table = PlanTable::lock(table);
        let table = &mut *table;
        if let Some(plan) = table.templates.get(&s0) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(WindowPlan {
            globals,
            decoder: Self::canon_decoder(&mut table.canon, &table.factory, window_graph),
            carries,
            strides,
            carry_strides,
        });
        table.templates.insert(s0, Arc::clone(&plan));
        plan
    }

    /// Window `index` assembled directly, and — when the model source
    /// serves it by translation — as the decoder actually resolves it
    /// from its template: the equivalence surface for translation tests.
    #[doc(hidden)]
    pub fn window_parts(&self, index: usize) -> (WindowParts, Option<WindowParts>) {
        let (start, end, cut) = self.window_bounds(index);
        let (globals, graph, carries) = self.build_parts(start, end, cut);
        let direct = WindowParts {
            globals,
            graph,
            carries,
        };
        let translated = self.translation(start, end, cut).map(|t| {
            let plan = self.template(t);
            WindowParts {
                globals: (0..plan.globals.len())
                    .map(|k| plan.global(k, t.reps))
                    .collect(),
                graph: plan.decoder.graph().clone(),
                carries: (0..plan.carries.len())
                    .map(|j| (plan.carries[j].0, plan.carry_target(j, t.reps)))
                    .collect(),
            }
        });
        (direct, translated)
    }

    /// Finds (or compiles) the canonical shared backend for a window
    /// sub-graph — the structural-sharing core of both lazy stores.
    fn canon_decoder(
        canon: &mut Vec<Arc<dyn Decoder>>,
        factory: &DecoderFactory,
        window_graph: DecodingGraph,
    ) -> Arc<dyn Decoder> {
        match canon.iter().position(|c| {
            c.graph().num_nodes() == window_graph.num_nodes()
                && c.graph().edges() == window_graph.edges()
        }) {
            Some(i) => {
                // Move the hit to the front: neighbouring windows
                // overwhelmingly share the steady-state graph.
                let decoder = canon.remove(i);
                canon.insert(0, Arc::clone(&decoder));
                decoder
            }
            None => {
                let decoder: Arc<dyn Decoder> = Arc::from(factory(window_graph));
                canon.insert(0, Arc::clone(&decoder));
                decoder
            }
        }
    }

    /// Assembles the window over `[start, end)` committing below `cut`
    /// from whatever this decoder holds — the model source, the
    /// round-major index, or the full graph — counting it in
    /// [`plan_builds`](Self::plan_builds).
    fn build_parts(&self, start: u32, end: u32, cut: u32) -> Parts {
        self.plan_builds.fetch_add(1, Ordering::Relaxed);
        match (&self.source, &self.store) {
            (Some(source), _) => self.build_parts_virtual(source.as_ref(), start, end, cut),
            (
                None,
                PlanStore::Lazy {
                    dets, round_start, ..
                },
            ) => self.build_parts_lazy(dets, round_start, start, end, cut),
            (None, _) => self.build_parts_eager(start, end, cut),
        }
    }

    /// Eager window-part construction: O(detectors + edges) scans, used
    /// once per window at build time.
    fn build_parts_eager(&self, start: u32, end: u32, cut: u32) -> Parts {
        let mut globals: Vec<u32> = Vec::new();
        let mut local_vec = vec![u32::MAX; self.graph.num_nodes()];
        for (det, &round) in self.rounds_of.iter().enumerate() {
            if (start..end).contains(&round) {
                local_vec[det] = globals.len() as u32;
                globals.push(det as u32);
            }
        }
        let edges = self.graph.edges();
        let (window_graph, carries) = self.assemble_window(
            start,
            end,
            cut,
            &globals,
            &mut |det| local_vec[det as usize],
            &mut edges.iter().map(SourceEdge::from_graph_edge),
        );
        (globals, window_graph, carries)
    }

    /// Lazy window-part construction: O(window detectors · log) via the
    /// round-major detector index, independent of the stream length.
    /// Produces node and edge orderings identical to the eager path
    /// (detectors ascending; candidate edges visited in ascending edge-id
    /// order), so the resulting plans are bit-identical.
    fn build_parts_lazy(
        &self,
        dets: &[u32],
        round_start: &[u32],
        start: u32,
        end: u32,
        cut: u32,
    ) -> Parts {
        let lo = round_start[start as usize] as usize;
        let hi = round_start[end as usize] as usize;
        let mut globals: Vec<u32> = dets[lo..hi].to_vec();
        globals.sort_unstable();
        let mut edge_ids: Vec<usize> = Vec::new();
        for &det in &globals {
            edge_ids.extend_from_slice(self.graph.incident(det as usize));
        }
        edge_ids.sort_unstable();
        edge_ids.dedup();
        let edges = self.graph.edges();
        let (window_graph, carries) = self.assemble_window(
            start,
            end,
            cut,
            &globals,
            &mut |det| globals.binary_search(&det).map_or(u32::MAX, |i| i as u32),
            &mut edge_ids
                .iter()
                .map(|&id| SourceEdge::from_graph_edge(&edges[id])),
        );
        (globals, window_graph, carries)
    }

    /// Virtual window-part construction: detectors and candidate edges
    /// come from the round-indexed model source, visited in the same
    /// relative order the materialised graph stores them, so the
    /// assembled plans are bit-identical to the lazy path over the
    /// equivalent monolithic graph.
    fn build_parts_virtual(
        &self,
        source: &dyn RoundModelSource,
        start: u32,
        end: u32,
        cut: u32,
    ) -> Parts {
        let mut globals: Vec<u32> = Vec::new();
        source.detectors_in(start..end, &mut globals);
        globals.sort_unstable();
        let mut edges: Vec<SourceEdge> = Vec::new();
        source.window_edges(start..end, &mut edges);
        let (window_graph, carries) = self.assemble_window(
            start,
            end,
            cut,
            &globals,
            &mut |det| globals.binary_search(&det).map_or(u32::MAX, |i| i as u32),
            &mut edges.iter().copied(),
        );
        (globals, window_graph, carries)
    }

    /// Builds the instrumented sub-graph (and carry table) of one window
    /// from a candidate edge set — the shared core of both the eager and
    /// lazy paths.
    ///
    /// Edge placement rules (rounds `ra <= rb` of the endpoints):
    /// * `ra < start` — already committed by an earlier window: skipped;
    /// * `ra >= end` — belongs to a later window: skipped;
    /// * otherwise the edge is *committed* iff `ra < cut`. Committed edges
    ///   keep their real observables; if `rb >= cut` the edge crosses the
    ///   commit boundary and additionally sets the carry bit of endpoint
    ///   `b`. Non-committed edges are pure lookahead (observables 0).
    /// * An endpoint with `rb >= end` is not a window node: the edge
    ///   becomes a boundary edge from `a` (an open time boundary when not
    ///   committed).
    fn assemble_window(
        &self,
        start: u32,
        end: u32,
        cut: u32,
        globals: &[u32],
        local_of: &mut dyn FnMut(u32) -> u32,
        edges: &mut dyn Iterator<Item = SourceEdge>,
    ) -> (DecodingGraph, Vec<(u32, u32)>) {
        let num_observables = self.num_observables;
        let mut window_graph = DecodingGraph::new(globals.len());
        let mut carries: Vec<(u32, u32)> = Vec::new();
        let carry_bit_of = |target: u32, carries: &mut Vec<(u32, u32)>| -> u64 {
            let bit = match carries.iter().find(|&&(_, t)| t == target) {
                Some(&(bit, _)) => bit,
                None => {
                    let bit = num_observables + carries.len() as u32;
                    assert!(
                        bit < 64,
                        "window [{start}, {end}) needs more than {} carry bits",
                        64 - num_observables
                    );
                    carries.push((bit, target));
                    bit
                }
            };
            1u64 << bit
        };
        for edge in edges {
            let ra = self.round_of_det(edge.a);
            match edge.b {
                None => {
                    // Space-boundary edge: lives entirely in round `ra`.
                    if !(start..end).contains(&ra) {
                        continue;
                    }
                    let obs = if ra < cut {
                        edge.observables & self.obs_mask
                    } else {
                        0
                    };
                    window_graph.add_edge(local_of(edge.a) as usize, None, edge.probability, obs);
                }
                Some(b) => {
                    let rb = self.round_of_det(b);
                    // Order endpoints by round so `lo` is the committing side.
                    let (lo, hi, rlo, rhi) = if ra <= rb {
                        (edge.a, b, ra, rb)
                    } else {
                        (b, edge.a, rb, ra)
                    };
                    if rlo < start || rlo >= end {
                        continue;
                    }
                    let committed = rlo < cut;
                    let mut obs = 0u64;
                    if committed {
                        obs = edge.observables & self.obs_mask;
                        if rhi >= cut {
                            obs |= carry_bit_of(hi, &mut carries);
                        }
                    }
                    if rhi < end {
                        window_graph.add_edge(
                            local_of(lo) as usize,
                            Some(local_of(hi) as usize),
                            edge.probability,
                            obs,
                        );
                    } else {
                        // Partner not yet streamed: open time boundary.
                        window_graph.add_edge(local_of(lo) as usize, None, edge.probability, obs);
                    }
                }
            }
        }
        (window_graph, carries)
    }

    /// The sliding-window shape.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Number of distinct round labels (one past the largest).
    pub fn total_rounds(&self) -> u32 {
        self.total_rounds
    }

    /// Number of windows the history is decoded in.
    pub fn num_windows(&self) -> usize {
        if self.total_rounds <= self.config.window {
            1
        } else {
            1 + (self.total_rounds - self.config.window).div_ceil(self.config.commit) as usize
        }
    }

    /// Round labels of the detectors.
    pub fn rounds_of(&self) -> &[u32] {
        &self.rounds_of
    }

    /// Starts a streaming session over up to `lanes` parallel shots; feed
    /// it rounds in order via [`WindowedSession::push_round`].
    pub fn session(&self, lanes: usize) -> WindowedSession<'_> {
        WindowedSession {
            core: SessionCore::new(self, lanes),
            decoder: self,
        }
    }

    /// [`session`](Self::session) for an `Arc`-held decoder: the returned
    /// [`OwnedWindowedSession`] keeps the decoder alive itself, so it can
    /// outlive the scope (e.g. a daemon request handler) that created it
    /// and move freely across threads.
    pub fn into_session(self: Arc<Self>, lanes: usize) -> OwnedWindowedSession {
        OwnedWindowedSession {
            core: SessionCore::new(&self, lanes),
            decoder: self,
        }
    }

    /// One past the last round that is final after `windows_committed`
    /// windows: every round below it has its corrections committed.
    pub fn commit_horizon(&self, windows_committed: usize) -> u32 {
        if windows_committed >= self.num_windows() {
            self.total_rounds
        } else {
            windows_committed as u32 * self.config.commit
        }
    }
}

impl Decoder for WindowedDecoder {
    fn graph(&self) -> &DecodingGraph {
        assert!(
            !self.is_virtual(),
            "virtual windowed decoders never materialise the whole-history \
             graph; use a session instead"
        );
        &self.graph
    }

    fn decode(&self, syndrome: &[usize]) -> u64 {
        assert!(
            !self.is_virtual(),
            "virtual windowed decoders serve sessions only; whole-history \
             decode would materialise O(rounds) state"
        );
        let mut core = SessionCore::new(self, 1);
        for &d in syndrome {
            core.defects.xor(d as u32, 1); // duplicates cancel pairwise
        }
        core.mark_dirty_defects(self);
        core.filled_rounds = self.total_rounds;
        core.drain_ready(self);
        core.finish(self)[0]
    }

    fn decode_batch(&self, batch: &BitBatch, predictions: &mut Vec<u64>) {
        self.decode_batch_with(batch, predictions, &mut DecodeWorkspace::default());
    }

    /// Whole-history batch decode through the caller's arena: the
    /// transient per-call session state (`decode_batch` historically
    /// rebuilt it every time) is cached inside the workspace, so a
    /// long-lived holder re-decoding many batches reuses one core —
    /// defect words, dirty bitmap, window scratch, and the backend arena
    /// all grow to their high-water marks once.
    fn decode_batch_with(
        &self,
        batch: &BitBatch,
        predictions: &mut Vec<u64>,
        workspace: &mut DecodeWorkspace,
    ) {
        assert!(
            !self.is_virtual(),
            "virtual windowed decoders serve sessions only; whole-history \
             decode would materialise O(rounds) state"
        );
        assert_eq!(
            batch.num_bits(),
            self.graph.num_nodes(),
            "batch shape does not match the decoding graph"
        );
        let mut core = workspace
            .windowed
            .take()
            .unwrap_or_else(|| Box::new(SessionCore::new(self, batch.lanes())));
        core.reset(self, batch.lanes());
        let DefectWords::Dense(words) = &mut core.defects else {
            unreachable!("non-virtual cores keep dense defect words");
        };
        words.copy_from_slice(&batch.words()[..batch.num_bits()]);
        core.mark_dirty_defects(self);
        core.filled_rounds = self.total_rounds;
        core.drain_ready(self);
        debug_assert_eq!(core.next_plan, self.num_windows());
        predictions.clear();
        predictions.extend_from_slice(&core.observables);
        workspace.windowed = Some(core);
    }
}

/// Residual defect words, one per global detector: a dense vector for
/// materialised decoders (O(1) hot-path indexing, zero steady-state
/// allocation) or a sparse map for virtual ones (O(events) resident,
/// pruned at the commit frontier so unbounded horizons stay bounded).
#[derive(Clone, Debug)]
enum DefectWords {
    Dense(Vec<u64>),
    Sparse(BTreeMap<u32, u64>),
}

impl DefectWords {
    fn get(&self, det: u32) -> u64 {
        match self {
            DefectWords::Dense(words) => words[det as usize],
            DefectWords::Sparse(map) => map.get(&det).copied().unwrap_or(0),
        }
    }

    fn xor(&mut self, det: u32, word: u64) {
        match self {
            DefectWords::Dense(words) => words[det as usize] ^= word,
            DefectWords::Sparse(map) => {
                let slot = map.entry(det).or_insert(0);
                *slot ^= word;
                if *slot == 0 {
                    map.remove(&det);
                }
            }
        }
    }
}

/// The sticky per-round dirty record: a bitmap for materialised decoders
/// or a round set for virtual ones (O(dirty rounds) resident).
#[derive(Clone, Debug)]
enum DirtyRounds {
    Bitmap(Vec<u64>),
    Set(BTreeSet<u32>),
}

impl DirtyRounds {
    fn mark(&mut self, round: u32) {
        match self {
            DirtyRounds::Bitmap(bits) => bits[(round / 64) as usize] |= 1u64 << (round % 64),
            DirtyRounds::Set(set) => {
                set.insert(round);
            }
        }
    }

    fn clean(&self, rounds: std::ops::Range<u32>) -> bool {
        match self {
            DirtyRounds::Bitmap(bits) => rounds
                .into_iter()
                .all(|r| bits[(r / 64) as usize] & (1u64 << (r % 64)) == 0),
            DirtyRounds::Set(set) => set.range(rounds).next().is_none(),
        }
    }
}

/// The per-session state behind both session handles: residual defects,
/// fill cursor, and committed observables. Every method takes the decoder
/// explicitly so the state can be owned next to either a borrowed or an
/// `Arc`-held [`WindowedDecoder`] — or cached inside a
/// [`DecodeWorkspace`] by the whole-history
/// [`Decoder::decode_batch_with`] path.
#[derive(Clone, Debug)]
pub(crate) struct SessionCore {
    /// Current residual defects, one word per global detector.
    defects: DefectWords,
    lane_mask: u64,
    lanes: usize,
    /// Rounds `0..filled_rounds` have been pushed.
    filled_rounds: u32,
    /// First plan not yet decoded.
    next_plan: usize,
    /// Per-lane committed observable masks.
    observables: Vec<u64>,
    /// One bit per round: set once the round has ever held a nonzero
    /// defect word in any lane (pushed or carried). Sticky and
    /// conservative — a clear bit *proves* the round is defect-free, so a
    /// sparse decoder may fast-forward a ready window whose rounds are
    /// all clear (empty matching, zero flips) without touching the
    /// backend.
    dirty: DirtyRounds,
    /// Scratch for the inner `decode_batch_with` calls.
    predictions: Vec<u64>,
    /// Reusable window sub-batch (reshaped per window, allocated once).
    window_batch: BitBatch,
    /// The session's decode arena, threaded into every backend call; one
    /// slab per session, reused across windows and epochs.
    workspace: DecodeWorkspace,
    /// Template plans this session has used, keyed by canonical start
    /// (at most [`SESSION_TEMPLATES`], oldest dropped first): steady-state
    /// windows resolve here without touching the shared plan store.
    templates: Vec<(u32, Arc<WindowPlan>)>,
    /// Windows decoded through the backend.
    windows_decoded: u64,
    /// Windows committed without the backend because they were clean.
    windows_fast_forwarded: u64,
}

impl SessionCore {
    fn new(decoder: &WindowedDecoder, lanes: usize) -> Self {
        assert!(
            (1..=BitBatch::LANES).contains(&lanes),
            "lanes {lanes} out of range 1..={}",
            BitBatch::LANES
        );
        let (defects, dirty) = if decoder.is_virtual() {
            (
                DefectWords::Sparse(BTreeMap::new()),
                DirtyRounds::Set(BTreeSet::new()),
            )
        } else {
            (
                DefectWords::Dense(vec![0u64; decoder.graph.num_nodes()]),
                DirtyRounds::Bitmap(vec![0u64; (decoder.total_rounds as usize).div_ceil(64)]),
            )
        };
        SessionCore {
            defects,
            lane_mask: BitBatch::mask_for(lanes),
            lanes,
            filled_rounds: 0,
            next_plan: 0,
            observables: vec![0u64; lanes],
            dirty,
            predictions: Vec::new(),
            window_batch: BitBatch::with_lanes(0, lanes),
            workspace: DecodeWorkspace::default(),
            templates: Vec::new(),
            windows_decoded: 0,
            windows_fast_forwarded: 0,
        }
    }

    /// Returns a (possibly recycled) core to the fresh-session state for
    /// `decoder` and `lanes`, keeping every backing allocation. The core
    /// may previously have served a *different* decoder — all
    /// shape-dependent vectors are resized here.
    fn reset(&mut self, decoder: &WindowedDecoder, lanes: usize) {
        assert!(
            (1..=BitBatch::LANES).contains(&lanes),
            "lanes {lanes} out of range 1..={}",
            BitBatch::LANES
        );
        match (&mut self.defects, decoder.is_virtual()) {
            (DefectWords::Dense(words), false) => {
                words.clear();
                words.resize(decoder.graph.num_nodes(), 0);
            }
            (DefectWords::Sparse(map), true) => map.clear(),
            (defects, virt) => {
                *defects = if virt {
                    DefectWords::Sparse(BTreeMap::new())
                } else {
                    DefectWords::Dense(vec![0u64; decoder.graph.num_nodes()])
                };
            }
        }
        self.lane_mask = BitBatch::mask_for(lanes);
        self.lanes = lanes;
        self.filled_rounds = 0;
        self.next_plan = 0;
        self.observables.clear();
        self.observables.resize(lanes, 0);
        match (&mut self.dirty, decoder.is_virtual()) {
            (DirtyRounds::Bitmap(bits), false) => {
                bits.clear();
                bits.resize((decoder.total_rounds as usize).div_ceil(64), 0);
            }
            (DirtyRounds::Set(set), true) => set.clear(),
            (dirty, virt) => {
                *dirty = if virt {
                    DirtyRounds::Set(BTreeSet::new())
                } else {
                    DirtyRounds::Bitmap(vec![0u64; (decoder.total_rounds as usize).div_ceil(64)])
                };
            }
        }
        // Rows are empty after the reshape, so the lane change never
        // truncates live data.
        self.window_batch.reset_rows(0);
        self.window_batch.set_lanes(lanes);
        // Templates belong to the decoder the core last served.
        self.templates.clear();
        self.windows_decoded = 0;
        self.windows_fast_forwarded = 0;
        // `predictions` and `workspace` are pure scratch: reused as-is.
    }

    fn mark_dirty(&mut self, round: u32) {
        self.dirty.mark(round);
    }

    /// Marks the round of every currently nonzero defect word dirty —
    /// used by the whole-history [`Decoder`] entry points, which fill
    /// `defects` directly instead of round by round.
    fn mark_dirty_defects(&mut self, decoder: &WindowedDecoder) {
        let DefectWords::Dense(words) = &self.defects else {
            unreachable!("whole-history decoding is rejected for virtual decoders");
        };
        let mut dirty_rounds: Vec<u32> = Vec::new();
        for (det, &word) in words.iter().enumerate() {
            if word != 0 {
                dirty_rounds.push(decoder.rounds_of[det]);
            }
        }
        for round in dirty_rounds {
            self.dirty.mark(round);
        }
    }

    fn window_is_clean(&self, start: u32, end: u32) -> bool {
        self.dirty.clean(start..end)
    }

    fn push_round(
        &mut self,
        decoder: &WindowedDecoder,
        round: u32,
        detectors: &[u32],
        words: &[u64],
    ) {
        assert_eq!(round, self.filled_rounds, "rounds must be pushed in order");
        assert_eq!(detectors.len(), words.len(), "one word per detector");
        for (&det, &word) in detectors.iter().zip(words) {
            assert_eq!(
                decoder.round_of_det(det),
                round,
                "detector {det} does not belong to round {round}"
            );
            let masked = word & self.lane_mask;
            if masked != 0 {
                self.mark_dirty(round);
            }
            self.defects.xor(det, masked);
        }
        self.filled_rounds = round + 1;
        self.drain_ready(decoder);
    }

    /// Feeds `rounds` defect-free rounds in one step (the bulk twin of
    /// pushing that many empty rounds) and decodes every window that
    /// becomes ready. With a sparse decoder, ready windows whose rounds
    /// never saw a defect (including carries) commit without invoking the
    /// backend, so skipping a long silent stretch costs O(windows), not
    /// O(rounds · backend).
    fn advance_silent(&mut self, decoder: &WindowedDecoder, rounds: u32) {
        let target = self
            .filled_rounds
            .checked_add(rounds)
            .expect("advance_silent round overflow");
        assert!(
            target <= decoder.total_rounds,
            "advance_silent past the stream end: {} + {rounds} > {}",
            self.filled_rounds,
            decoder.total_rounds
        );
        self.filled_rounds = target;
        self.drain_ready(decoder);
    }

    /// Decodes every plan whose window is fully streamed. Sparse decoders
    /// skip windows proven clean by the dirty bitmap — exact, because an
    /// all-zero window batch decodes to an empty matching with zero
    /// observable flips and no carries. Steady-state virtual windows
    /// decode as translates of a template plan.
    fn drain_ready(&mut self, decoder: &WindowedDecoder) {
        let sparse = decoder.is_sparse();
        let committed_from = self.next_plan;
        while self.next_plan < decoder.num_windows() {
            let (start, end, cut) = decoder.window_bounds(self.next_plan);
            if end > self.filled_rounds {
                break;
            }
            if sparse && self.window_is_clean(start, end) {
                self.windows_fast_forwarded += 1;
                self.next_plan += 1;
                continue;
            }
            match decoder.translation(start, end, cut) {
                Some(t) => {
                    let plan = self.template(decoder, t);
                    self.decode_plan(decoder, &plan, t.reps);
                }
                None => {
                    let plan = decoder.plan(self.next_plan);
                    self.decode_plan(decoder, &plan, 0);
                }
            }
            self.windows_decoded += 1;
            self.next_plan += 1;
        }
        if sparse && self.next_plan > committed_from {
            decoder.evict_plans_below(self.next_plan);
            self.prune_committed(decoder);
        }
    }

    /// Drops sparse session state below the commit frontier: committed
    /// windows never re-read their defects or dirty marks (carry targets
    /// always land at or above the next window's start), so a virtual
    /// session stays O(in-flight windows + events) resident on unbounded
    /// streams. No-op for dense state.
    fn prune_committed(&mut self, decoder: &WindowedDecoder) {
        let Some(source) = &decoder.source else {
            return;
        };
        let frontier = decoder.commit_horizon(self.next_plan);
        if let DefectWords::Sparse(map) = &mut self.defects {
            map.retain(|&det, _| source.detector_round(det) >= frontier);
        }
        if let DirtyRounds::Set(set) = &mut self.dirty {
            *set = set.split_off(&frontier);
        }
    }

    /// The template plan for translation `t`, from the session's own
    /// cache when it has used it before (no lock), else from the decoder.
    fn template(&mut self, decoder: &WindowedDecoder, t: WindowTranslation) -> Arc<WindowPlan> {
        if let Some((_, plan)) = self.templates.iter().find(|e| e.0 == t.canonical_start) {
            return Arc::clone(plan);
        }
        let plan = decoder.template(t);
        if self.templates.len() == SESSION_TEMPLATES {
            self.templates.remove(0);
        }
        self.templates.push((t.canonical_start, Arc::clone(&plan)));
        plan
    }

    /// Decodes window `plan`, translated `shift` template periods on (0
    /// for directly assembled plans), against the global per-detector
    /// defect words (lane `b` = shot `b`), XOR-ing each lane's committed
    /// observables into `observables` and applying carry flips back into
    /// `defects`.
    /// `window_batch` is session-owned scratch (reshaped here), reused
    /// across the whole stream; the backend call goes through
    /// [`Decoder::decode_batch_with`] with the session's single
    /// [`DecodeWorkspace`], so every buffer — lane extraction, Dijkstra
    /// state, blossom tables, peeling forest — persists across windows and
    /// epochs and the steady-state decode performs zero heap allocations.
    fn decode_plan(&mut self, decoder: &WindowedDecoder, plan: &WindowPlan, shift: u32) {
        if plan.globals.is_empty() {
            return;
        }
        self.window_batch.reset_rows(plan.globals.len());
        for local in 0..plan.globals.len() {
            let word = self.defects.get(plan.global(local, shift));
            self.window_batch.set_word(local, word);
        }
        plan.decoder.decode_batch_with(
            &self.window_batch,
            &mut self.predictions,
            &mut self.workspace,
        );
        for (lane, &prediction) in self.predictions.iter().enumerate() {
            self.observables[lane] ^= prediction & decoder.obs_mask;
            if prediction & !decoder.obs_mask != 0 {
                for (j, &(bit, _)) in plan.carries.iter().enumerate() {
                    if (prediction >> bit) & 1 == 1 {
                        let target = plan.carry_target(j, shift);
                        self.defects.xor(target, 1u64 << lane);
                        // A carry re-dirties its target round, which may
                        // sit arbitrarily far ahead (open-boundary commits
                        // carry into not-yet-streamed rounds).
                        self.dirty.mark(decoder.round_of_det(target));
                    }
                }
            }
        }
    }

    fn finish(self, decoder: &WindowedDecoder) -> Vec<u64> {
        assert_eq!(
            self.filled_rounds, decoder.total_rounds,
            "stream ended early: {} of {} rounds pushed",
            self.filled_rounds, decoder.total_rounds
        );
        debug_assert_eq!(self.next_plan, decoder.num_windows());
        self.observables
    }
}

/// An in-flight streaming decode over up to 64 parallel shots.
///
/// Rounds are pushed in order; as soon as all rounds of the next window
/// have arrived, the window is decoded and its commit region is final —
/// the *commit latency* is one window of rounds, not the whole experiment.
///
/// This handle borrows its decoder; [`WindowedDecoder::into_session`]
/// returns the [`OwnedWindowedSession`] twin for sessions that must own
/// their decoder (long-lived server sessions).
pub struct WindowedSession<'a> {
    decoder: &'a WindowedDecoder,
    core: SessionCore,
}

impl WindowedSession<'_> {
    /// Number of parallel shot lanes.
    pub fn lanes(&self) -> usize {
        self.core.lanes
    }

    /// Number of windows already committed.
    pub fn windows_committed(&self) -> usize {
        self.core.next_plan
    }

    /// Committed windows decoded through the backend.
    pub fn windows_decoded(&self) -> u64 {
        self.core.windows_decoded
    }

    /// Committed windows fast-forwarded without the backend because no
    /// defect reached them; `windows_decoded() + windows_fast_forwarded()`
    /// equals [`windows_committed`](Self::windows_committed).
    pub fn windows_fast_forwarded(&self) -> u64 {
        self.core.windows_fast_forwarded
    }

    /// Per-lane committed observable masks accumulated so far.
    pub fn observables(&self) -> &[u64] {
        &self.core.observables
    }

    /// Feeds the detector words of `round` (`detectors[i]`'s word is
    /// `words[i]`; lane `b` = shot `b`) and decodes every window whose
    /// rounds are now complete.
    ///
    /// # Panics
    ///
    /// Panics if rounds arrive out of order or a detector does not belong
    /// to `round`.
    pub fn push_round(&mut self, round: u32, detectors: &[u32], words: &[u64]) {
        self.core.push_round(self.decoder, round, detectors, words);
    }

    /// Feeds `rounds` defect-free rounds in one step — equivalent to that
    /// many empty [`push_round`](Self::push_round) calls, but with a
    /// sparse decoder the windows that become ready and are proven clean
    /// commit without invoking the backend.
    ///
    /// # Panics
    ///
    /// Panics if the advance runs past the end of the stream.
    pub fn advance_silent(&mut self, rounds: u32) {
        self.core.advance_silent(self.decoder, rounds);
    }

    /// Completes the stream and returns the per-lane predicted
    /// observable-flip masks.
    ///
    /// # Panics
    ///
    /// Panics if not all rounds have been pushed.
    pub fn finish(self) -> Vec<u64> {
        self.core.finish(self.decoder)
    }
}

/// The owning twin of [`WindowedSession`]: holds its decoder through an
/// [`Arc`], so the session can outlive the scope that created it and be
/// sent across threads — the shape a decode server needs, where one
/// request handler opens a session and later ones keep feeding it.
pub struct OwnedWindowedSession {
    decoder: Arc<WindowedDecoder>,
    core: SessionCore,
}

impl OwnedWindowedSession {
    /// Number of parallel shot lanes.
    pub fn lanes(&self) -> usize {
        self.core.lanes
    }

    /// Number of windows already committed.
    pub fn windows_committed(&self) -> usize {
        self.core.next_plan
    }

    /// Committed windows decoded through the backend.
    pub fn windows_decoded(&self) -> u64 {
        self.core.windows_decoded
    }

    /// Committed windows fast-forwarded without the backend because no
    /// defect reached them; `windows_decoded() + windows_fast_forwarded()`
    /// equals [`windows_committed`](Self::windows_committed).
    pub fn windows_fast_forwarded(&self) -> u64 {
        self.core.windows_fast_forwarded
    }

    /// Rounds `0..filled_rounds()` have been pushed.
    pub fn filled_rounds(&self) -> u32 {
        self.core.filled_rounds
    }

    /// Per-lane committed observable masks accumulated so far.
    pub fn observables(&self) -> &[u64] {
        &self.core.observables
    }

    /// The shared decoder this session feeds.
    pub fn decoder(&self) -> &Arc<WindowedDecoder> {
        &self.decoder
    }

    /// Window-plan assemblies of the shared decoder (see
    /// [`WindowedDecoder::plan_builds`]).
    pub fn plan_builds(&self) -> u64 {
        self.decoder.plan_builds()
    }

    /// See [`WindowedSession::push_round`].
    pub fn push_round(&mut self, round: u32, detectors: &[u32], words: &[u64]) {
        self.core.push_round(&self.decoder, round, detectors, words);
    }

    /// See [`WindowedSession::advance_silent`].
    pub fn advance_silent(&mut self, rounds: u32) {
        self.core.advance_silent(&self.decoder, rounds);
    }

    /// See [`WindowedSession::finish`].
    pub fn finish(self) -> Vec<u64> {
        self.core.finish(&self.decoder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MwpmDecoder;

    fn mwpm_factory() -> DecoderFactory {
        Box::new(|g| Box::new(MwpmDecoder::new(g)))
    }

    /// A time strip: one detector per round, measurement-error edges
    /// between consecutive rounds, time boundaries at both ends, the
    /// observable on the initial boundary edge. Interior edges are
    /// strictly cheaper than boundary edges so matchings are unique.
    fn time_strip(rounds: usize) -> (DecodingGraph, Vec<u32>) {
        let mut g = DecodingGraph::new(rounds);
        g.add_edge(0, None, 1e-2, 1);
        for t in 0..rounds - 1 {
            g.add_edge(t, Some(t + 1), 5e-2, 0);
        }
        g.add_edge(rounds - 1, None, 1e-2, 0);
        (g, (0..rounds as u32).collect())
    }

    fn windowed(rounds: usize, config: WindowConfig) -> WindowedDecoder {
        let (g, r) = time_strip(rounds);
        WindowedDecoder::new(g, r, 1, config, mwpm_factory())
    }

    fn windowed_sparse(rounds: usize, config: WindowConfig) -> WindowedDecoder {
        let (g, r) = time_strip(rounds);
        WindowedDecoder::sparse(g, r, 1, config, mwpm_factory())
    }

    #[test]
    fn full_window_is_one_plan() {
        let d = windowed(6, WindowConfig::new(6));
        assert_eq!(d.num_windows(), 1);
        assert_eq!(d.total_rounds(), 6);
        let full = MwpmDecoder::new(time_strip(6).0);
        for s in [vec![], vec![0], vec![2, 3], vec![0, 5], vec![1, 2, 4]] {
            assert_eq!(d.decode(&s), full.decode(&s), "syndrome {s:?}");
        }
    }

    #[test]
    fn window_count_follows_commit_step() {
        // 8 rounds, window 4, commit 2: windows [0,4) [2,6) [4,8).
        let d = windowed(8, WindowConfig::new(4));
        assert_eq!(d.num_windows(), 3);
        // Greedy single-round windows: one per round.
        assert_eq!(windowed(8, WindowConfig::new(1)).num_windows(), 8);
    }

    #[test]
    fn window_bounds_match_the_eager_sweep() {
        // The closed-form window arithmetic must reproduce the original
        // eager loop (start += commit until the window reaches the end)
        // for every shape, including commit == window and window > total.
        for total in [1u32, 2, 5, 8, 9, 16] {
            for window in 1..=total + 2 {
                for commit in 1..=window {
                    let d = windowed(total as usize, WindowConfig { window, commit });
                    let mut expected = Vec::new();
                    let mut start = 0u32;
                    loop {
                        let end = (start + window).min(total);
                        let last = end == total;
                        let cut = if last { u32::MAX } else { start + commit };
                        expected.push((start, end, cut));
                        if last {
                            break;
                        }
                        start += commit;
                    }
                    assert_eq!(
                        d.num_windows(),
                        expected.len(),
                        "t={total} w={window} c={commit}"
                    );
                    for (i, &want) in expected.iter().enumerate() {
                        assert_eq!(
                            d.window_bounds(i),
                            want,
                            "t={total} w={window} c={commit} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cross_cut_pair_is_carried_and_cancelled() {
        // A measurement-error pair split across every possible cut must
        // still decode to "no logical flip", even at w = 1 (the pair edge
        // is cheaper than any boundary, so every window commits it and
        // carries the residual defect into the partner's round).
        for w in 1..=6u32 {
            let d = windowed(6, WindowConfig::new(w));
            for t in 0..5 {
                assert_eq!(d.decode(&[t, t + 1]), 0, "pair at {t}, window {w}");
            }
        }
        // Lone boundary defects need at least one round of lookahead to
        // tell "my partner is in the future" from "I came from the
        // boundary"; from w = 2 on they match the full decode.
        for w in 2..=6u32 {
            let d = windowed(6, WindowConfig::new(w));
            assert_eq!(d.decode(&[0]), 1, "window {w}");
            assert_eq!(d.decode(&[5]), 0, "window {w}");
        }
    }

    #[test]
    fn greedy_single_round_windows_chain_forward() {
        // The documented w = 1 degeneracy: with no lookahead a lone
        // defect prefers the cheap cross-cut edge and the chain walks to
        // the far time boundary — a *valid* correction (every defect is
        // explained) that differs from the full decode's left-boundary
        // match. This pins the greedy semantics.
        let d = windowed(6, WindowConfig::new(1));
        assert_eq!(d.decode(&[0]), 0);
        assert_eq!(d.decode(&[5]), 0);
    }

    #[test]
    fn duplicates_cancel_pairwise() {
        let d = windowed(5, WindowConfig::new(2));
        assert_eq!(d.decode(&[3, 3]), 0);
        assert_eq!(d.decode(&[0, 2, 0]), d.decode(&[2]));
    }

    #[test]
    fn batch_matches_scalar() {
        let d = windowed(7, WindowConfig::new(3));
        let syndromes = [vec![], vec![0], vec![1, 2], vec![0, 6], vec![2, 3, 5]];
        let mut batch = BitBatch::with_lanes(7, syndromes.len());
        for (lane, s) in syndromes.iter().enumerate() {
            for &det in s {
                batch.set(det, lane, true);
            }
        }
        let mut predictions = Vec::new();
        d.decode_batch(&batch, &mut predictions);
        for (lane, s) in syndromes.iter().enumerate() {
            assert_eq!(predictions[lane], d.decode(s), "lane {lane}: {s:?}");
        }
    }

    #[test]
    fn session_streams_round_by_round() {
        let d = windowed(6, WindowConfig::new(4));
        let mut session = d.session(2);
        // Lane 0: pair {1, 2}; lane 1: initial-boundary defect {0}.
        let per_round: [&[(u32, u64)]; 6] =
            [&[(0, 0b10)], &[(1, 0b01)], &[(2, 0b01)], &[], &[], &[]];
        for (round, entries) in per_round.iter().enumerate() {
            let detectors: Vec<u32> = entries.iter().map(|&(d, _)| d).collect();
            let words: Vec<u64> = entries.iter().map(|&(_, w)| w).collect();
            session.push_round(round as u32, &detectors, &words);
        }
        assert_eq!(session.windows_committed(), d.num_windows());
        assert_eq!(session.finish(), vec![0, 1]);
    }

    #[test]
    fn early_windows_commit_before_stream_ends() {
        let d = windowed(9, WindowConfig::new(3));
        let mut session = d.session(1);
        session.push_round(0, &[0], &[1]);
        session.push_round(1, &[1], &[1]);
        assert_eq!(session.windows_committed(), 0);
        session.push_round(2, &[2], &[0]);
        // Window [0, 3) is complete: its commit region is final.
        assert_eq!(session.windows_committed(), 1);
    }

    #[test]
    #[should_panic(expected = "pushed in order")]
    fn out_of_order_round_panics() {
        let d = windowed(4, WindowConfig::new(2));
        d.session(1).push_round(1, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "stream ended early")]
    fn early_finish_panics() {
        let d = windowed(4, WindowConfig::new(2));
        let mut session = d.session(1);
        session.push_round(0, &[0], &[0]);
        session.finish();
    }

    #[test]
    fn from_epochs_splices_to_the_monolithic_graph() {
        // Split the 6-round time strip at round 3: the cross-boundary
        // measurement edge (2–3) lives in the late piece and references
        // the early detector through the remap table. Decodes must match
        // the monolithic construction bit for bit.
        let (full, rounds) = time_strip(6);
        let mut early = DecodingGraph::new(3);
        early.add_edge(0, None, 1e-2, 1);
        early.add_edge(0, Some(1), 5e-2, 0);
        early.add_edge(1, Some(2), 5e-2, 0);
        // Late piece: local 0 = global 2 (the early-side endpoint of the
        // boundary edge), locals 1..=3 = globals 3..=5.
        let mut late = DecodingGraph::new(4);
        late.add_edge(0, Some(1), 5e-2, 0);
        late.add_edge(1, Some(2), 5e-2, 0);
        late.add_edge(2, Some(3), 5e-2, 0);
        late.add_edge(3, None, 1e-2, 0);
        let epochs = [
            GraphEpoch {
                graph: early,
                rounds_of: vec![0, 1, 2],
                global_of: vec![0, 1, 2],
            },
            GraphEpoch {
                graph: late,
                rounds_of: vec![2, 3, 4, 5],
                global_of: vec![2, 3, 4, 5],
            },
        ];
        for window in [1u32, 2, 3, 6] {
            let spliced = WindowedDecoder::from_epochs(
                6,
                &epochs,
                1,
                WindowConfig::new(window),
                mwpm_factory(),
            );
            let mono = WindowedDecoder::new(
                full.clone(),
                rounds.clone(),
                1,
                WindowConfig::new(window),
                mwpm_factory(),
            );
            for s in [vec![], vec![0], vec![2, 3], vec![0, 5], vec![1, 4]] {
                assert_eq!(spliced.decode(&s), mono.decode(&s), "w={window} {s:?}");
            }
        }
    }

    #[test]
    fn from_epochs_carries_across_the_boundary() {
        // A measurement-error pair straddling the epoch boundary must be
        // matched through the cross-epoch edge and carried across commit
        // cuts: no logical flip at any window size.
        let mut early = DecodingGraph::new(2);
        early.add_edge(0, None, 1e-2, 1);
        early.add_edge(0, Some(1), 5e-2, 0);
        let mut late = DecodingGraph::new(3);
        late.add_edge(0, Some(1), 5e-2, 0);
        late.add_edge(1, Some(2), 5e-2, 0);
        late.add_edge(2, None, 1e-2, 0);
        let epochs = [
            GraphEpoch {
                graph: early,
                rounds_of: vec![0, 1],
                global_of: vec![0, 1],
            },
            GraphEpoch {
                graph: late,
                rounds_of: vec![1, 2, 3],
                global_of: vec![1, 2, 3],
            },
        ];
        for window in 1..=4u32 {
            let d = WindowedDecoder::from_epochs(
                4,
                &epochs,
                1,
                WindowConfig::new(window),
                mwpm_factory(),
            );
            assert_eq!(d.decode(&[1, 2]), 0, "boundary pair, window {window}");
            assert_eq!(d.decode(&[2, 3]), 0, "late pair, window {window}");
        }
    }

    #[test]
    #[should_panic(expected = "relabelled")]
    fn from_epochs_rejects_inconsistent_round_labels() {
        let mut g = DecodingGraph::new(1);
        g.add_edge(0, None, 1e-2, 0);
        let epochs = [
            GraphEpoch {
                graph: g.clone(),
                rounds_of: vec![0],
                global_of: vec![0],
            },
            GraphEpoch {
                graph: g,
                rounds_of: vec![1],
                global_of: vec![0],
            },
        ];
        WindowedDecoder::from_epochs(1, &epochs, 1, WindowConfig::new(1), mwpm_factory());
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn commit_above_window_panics() {
        WindowConfig::new(2).with_commit(3);
    }

    #[test]
    fn owned_session_matches_borrowed_and_outlives_its_scope() {
        let rounds = 8usize;
        let decoder = Arc::new(windowed(rounds, WindowConfig::new(4)));
        // Lane 0 carries the syndrome {1, 2}; lane 1 the syndrome {0}.
        let word_of = |t: usize| -> u64 {
            let mut w = 0u64;
            if t == 1 || t == 2 {
                w |= 1;
            }
            if t == 0 {
                w |= 2;
            }
            w
        };

        let mut owned = {
            // The borrowing `session()` could not escape this block; the
            // owned one can, and keeps the decoder alive through its Arc.
            let handle = Arc::clone(&decoder);
            handle.into_session(2)
        };
        let mut borrowed = decoder.session(2);
        for t in 0..rounds {
            let (det, words) = ([t as u32], [word_of(t)]);
            owned.push_round(t as u32, &det, &words);
            borrowed.push_round(t as u32, &det, &words);
            assert_eq!(owned.windows_committed(), borrowed.windows_committed());
            assert_eq!(owned.observables(), borrowed.observables());
        }
        assert_eq!(owned.filled_rounds(), rounds as u32);

        // Owned sessions are Send: finish on another thread.
        let expect = borrowed.finish();
        let got = std::thread::spawn(move || owned.finish()).join().unwrap();
        assert_eq!(got, expect);
        assert_eq!(got, vec![0, decoder.decode(&[0])]);
    }

    #[test]
    fn commit_horizon_tracks_committed_windows() {
        // 8 rounds, window 4, commit 2: windows end at rounds 4, 6, 8 but
        // each *commits* only its first 2 rounds (the last commits to the
        // end of time).
        let d = windowed(8, WindowConfig::new(4));
        assert_eq!(d.commit_horizon(0), 0);
        assert_eq!(d.commit_horizon(1), 2);
        assert_eq!(d.commit_horizon(2), 4);
        assert_eq!(d.commit_horizon(3), 8);
        assert_eq!(d.commit_horizon(99), 8);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn struct_literal_config_is_revalidated() {
        // Public fields can bypass the WindowConfig constructors; the
        // decoder must still refuse a commit step of zero (it would loop
        // forever) or one beyond the window (it would skip rounds).
        let (g, r) = time_strip(4);
        WindowedDecoder::new(
            g,
            r,
            1,
            WindowConfig {
                window: 2,
                commit: 0,
            },
            mwpm_factory(),
        );
    }

    #[test]
    fn sparse_decodes_bit_identically_to_eager() {
        // The lazy window-plan path must reproduce the eager decoder's
        // node order, edge order, and instrumentation exactly — decode
        // results agree bit for bit across window shapes and syndromes.
        for rounds in [5usize, 8, 12] {
            for window in 1..=6u32 {
                let eager = windowed(rounds, WindowConfig::new(window));
                let sparse = windowed_sparse(rounds, WindowConfig::new(window));
                assert!(sparse.is_sparse() && !eager.is_sparse());
                let last = rounds - 1;
                for s in [
                    vec![],
                    vec![0],
                    vec![last],
                    vec![1, 2],
                    vec![0, last],
                    vec![2, 3, last - 1],
                ] {
                    assert_eq!(
                        sparse.decode(&s),
                        eager.decode(&s),
                        "rounds={rounds} w={window} {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn structurally_identical_windows_share_one_backend() {
        // A long uniform time strip has three distinct window shapes: the
        // first (initial boundary + observable), the steady-state
        // interior, and the final (cut = MAX, end boundary). 14 windows
        // must compile far fewer backends than the eager path's
        // one-per-window.
        let d = windowed_sparse(30, WindowConfig::new(4));
        assert_eq!(d.num_windows(), 14);
        assert_eq!(d.compiled_backends(), 0, "plans are lazy");
        // Touch every window via a full-history decode.
        assert_eq!(d.decode(&[7, 8]), 0);
        assert!(
            d.compiled_backends() <= 4,
            "expected ≤ 4 distinct window graphs, got {}",
            d.compiled_backends()
        );
        // The eager twin really pays one backend per window.
        assert_eq!(windowed(30, WindowConfig::new(4)).compiled_backends(), 14);
    }

    #[test]
    fn advance_silent_matches_empty_pushes() {
        let rounds = 20usize;
        for sparse in [false, true] {
            let cfg = WindowConfig::new(4);
            let d = if sparse {
                windowed_sparse(rounds, cfg)
            } else {
                windowed(rounds, cfg)
            };
            let mut bulk = d.session(2);
            let mut dense = d.session(2);
            // A defect pair mid-stream, silence elsewhere.
            for t in 0..rounds as u32 {
                let word = if t == 9 || t == 10 { 0b01 } else { 0 };
                dense.push_round(t, &[t], &[word]);
            }
            bulk.advance_silent(9);
            bulk.push_round(9, &[9], &[0b01]);
            bulk.push_round(10, &[10], &[0b01]);
            bulk.advance_silent(rounds as u32 - 11);
            assert_eq!(bulk.windows_committed(), dense.windows_committed());
            assert_eq!(bulk.finish(), dense.finish(), "sparse={sparse}");
        }
    }

    #[test]
    fn fast_forward_skips_clean_windows_exactly() {
        // Defects confined to one window of a long stream: the sparse
        // session must decode only the windows overlapping the event (and
        // any carries) yet agree with the eager decode bit for bit.
        let rounds = 40usize;
        let eager = windowed(rounds, WindowConfig::new(4));
        let sparse = windowed_sparse(rounds, WindowConfig::new(4));
        for pair_at in [0u32, 13, 21, 38] {
            let s = vec![pair_at as usize, pair_at as usize + 1];
            assert_eq!(sparse.decode(&s), eager.decode(&s), "pair at {pair_at}");
        }
        // Only the windows near the last touched rounds compiled a plan.
        assert!(sparse.compiled_backends() <= 4);
    }

    #[test]
    fn carry_propagates_across_a_skipped_stretch() {
        // A cross-cut pair right after a long silent stretch: the carry
        // produced by the committing window re-dirties the partner round,
        // so fast-forwarding must not skip the follow-up window that
        // consumes the carry.
        let rounds = 32usize;
        let d = windowed_sparse(rounds, WindowConfig::new(2).with_commit(1));
        let mut session = d.session(1);
        session.advance_silent(20);
        // Pair split exactly across the commit cut of window [20, 22).
        session.push_round(20, &[20], &[1]);
        session.push_round(21, &[21], &[1]);
        session.advance_silent(rounds as u32 - 22);
        assert_eq!(
            session.finish(),
            vec![0],
            "pair must cancel through the carry"
        );
        // Same but the defect-free twin: everything skips, no flip.
        let mut quiet = d.session(1);
        quiet.advance_silent(rounds as u32);
        assert_eq!(quiet.windows_committed(), d.num_windows());
        assert_eq!(quiet.finish(), vec![0]);
    }

    #[test]
    fn committed_plans_are_evicted_on_long_sparse_streams() {
        // A 10⁵-round sparse stream with a defect pair every ~1000 rounds
        // resolves a handful of plans per event; once the session's commit
        // frontier passes a window its plan is evicted, so the resolved
        // table must stay O(in-flight windows), never O(windows).
        let rounds = 100_000u32;
        let d = windowed_sparse(rounds as usize, WindowConfig::new(4));
        let mut session = d.session(1);
        let mut max_live = 0usize;
        let mut t = 0u32;
        let mut next_event = 500u32;
        while t < rounds {
            if t == next_event && t + 1 < rounds {
                session.push_round(t, &[t], &[1]);
                session.push_round(t + 1, &[t + 1], &[1]);
                t += 2;
                next_event += 1009;
            } else {
                let stop = if next_event > t && next_event < rounds {
                    next_event
                } else {
                    rounds
                };
                session.advance_silent(stop - t);
                t = stop;
            }
            max_live = max_live.max(d.live_plans());
        }
        assert!(max_live <= 8, "resolved-plan table grew to {max_live}");
        // The events did force plan resolution (canonical backends exist,
        // and structural sharing is untouched by eviction) ...
        assert!((1..=4).contains(&d.compiled_backends()));
        // ... yet every committed plan has been dropped again.
        assert_eq!(d.live_plans(), 0, "committed plans must be evicted");
        assert_eq!(session.finish(), vec![0], "each pair cancels locally");
    }

    #[test]
    #[should_panic(expected = "past the stream end")]
    fn advance_silent_past_the_end_panics() {
        let d = windowed(4, WindowConfig::new(2));
        d.session(1).advance_silent(5);
    }
}
