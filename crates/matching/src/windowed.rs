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
//! The backend reports the correction it found
//! ([`Decoder::decode_correction`]): in each window sub-graph, committed
//! edges keep their real observables and non-committed edges are zeroed,
//! so the returned mask is the committed observable parity; and every
//! committed edge that crosses the commit cut records the detector its
//! residual defect is carried to, so the correction's crossing edges give
//! the carry set. The number of carries per window is unbounded, so any
//! code distance streams.
//!
//! With the window at least `2·d` rounds (commit `d`, lookahead `d`) the
//! committed corrections coincide with a full-history decode by the
//! inner decoder — `crates/sim/tests/streaming_equivalence.rs` checks the
//! logical outcome bit-identical — while `w = rounds` reduces exactly to
//! the inner decoder and `w = 1` degenerates to greedy round-by-round
//! commitment.
//!
//! # Plans, sharing and fast-forward
//!
//! Each window decodes through a *plan*: its detectors in global ids, an
//! inner backend over its sub-graph, and its carry table. Every decoder
//! keeps its plans in one table, keyed by window index and never evicted:
//!
//! * **Backends.** The plan table does not own backend sharing: a plan
//!   asks its [`DecoderFactory`] for the backend of its sub-graph, and the
//!   process-wide registry behind it hands out one backend per (factory
//!   identity, window graph). Identical windows (the steady state between
//!   geometry epochs — almost all of a long stream) share it, and so do
//!   other decoders, sessions and recompiles over the same graph while
//!   any of them is live, so a 10⁵-round stream compiles a handful of
//!   backends and a second session of one spec compiles none.
//! * **Resolution.** A decoder over a materialised graph resolves every
//!   window at construction from a round-major detector index: O(rounds)
//!   like the model build it follows, and session pushes never assemble
//!   (or allocate) a plan. A virtual decoder (below) resolves a window on
//!   first touch instead, and only when the source cannot serve it by
//!   translation.
//! * **Fast-forward.** Sessions track which rounds have ever seen a
//!   nonzero defect word (including carry targets). A ready window whose
//!   rounds are all clean must decode to an empty matching with zero
//!   observable flips, so it is committed without touching the backend —
//!   the skip is *exact*, not approximate, so every session takes it.
//! * **Bulk advance.** [`WindowedSession::advance_silent`] feeds `n`
//!   defect-free rounds in one call, letting event-driven samplers jump
//!   from event to event in O(windows touched) instead of O(rounds).
//!
//! # Virtual mode
//!
//! [`WindowedDecoder::virtual_source`] serves unbounded horizons: instead
//! of a pre-materialised graph + round table (O(rounds) memory before the
//! first shot), the decoder holds a [`RoundModelSource`] and builds each
//! window's detectors and candidate edges on demand. Sessions keep their
//! defect and dirty state in sparse maps pruned at the commit frontier,
//! so a virtual session's resident memory is O(in-flight windows +
//! events), independent of the horizon. Window assembly replays the
//! identical edge sequence the materialised path would visit, so
//! committed results stay bit-identical.
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
//! silent advances take no lock. Only the windows translation refuses —
//! boundaries, strikes and the final window — get plans of their own, so
//! the schedule, not the horizon, sets the number of plan assemblies
//! ([`plan_builds`](WindowedDecoder::plan_builds)), and every session of
//! the decoder reuses them.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use surf_pauli::BitBatch;

use crate::decoder::{DecodeWorkspace, Decoder};
use crate::graph::DecodingGraph;
use crate::registry::DecoderFactory;
use crate::source::{RoundModelSource, SourceEdge, WindowTranslation};

/// Template plans a session keeps locally: a stretch uses one template
/// per commit phase modulo the period, so a handful covers the windows in
/// flight.
const SESSION_TEMPLATES: usize = 4;

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
/// structurally identical windows) plus the translation between global
/// detectors and window-local node ids.
struct WindowPlan {
    /// Window detectors in global ids; local node `i` = `globals[i]`.
    globals: Vec<u32>,
    /// Inner decoder over the window sub-graph.
    decoder: Arc<dyn Decoder>,
    /// Per window edge: the global detector whose defect is flipped before
    /// the next window when the correction uses the edge ([`NO_CARRY`]
    /// for edges that do not cross the commit cut).
    carries: Vec<u32>,
    /// Template plans only (empty otherwise): in the window `shift`
    /// periods past the template, local node `k` is global detector
    /// `globals[k] + shift · strides[k]`.
    strides: Vec<u32>,
    /// Template plans only: the stride of each edge's carry target.
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

    /// Global carry target of window edge `e` in the window `shift`
    /// periods on, if the edge crosses the commit cut.
    fn carry_target(&self, e: usize, shift: u32) -> Option<u32> {
        match (self.carries[e], shift) {
            (NO_CARRY, _) => None,
            (target, 0) => Some(target),
            (target, _) => Some(target + shift * self.carry_strides[e]),
        }
    }
}

impl std::fmt::Debug for WindowPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowPlan")
            .field("globals", &self.globals.len())
            .field(
                "carries",
                &self.carries.iter().filter(|&&c| c != NO_CARRY).count(),
            )
            .field("template", &!self.strides.is_empty())
            .finish_non_exhaustive()
    }
}

/// A decoder's window plans: resolved plans keyed by window index and
/// the steady-state templates of virtual decoders. Nothing is ever
/// evicted.
#[derive(Default)]
struct PlanTable {
    /// Plans resolved so far, keyed by window index.
    resolved: HashMap<usize, Arc<WindowPlan>>,
    /// Steady-state template plans keyed by canonical start round
    /// (virtual decoders only), built on first touch.
    templates: HashMap<u32, Arc<WindowPlan>>,
}

/// One assembled window: detectors in global ids, the window sub-graph,
/// and its per-edge carry targets.
type Parts = (Vec<u32>, DecodingGraph, Vec<u32>);

/// Carry-table entry of a window edge that does not cross the commit cut.
const NO_CARRY: u32 = u32::MAX;

/// One window plan laid open for equivalence tests (see
/// [`WindowedDecoder::window_parts`]).
#[doc(hidden)]
#[derive(Clone, Debug)]
pub struct WindowParts {
    /// Window detectors in global ids, local node order.
    pub globals: Vec<u32>,
    /// The window sub-graph.
    pub graph: DecodingGraph,
    /// Global carry target per window edge (`u32::MAX`: none).
    pub carries: Vec<u32>,
}

/// A streaming decoder: decodes overlapping round-windows of a decoding
/// graph whose detectors carry round labels, committing matches in each
/// window's commit region and carrying boundary defects forward.
///
/// [`into_session`](WindowedDecoder::into_session) opens the
/// round-by-round feed every decode in the workspace goes through, from
/// `surf_sim`'s Monte-Carlo runs to the decode daemon.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use surf_matching::{DecoderFactory, DecodingGraph, MwpmDecoder, WindowConfig, WindowedDecoder};
///
/// // Two detectors in consecutive rounds joined by a measurement edge
/// // (cheaper than the boundaries, so the matching is unique).
/// let mut g = DecodingGraph::new(2);
/// g.add_edge(0, None, 1e-2, 1);
/// g.add_edge(0, Some(1), 5e-2, 0);
/// g.add_edge(1, None, 1e-2, 0);
/// let windowed = Arc::new(WindowedDecoder::new(
///     g,
///     vec![0, 1],
///     WindowConfig::new(1),
///     DecoderFactory::new(|wg| Box::new(MwpmDecoder::new(wg))),
/// ));
/// // One shot lane. The measurement-error pair is matched across the
/// // window cut: the first window commits the pair edge and carries the
/// // residual defect into round 1, where it cancels the sampled one.
/// let mut session = windowed.into_session(1);
/// session.push_round(0, &[0], &[1]);
/// session.push_round(1, &[1], &[1]);
/// assert_eq!(session.finish(), vec![0]);
/// ```
pub struct WindowedDecoder {
    graph: DecodingGraph,
    rounds_of: Vec<u32>,
    /// Round-major detector index of a materialised graph (empty when
    /// virtual): all detectors sorted by `(round, detector)`, with
    /// `dets[round_start[r]..round_start[r + 1]]` round `r`'s detectors
    /// in ascending id order.
    dets: Vec<u32>,
    round_start: Vec<u32>,
    /// Round-indexed model source (virtual mode); `None` when the graph
    /// and round table above are materialised.
    source: Option<Arc<dyn RoundModelSource>>,
    /// One past the largest round label.
    total_rounds: u32,
    config: WindowConfig,
    /// Builds (through the backend registry) each window's backend.
    factory: DecoderFactory,
    plans: Mutex<PlanTable>,
    /// Window assemblies so far (see [`plan_builds`](Self::plan_builds)).
    plan_builds: AtomicU64,
    /// Backends this decoder's requests compiled rather than found live
    /// in the registry (see [`backends_shared`](Self::backends_shared)).
    backends_compiled: AtomicU64,
}

impl WindowedDecoder {
    /// Builds a windowed decoder over `graph`, whose detector `i` belongs
    /// to round `rounds_of[i]`, with an inner backend built by `factory`
    /// per structurally distinct window. Every observable bit of the
    /// graph streams through. All window plans resolve here, in
    /// O(rounds), so sessions never assemble one.
    ///
    /// # Panics
    ///
    /// Panics if `rounds_of` does not match the graph or the window config
    /// is degenerate.
    pub fn new(
        graph: DecodingGraph,
        rounds_of: Vec<u32>,
        config: WindowConfig,
        factory: DecoderFactory,
    ) -> Self {
        assert_eq!(
            rounds_of.len(),
            graph.num_nodes(),
            "one round label per detector required"
        );
        let total_rounds = rounds_of.iter().map(|&r| r + 1).max().unwrap_or(0);
        let mut dets: Vec<u32> = (0..graph.num_nodes() as u32).collect();
        dets.sort_unstable_by_key(|&d| (rounds_of[d as usize], d));
        let mut round_start = vec![0u32; total_rounds as usize + 1];
        for &d in &dets {
            round_start[rounds_of[d as usize] as usize + 1] += 1;
        }
        for r in 0..total_rounds as usize {
            round_start[r + 1] += round_start[r];
        }
        let decoder = WindowedDecoder {
            graph,
            rounds_of,
            dets,
            round_start,
            ..WindowedDecoder::empty(total_rounds, config, factory)
        };
        for index in 0..decoder.num_windows() {
            decoder.plan(index);
        }
        decoder
    }

    /// A decoder with no model and no plans yet, after checking `config`.
    fn empty(total_rounds: u32, config: WindowConfig, factory: DecoderFactory) -> Self {
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
        WindowedDecoder {
            graph: DecodingGraph::new(0),
            rounds_of: Vec::new(),
            dets: Vec::new(),
            round_start: Vec::new(),
            source: None,
            total_rounds,
            config,
            factory,
            plans: Mutex::default(),
            plan_builds: AtomicU64::new(0),
            backends_compiled: AtomicU64::new(0),
        }
    }

    /// Builds a windowed decoder over a round-indexed model source, with
    /// no materialised graph: window detectors and candidate edges are
    /// asked of `source` on demand, and sessions keep sparse defect state
    /// pruned at the commit frontier — resident memory O(in-flight
    /// windows + events) regardless of the horizon. A window's plan
    /// resolves on first touch, and only if the source cannot serve it by
    /// translation.
    ///
    /// # Panics
    ///
    /// Panics if the window config is degenerate, like
    /// [`new`](WindowedDecoder::new).
    pub fn virtual_source(
        source: Arc<dyn RoundModelSource>,
        config: WindowConfig,
        factory: DecoderFactory,
    ) -> Self {
        let total_rounds = source.total_rounds();
        WindowedDecoder {
            source: Some(source),
            ..WindowedDecoder::empty(total_rounds, config, factory)
        }
    }

    /// The plan table. Only map lookups and inserts run under its lock,
    /// so a poisoned lock still guards a consistent table.
    fn table(&self) -> MutexGuard<'_, PlanTable> {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Distinct backends this decoder's plans reference: one per
    /// *structurally distinct* resolved window, whether this decoder
    /// compiled it or found it live in the backend registry. Useful for
    /// asserting (and benchmarking) plan sharing.
    pub fn compiled_backends(&self) -> usize {
        let table = self.table();
        let mut backends: Vec<*const ()> = table
            .resolved
            .values()
            .chain(table.templates.values())
            .map(|plan| Arc::as_ptr(&plan.decoder).cast::<()>())
            .collect();
        backends.sort_unstable();
        backends.dedup();
        backends.len()
    }

    /// Of [`compiled_backends`](Self::compiled_backends), those this
    /// decoder found already live in the process-wide backend registry —
    /// compiled for another decoder, session or recompile over the same
    /// window graph — instead of compiling them.
    pub fn backends_shared(&self) -> usize {
        let compiled = self.backends_compiled.load(Ordering::Relaxed) as usize;
        self.compiled_backends().saturating_sub(compiled)
    }

    /// Window assemblies performed so far, across every session of this
    /// decoder: one per window at construction for a materialised graph;
    /// for a virtual decoder, one per window translation refuses, on
    /// first touch, plus two per template (the canonical window and its
    /// one-period translate). Resolved plans are kept, so this never
    /// grows with further sessions over windows already touched, and on
    /// a periodic source it stops growing with the horizon.
    pub fn plan_builds(&self) -> u64 {
        self.plan_builds.load(Ordering::Relaxed)
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

    /// Resolves window `index`'s plan: the table entry when resolved,
    /// else the window is assembled (over the registry's backend for its
    /// sub-graph) and kept.
    fn plan(&self, index: usize) -> Arc<WindowPlan> {
        if let Some(plan) = self.table().resolved.get(&index) {
            return Arc::clone(plan);
        }
        // Assemble and fetch the backend outside the lock so sessions
        // resolving other windows never wait on it; a racing twin
        // assembles the identical plan over the same backend and the
        // first insert wins.
        let (start, end, cut) = self.window_bounds(index);
        let (globals, window_graph, carries) = self.build_parts(start, end, cut);
        let decoder = self.backend(window_graph);
        let mut table = self.table();
        if let Some(plan) = table.resolved.get(&index) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(WindowPlan {
            globals,
            decoder,
            carries,
            strides: Vec::new(),
            carry_strides: Vec::new(),
        });
        table.resolved.insert(index, Arc::clone(&plan));
        plan
    }

    /// Resolves the template plan serving the steady-state windows that
    /// translate to `t.canonical_start`. Built on first touch from the
    /// canonical window and its one-period translate — their difference
    /// is each local detector's (and carry target's) stride — then shared
    /// by every session. The backend is the registry's for the canonical
    /// window graph, i.e. the one a direct assembly would have shared.
    ///
    /// # Panics
    ///
    /// Panics if the source's translation claim is false (the two windows
    /// differ in shape).
    fn template(&self, t: WindowTranslation) -> Arc<WindowPlan> {
        if let Some(plan) = self.table().templates.get(&t.canonical_start) {
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
                    .zip(&next_carries)
                    .all(|(&a, &b)| (a == NO_CARRY) == (b == NO_CARRY)),
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
            .map(|(&a, &b)| if a == NO_CARRY { 0 } else { stride(a, b) })
            .collect();
        let decoder = self.backend(window_graph);
        let mut table = self.table();
        if let Some(plan) = table.templates.get(&s0) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(WindowPlan {
            globals,
            decoder,
            carries,
            strides,
            carry_strides,
        });
        table.templates.insert(s0, Arc::clone(&plan));
        plan
    }

    /// The backend window `index`'s directly resolved plan decodes
    /// through: the sharing surface for backend-registry tests.
    #[doc(hidden)]
    pub fn window_backend(&self, index: usize) -> Arc<dyn Decoder> {
        Arc::clone(&self.plan(index).decoder)
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
                    .map(|e| plan.carry_target(e, t.reps).unwrap_or(NO_CARRY))
                    .collect(),
            }
        });
        (direct, translated)
    }

    /// The shared backend for a window sub-graph, from the process-wide
    /// registry, counting it in [`backends_shared`](Self::backends_shared)
    /// unless this request compiled it.
    fn backend(&self, window_graph: DecodingGraph) -> Arc<dyn Decoder> {
        let (decoder, compiled) = self.factory.backend(window_graph);
        if compiled {
            self.backends_compiled.fetch_add(1, Ordering::Relaxed);
        }
        decoder
    }

    /// Assembles the window over `[start, end)` committing below `cut`
    /// from whatever this decoder holds — the model source or the
    /// round-major index of its graph — counting it in
    /// [`plan_builds`](Self::plan_builds).
    fn build_parts(&self, start: u32, end: u32, cut: u32) -> Parts {
        self.plan_builds.fetch_add(1, Ordering::Relaxed);
        match &self.source {
            Some(source) => self.build_parts_virtual(source.as_ref(), start, end, cut),
            None => self.build_parts_indexed(start, end, cut),
        }
    }

    /// Window-part construction over a materialised graph: O(window
    /// detectors · log) via the round-major detector index, independent
    /// of the stream length. Detectors are visited in ascending id order
    /// and candidate edges in ascending edge-id order.
    fn build_parts_indexed(&self, start: u32, end: u32, cut: u32) -> Parts {
        let lo = self.round_start[start as usize] as usize;
        let hi = self.round_start[end as usize] as usize;
        let mut globals: Vec<u32> = self.dets[lo..hi].to_vec();
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
    /// assembled plans are bit-identical to the indexed path over the
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

    /// Builds the sub-graph (and per-edge carry table) of one window from
    /// a candidate edge set — the shared core of the indexed and virtual
    /// paths.
    ///
    /// Edge placement rules (rounds `ra <= rb` of the endpoints):
    /// * `ra < start` — already committed by an earlier window: skipped;
    /// * `ra >= end` — belongs to a later window: skipped;
    /// * otherwise the edge is *committed* iff `ra < cut`. Committed edges
    ///   keep their real observables; if `rb >= cut` the edge crosses the
    ///   commit boundary and carries to endpoint `b`. Non-committed edges
    ///   are pure lookahead (observables 0).
    /// * An endpoint with `rb >= end` is not a window node: the edge
    ///   becomes a boundary edge from `a` (an open time boundary when not
    ///   committed).
    ///
    /// Mechanisms merge into one window edge only when they also share the
    /// carry target, so every window edge has exactly one.
    fn assemble_window(
        &self,
        start: u32,
        end: u32,
        cut: u32,
        globals: &[u32],
        local_of: &mut dyn FnMut(u32) -> u32,
        edges: &mut dyn Iterator<Item = SourceEdge>,
    ) -> (DecodingGraph, Vec<u32>) {
        let mut window_graph = DecodingGraph::new(globals.len());
        let mut carries: Vec<u32> = Vec::new();
        let mut add = |a: u32, b: Option<u32>, p: f64, obs: u64, carry: u32| {
            let b = b.map(|b| local_of(b) as usize);
            let landed = window_graph
                .add_edge_where(local_of(a) as usize, b, p, obs, |e| carries[e] == carry);
            if landed == Some(carries.len()) {
                carries.push(carry);
            }
        };
        for edge in edges {
            let ra = self.round_of_det(edge.a);
            match edge.b {
                None => {
                    // Space-boundary edge: lives entirely in round `ra`.
                    if !(start..end).contains(&ra) {
                        continue;
                    }
                    let obs = if ra < cut { edge.observables } else { 0 };
                    add(edge.a, None, edge.probability, obs, NO_CARRY);
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
                    let obs = if committed { edge.observables } else { 0 };
                    let carry = if committed && rhi >= cut {
                        hi
                    } else {
                        NO_CARRY
                    };
                    // Partner not yet streamed: open time boundary.
                    let partner = (rhi < end).then_some(hi);
                    add(lo, partner, edge.probability, obs, carry);
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

    /// Number of windows the history is decoded in: none for an empty
    /// history (a graph without detectors, such as a memory basis with no
    /// stabilizers on a heavily deformed patch).
    pub fn num_windows(&self) -> usize {
        if self.total_rounds == 0 {
            return 0;
        }
        let beyond_first = self.total_rounds.saturating_sub(self.config.window);
        1 + beyond_first.div_ceil(self.config.commit) as usize
    }

    /// Round labels of the detectors.
    pub fn rounds_of(&self) -> &[u32] {
        &self.rounds_of
    }

    /// Round `round`'s detectors in ascending id order, read from the
    /// round-major index.
    ///
    /// # Panics
    ///
    /// Panics for virtual decoders, which hold no index (ask their model
    /// source instead), and for rounds past the stream end.
    pub fn round_detectors(&self, round: u32) -> &[u32] {
        assert!(
            !self.is_virtual(),
            "virtual windowed decoders hold no round index"
        );
        let r = round as usize;
        &self.dets[self.round_start[r] as usize..self.round_start[r + 1] as usize]
    }

    /// Starts a streaming session over up to `lanes` parallel shots; feed
    /// it rounds in order via [`WindowedSession::push_round`]. The
    /// session holds the decoder through its [`Arc`], so it can outlive
    /// the scope (e.g. a daemon request handler) that created it and move
    /// freely across threads.
    pub fn into_session(self: Arc<Self>, lanes: usize) -> WindowedSession {
        WindowedSession {
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

/// The per-session state behind [`WindowedSession`]: residual defects,
/// fill cursor, and committed observables. Every method takes the
/// decoder explicitly, so the session can borrow its own `Arc`'d decoder
/// while it mutates this state.
#[derive(Clone, Debug)]
struct SessionCore {
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
    /// ready window whose rounds are all clear is fast-forwarded (empty
    /// matching, zero flips) without touching the backend.
    dirty: DirtyRounds,
    /// One lane's window syndrome (local node ids).
    syndrome: Vec<usize>,
    /// One lane's carry targets, one per crossing correction edge.
    carried: Vec<u32>,
    /// The window's nonzero defect words as `(local node, word)`, in
    /// local order (refilled per window, allocated once).
    window_rows: Vec<(usize, u64)>,
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
            syndrome: Vec::new(),
            carried: Vec::new(),
            window_rows: Vec::new(),
            workspace: DecodeWorkspace::default(),
            templates: Vec::new(),
            windows_decoded: 0,
            windows_fast_forwarded: 0,
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
                self.dirty.mark(round);
            }
            self.defects.xor(det, masked);
        }
        self.filled_rounds = round + 1;
        self.drain_ready(decoder);
    }

    /// Feeds `rounds` defect-free rounds in one step (the bulk twin of
    /// pushing that many empty rounds) and decodes every window that
    /// becomes ready. Ready windows whose rounds never saw a defect
    /// (including carries) commit without invoking the backend, so
    /// skipping a long silent stretch costs O(windows), not O(rounds ·
    /// backend).
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

    /// Decodes every plan whose window is fully streamed, skipping
    /// windows proven clean by the dirty record — exact, because an
    /// all-zero window batch decodes to an empty matching with zero
    /// observable flips and no carries. Steady-state virtual windows
    /// decode as translates of a template plan.
    fn drain_ready(&mut self, decoder: &WindowedDecoder) {
        let committed_from = self.next_plan;
        while self.next_plan < decoder.num_windows() {
            let (start, end, cut) = decoder.window_bounds(self.next_plan);
            if end > self.filled_rounds {
                break;
            }
            if self.window_is_clean(start, end) {
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
        if self.next_plan > committed_from {
            self.prune_committed(decoder);
        }
    }

    /// Drops virtual session state below the commit frontier: committed
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
    /// observables into `observables` and flipping the carry target of
    /// every crossing edge in the lane's correction back into `defects`.
    /// `window_rows` and the lane buffers are session-owned scratch,
    /// reused across the whole stream; the backend call goes through
    /// [`Decoder::decode_correction`] with the session's single
    /// [`DecodeWorkspace`], so every buffer — Dijkstra state, blossom
    /// tables, peeling forest, correction — persists across windows and
    /// epochs and the steady-state decode performs zero heap allocations.
    fn decode_plan(&mut self, decoder: &WindowedDecoder, plan: &WindowPlan, shift: u32) {
        if plan.globals.is_empty() {
            return;
        }
        self.window_rows.clear();
        for local in 0..plan.globals.len() {
            let word = self.defects.get(plan.global(local, shift)) & self.lane_mask;
            if word != 0 {
                self.window_rows.push((local, word));
            }
        }
        for lane in 0..self.lanes {
            let probe = 1u64 << lane;
            self.syndrome.clear();
            let rows = self.window_rows.iter();
            self.syndrome
                .extend(rows.filter(|r| r.1 & probe != 0).map(|r| r.0));
            self.workspace.correction.clear();
            self.observables[lane] ^= plan
                .decoder
                .decode_correction(&self.syndrome, &mut self.workspace);
            self.carried.clear();
            let crossing = self.workspace.correction.iter();
            self.carried
                .extend(crossing.filter_map(|&e| plan.carry_target(e, shift)));
            // Edges listed twice cancel, so only an odd count flips the
            // target — and re-dirties its round, which may sit arbitrarily
            // far ahead (open-boundary commits carry into not-yet-streamed
            // rounds).
            self.carried.sort_unstable();
            for run in self.carried.chunk_by(|a, b| a == b) {
                if run.len() % 2 == 1 {
                    self.defects.xor(run[0], 1u64 << lane);
                    self.dirty.mark(decoder.round_of_det(run[0]));
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

/// An in-flight streaming decode over up to 64 parallel shots, opened by
/// [`WindowedDecoder::into_session`].
///
/// Rounds are pushed in order; as soon as all rounds of the next window
/// have arrived, the window is decoded and its commit region is final —
/// the *commit latency* is one window of rounds, not the whole experiment.
/// The session holds its decoder through an [`Arc`], so it can outlive
/// the scope that created it and be sent across threads — the shape a
/// decode server needs, where one request handler opens a session and
/// later ones keep feeding it.
pub struct WindowedSession {
    decoder: Arc<WindowedDecoder>,
    core: SessionCore,
}

impl WindowedSession {
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

    /// Feeds the detector words of `round` (`detectors[i]`'s word is
    /// `words[i]`; lane `b` = shot `b`) and decodes every window whose
    /// rounds are now complete.
    ///
    /// # Panics
    ///
    /// Panics if rounds arrive out of order or a detector does not belong
    /// to `round`.
    pub fn push_round(&mut self, round: u32, detectors: &[u32], words: &[u64]) {
        self.core.push_round(&self.decoder, round, detectors, words);
    }

    /// Feeds `rounds` defect-free rounds in one step — equivalent to that
    /// many empty [`push_round`](Self::push_round) calls, but the windows
    /// that become ready and are proven clean commit without invoking the
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics if the advance runs past the end of the stream.
    pub fn advance_silent(&mut self, rounds: u32) {
        self.core.advance_silent(&self.decoder, rounds);
    }

    /// Completes the stream and returns the per-lane predicted
    /// observable-flip masks.
    ///
    /// # Panics
    ///
    /// Panics if not all rounds have been pushed.
    pub fn finish(self) -> Vec<u64> {
        self.core.finish(&self.decoder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MwpmDecoder;

    fn mwpm_factory() -> DecoderFactory {
        DecoderFactory::new(|g| Box::new(MwpmDecoder::new(g)))
    }

    /// Streams `syndromes` (lane `b` = `syndromes[b]`; duplicates cancel
    /// pairwise) round by round through a fresh session and returns each
    /// lane's committed observable mask.
    fn decode_lanes(d: &Arc<WindowedDecoder>, syndromes: &[Vec<usize>]) -> Vec<u64> {
        let mut words = vec![0u64; d.rounds_of().len()];
        for (lane, syndrome) in syndromes.iter().enumerate() {
            for &det in syndrome {
                words[det] ^= 1 << lane;
            }
        }
        let mut session = open_session(d, syndromes.len());
        for round in 0..d.total_rounds() {
            let detectors = d.round_detectors(round);
            let round_words: Vec<u64> = detectors.iter().map(|&det| words[det as usize]).collect();
            session.push_round(round, detectors, &round_words);
        }
        session.finish()
    }

    /// Whole-history decode of one syndrome.
    fn decode(d: &Arc<WindowedDecoder>, syndrome: &[usize]) -> u64 {
        decode_lanes(d, &[syndrome.to_vec()])[0]
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

    fn windowed(rounds: usize, config: WindowConfig) -> Arc<WindowedDecoder> {
        let (g, r) = time_strip(rounds);
        Arc::new(WindowedDecoder::new(g, r, config, mwpm_factory()))
    }

    fn open_session(d: &Arc<WindowedDecoder>, lanes: usize) -> WindowedSession {
        Arc::clone(d).into_session(lanes)
    }

    #[test]
    fn full_window_is_one_plan() {
        let d = windowed(6, WindowConfig::new(6));
        assert_eq!(d.num_windows(), 1);
        assert_eq!(d.total_rounds(), 6);
        let full = MwpmDecoder::new(time_strip(6).0);
        for s in [vec![], vec![0], vec![2, 3], vec![0, 5], vec![1, 2, 4]] {
            assert_eq!(decode(&d, &s), full.decode(&s), "syndrome {s:?}");
        }
    }

    #[test]
    fn empty_graph_streams_no_windows() {
        // No detectors: no rounds to push, nothing to decode, no flips.
        let d = Arc::new(WindowedDecoder::new(
            DecodingGraph::new(0),
            Vec::new(),
            WindowConfig::new(4),
            mwpm_factory(),
        ));
        assert_eq!((d.total_rounds(), d.num_windows()), (0, 0));
        assert_eq!(d.commit_horizon(0), 0);
        assert_eq!(decode_lanes(&d, &[vec![], vec![]]), vec![0, 0]);
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
                assert_eq!(decode(&d, &[t, t + 1]), 0, "pair at {t}, window {w}");
            }
        }
        // Lone boundary defects need at least one round of lookahead to
        // tell "my partner is in the future" from "I came from the
        // boundary"; from w = 2 on they match the full decode.
        for w in 2..=6u32 {
            let d = windowed(6, WindowConfig::new(w));
            assert_eq!(decode(&d, &[0]), 1, "window {w}");
            assert_eq!(decode(&d, &[5]), 0, "window {w}");
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
        assert_eq!(decode(&d, &[0]), 0);
        assert_eq!(decode(&d, &[5]), 0);
    }

    #[test]
    fn duplicates_cancel_pairwise() {
        let d = windowed(5, WindowConfig::new(2));
        assert_eq!(decode(&d, &[3, 3]), 0);
        assert_eq!(decode(&d, &[0, 2, 0]), decode(&d, &[2]));
    }

    #[test]
    fn batch_matches_scalar() {
        // Five lanes through one session decode as five one-lane sessions.
        let d = windowed(7, WindowConfig::new(3));
        let syndromes = [vec![], vec![0], vec![1, 2], vec![0, 6], vec![2, 3, 5]];
        let predictions = decode_lanes(&d, &syndromes);
        for (lane, s) in syndromes.iter().enumerate() {
            assert_eq!(predictions[lane], decode(&d, s), "lane {lane}: {s:?}");
        }
    }

    #[test]
    fn session_streams_round_by_round() {
        let d = windowed(6, WindowConfig::new(4));
        let mut session = open_session(&d, 2);
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
        let mut session = open_session(&d, 1);
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
        open_session(&d, 1).push_round(1, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "stream ended early")]
    fn early_finish_panics() {
        let d = windowed(4, WindowConfig::new(2));
        let mut session = open_session(&d, 1);
        session.push_round(0, &[0], &[0]);
        session.finish();
    }

    #[test]
    fn cross_epoch_pair_is_carried_across_the_boundary() {
        // Two geometry epochs in one global graph: detectors 0..=1 are
        // early, 1..=3 late, and the 1–2 edge straddles the boundary. A
        // measurement-error pair straddling it must be matched through the
        // cross-epoch edge and carried across commit cuts: no logical flip
        // at any window size.
        let mut g = DecodingGraph::new(4);
        g.add_edge(0, None, 1e-2, 1);
        g.add_edge(0, Some(1), 5e-2, 0);
        g.add_edge(1, Some(2), 5e-2, 0);
        g.add_edge(2, Some(3), 5e-2, 0);
        g.add_edge(3, None, 1e-2, 0);
        for window in 1..=4u32 {
            let d = Arc::new(WindowedDecoder::new(
                g.clone(),
                vec![0, 1, 2, 3],
                WindowConfig::new(window),
                mwpm_factory(),
            ));
            assert_eq!(decode(&d, &[1, 2]), 0, "boundary pair, window {window}");
            assert_eq!(decode(&d, &[2, 3]), 0, "late pair, window {window}");
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn commit_above_window_panics() {
        WindowConfig::new(2).with_commit(3);
    }

    #[test]
    fn session_outlives_its_scope_and_crosses_threads() {
        let rounds = 8usize;
        let decoder = windowed(rounds, WindowConfig::new(4));
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

        let mut session = {
            // The session escapes this block and keeps the decoder alive
            // through its Arc.
            let handle = Arc::clone(&decoder);
            handle.into_session(2)
        };
        for t in 0..rounds {
            session.push_round(t as u32, &[t as u32], &[word_of(t)]);
        }
        assert_eq!(session.filled_rounds(), rounds as u32);

        // Sessions are Send: finish on another thread.
        let got = std::thread::spawn(move || session.finish()).join().unwrap();
        assert_eq!(got, vec![0, decode(&decoder, &[0])]);
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
            WindowConfig {
                window: 2,
                commit: 0,
            },
            mwpm_factory(),
        );
    }

    #[test]
    fn structurally_identical_windows_share_one_backend() {
        // A long uniform time strip has three distinct window shapes: the
        // first (initial boundary + observable), the steady-state
        // interior, and the final (cut = MAX, end boundary). All 14
        // windows resolve at construction yet compile only a few backends.
        let d = windowed(30, WindowConfig::new(4));
        assert_eq!(d.num_windows(), 14);
        assert_eq!(d.plan_builds(), 14, "every window resolves at construction");
        assert!(
            d.compiled_backends() <= 4,
            "expected ≤ 4 distinct window graphs, got {}",
            d.compiled_backends()
        );
        assert_eq!(decode(&d, &[7, 8]), 0);
        assert_eq!(d.plan_builds(), 14, "decoding resolves nothing new");
    }

    #[test]
    fn advance_silent_matches_empty_pushes() {
        let rounds = 20usize;
        let d = windowed(rounds, WindowConfig::new(4));
        let mut bulk = open_session(&d, 2);
        let mut dense = open_session(&d, 2);
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
        assert_eq!(bulk.finish(), dense.finish());
    }

    #[test]
    fn fast_forward_skips_clean_windows_exactly() {
        // Defects confined to one window of a long stream: the session
        // decodes only the windows overlapping the event (and any
        // carries), fast-forwards the rest, and still agrees with the
        // inner decoder over the whole strip.
        let rounds = 40usize;
        let d = windowed(rounds, WindowConfig::new(4));
        let full = MwpmDecoder::new(time_strip(rounds).0);
        for pair_at in [0u32, 13, 21, 38] {
            let s = vec![pair_at as usize, pair_at as usize + 1];
            assert_eq!(decode(&d, &s), full.decode(&s), "pair at {pair_at}");
            let mut session = open_session(&d, 1);
            session.advance_silent(pair_at);
            session.push_round(pair_at, &[pair_at], &[1]);
            session.push_round(pair_at + 1, &[pair_at + 1], &[1]);
            session.advance_silent(rounds as u32 - pair_at - 2);
            assert!(
                session.windows_decoded() <= 4 && session.windows_fast_forwarded() > 0,
                "pair at {pair_at}: {} decoded, {} skipped",
                session.windows_decoded(),
                session.windows_fast_forwarded()
            );
            assert_eq!(session.finish(), vec![full.decode(&s)]);
        }
        assert!(d.compiled_backends() <= 4);
    }

    #[test]
    fn carry_propagates_across_a_skipped_stretch() {
        // A cross-cut pair right after a long silent stretch: the carry
        // produced by the committing window re-dirties the partner round,
        // so fast-forwarding must not skip the follow-up window that
        // consumes the carry.
        let rounds = 32usize;
        let d = windowed(rounds, WindowConfig::new(2).with_commit(1));
        let mut session = open_session(&d, 1);
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
        let mut quiet = open_session(&d, 1);
        quiet.advance_silent(rounds as u32);
        assert_eq!(quiet.windows_committed(), d.num_windows());
        assert_eq!(quiet.finish(), vec![0]);
    }

    #[test]
    fn long_streams_resolve_each_plan_once() {
        // A 10⁵-round stream with a defect pair every ~1000 rounds: every
        // window resolved at construction, so streaming never assembles
        // a plan, and structural sharing keeps the backends to a handful.
        let rounds = 100_000u32;
        let d = windowed(rounds as usize, WindowConfig::new(4));
        let builds = d.plan_builds();
        assert_eq!(builds, d.num_windows() as u64);
        let mut session = open_session(&d, 1);
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
            assert_eq!(d.plan_builds(), builds, "streaming assembled a plan");
        }
        assert!((1..=4).contains(&d.compiled_backends()));
        assert_eq!(session.finish(), vec![0], "each pair cancels locally");
    }

    #[test]
    #[should_panic(expected = "past the stream end")]
    fn advance_silent_past_the_end_panics() {
        let d = windowed(4, WindowConfig::new(2));
        open_session(&d, 1).advance_silent(5);
    }
}
