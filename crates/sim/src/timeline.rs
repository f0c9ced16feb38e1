//! Detector models over *time-varying* patch geometry.
//!
//! The fixed-patch [`DetectorModel`] assumes one geometry for the whole
//! experiment; [`DetectorModel::splice`] can switch error *rates*
//! mid-stream but never the detector set. [`TimelineModel`] removes that
//! restriction: it compiles a [`PatchTimeline`] — one patch per epoch,
//! deformed mid-experiment by `Deformer::mitigate` — into a single
//! detector model over a global detector space spanning all epochs, so
//! the whole streaming pipeline (sampler, [`RoundStream`], windowed
//! decoding) runs unchanged on top of genuinely changing geometry.
//!
//! At each epoch boundary the stabilizer flow computed by
//! [`surf_lattice::diff_stabilizers`] decides how measurement chains
//! cross it:
//!
//! * **continued** groups (identical product) keep one chain: the
//!   comparison of the last pre- and first post-deformation measurement
//!   is an ordinary detector straddling the boundary;
//! * **merged** groups get a *boundary detector* comparing the GF(2)
//!   product of the parents' last measurements against the
//!   super-stabilizer's first measurement (the product operator is a
//!   stabilizer on both sides, so its value survives the deformation —
//!   the `DataQ_RM` shape on both bases);
//! * **killed** chains end without a partner (their final syndrome value
//!   is discarded) and **created** chains start projectively (their first
//!   measurement yields no detector) — the deformation round's intrinsic
//!   vulnerability window.
//!
//! The per-boundary bookkeeping is exposed as a [`DetectorRemap`]. The
//! global graph keeps its edges stably ordered by the epoch owning each
//! edge's later endpoint, so boundary (merge) edges follow every edge of
//! the early epoch; a windowed decoder reads the whole timeline from this
//! one graph, and a [`PeriodicModel`](crate::PeriodicModel) serves the
//! same edges in the same order.
//!
//! **Observable convention.** A data error's observable bit is its
//! membership in the logical representative of the epoch it occurs in:
//! the control software is assumed to track the logical frame through
//! deformations by absorbing the measured stabilizer values that relate
//! consecutive representatives (standard Pauli-frame practice). Sampler
//! and decoder share the channel definitions, so the simulation is
//! self-consistent under this convention — *provided consecutive
//! representatives agree on every qubit both epochs share*. If they
//! disagreed on a surviving qubit, an error just before and just after
//! the boundary would produce the same syndrome with opposite observable
//! bits, which no decoder can tell apart (the physical statement: the
//! absorbed values relating such representatives include discarded
//! killed-group measurements). The builder therefore *threads* the
//! representative across each boundary: epoch `e+1` reuses epoch `e`'s
//! representative re-expressed in the new stabilizer group (a GF(2)
//! solve over the new epoch's stabilizer products, matching membership
//! on all shared qubits). A boundary with no such re-expression — the
//! deformation genuinely severed every frame-trackable reroute — falls
//! back to the canonical representative and clears
//! [`TimelineModel::observable_threaded`]; treat results built on such a
//! timeline as frame-unreliable.
//!
//! **Absorbed boundary values.** Qubits removed by a deformation are
//! measured out individually at the boundary. A killed chain whose
//! product lies entirely on those dying qubits does *not* lose its final
//! syndrome: the product of the measure-outs reconstructs it, and the
//! comparison against the chain's last gauge measurement is a real
//! detector ([`DetectorRemap::reconstructed`]). The measure-outs are
//! error-prone like any measurement — each dying qubit gets a boundary
//! channel flipping the reconstruction detectors of the killed chains it
//! supports, and flipping the observable when the qubit carries the
//! logical representative (its absorbed value enters the Pauli frame).
//! Killed chains with support surviving the cut genuinely discard their
//! value — no measurement of the surviving qubits exists at the boundary.
//!
//! A one-epoch timeline compiles to a model that is **bit-identical** to
//! [`DetectorModel::build`] (same channels, same detector indices, same
//! graph, same RNG consumption) — `tests/adaptive_timeline.rs` locks the
//! full streamed pipeline to that guarantee.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use surf_defects::{DefectEvent, DefectSchedule};
use surf_deformer_core::PatchTimeline;
use surf_lattice::{
    diff_stabilizers, Basis, Coord, GroupId, GroupOrigin, MeasurementSchedule, Patch,
};
use surf_matching::DecodingGraph;

use crate::model::{
    adjacent_pairs, cancel_pairs, graph_from_channels, push_correlated_channel, Channel,
    DecoderPrior, DetectorModel,
};
use crate::noise::{NoiseParams, QubitNoise};

/// The detector-index bookkeeping of one epoch boundary: how the
/// pre-deformation detector set maps into the post-deformation one.
///
/// Observable indices are unchanged across boundaries (the logical frame
/// is tracked through the deformation); detector indices are global over
/// the whole timeline, so the remap records which ones straddle the
/// boundary and which chains end or begin there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DetectorRemap {
    /// First round of the late epoch (the deformation lands between
    /// `at_round - 1` and `at_round`).
    pub at_round: u32,
    /// Detectors comparing a continued group's last pre-deformation
    /// measurement with its first post-deformation one.
    pub continued: Vec<usize>,
    /// Boundary detectors of merged super-stabilizers:
    /// `(global detector id, number of early source chains)`.
    pub merged: Vec<(usize, usize)>,
    /// Early stabilizer groups whose chains end at the boundary with no
    /// partner (syndrome information discarded by the deformation).
    pub killed: usize,
    /// Reconstruction detectors of killed chains supported entirely on
    /// measured-out qubits: each compares the chain's last gauge
    /// measurement against the product of its qubits' boundary
    /// measure-outs (a subset of the `killed` count; the rest genuinely
    /// discard their value).
    pub reconstructed: Vec<usize>,
    /// Late stabilizer groups born fresh at the boundary (first
    /// measurement projective: no detector until their second one).
    pub created: usize,
}

/// A [`DetectorModel`] compiled from a [`PatchTimeline`]: one global
/// detector space over every epoch, plus the per-boundary remaps and the
/// per-epoch detector ranges.
#[derive(Clone, Debug)]
pub struct TimelineModel {
    /// The spliced model: sampler channels, prior-weighted graph (edges
    /// stably ordered by the epoch of their later endpoint) and round
    /// labels over the global detector space.
    pub model: DetectorModel,
    /// First round of each epoch (`epoch_starts[0] == 0`).
    pub epoch_starts: Vec<u32>,
    /// The contiguous global detector range owned by each epoch
    /// (detectors are assigned epoch-major; a boundary detector belongs
    /// to its late epoch).
    pub epoch_detectors: Vec<Range<usize>>,
    /// One remap per epoch boundary (`remaps[i]` sits between epochs `i`
    /// and `i + 1`).
    pub remaps: Vec<DetectorRemap>,
    /// `true` when every epoch's observable representative was threaded
    /// from the previous epoch's (agreeing on all shared qubits), so the
    /// frame-tracking convention is consistent at every boundary. `false`
    /// means some deformation severed every frame-trackable reroute of
    /// the logical operator — failure counts over such a timeline are
    /// unreliable (expect ~50 %).
    pub observable_threaded: bool,
}

/// One gauge-group measurement segment: the measurements of one group in
/// one epoch, at positions `first..first + len` of its chain's times.
struct Segment {
    epoch: usize,
    first: usize,
    len: usize,
    /// Member-check ancillas (measurement-error sites), in
    /// `Patch::group_members` order.
    members: Vec<Option<Coord>>,
}

/// A measurement chain: one stabilizer product measured across one or
/// more epochs. `dets[k]` is the detector *before* measurement `k`
/// (`dets[0]` = init or merge-boundary detector, `dets[times.len()]` =
/// final-readout or merge-boundary detector); `None` where the chain
/// starts projectively or ends discarded.
struct Chain {
    product: BTreeSet<Coord>,
    times: Vec<u32>,
    segs: Vec<Segment>,
    /// Born at round 0: the first measurement compares against the known
    /// initial eigenstate.
    init: bool,
    /// Chains whose last measurements feed this chain's merge-boundary
    /// detector (empty unless born by a merge).
    parents: Vec<usize>,
    dets: Vec<Option<usize>>,
    /// The end detector (`dets[times.len()]`) is the final-readout
    /// comparison (as opposed to a merge-boundary detector or nothing).
    end_final: bool,
    /// The end detector compares against the product of the chain's
    /// qubits' boundary measure-outs (chain killed with its whole support
    /// measured out). Like `end_final`, the comparison value is flipped
    /// by any data error the chain's measurements saw, so only errors
    /// *after* the last gauge measurement toggle it.
    end_recon: bool,
    /// Round of the boundary measure-out feeding the reconstruction
    /// detector. Errors at this round or later happen after the
    /// measure-out and cannot flip it — in particular errors on the
    /// chain's qubits once a later epoch revives them.
    recon_round: u32,
}

/// Per-epoch build context.
struct EpochCtx<'a> {
    start: u32,
    /// One past the last measurement round of the epoch.
    meas_end: u32,
    /// One past the last data-error slot of the epoch (the last epoch
    /// also owns the pre-readout slot `rounds`).
    slot_end: u32,
    patch: &'a Patch,
    observable: BTreeSet<Coord>,
    groups: Vec<GroupId>,
    schedule: MeasurementSchedule,
    /// Piecewise-constant noise over the epoch's slots: segment `k`
    /// (epoch defects plus every episode active at its start) applies to
    /// rounds in `[segments[k].0, segments[k+1].0)`; the first segment
    /// starts at the epoch start, the last runs to `slot_end`.
    noise_segments: Vec<(u32, QubitNoise)>,
}

impl TimelineModel {
    /// Compiles `timeline` into the detector model of a `memory_basis`
    /// memory experiment over `rounds` noisy rounds plus final readout.
    ///
    /// Each epoch samples at its own geometry and defect rates; if
    /// `event` is given, the struck qubits additionally run at the
    /// event's elevated rates from `event.round` on (for as long as they
    /// remain in the patch — deformed-away qubits stop contributing,
    /// which is exactly the adaptive win). `prior` selects what the
    /// decoder believes, as in [`DetectorModel::build`].
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or an epoch starts at or after `rounds`.
    pub fn build(
        timeline: &PatchTimeline,
        memory_basis: Basis,
        rounds: u32,
        params: NoiseParams,
        event: Option<&DefectEvent>,
        prior: DecoderPrior,
    ) -> TimelineModel {
        let schedule = event.map_or_else(DefectSchedule::new, DefectSchedule::permanent_event);
        Self::build_scheduled(timeline, memory_basis, rounds, params, &schedule, prior)
    }

    /// [`TimelineModel::build`] generalised to a whole [`DefectSchedule`]:
    /// every episode elevates its qubits' true rates during its active
    /// window `[start, end)` — for as long as each qubit remains in the
    /// current epoch's patch — and a healed episode's rates drop back to
    /// the epoch baseline, so temporary defects (cosmic rays) stop
    /// hurting once they heal *or* once the deformation excises them,
    /// whichever comes first. A single permanent episode reproduces the
    /// [`TimelineModel::build`] event overlay bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or an epoch starts at or after `rounds`.
    pub fn build_scheduled(
        timeline: &PatchTimeline,
        memory_basis: Basis,
        rounds: u32,
        params: NoiseParams,
        schedule: &DefectSchedule,
        prior: DecoderPrior,
    ) -> TimelineModel {
        let parts =
            TimelineChannels::compile(timeline, memory_basis, rounds, params, schedule, prior);
        let graph = epoch_ordered(
            graph_from_channels(parts.num_detectors, &parts.channels),
            &parts.epoch_detectors,
        );
        TimelineModel {
            model: DetectorModel {
                graph,
                channels: parts.channels,
                num_detectors: parts.num_detectors,
                detector_rounds: parts.detector_rounds,
            },
            epoch_starts: parts.epoch_starts,
            epoch_detectors: parts.epoch_detectors,
            remaps: parts.remaps,
            observable_threaded: parts.observable_threaded,
        }
    }

    /// Number of epochs.
    pub fn num_epochs(&self) -> usize {
        self.epoch_starts.len()
    }

    /// The rounds at which the geometry changes.
    pub fn deformation_rounds(&self) -> &[u32] {
        &self.epoch_starts[1..]
    }
}

/// Everything [`TimelineModel::build_scheduled`] compiles except the
/// decoding graph: the sampler channels, the detector layout and the
/// per-boundary bookkeeping. [`PeriodicModel`](crate::PeriodicModel)
/// compiles its compressed horizon to this alone, since it serves window
/// edges from the channels and never reads a whole-horizon graph.
#[derive(Clone, Debug)]
pub(crate) struct TimelineChannels {
    pub(crate) channels: Vec<Channel>,
    pub(crate) num_detectors: usize,
    pub(crate) detector_rounds: Vec<u32>,
    pub(crate) epoch_starts: Vec<u32>,
    pub(crate) epoch_detectors: Vec<Range<usize>>,
    pub(crate) remaps: Vec<DetectorRemap>,
    pub(crate) observable_threaded: bool,
}

impl TimelineChannels {
    /// The shared core of [`TimelineModel::build_scheduled`] (same
    /// arguments and panics).
    pub(crate) fn compile(
        timeline: &PatchTimeline,
        memory_basis: Basis,
        rounds: u32,
        params: NoiseParams,
        schedule: &DefectSchedule,
        prior: DecoderPrior,
    ) -> TimelineChannels {
        assert!(rounds > 0, "at least one measurement round required");
        let epochs = timeline.epochs();
        assert!(
            epochs.iter().all(|e| e.start < rounds),
            "every epoch must start before the last round {rounds}"
        );
        let num_epochs = epochs.len();
        let nominal = QubitNoise::new(params, Default::default());
        let ctxs: Vec<EpochCtx> = epochs
            .iter()
            .enumerate()
            .map(|(e, epoch)| {
                let last = e + 1 == num_epochs;
                let meas_end = if last { rounds } else { epochs[e + 1].start };
                let observable = match memory_basis {
                    Basis::Z => epoch.patch.logical_z().clone(),
                    Basis::X => epoch.patch.logical_x().clone(),
                };
                let groups = epoch
                    .patch
                    .stabilizer_group_ids()
                    .into_iter()
                    .filter(|&g| epoch.patch.group_basis(g) == Some(memory_basis))
                    .collect();
                let slot_end = if last { rounds + 1 } else { meas_end };
                // One noise segment per stretch of constant episode
                // activity (readout at round `rounds` belongs to the last
                // segment reaching it, hence the `rounds + 1` horizon).
                let mut breaks = vec![epoch.start];
                breaks.extend(
                    schedule
                        .change_rounds(rounds + 1)
                        .into_iter()
                        .filter(|&r| r > epoch.start && r < slot_end),
                );
                let noise_segments = breaks
                    .into_iter()
                    .map(|from| {
                        let mut defects = epoch.defects.clone();
                        for (q, info) in schedule.active_at(from).iter() {
                            defects.insert(q, info.error_rate);
                        }
                        (from, QubitNoise::new(params, defects))
                    })
                    .collect();
                EpochCtx {
                    start: epoch.start,
                    meas_end,
                    slot_end,
                    patch: &epoch.patch,
                    observable,
                    groups,
                    schedule: MeasurementSchedule::for_patch(&epoch.patch),
                    noise_segments,
                }
            })
            .collect();

        // --- Observable threading: choose per-epoch logical
        // representatives that agree on shared qubits at every boundary
        // (see the module docs' observable convention).
        let mut ctxs = ctxs;
        let observable_threaded = thread_observables(&mut ctxs, &nominal);
        let ctxs = ctxs;

        // --- Chain construction: thread each stabilizer product through
        // the epoch boundaries via the patch diff.
        let mut chains: Vec<Chain> = Vec::new();
        let mut group_chain: Vec<BTreeMap<GroupId, usize>> = vec![BTreeMap::new(); num_epochs];
        let mut remaps: Vec<DetectorRemap> = Vec::with_capacity(num_epochs.saturating_sub(1));
        for (e, ctx) in ctxs.iter().enumerate() {
            if e == 0 {
                for &g in &ctx.groups {
                    let c = new_chain(&mut chains, ctx.patch.group_product(g), true, Vec::new());
                    group_chain[0].insert(g, c);
                    extend_segment(&mut chains[c], e, g, ctx);
                }
                continue;
            }
            let diff = diff_stabilizers(ctxs[e - 1].patch, ctx.patch, memory_basis);
            let mut remap = DetectorRemap {
                at_round: ctx.start,
                killed: diff.killed.len(),
                ..Default::default()
            };
            debug_assert_eq!(
                diff.matches.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
                ctx.groups,
                "diff enumerates the epoch's stabilizer groups in order"
            );
            for (g, origin) in diff.matches {
                let c = match origin {
                    GroupOrigin::Continued(early) => group_chain[e - 1][&early],
                    GroupOrigin::Merged(sources) => {
                        let parents: Vec<usize> =
                            sources.iter().map(|s| group_chain[e - 1][s]).collect();
                        // A parent without a single measurement has no
                        // value to compare: fall back to a fresh chain.
                        let parents = if parents.iter().all(|&p| !chains[p].times.is_empty()) {
                            parents
                        } else {
                            remap.killed += sources.len();
                            remap.created += 1;
                            Vec::new()
                        };
                        new_chain(&mut chains, ctx.patch.group_product(g), false, parents)
                    }
                    GroupOrigin::Created => {
                        remap.created += 1;
                        new_chain(&mut chains, ctx.patch.group_product(g), false, Vec::new())
                    }
                };
                group_chain[e].insert(g, c);
                extend_segment(&mut chains[c], e, g, ctx);
            }
            remaps.push(remap);
        }
        for chain in &mut chains {
            chain.dets = vec![None; chain.times.len() + 1];
        }

        // --- Reconstruction candidates: killed chains whose whole
        // product is measured out at their boundary keep their final
        // syndrome (the product of the individual measure-outs).
        // `feeds_merge` marks chains whose final value is consumed by a
        // merge-boundary detector instead.
        let mut feeds_merge = vec![false; chains.len()];
        for chain in &chains {
            if !chain.times.is_empty() {
                for &p in &chain.parents {
                    feeds_merge[p] = true;
                }
            }
        }
        let dying_qubits: Vec<BTreeSet<Coord>> = (0..num_epochs.saturating_sub(1))
            .map(|b| {
                ctxs[b]
                    .patch
                    .data_qubits()
                    .into_iter()
                    .filter(|&q| !ctxs[b + 1].patch.contains_data(q))
                    .collect()
            })
            .collect();
        let mut recon_chains: Vec<Vec<usize>> = vec![Vec::new(); num_epochs.saturating_sub(1)];
        for (ci, chain) in chains.iter().enumerate() {
            let last_epoch = chain.segs.last().expect("every chain has a segment").epoch;
            if last_epoch + 1 == num_epochs || feeds_merge[ci] || chain.times.is_empty() {
                continue;
            }
            if chain
                .product
                .iter()
                .all(|q| dying_qubits[last_epoch].contains(q))
            {
                recon_chains[last_epoch].push(ci);
            }
        }

        // --- Detector assignment: epoch-major, group order within each
        // epoch — for a single epoch this reproduces the exact layout of
        // `DetectorModel::build`.
        let mut num_detectors = 0usize;
        let mut detector_rounds: Vec<u32> = Vec::new();
        let mut epoch_detectors: Vec<Range<usize>> = Vec::with_capacity(num_epochs);
        for (e, ctx) in ctxs.iter().enumerate() {
            let epoch_base = num_detectors;
            if e > 0 {
                // Reconstruction detectors of chains killed at the
                // boundary into this epoch, ahead of the epoch's own
                // measurement detectors; their round is the boundary
                // round (the measure-outs happen as the new epoch
                // starts).
                for &c in &recon_chains[e - 1] {
                    let end = chains[c].times.len();
                    chains[c].dets[end] = Some(num_detectors);
                    chains[c].end_recon = true;
                    chains[c].recon_round = ctx.start;
                    remaps[e - 1].reconstructed.push(num_detectors);
                    detector_rounds.push(ctx.start);
                    num_detectors += 1;
                }
            }
            for &g in &ctx.groups {
                let c = group_chain[e][&g];
                if chains[c].times.is_empty() {
                    continue; // never measured: contributes nothing
                }
                let seg_index = chains[c]
                    .segs
                    .iter()
                    .position(|s| s.epoch == e)
                    .expect("chain has a segment in every epoch it is mapped in");
                let (first, len) = {
                    let s = &chains[c].segs[seg_index];
                    (s.first, s.len)
                };
                if seg_index == 0 {
                    // Chain born in this epoch: init or merge-boundary
                    // detector ahead of its first measurement.
                    if chains[c].init {
                        chains[c].dets[0] = Some(num_detectors);
                        detector_rounds.push(chains[c].times[0]);
                        num_detectors += 1;
                    } else if !chains[c].parents.is_empty() {
                        let d = num_detectors;
                        chains[c].dets[0] = Some(d);
                        detector_rounds.push(chains[c].times[0]);
                        num_detectors += 1;
                        let parents = chains[c].parents.clone();
                        remaps[e - 1].merged.push((d, parents.len()));
                        for p in parents {
                            let end = chains[p].times.len();
                            chains[p].dets[end] = Some(d);
                        }
                    }
                }
                for k in first..first + len {
                    if k == 0 {
                        continue; // handled above (or projective start)
                    }
                    chains[c].dets[k] = Some(num_detectors);
                    detector_rounds.push(chains[c].times[k]);
                    if seg_index > 0 && k == first {
                        remaps[e - 1].continued.push(num_detectors);
                    }
                    num_detectors += 1;
                }
                if e + 1 == num_epochs {
                    let end = chains[c].times.len();
                    chains[c].dets[end] = Some(num_detectors);
                    chains[c].end_final = true;
                    detector_rounds.push(rounds);
                    num_detectors += 1;
                }
            }
            epoch_detectors.push(epoch_base..num_detectors);
        }

        // --- Qubit → chain incidence (creation order == group order, so
        // a single epoch reproduces `DetectorModel::build`'s incidence
        // order exactly).
        let mut chain_on_qubit: BTreeMap<Coord, Vec<usize>> = BTreeMap::new();
        for (ci, chain) in chains.iter().enumerate() {
            if chain.times.is_empty() {
                continue;
            }
            for &q in &chain.product {
                chain_on_qubit.entry(q).or_default().push(ci);
            }
        }
        let toggles = |q: Coord, slot: u32, out: &mut Vec<usize>| {
            out.clear();
            let Some(incident) = chain_on_qubit.get(&q) else {
                return;
            };
            for &ci in incident {
                let chain = &chains[ci];
                let len = chain.times.len();
                let k = chain.times.partition_point(|&t| t < slot);
                if k == len {
                    // Only the readout / measure-out comparison (if any)
                    // lies after the error. A measure-out is taken at the
                    // epoch boundary, so it only sees errors from before
                    // that round — not errors on the same qubits once a
                    // later epoch revives them.
                    if chain.end_final || (chain.end_recon && slot < chain.recon_round) {
                        out.push(chain.dets[len].expect("end detectors are assigned"));
                    }
                    continue;
                }
                if k == 0 {
                    if let Some(d) = chain.dets[0] {
                        out.push(d); // init or merge-boundary detector
                    }
                } else {
                    out.push(chain.dets[k].expect("interior comparisons are assigned"));
                }
                if !chain.end_final && !chain.end_recon {
                    // The chain's last measurement feeds a merge-boundary
                    // detector (or nothing): the error flips it too —
                    // the late-side contribution cancels it whenever the
                    // qubit survives into the merged product. (Readout
                    // and reconstruction comparisons are *not* flipped:
                    // the error flips the chain's last measurement and
                    // the qubit's own readout / measure-out alike, so the
                    // comparison is untouched.)
                    if let Some(d) = chain.dets[len] {
                        out.push(d);
                    }
                }
            }
            out.sort_unstable();
            cancel_pairs(out);
        };

        // --- Channels: data, correlated pairs, measurement, readout —
        // mirroring `DetectorModel::build`'s order channel for channel.
        let rate = |p_of: &dyn Fn(&QubitNoise) -> f64, ctx: &EpochCtx, round: u32| -> (f64, f64) {
            let segments = &ctx.noise_segments;
            let k = segments.partition_point(|&(from, _)| from <= round) - 1;
            let p_true = p_of(&segments[k].1);
            let p_prior = match prior {
                DecoderPrior::Nominal => p_of(&nominal),
                DecoderPrior::Informed => p_true,
            };
            (p_true, p_prior)
        };
        let mut channels: Vec<Channel> = Vec::new();
        let mut flips: Vec<usize> = Vec::new();
        for ctx in &ctxs {
            for q in ctx.patch.data_qubits() {
                let obs = ctx.observable.contains(&q);
                for slot in ctx.start..ctx.slot_end {
                    toggles(q, slot, &mut flips);
                    if flips.is_empty() && !obs {
                        continue;
                    }
                    let (p_true, p_prior) = rate(&|n| n.data_flip(q), ctx, slot);
                    channels.push(Channel {
                        detectors: flips.clone(),
                        observable: obs,
                        p_true,
                        p_prior,
                        round: slot,
                    });
                }
            }
        }
        if params.p_correlated > 0.0 {
            let p_pair = NoiseParams::basis_flip(params.p_correlated);
            let mut pair_flips: Vec<usize> = Vec::new();
            for ctx in &ctxs {
                for (q1, q2) in adjacent_pairs(ctx.patch) {
                    let obs = ctx.observable.contains(&q1) ^ ctx.observable.contains(&q2);
                    for slot in ctx.start..ctx.slot_end {
                        toggles(q1, slot, &mut flips);
                        pair_flips.clone_from(&flips);
                        toggles(q2, slot, &mut flips);
                        pair_flips.extend_from_slice(&flips);
                        pair_flips.sort_unstable();
                        cancel_pairs(&mut pair_flips);
                        push_correlated_channel(
                            &mut channels,
                            std::mem::take(&mut pair_flips),
                            obs,
                            p_pair,
                            slot,
                        );
                    }
                }
            }
        }
        for (e, ctx) in ctxs.iter().enumerate() {
            for &g in &ctx.groups {
                let chain = &chains[group_chain[e][&g]];
                if chain.times.is_empty() {
                    continue;
                }
                let seg = chain
                    .segs
                    .iter()
                    .find(|s| s.epoch == e)
                    .expect("segment exists");
                for &ancilla in &seg.members {
                    for k in seg.first..seg.first + seg.len {
                        let detectors: Vec<usize> = [chain.dets[k], chain.dets[k + 1]]
                            .into_iter()
                            .flatten()
                            .collect();
                        if detectors.is_empty() {
                            continue;
                        }
                        let round = chain.times[k];
                        let (p_true, p_prior) = rate(&|n| n.meas_flip(ancilla), ctx, round);
                        channels.push(Channel {
                            detectors,
                            observable: false,
                            p_true,
                            p_prior,
                            round,
                        });
                    }
                }
            }
        }
        // Boundary measure-outs of dying qubits: each is a real, noisy
        // measurement whose misread flips every reconstruction detector
        // it feeds and — when the qubit carries the logical
        // representative — the absorbed Pauli-frame value.
        for (b, dying) in dying_qubits.iter().enumerate() {
            let boundary_round = ctxs[b + 1].start;
            for q in ctxs[b].patch.data_qubits() {
                if !dying.contains(&q) {
                    continue;
                }
                let detectors: Vec<usize> = recon_chains[b]
                    .iter()
                    .filter(|&&ci| chains[ci].product.contains(&q))
                    .map(|&ci| chains[ci].dets[chains[ci].times.len()].expect("recon det"))
                    .collect();
                let obs = ctxs[b].observable.contains(&q);
                if detectors.is_empty() && !obs {
                    continue;
                }
                let (p_true, p_prior) = rate(&|n| n.readout_flip(q), &ctxs[b], boundary_round);
                channels.push(Channel {
                    detectors,
                    observable: obs,
                    p_true,
                    p_prior,
                    round: boundary_round,
                });
            }
        }
        let last_ctx = ctxs.last().expect("timeline is never empty");
        for q in last_ctx.patch.data_qubits() {
            let obs = last_ctx.observable.contains(&q);
            let detectors: Vec<usize> = chain_on_qubit
                .get(&q)
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .filter(|&&ci| chains[ci].end_final)
                .map(|&ci| chains[ci].dets[chains[ci].times.len()].expect("final det"))
                .collect();
            if detectors.is_empty() && !obs {
                continue;
            }
            let (p_true, p_prior) = rate(&|n| n.readout_flip(q), last_ctx, rounds);
            channels.push(Channel {
                detectors,
                observable: obs,
                p_true,
                p_prior,
                round: rounds,
            });
        }

        TimelineChannels {
            channels,
            num_detectors,
            detector_rounds,
            epoch_starts: epochs.iter().map(|e| e.start).collect(),
            epoch_detectors,
            remaps,
            observable_threaded,
        }
    }
}

/// Re-adds `graph`'s edges stably ordered by the epoch owning each edge's
/// later endpoint, so a window's edges come out in the order the periodic
/// source serves them (`PeriodicModel`'s `window_edges`). Nothing merges:
/// the graph never holds two edges with the same endpoints and
/// observable mask.
fn epoch_ordered(graph: DecodingGraph, epoch_detectors: &[Range<usize>]) -> DecodingGraph {
    if epoch_detectors.len() <= 1 {
        return graph;
    }
    // Epochs own ascending detector ranges, so the later endpoint's epoch
    // is the epoch of the larger id.
    let epoch_of = |det: usize| epoch_detectors.partition_point(|range| range.end <= det);
    let mut edges = graph.edges().to_vec();
    edges.sort_by_key(|e| epoch_of(e.b.map_or(e.a, |b| e.a.max(b))));
    let mut ordered = DecodingGraph::new(graph.num_nodes());
    for e in edges {
        ordered.add_edge(e.a, e.b, e.probability, e.observables);
    }
    ordered
}

/// Chooses per-epoch logical representatives that agree on every qubit
/// consecutive epochs share, replacing the canonical per-patch choice
/// where needed. Each epoch's representative is its canonical one ⊕ a
/// combination of that epoch's stabilizer products; the combinations for
/// *all* epochs are solved as one joint GF(2) system (the canonical
/// representatives themselves may hug a boundary a later deformation
/// moves, so no single epoch can be threaded in isolation — e.g. epoch 0
/// must route around a region a later strike removes). Returns `false`
/// and leaves the canonical representatives in place when no joint
/// solution exists — the timeline's deformations severed every
/// frame-trackable reroute (relating the representatives would need
/// discarded killed-group values), so observable parities across some
/// boundary are unreliable.
///
/// Only qubits present on both sides of a boundary constrain it: newly
/// born qubits are free, and removed qubits' contributions were absorbed
/// by their measure-out.
fn thread_observables(ctxs: &mut [EpochCtx], nominal: &QubitNoise) -> bool {
    let num_epochs = ctxs.len();
    if num_epochs <= 1 {
        return true;
    }
    // Per boundary b (between epochs b and b+1): shared qubits constrain
    // rep_b == rep_{b+1}; *hot* dying qubits constrain rep_b == 0 and
    // *hot* newly-born qubits constrain rep_{b+1} == 0. Both fringes
    // have invisible slots — a dying qubit's final-slot errors vanish
    // with its discarded measure-out, a born qubit's first slots predate
    // any detector of its created chains — which at a defect's ~50 %
    // rate would randomise the observable; so the logical must be routed
    // off hot qubits before a cut and kept off hot arrivals, exactly as
    // control software would. Healthy fringe qubits (whole layers
    // retired or added by a recovery resize) only cost a nominal-rate
    // slot and are merely penalised: a representative must still be
    // allowed to reach a moving boundary.
    let shared: Vec<Vec<Coord>> = (0..num_epochs - 1)
        .map(|b| {
            ctxs[b + 1]
                .patch
                .data_qubits()
                .into_iter()
                .filter(|&q| ctxs[b].patch.contains_data(q))
                .collect()
        })
        .collect();
    let dying: Vec<Vec<Coord>> = (0..num_epochs - 1)
        .map(|b| {
            let last_noise = &ctxs[b].noise_segments.last().expect("nonempty").1;
            ctxs[b]
                .patch
                .data_qubits()
                .into_iter()
                .filter(|&q| !ctxs[b + 1].patch.contains_data(q))
                .filter(|&q| last_noise.data_flip(q) > nominal.data_flip(q))
                .collect()
        })
        .collect();
    let born_hot: Vec<Vec<Coord>> = (0..num_epochs - 1)
        .map(|b| {
            let first_noise = &ctxs[b + 1].noise_segments.first().expect("nonempty").1;
            ctxs[b + 1]
                .patch
                .data_qubits()
                .into_iter()
                .filter(|&q| !ctxs[b].patch.contains_data(q))
                .filter(|&q| first_noise.data_flip(q) > nominal.data_flip(q))
                .collect()
        })
        .collect();
    let block_len = |b: usize| -> usize { shared[b].len() + dying[b].len() + born_hot[b].len() };
    let offsets: Vec<usize> = (0..num_epochs - 1)
        .scan(0, |acc, b| {
            let at = *acc;
            *acc += block_len(b);
            Some(at)
        })
        .collect();
    let cols = offsets.last().unwrap() + block_len(num_epochs - 2);
    let target: surf_pauli::BitVec = (0..num_epochs - 1)
        .flat_map(|b| {
            let (early, late) = (&ctxs[b].observable, &ctxs[b + 1].observable);
            shared[b]
                .iter()
                .map(move |q| early.contains(q) != late.contains(q))
                .chain(dying[b].iter().map(move |q| early.contains(q)))
                .chain(born_hot[b].iter().map(move |q| late.contains(q)))
        })
        .collect();
    if target.count_ones() == 0 {
        return true; // canonical representatives already comply
    }
    // Epoch e's products enter boundary e-1 (as the late side of the
    // shared block) and boundary e (as the early side of both blocks).
    let mut rows: Vec<surf_pauli::BitVec> = Vec::new();
    let mut row_owner: Vec<(usize, usize)> = Vec::new();
    let products: Vec<Vec<BTreeSet<Coord>>> = ctxs
        .iter()
        .map(|ctx| {
            ctx.groups
                .iter()
                .map(|&g| ctx.patch.group_product(g))
                .collect()
        })
        .collect();
    for (e, eps) in products.iter().enumerate() {
        for (gi, p) in eps.iter().enumerate() {
            let mut row = surf_pauli::BitVec::zeros(cols);
            if e > 0 {
                let b = e - 1; // late side of boundary b: shared + born-hot
                for (i, q) in shared[b].iter().enumerate() {
                    if p.contains(q) {
                        row.set(offsets[b] + i, true);
                    }
                }
                let born_base = offsets[b] + shared[b].len() + dying[b].len();
                for (i, q) in born_hot[b].iter().enumerate() {
                    if p.contains(q) {
                        row.set(born_base + i, true);
                    }
                }
            }
            if e < num_epochs - 1 {
                let b = e; // early side of boundary b: shared + dying
                for (i, q) in shared[b].iter().enumerate() {
                    if p.contains(q) {
                        row.set(offsets[b] + i, true);
                    }
                }
                for (i, q) in dying[b].iter().enumerate() {
                    if p.contains(q) {
                        row.set(offsets[b] + shared[b].len() + i, true);
                    }
                }
            }
            rows.push(row);
            row_owner.push((e, gi));
        }
    }
    let mat = surf_pauli::gf2::Mat::from_rows(cols, rows);
    let Some(combo) = mat.solve_combination(&target) else {
        return false;
    };
    // Any solution satisfies the boundary constraints, but an arbitrary
    // one tends to thread thick bands through freshly-created regions —
    // and newly-born qubits still carry a small invisible window (their
    // first slots predate any detector of their created chains), as do
    // healthy dying qubits (final slot before their discarded
    // measure-out). Prefer representatives that are light and avoid
    // both: greedy descent over the constraint kernel (row subsets
    // XORing to zero).
    let fringe: Vec<BTreeSet<Coord>> = (0..num_epochs)
        .map(|e| {
            let mut f = BTreeSet::new();
            if e > 0 {
                f.extend(
                    ctxs[e]
                        .patch
                        .data_qubits()
                        .into_iter()
                        .filter(|&q| !ctxs[e - 1].patch.contains_data(q)),
                );
            }
            if e + 1 < num_epochs {
                f.extend(
                    ctxs[e]
                        .patch
                        .data_qubits()
                        .into_iter()
                        .filter(|&q| !ctxs[e + 1].patch.contains_data(q)),
                );
            }
            f
        })
        .collect();
    let reps_for = |x: &[bool]| -> Vec<BTreeSet<Coord>> {
        let mut reps: Vec<BTreeSet<Coord>> = ctxs.iter().map(|c| c.observable.clone()).collect();
        for (i, &on) in x.iter().enumerate() {
            if !on {
                continue;
            }
            let (e, gi) = row_owner[i];
            for &q in &products[e][gi] {
                if !reps[e].remove(&q) {
                    reps[e].insert(q);
                }
            }
        }
        reps
    };
    let penalty = |reps: &[BTreeSet<Coord>]| -> usize {
        reps.iter()
            .enumerate()
            .map(|(e, rep)| rep.len() + 4 * rep.intersection(&fringe[e]).count())
            .sum()
    };
    let mut x = vec![false; row_owner.len()];
    for i in combo {
        x[i] = true;
    }
    let kernel = mat.row_nullspace();
    let mut best = penalty(&reps_for(&x));
    loop {
        let mut improved = false;
        for k in &kernel {
            let mut candidate = x.clone();
            for (i, c) in candidate.iter_mut().enumerate() {
                *c ^= k.get(i);
            }
            let p = penalty(&reps_for(&candidate));
            if p < best {
                best = p;
                x = candidate;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let reps = reps_for(&x);
    for (ctx, rep) in ctxs.iter_mut().zip(reps) {
        ctx.observable = rep;
    }
    true
}

/// Appends a fresh chain and returns its index.
fn new_chain(
    chains: &mut Vec<Chain>,
    product: BTreeSet<Coord>,
    init: bool,
    parents: Vec<usize>,
) -> usize {
    chains.push(Chain {
        product,
        times: Vec::new(),
        segs: Vec::new(),
        init,
        parents,
        dets: Vec::new(),
        end_final: false,
        end_recon: false,
        recon_round: 0,
    });
    chains.len() - 1
}

/// Appends the epoch-`e` measurement segment of group `g` to `chain`.
fn extend_segment(chain: &mut Chain, e: usize, g: GroupId, ctx: &EpochCtx) {
    let first = chain.times.len();
    chain.times.extend(
        ctx.schedule
            .cadence(g)
            .rounds_up_to(ctx.meas_end)
            .filter(|&r| r >= ctx.start),
    );
    chain.segs.push(Segment {
        epoch: e,
        first,
        len: chain.times.len() - first,
        members: ctx
            .patch
            .group_members(g)
            .iter()
            .map(|&id| ctx.patch.check(id).expect("member exists").ancilla)
            .collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use surf_defects::DefectMap;
    use surf_deformer_core::{Deformer, EnlargeBudget};
    use surf_lattice::Patch;

    fn fixed_model(d: usize, rounds: u32) -> (DetectorModel, TimelineModel) {
        let patch = Patch::rotated(d);
        let noise = QubitNoise::new(NoiseParams::paper(), DefectMap::new());
        let direct = DetectorModel::build(&patch, Basis::Z, rounds, &noise, DecoderPrior::Informed);
        let timeline = PatchTimeline::fixed(patch, DefectMap::new());
        let tm = TimelineModel::build(
            &timeline,
            Basis::Z,
            rounds,
            NoiseParams::paper(),
            None,
            DecoderPrior::Informed,
        );
        (direct, tm)
    }

    /// Asserts two models share the exact channel structure and rates.
    fn assert_models_identical(a: &DetectorModel, b: &DetectorModel) {
        assert_eq!(a.num_detectors, b.num_detectors);
        assert_eq!(a.detector_rounds, b.detector_rounds);
        assert_eq!(a.channels.len(), b.channels.len());
        for (i, (ca, cb)) in a.channels.iter().zip(&b.channels).enumerate() {
            assert_eq!(ca.detectors, cb.detectors, "channel {i}");
            assert_eq!(ca.observable, cb.observable, "channel {i}");
            assert_eq!(ca.round, cb.round, "channel {i}");
            assert!((ca.p_true - cb.p_true).abs() < 1e-15, "channel {i}");
            assert!((ca.p_prior - cb.p_prior).abs() < 1e-15, "channel {i}");
        }
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    }

    #[test]
    fn one_epoch_timeline_reproduces_build_exactly() {
        for (d, rounds) in [(3, 5), (5, 4)] {
            let (direct, tm) = fixed_model(d, rounds);
            assert_models_identical(&direct, &tm.model);
            assert!(tm.remaps.is_empty());
            assert_eq!(tm.epoch_detectors, vec![0..direct.num_detectors]);
        }
    }

    #[test]
    fn one_epoch_timeline_reproduces_build_with_correlated_noise() {
        let patch = Patch::rotated(3);
        let params = NoiseParams::paper().with_correlated(4e-3);
        let noise = QubitNoise::new(params, DefectMap::new());
        let direct = DetectorModel::build(&patch, Basis::Z, 4, &noise, DecoderPrior::Informed);
        let timeline = PatchTimeline::fixed(patch, DefectMap::new());
        let tm = TimelineModel::build(&timeline, Basis::Z, 4, params, None, DecoderPrior::Informed);
        assert_models_identical(&direct, &tm.model);
    }

    #[test]
    fn one_epoch_timeline_matches_spliced_event_model() {
        // A fixed-geometry timeline with a mid-stream event must equal
        // the legacy DetectorModel::splice path channel for channel.
        let patch = Patch::rotated(3);
        let params = NoiseParams::uniform(1e-3);
        let q = surf_lattice::Coord::new(3, 3);
        let event = DefectEvent::new(4, DefectMap::from_qubits([q], 0.5));
        let clean = QubitNoise::new(params, DefectMap::new());
        let struck = QubitNoise::new(params, event.defects.clone());
        let early = DetectorModel::build(&patch, Basis::Z, 8, &clean, DecoderPrior::Informed);
        let late = DetectorModel::build(&patch, Basis::Z, 8, &struck, DecoderPrior::Informed);
        let spliced = early.splice(&late, event.round);
        let timeline = PatchTimeline::fixed(patch, DefectMap::new());
        let tm = TimelineModel::build(
            &timeline,
            Basis::Z,
            8,
            params,
            Some(&event),
            DecoderPrior::Informed,
        );
        assert_models_identical(&spliced, &tm.model);
    }

    fn removal_timeline(d: usize, at: u32) -> PatchTimeline {
        let base = Patch::rotated(d);
        let q = surf_lattice::Coord::new(d as i32, d as i32);
        let mut deformer = Deformer::with_budget(base.clone(), EnlargeBudget::default());
        deformer
            .remove_defects(&DefectMap::from_qubits([q], 0.5))
            .unwrap();
        let mut timeline = PatchTimeline::fixed(base, DefectMap::new());
        timeline.push_epoch(at, deformer.patch().clone(), DefectMap::new());
        timeline
    }

    #[test]
    fn deformation_boundary_produces_merge_detectors() {
        let timeline = removal_timeline(5, 4);
        let tm = TimelineModel::build(
            &timeline,
            Basis::Z,
            8,
            NoiseParams::paper(),
            None,
            DecoderPrior::Informed,
        );
        assert_eq!(tm.remaps.len(), 1);
        let remap = &tm.remaps[0];
        assert_eq!(remap.at_round, 4);
        // DataQ_RM merges the two Z checks adjacent to the removed qubit.
        assert_eq!(remap.merged.len(), 1, "{remap:?}");
        assert_eq!(remap.merged[0].1, 2);
        assert!(remap.killed == 0 && remap.created == 0, "{remap:?}");
        // All other Z groups continue across the boundary.
        assert!(!remap.continued.is_empty());
        // The merge detector's round is the merged chain's first
        // measurement (period-2 Z gauge: first odd round >= 4).
        assert_eq!(tm.model.detector_rounds[remap.merged[0].0], 5);
        // Global detector space is consistent.
        assert_eq!(tm.model.detector_rounds.len(), tm.model.num_detectors);
        for ch in &tm.model.channels {
            assert!(ch.detectors.iter().all(|&d| d < tm.model.num_detectors));
            assert!(ch.detectors.len() <= 2 || ch.p_true > 0.0);
        }
    }

    #[test]
    fn boundary_detectors_straddle_cleanly() {
        // Every continued straddle detector compares rounds across the
        // boundary: its round label is the first late-epoch measurement.
        let timeline = removal_timeline(5, 3);
        let tm = TimelineModel::build(
            &timeline,
            Basis::Z,
            7,
            NoiseParams::paper(),
            None,
            DecoderPrior::Informed,
        );
        let remap = &tm.remaps[0];
        for &d in &remap.continued {
            assert!(tm.model.detector_rounds[d] >= 3, "detector {d}");
            assert!(tm.epoch_detectors[1].contains(&d));
        }
        for &(d, _) in &remap.merged {
            assert!(tm.epoch_detectors[1].contains(&d));
        }
    }

    #[test]
    fn global_graph_is_epoch_ordered() {
        let timeline = removal_timeline(5, 4);
        let tm = TimelineModel::build(
            &timeline,
            Basis::Z,
            8,
            NoiseParams::paper(),
            None,
            DecoderPrior::Informed,
        );
        let epoch_of = |d: usize| tm.epoch_detectors.partition_point(|r| r.end <= d);
        let late_epoch = |e: &surf_matching::Edge| epoch_of(e.b.map_or(e.a, |b| e.a.max(b)));
        let edges = tm.model.graph.edges();
        // Epoch-major, and the late epoch's boundary edges reach back into
        // early detectors.
        assert!(edges
            .windows(2)
            .all(|w| late_epoch(&w[0]) <= late_epoch(&w[1])));
        assert!(edges
            .iter()
            .any(|e| late_epoch(e) == 1 && e.b.is_some_and(|b| epoch_of(e.a.min(b)) == 0)));
        // The same edges as the channel-order graph, stably reordered.
        let unordered = graph_from_channels(tm.model.num_detectors, &tm.model.channels);
        let mut want: Vec<_> = unordered.edges().to_vec();
        want.sort_by_key(late_epoch);
        assert_eq!(edges, &want[..]);
    }

    #[test]
    fn enlargement_epoch_creates_fresh_chains() {
        // Growing the patch adds new stabilizer groups: they start
        // projectively (created), nothing is killed.
        let base = Patch::rotated(5);
        let grown = Patch::rectangle_at(0, 0, 5, 6);
        let mut timeline = PatchTimeline::fixed(base, DefectMap::new());
        timeline.push_epoch(3, grown, DefectMap::new());
        let tm = TimelineModel::build(
            &timeline,
            Basis::Z,
            6,
            NoiseParams::paper(),
            None,
            DecoderPrior::Informed,
        );
        let remap = &tm.remaps[0];
        assert!(remap.created > 0);
        assert!(remap.merged.is_empty());
        assert!(!remap.continued.is_empty());
    }
    /// A recovery-style resize: two whole rows of a 5×7 patch retired at
    /// round 4, so several stabilizer chains are killed with their whole
    /// support measured out.
    fn shrink_timeline() -> PatchTimeline {
        let early = Patch::rectangle_at(0, 0, 5, 7);
        let late = Patch::rectangle_at(0, 0, 5, 5);
        let mut timeline = PatchTimeline::fixed(early, DefectMap::new());
        timeline.push_epoch(4, late, DefectMap::new());
        timeline
    }

    #[test]
    fn shrink_boundary_reconstructs_killed_chains() {
        // Retiring two rows kills six Z chains; the three supported
        // entirely on measured-out qubits keep their final syndrome as a
        // reconstruction detector (the rest straddle the cut: part of
        // their support survives unmeasured, so their value is genuinely
        // discarded).
        let tm = TimelineModel::build(
            &shrink_timeline(),
            Basis::Z,
            8,
            NoiseParams::paper(),
            None,
            DecoderPrior::Informed,
        );
        let remap = &tm.remaps[0];
        assert_eq!(remap.killed, 6);
        assert_eq!(remap.reconstructed.len(), 3, "{remap:?}");
        for &d in &remap.reconstructed {
            // The comparison happens at the boundary round and belongs to
            // the late epoch's detector block.
            assert_eq!(tm.model.detector_rounds[d], 4, "detector {d}");
            assert!(tm.epoch_detectors[1].contains(&d));
            // A misread of the chain's last gauge measurement flips the
            // reconstruction comparison too: some 2-detector channel
            // pairs it with an early-epoch detector.
            assert!(tm
                .model
                .channels
                .iter()
                .any(|c| c.detectors.len() == 2 && c.detectors.contains(&d)));
            // And the boundary measure-outs feeding it are sampled as
            // noisy measurements at the boundary round.
            assert!(tm
                .model
                .channels
                .iter()
                .any(|c| c.round == 4 && c.detectors == vec![d]));
        }
        assert_eq!(tm.model.detector_rounds.len(), tm.model.num_detectors);
        // The X-basis build reconstructs its own killed chains.
        let tx = TimelineModel::build(
            &shrink_timeline(),
            Basis::X,
            8,
            NoiseParams::paper(),
            None,
            DecoderPrior::Informed,
        );
        assert_eq!(tx.remaps[0].killed, 6);
        assert_eq!(tx.remaps[0].reconstructed.len(), 4);
    }

    #[test]
    fn shrink_timeline_failure_counts_are_pinned() {
        // Fixed-seed end-to-end lock on the model *with* absorbed
        // boundary values: reconstruction detectors restore the killed
        // chains' final syndromes and the boundary measure-outs are
        // sampled as noisy measurements. Re-pin deliberately if the
        // boundary physics changes again.
        let timeline = shrink_timeline();
        let mut exp = crate::MemoryExperiment::standard(Patch::rectangle_at(0, 0, 5, 7));
        exp.rounds = 8;
        exp.noise = NoiseParams::uniform(4e-3);
        let config = crate::StreamConfig::new(4000, 11, 8)
            .with_timeline(timeline)
            .with_threads(1);
        let failures = exp.run_stream_basis(Basis::X, &config);
        assert_eq!(failures, 31);
    }
}
