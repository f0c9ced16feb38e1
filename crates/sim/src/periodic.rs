//! Periodic model compilation: detector models O(1) in the horizon.
//!
//! [`TimelineModel::build_scheduled`](crate::TimelineModel::build_scheduled)
//! materialises every round's channels and detectors up front —
//! O(rounds) memory — which caps how far the sparse streaming stack can
//! run (a 10⁶-round compile allocates gigabytes before the first shot). Real QEC control stacks instead compile one
//! periodic syndrome-extraction template per steady-state stretch and
//! index it by round.
//!
//! [`PeriodicModel`] does exactly that. The horizon is cut at every
//! *structure round* (deformation boundaries and defect-episode
//! starts/ends — the same boundaries `TimelineModel` already segments
//! noise at) into stretches of piecewise-constant geometry and noise.
//! Each long stretch keeps literal margins plus one template period in a
//! *compressed* timeline, whose channels and detectors are compiled
//! monolithically (so every boundary effect — init/final/straddle/merge/
//! reconstruction detectors — stays explicit and exact; no decoding graph
//! is built for it); the steady-state middle is served by index
//! arithmetic from the template. Resident memory is O(epochs + compressed
//! rounds), independent of the horizon.
//!
//! The contract is *bit-identity* with the monolithic compile:
//!
//! * detector ids, rounds and per-round detector lists are identical;
//! * the expanded channel list (emission order, detector references,
//!   probabilities, observable flags) is identical, so the sparse sampler
//!   consumes the RNG draw-for-draw like
//!   [`BatchSampler`](crate::BatchSampler) on the monolithic model;
//! * the merged decoding-graph edges served for any decode window are
//!   identical in value *and order* to the monolithic graph (the
//!   [`RoundModelSource`] seam).
//!
//! A conservative validator proves the template assumption channel by
//! channel against the previous period; anything it cannot prove periodic
//! (exotic cadences, channels referencing detectors in their past, a
//! horizon too short to contain a steady-state middle) makes
//! [`PeriodicModel::build`] return `None` and callers fall back to the
//! monolithic path — the periodic path never serves an unverified model.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

use rand::Rng;
use surf_defects::{DefectEpisode, DefectSchedule};
use surf_deformer_core::PatchTimeline;
use surf_lattice::Basis;
use surf_matching::{xor_probability, RoundModelSource, SourceEdge, WindowTranslation};
use surf_pauli::BitBatch;

use crate::model::DecoderPrior;
use crate::noise::NoiseParams;
use crate::sampler::{geometric_fires, GEOMETRIC_THRESHOLD};
use crate::timeline::TimelineChannels;

/// Literal rounds kept on each side of every stretch: wide enough that
/// every boundary-affected channel (straddle detectors, init/merge/final
/// detectors, episode-edge noise segments) lives outside the template.
const MARGIN: u32 = 8;

/// Template length in rounds. Covers measurement cadences 1 and 2 (the
/// super-stabilizer gauge period); every compression shift is a multiple
/// of this, so absolute-round cadence phases are preserved.
const PERIOD: u32 = 2;

/// Rounds of look-behind when enumerating a window's contributing
/// channels: a validated channel's detectors are never earlier than the
/// channel round, and never later than `round + 2` for the *earliest*
/// detector, so contributors to an edge with earliest round `r` have
/// channel rounds in `[r - 2, r]`. Four is two periods of slack.
const ROUND_PAD: u32 = 4;

/// One segment of the round map: `reps == 1` is a literal range copied
/// verbatim; `reps > 1` is a template of `comp_len` compressed rounds
/// standing for `comp_len * reps` real rounds.
#[derive(Clone, Copy, Debug)]
struct Seg {
    real_start: u32,
    comp_start: u32,
    comp_len: u32,
    reps: u32,
}

impl Seg {
    fn real_len(&self) -> u32 {
        self.comp_len * self.reps
    }

    fn template(&self) -> bool {
        self.reps > 1
    }
}

/// The bijection between real rounds `0..rounds` and (compressed round,
/// repetition) pairs.
#[derive(Clone, Debug)]
struct RoundMap {
    segs: Vec<Seg>,
    rounds: u32,
    comp_rounds: u32,
}

impl RoundMap {
    fn build(rounds: u32, breaks: &BTreeSet<u32>) -> RoundMap {
        let mut bounds: Vec<u32> = Vec::with_capacity(breaks.len() + 2);
        bounds.push(0);
        bounds.extend(breaks.iter().copied().filter(|&r| r > 0 && r < rounds));
        bounds.push(rounds);
        let mut segs = Vec::new();
        let mut comp = 0u32;
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            let len = b - a;
            if len >= 2 * MARGIN + 3 * PERIOD {
                // Literal head: prefix margin, the remainder that keeps
                // every shift a multiple of PERIOD, and one full literal
                // period for the template's validator to compare against.
                let mid = len - 2 * MARGIN;
                let rem = mid % PERIOD;
                let reps_total = (mid - rem) / PERIOD;
                let head = MARGIN + rem + PERIOD;
                segs.push(Seg {
                    real_start: a,
                    comp_start: comp,
                    comp_len: head,
                    reps: 1,
                });
                comp += head;
                segs.push(Seg {
                    real_start: a + head,
                    comp_start: comp,
                    comp_len: PERIOD,
                    reps: reps_total - 1,
                });
                comp += PERIOD;
                segs.push(Seg {
                    real_start: b - MARGIN,
                    comp_start: comp,
                    comp_len: MARGIN,
                    reps: 1,
                });
                comp += MARGIN;
            } else {
                segs.push(Seg {
                    real_start: a,
                    comp_start: comp,
                    comp_len: len,
                    reps: 1,
                });
                comp += len;
            }
        }
        RoundMap {
            segs,
            rounds,
            comp_rounds: comp,
        }
    }

    fn seg_of_real(&self, r: u32) -> usize {
        debug_assert!(r < self.rounds);
        self.segs
            .partition_point(|s| s.real_start + s.real_len() <= r)
    }

    fn seg_of_comp(&self, c: u32) -> usize {
        debug_assert!(c < self.comp_rounds);
        self.segs
            .partition_point(|s| s.comp_start + s.comp_len <= c)
    }

    /// Real round -> (compressed round, repetition index).
    fn to_comp(&self, r: u32) -> (u32, u32) {
        if r >= self.rounds {
            return (self.comp_rounds + (r - self.rounds), 0);
        }
        let s = &self.segs[self.seg_of_real(r)];
        let o = r - s.real_start;
        (s.comp_start + o % s.comp_len, o / s.comp_len)
    }

    /// (Compressed round, repetition index) -> real round.
    fn to_real(&self, c: u32, rep: u32) -> u32 {
        if c >= self.comp_rounds {
            return self.rounds + (c - self.comp_rounds);
        }
        let s = &self.segs[self.seg_of_comp(c)];
        debug_assert!(rep < s.reps);
        s.real_start + rep * s.comp_len + (c - s.comp_start)
    }

    /// The template segment whose compressed template range contains `c`.
    fn template_seg_of_comp(&self, c: u32) -> Option<usize> {
        if c >= self.comp_rounds {
            return None;
        }
        let i = self.seg_of_comp(c);
        self.segs[i].template().then_some(i)
    }
}

/// One maximal run of consecutive compressed detector ids whose rounds
/// fall in a template range: `m` detectors per period expanding to
/// `reps * m` real detectors (one group's steady-state detectors in one
/// stretch — runs never span measurement groups, because every group has
/// literal-margin detectors on both sides).
#[derive(Clone, Copy, Debug)]
struct Block {
    /// First compressed detector id of the block.
    comp_first: u32,
    /// Detectors per template period.
    m: u32,
    /// Template repetitions (from the round map segment).
    reps: u32,
    /// Real id of the block's first detector (repetition 0).
    real_first: u32,
}

/// A channel outside every template: emitted literally once.
#[derive(Clone, Debug)]
struct LitChan {
    round: u32,
    dets: Vec<u32>,
    observable: bool,
    p_true: f64,
    p_prior: f64,
}

/// One template channel: real instance `j` fires at `round0 + j*PERIOD`
/// and flips `base + j*stride` for each detector reference.
#[derive(Clone, Debug)]
struct RunChan {
    dets: Vec<(u32, u32)>,
    observable: bool,
    p_true: f64,
    p_prior: f64,
    round0: u32,
}

/// A maximal run of consecutive compressed channels inside one template
/// range (one error-mechanism column crossing a stretch's steady state).
/// The real emission expands repetition-major: all of repetition 0's
/// channels, then repetition 1's, and so on.
#[derive(Clone, Debug)]
struct Run {
    first_chan: u32,
    reps: u32,
    chans: Vec<RunChan>,
}

#[derive(Clone, Copy, Debug)]
enum ChanInfo {
    Lit(u32),
    Run { run: u32, pos: u32 },
}

/// One per-probability sampling group segment (mirrors the monolithic
/// [`BatchSampler`](crate::BatchSampler) group layout, with template runs
/// kept compressed).
#[derive(Clone, Debug)]
enum PSeg {
    Lit { dets: Vec<u32>, observable: bool },
    Run { chans: Vec<PRunChan>, reps: u32 },
}

#[derive(Clone, Debug)]
struct PRunChan {
    dets: Vec<(u32, u32)>,
    observable: bool,
}

#[derive(Clone, Debug)]
struct PGroup {
    p: f64,
    inv_ln_q: f64,
    geometric: bool,
    segs: Vec<PSeg>,
    /// `starts[k]` = real channel instances before segment `k`.
    starts: Vec<u64>,
    total: u64,
}

/// One fired detector word from a periodic sparse sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeriodicEvent {
    /// Real round the detector fires at.
    pub round: u32,
    /// Real (whole-horizon) detector id.
    pub det: u32,
    /// 64-lane firing word.
    pub word: u64,
}

/// Reusable scratch for [`PeriodicModel::sample_sparse_into`].
#[derive(Clone, Debug, Default)]
pub struct PeriodicScratch {
    words: HashMap<u32, u64>,
}

/// A horizon-compressed detector model served by round-index arithmetic.
///
/// Built by [`PeriodicModel::build`]; `None` means the model could not be
/// proven periodic and the caller must fall back to the monolithic
/// [`TimelineModel`](crate::TimelineModel) path. See the module docs for the bit-identity
/// contract.
#[derive(Clone, Debug)]
pub struct PeriodicModel {
    map: RoundMap,
    compressed: TimelineChannels,
    rounds: u32,
    num_detectors: usize,
    blocks: Vec<Block>,
    /// `pre[i]` = real detector ids inserted by blocks `0..i`.
    pre: Vec<u32>,
    lits: Vec<LitChan>,
    runs: Vec<Run>,
    info: Vec<ChanInfo>,
    /// Compressed channel emission indices bucketed by compressed round.
    chan_bucket_start: Vec<u32>,
    chan_bucket: Vec<u32>,
    /// Compressed detector ids bucketed by compressed round (ascending
    /// id within each round).
    det_bucket_start: Vec<u32>,
    det_bucket: Vec<u32>,
    /// Real epoch start rounds.
    epoch_starts: Vec<u32>,
    /// Real one-past-the-end detector id per epoch.
    epoch_det_ends: Vec<u32>,
    groups: Vec<PGroup>,
    expected_fires_per_round: f64,
    /// Per round-map segment: whether windows inside it may be served by
    /// template translation (see [`PeriodicModel::translatable_segments`]).
    translatable: Vec<bool>,
}

impl PeriodicModel {
    /// Compiles the periodic template model for a scheduled timeline, or
    /// `None` when the horizon has no provably-periodic steady state (the
    /// caller then uses
    /// [`TimelineModel::build_scheduled`](crate::TimelineModel::build_scheduled)
    /// directly; both paths are bit-identical wherever this returns
    /// `Some`).
    pub fn build(
        timeline: &PatchTimeline,
        memory_basis: Basis,
        rounds: u32,
        params: NoiseParams,
        schedule: &DefectSchedule,
        prior: DecoderPrior,
    ) -> Option<PeriodicModel> {
        if rounds == 0 {
            return None;
        }
        // Structure rounds: every round where geometry or noise changes.
        let mut breaks: BTreeSet<u32> = BTreeSet::new();
        for e in timeline.epochs() {
            if e.start > 0 && e.start < rounds {
                breaks.insert(e.start);
            }
        }
        for r in schedule.change_rounds(rounds + 1) {
            if r > 0 && r < rounds {
                breaks.insert(r);
            }
        }
        for ep in schedule.episodes() {
            for r in [Some(ep.start), ep.end].into_iter().flatten() {
                if r > 0 && r < rounds {
                    breaks.insert(r);
                }
            }
        }
        let map = RoundMap::build(rounds, &breaks);
        if !map.segs.iter().any(Seg::template) {
            return None;
        }

        // Compressed timeline and schedule: the same epochs and episodes
        // at remapped boundary rounds (every boundary < rounds is a
        // break, so it maps to a literal compressed round exactly).
        let epochs = timeline.epochs();
        let mut ctl = PatchTimeline::fixed(epochs[0].patch.clone(), epochs[0].defects.clone());
        for e in &epochs[1..] {
            ctl.push_epoch(map.to_comp(e.start).0, e.patch.clone(), e.defects.clone());
        }
        let clamp = |r: u32| {
            if r >= rounds {
                map.comp_rounds + (r - rounds).min(1)
            } else {
                map.to_comp(r).0
            }
        };
        let csched =
            DefectSchedule::from_episodes(schedule.episodes().iter().map(|ep| DefectEpisode {
                start: clamp(ep.start),
                end: ep.end.map(clamp),
                defects: ep.defects.clone(),
            }));
        let compressed =
            TimelineChannels::compile(&ctl, memory_basis, map.comp_rounds, params, &csched, prior);

        // Detector blocks: maximal id runs with template rounds, each
        // validated against its literal previous period.
        let det_rounds = &compressed.detector_rounds;
        let comp_dets = compressed.num_detectors as u32;
        let mut blocks: Vec<Block> = Vec::new();
        let mut pre: Vec<u32> = vec![0];
        let mut inserted = 0u32;
        let mut v = 0u32;
        while v < comp_dets {
            let Some(si) = map.template_seg_of_comp(det_rounds[v as usize]) else {
                v += 1;
                continue;
            };
            let start = v;
            while v < comp_dets && map.template_seg_of_comp(det_rounds[v as usize]) == Some(si) {
                v += 1;
            }
            let m = v - start;
            if start < m {
                return None;
            }
            for k in 0..m {
                let twin = det_rounds[(start - m + k) as usize];
                if map.template_seg_of_comp(twin).is_some()
                    || twin + PERIOD != det_rounds[(start + k) as usize]
                {
                    return None;
                }
            }
            let reps = map.segs[si].reps;
            blocks.push(Block {
                comp_first: start,
                m,
                reps,
                real_first: start + inserted,
            });
            inserted += (reps - 1) * m;
            pre.push(inserted);
        }
        let num_detectors = (comp_dets + inserted) as usize;

        let shift_before = |w: u32| -> u32 {
            let i = blocks.partition_point(|b| b.comp_first + b.m <= w);
            pre[i]
        };
        let block_of_comp = |w: u32| -> Option<usize> {
            let i = blocks.partition_point(|b| b.comp_first + b.m <= w);
            (i < blocks.len() && w >= blocks[i].comp_first).then_some(i)
        };
        // Real id of compressed detector `w`'s repetition-0 copy (the
        // identity for literal detectors).
        let rho0 = |w: u32| -> u32 { w + shift_before(w) };
        let real_round_of = |x: u32| -> u32 {
            let i = blocks.partition_point(|b| b.real_first + b.reps * b.m <= x);
            let (v, j) = if i < blocks.len() && x >= blocks[i].real_first {
                let b = &blocks[i];
                let o = x - b.real_first;
                (b.comp_first + o % b.m, o / b.m)
            } else {
                (x - pre[i], 0)
            };
            map.to_real(det_rounds[v as usize], j)
        };

        // Channel classification: literal channels get their real
        // detector ids; template runs are validated channel-by-channel
        // against the literal previous period and keep (base, stride)
        // extrapolation rules.
        let chans = &compressed.channels;
        let n = chans.len();
        let mut info = vec![ChanInfo::Lit(u32::MAX); n];
        let mut lits: Vec<LitChan> = Vec::new();
        let mut runs: Vec<Run> = Vec::new();
        let mut i = 0usize;
        while i < n {
            let Some(si) = map.template_seg_of_comp(chans[i].round) else {
                let ch = &chans[i];
                let round = map.to_real(ch.round, 0);
                let mut dets = Vec::with_capacity(ch.detectors.len());
                for &d in &ch.detectors {
                    let real = rho0(d as u32);
                    if real_round_of(real) < round {
                        return None;
                    }
                    dets.push(real);
                }
                info[i] = ChanInfo::Lit(lits.len() as u32);
                lits.push(LitChan {
                    round,
                    dets,
                    observable: ch.observable,
                    p_true: ch.p_true,
                    p_prior: ch.p_prior,
                });
                i += 1;
                continue;
            };
            let start = i;
            while i < n && map.template_seg_of_comp(chans[i].round) == Some(si) {
                i += 1;
            }
            let len = i - start;
            if start < len {
                return None;
            }
            let reps = map.segs[si].reps;
            let mut rcs = Vec::with_capacity(len);
            for t in 0..len {
                let prev = &chans[start - len + t];
                let cur = &chans[start + t];
                if map.template_seg_of_comp(prev.round).is_some()
                    || prev.round + PERIOD != cur.round
                    || prev.p_true.to_bits() != cur.p_true.to_bits()
                    || prev.p_prior.to_bits() != cur.p_prior.to_bits()
                    || prev.observable != cur.observable
                    || prev.detectors.len() != cur.detectors.len()
                {
                    return None;
                }
                let round0 = map.to_real(cur.round, 0);
                let mut dets = Vec::with_capacity(cur.detectors.len());
                for (&pd, &cd) in prev.detectors.iter().zip(&cur.detectors) {
                    let (pv, cv) = (pd as u32, cd as u32);
                    if cv < pv {
                        return None;
                    }
                    let stride = cv - pv;
                    let base = if stride == 0 {
                        // A repetition-invariant reference (e.g. a future
                        // merge detector) must be a literal detector.
                        if block_of_comp(cv).is_some() {
                            return None;
                        }
                        rho0(cv)
                    } else {
                        // A periodic reference advances by exactly the
                        // per-period detector count of the block it (or
                        // its predecessor, for straddling references)
                        // belongs to.
                        let b = block_of_comp(cv).or_else(|| block_of_comp(pv))?;
                        if blocks[b].m != stride {
                            return None;
                        }
                        rho0(pv) + stride
                    };
                    let last = base as u64 + (reps as u64 - 1) * stride as u64;
                    if last >= num_detectors as u64 {
                        return None;
                    }
                    // No references into the channel's past, and periodic
                    // references must advance one PERIOD per repetition.
                    if real_round_of(base) < round0 {
                        return None;
                    }
                    if stride != 0
                        && reps > 1
                        && real_round_of(base + stride) != real_round_of(base) + PERIOD
                    {
                        return None;
                    }
                    dets.push((base, stride));
                }
                rcs.push(RunChan {
                    dets,
                    observable: cur.observable,
                    p_true: cur.p_true,
                    p_prior: cur.p_prior,
                    round0,
                });
            }
            let run_id = runs.len() as u32;
            for (t, slot) in info[start..start + len].iter_mut().enumerate() {
                *slot = ChanInfo::Run {
                    run: run_id,
                    pos: t as u32,
                };
            }
            runs.push(Run {
                first_chan: start as u32,
                reps,
                chans: rcs,
            });
        }

        // Per-compressed-round buckets (counting sorts preserve id and
        // emission order within each round).
        let nbuckets = (map.comp_rounds + 2) as usize;
        let bucketise = |keys: &mut dyn Iterator<Item = u32>, count: usize| {
            let mut starts = vec![0u32; nbuckets + 1];
            let keys: Vec<u32> = keys.take(count).collect();
            for &k in &keys {
                starts[k as usize + 1] += 1;
            }
            for b in 1..=nbuckets {
                starts[b] += starts[b - 1];
            }
            let mut cursor = starts.clone();
            let mut items = vec![0u32; count];
            for (idx, &k) in keys.iter().enumerate() {
                items[cursor[k as usize] as usize] = idx as u32;
                cursor[k as usize] += 1;
            }
            (starts, items)
        };
        let (chan_bucket_start, chan_bucket) = bucketise(&mut chans.iter().map(|c| c.round), n);
        let (det_bucket_start, det_bucket) =
            bucketise(&mut det_rounds.iter().copied(), comp_dets as usize);

        let epoch_starts: Vec<u32> = epochs.iter().map(|e| e.start).collect();
        let epoch_det_ends: Vec<u32> = compressed
            .epoch_detectors
            .iter()
            .map(|r| {
                let end = r.end as u32;
                end + shift_before(end)
            })
            .collect();

        // Sampling groups: same per-probability grouping, creation order
        // and per-group channel order as the monolithic BatchSampler on
        // the expanded channel list.
        let mut groups: Vec<PGroup> = Vec::new();
        let mut gindex: HashMap<u64, usize> = HashMap::new();
        let mut group_of = |groups: &mut Vec<PGroup>, p: f64| -> usize {
            *gindex.entry(p.to_bits()).or_insert_with(|| {
                groups.push(PGroup {
                    p,
                    inv_ln_q: 1.0 / (-p).ln_1p(),
                    geometric: p < GEOMETRIC_THRESHOLD,
                    segs: Vec::new(),
                    starts: Vec::new(),
                    total: 0,
                });
                groups.len() - 1
            })
        };
        let mut expected = 0.0f64;
        let mut i = 0usize;
        while i < n {
            match info[i] {
                ChanInfo::Lit(li) => {
                    let lc = &lits[li as usize];
                    if lc.p_true > 0.0 {
                        let gi = group_of(&mut groups, lc.p_true);
                        let g = &mut groups[gi];
                        g.starts.push(g.total);
                        g.total += 1;
                        g.segs.push(PSeg::Lit {
                            dets: lc.dets.clone(),
                            observable: lc.observable,
                        });
                        expected += lc.p_true;
                    }
                    i += 1;
                }
                ChanInfo::Run { run, pos } => {
                    debug_assert_eq!(pos, 0);
                    let r = &runs[run as usize];
                    let mut seen: Vec<u64> = Vec::new();
                    for rc in &r.chans {
                        let p = rc.p_true;
                        if p <= 0.0 || seen.contains(&p.to_bits()) {
                            continue;
                        }
                        seen.push(p.to_bits());
                        let filtered: Vec<PRunChan> = r
                            .chans
                            .iter()
                            .filter(|c| c.p_true.to_bits() == p.to_bits())
                            .map(|c| PRunChan {
                                dets: c.dets.clone(),
                                observable: c.observable,
                            })
                            .collect();
                        let count = filtered.len() as u64 * r.reps as u64;
                        expected += p * count as f64;
                        let gi = group_of(&mut groups, p);
                        let g = &mut groups[gi];
                        g.starts.push(g.total);
                        g.total += count;
                        g.segs.push(PSeg::Run {
                            chans: filtered,
                            reps: r.reps,
                        });
                    }
                    i += r.chans.len();
                }
            }
        }
        let expected_fires_per_round = expected / rounds as f64;

        let mut model = PeriodicModel {
            map,
            compressed,
            rounds,
            num_detectors,
            blocks,
            pre,
            lits,
            runs,
            info,
            chan_bucket_start,
            chan_bucket,
            det_bucket_start,
            det_bucket,
            epoch_starts,
            epoch_det_ends,
            groups,
            expected_fires_per_round,
            translatable: Vec::new(),
        };
        model.translatable = model.translatable_segments();
        Some(model)
    }

    /// Which round-map segments serve windows by translation: template
    /// segments whose every template channel references only periodic
    /// detectors (non-zero stride) at most [`ROUND_PAD`] rounds after the
    /// channel, each reference staying in one graph epoch over all
    /// repetitions. Then shifting a window inside the segment by one
    /// period shifts every detector, merged edge and carry target by its
    /// block's per-period count, and leaves the epoch-major edge order
    /// unchanged.
    fn translatable_segments(&self) -> Vec<bool> {
        let mut ok: Vec<bool> = self.map.segs.iter().map(Seg::template).collect();
        for run in &self.runs {
            let comp_round = self.compressed.channels[run.first_chan as usize].round;
            let Some(si) = self.map.template_seg_of_comp(comp_round) else {
                continue;
            };
            let periodic = run.chans.iter().all(|rc| {
                rc.dets.iter().all(|&(base, stride)| {
                    let last = base + (run.reps - 1) * stride;
                    let round = RoundModelSource::detector_round(self, base);
                    stride != 0
                        && (rc.round0..=rc.round0 + ROUND_PAD).contains(&round)
                        && self.epoch_of_det(base) == self.epoch_of_det(last)
                })
            });
            ok[si] &= periodic;
        }
        ok
    }

    /// Noisy rounds of the underlying experiment (readout at `rounds`).
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Number of real (whole-horizon) detectors.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Compressed rounds actually compiled (diagnostic: resident model
    /// size is O(this), not O(`rounds`)).
    pub fn compressed_rounds(&self) -> u32 {
        self.map.comp_rounds
    }

    /// Whether observable threading succeeded for every epoch (same
    /// meaning as
    /// [`TimelineModel::observable_threaded`](crate::TimelineModel::observable_threaded)).
    pub fn observable_threaded(&self) -> bool {
        self.compressed.observable_threaded
    }

    /// Real epoch start rounds.
    pub fn epoch_starts(&self) -> &[u32] {
        &self.epoch_starts
    }

    /// Real rounds where the geometry deforms (epoch starts after 0).
    pub fn deformation_rounds(&self) -> Vec<u32> {
        self.epoch_starts
            .iter()
            .copied()
            .filter(|&r| r > 0)
            .collect()
    }

    /// Expected fired channels per round over the whole horizon — the
    /// event-rate that drives sparse-streaming shot budgets.
    pub fn expected_fires_per_round(&self) -> f64 {
        self.expected_fires_per_round
    }

    fn shift_before(&self, w: u32) -> u32 {
        let i = self.blocks.partition_point(|b| b.comp_first + b.m <= w);
        self.pre[i]
    }

    fn block_of_comp(&self, w: u32) -> Option<usize> {
        let i = self.blocks.partition_point(|b| b.comp_first + b.m <= w);
        (i < self.blocks.len() && w >= self.blocks[i].comp_first).then_some(i)
    }

    /// Real id of compressed detector `v`'s repetition `j` copy.
    fn expand_det(&self, v: u32, j: u32) -> u32 {
        match self.block_of_comp(v) {
            Some(bi) => {
                let b = &self.blocks[bi];
                debug_assert!(j < b.reps);
                b.real_first + j * b.m + (v - b.comp_first)
            }
            None => {
                debug_assert_eq!(j, 0);
                v + self.shift_before(v)
            }
        }
    }

    /// Real detector id -> (compressed id, repetition).
    fn compress_det(&self, x: u32) -> (u32, u32) {
        let i = self
            .blocks
            .partition_point(|b| b.real_first + b.reps * b.m <= x);
        if i < self.blocks.len() && x >= self.blocks[i].real_first {
            let b = &self.blocks[i];
            let o = x - b.real_first;
            (b.comp_first + o % b.m, o / b.m)
        } else {
            (x - self.pre[i], 0)
        }
    }

    /// The graph epoch a real detector belongs to.
    fn epoch_of_det(&self, x: u32) -> usize {
        self.epoch_det_ends.partition_point(|&end| end <= x)
    }

    fn chan_bucket(&self, c: u32) -> &[u32] {
        let lo = self.chan_bucket_start[c as usize] as usize;
        let hi = self.chan_bucket_start[c as usize + 1] as usize;
        &self.chan_bucket[lo..hi]
    }

    fn det_bucket(&self, c: u32) -> &[u32] {
        let lo = self.det_bucket_start[c as usize] as usize;
        let hi = self.det_bucket_start[c as usize + 1] as usize;
        &self.det_bucket[lo..hi]
    }

    /// Resolves the real channel instance `(i, j)`: appends its real
    /// detector ids and returns `(round, observable, p_true, p_prior)`.
    fn resolve(&self, i: u32, j: u32, dets: &mut Vec<u32>) -> (u32, bool, f64, f64) {
        match self.info[i as usize] {
            ChanInfo::Lit(li) => {
                let lc = &self.lits[li as usize];
                debug_assert_eq!(j, 0);
                dets.extend_from_slice(&lc.dets);
                (lc.round, lc.observable, lc.p_true, lc.p_prior)
            }
            ChanInfo::Run { run, pos } => {
                let rc = &self.runs[run as usize].chans[pos as usize];
                for &(base, stride) in &rc.dets {
                    dets.push(base + j * stride);
                }
                (rc.round0 + j * PERIOD, rc.observable, rc.p_true, rc.p_prior)
            }
        }
    }

    /// Visits every real channel in the exact monolithic emission order
    /// (`f(round, detectors, observable, p_true, p_prior)`). O(rounds)
    /// work — this is the diagnostic/equivalence surface, not a hot path.
    pub fn for_each_channel(&self, mut f: impl FnMut(u32, &[u32], bool, f64, f64)) {
        let mut entries: Vec<(u32, u32, u32)> = Vec::new();
        for (i, inf) in self.info.iter().enumerate() {
            match *inf {
                ChanInfo::Lit(_) => entries.push((i as u32, 0, i as u32)),
                ChanInfo::Run { run, .. } => {
                    let r = &self.runs[run as usize];
                    for j in 0..r.reps {
                        entries.push((r.first_chan, j, i as u32));
                    }
                }
            }
        }
        entries.sort_unstable();
        let mut dets = Vec::new();
        for (_, j, i) in entries {
            dets.clear();
            let (round, obs, p_true, p_prior) = self.resolve(i, j, &mut dets);
            f(round, &dets, obs, p_true, p_prior);
        }
    }

    /// Samples one sparse 64-lane batch, consuming `rng` draw-for-draw
    /// identically to
    /// [`BatchSampler::sample_sparse`](crate::BatchSampler::sample_sparse)
    /// on the monolithic model. Events are sorted by (round, detector);
    /// returns the true observable word.
    pub fn sample_sparse_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        lanes: usize,
        scratch: &mut PeriodicScratch,
        events: &mut Vec<PeriodicEvent>,
    ) -> u64 {
        assert!(
            (1..=BitBatch::LANES).contains(&lanes),
            "lanes {lanes} out of range 1..={}",
            BitBatch::LANES
        );
        let lane_mask = BitBatch::mask_for(lanes);
        let words = &mut scratch.words;
        words.clear();
        events.clear();
        let mut obs_word = 0u64;
        for g in &self.groups {
            if g.geometric {
                geometric_fires(rng, g.total as usize, lanes, g.inv_ln_q, |_, c, bit| {
                    let c = c as u64;
                    let k = g.starts.partition_point(|&s| s <= c) - 1;
                    match &g.segs[k] {
                        PSeg::Lit { dets, observable } => {
                            for &d in dets {
                                *words.entry(d).or_insert(0) ^= bit;
                            }
                            if *observable {
                                obs_word ^= bit;
                            }
                        }
                        PSeg::Run { chans, .. } => {
                            let idx = c - g.starts[k];
                            let len = chans.len() as u64;
                            let (j, t) = ((idx / len) as u32, (idx % len) as usize);
                            let rc = &chans[t];
                            for &(base, stride) in &rc.dets {
                                *words.entry(base + j * stride).or_insert(0) ^= bit;
                            }
                            if rc.observable {
                                obs_word ^= bit;
                            }
                        }
                    }
                });
            } else {
                for seg in &g.segs {
                    match seg {
                        PSeg::Lit { dets, observable } => {
                            let mask = crate::sampler::bernoulli_mask(rng, g.p) & lane_mask;
                            if mask == 0 {
                                continue;
                            }
                            for &d in dets {
                                *words.entry(d).or_insert(0) ^= mask;
                            }
                            if *observable {
                                obs_word ^= mask;
                            }
                        }
                        PSeg::Run { chans, reps } => {
                            for j in 0..*reps {
                                for rc in chans {
                                    let mask = crate::sampler::bernoulli_mask(rng, g.p) & lane_mask;
                                    if mask == 0 {
                                        continue;
                                    }
                                    for &(base, stride) in &rc.dets {
                                        *words.entry(base + j * stride).or_insert(0) ^= mask;
                                    }
                                    if rc.observable {
                                        obs_word ^= mask;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        for (&det, &word) in words.iter() {
            if word != 0 {
                events.push(PeriodicEvent {
                    round: self.detector_round(det),
                    det,
                    word,
                });
            }
        }
        events.sort_unstable_by_key(|e| (e.round, e.det));
        obs_word & lane_mask
    }

    /// Number of detectors in `round` — O(1) and allocation-free, so
    /// per-round layout tables (e.g. the daemon's `Opened` frame) can be
    /// built over 10⁶-round horizons without expanding the model.
    pub fn detector_count_in_round(&self, round: u32) -> usize {
        if round > self.rounds {
            return 0;
        }
        let (c, _) = self.map.to_comp(round);
        self.det_bucket(c).len()
    }
}

impl RoundModelSource for PeriodicModel {
    fn total_rounds(&self) -> u32 {
        self.rounds + 1
    }

    fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    fn detector_round(&self, det: u32) -> u32 {
        let (v, j) = self.compress_det(det);
        self.map
            .to_real(self.compressed.detector_rounds[v as usize], j)
    }

    fn detectors_in(&self, rounds: Range<u32>, out: &mut Vec<u32>) {
        for r in rounds.start..rounds.end.min(self.rounds + 1) {
            let (c, j) = self.map.to_comp(r);
            for &v in self.det_bucket(c) {
                out.push(self.expand_det(v, j));
            }
        }
    }

    /// A window translates when its padded range `[start − ROUND_PAD,
    /// end + ROUND_PAD)` — every contributing channel and every detector
    /// they reference — lies inside one translatable template segment.
    /// The canonical start is the segment's first such start in the same
    /// phase modulo the template period, provided its one-period
    /// translate fits too.
    fn window_translation(&self, rounds: Range<u32>) -> Option<WindowTranslation> {
        let len = rounds.end.checked_sub(rounds.start)?;
        let lo = rounds.start.checked_sub(ROUND_PAD)?;
        if lo >= self.rounds {
            return None;
        }
        let si = self.map.seg_of_real(lo);
        if !self.translatable[si] {
            return None;
        }
        let seg = &self.map.segs[si];
        let first = seg.real_start + ROUND_PAD;
        let canonical_start = first + (rounds.start - first) % PERIOD;
        let fits = |start: u32| start + len + ROUND_PAD <= seg.real_start + seg.real_len();
        if !fits(rounds.start) || !fits(canonical_start + PERIOD) {
            return None;
        }
        Some(WindowTranslation {
            canonical_start,
            reps: (rounds.start - canonical_start) / PERIOD,
            period: PERIOD,
        })
    }

    fn window_edges(&self, rounds: Range<u32>, out: &mut Vec<SourceEdge>) {
        let lo = rounds.start.saturating_sub(ROUND_PAD);
        let hi = rounds.end.min(self.rounds + 1);
        let mut entries: Vec<(u32, u32, u32)> = Vec::new();
        for r in lo..hi {
            let (c, j) = self.map.to_comp(r);
            for &i in self.chan_bucket(c) {
                match self.info[i as usize] {
                    ChanInfo::Lit(_) => entries.push((i, 0, i)),
                    ChanInfo::Run { run, .. } => {
                        entries.push((self.runs[run as usize].first_chan, j, i))
                    }
                }
            }
        }
        // (run anchor, repetition, emission index) sorts expanded
        // instances into the exact global emission order.
        entries.sort_unstable();

        // Replay the monolithic single-pass merge (same key semantics and
        // float expression as DecodingGraph::add_edge) in emission order.
        let base_len = out.len();
        let mut index: HashMap<(u32, u32, u64), usize> = HashMap::new();
        let mut dets: Vec<u32> = Vec::new();
        let mut add = |out: &mut Vec<SourceEdge>, a: u32, b: Option<u32>, p: f64, obs: u64| {
            if p == 0.0 {
                return;
            }
            let key = match b {
                Some(b) => (a.min(b), a.max(b), obs),
                None => (a, u32::MAX, obs),
            };
            match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let edge = &mut out[*e.get()];
                    edge.probability = xor_probability(edge.probability, p);
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(out.len());
                    out.push(SourceEdge {
                        a,
                        b,
                        probability: p,
                        observables: obs,
                    });
                }
            }
        };
        for &(_, j, i) in &entries {
            dets.clear();
            let (_, obs, _, p_prior) = self.resolve(i, j, &mut dets);
            let observables = obs as u64;
            match dets.len() {
                0 => {}
                1 => add(out, dets[0], None, p_prior, observables),
                2 => add(out, dets[0], Some(dets[1]), p_prior, observables),
                _ => {
                    add(out, dets[0], Some(dets[1]), p_prior, observables);
                    for &d in &dets[2..] {
                        add(out, d, None, p_prior, 0);
                    }
                }
            }
        }
        // The monolithic graph orders edges by graph epoch first (stable
        // within an epoch; see `TimelineModel::build_scheduled`).
        out[base_len..].sort_by_key(|e| {
            let ea = self.epoch_of_det(e.a);
            match e.b {
                Some(b) => ea.max(self.epoch_of_det(b)),
                None => ea,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SparseBatch, TimelineModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use surf_defects::DefectMap;
    use surf_deformer_core::{Deformer, EnlargeBudget};
    use surf_lattice::Patch;

    fn assert_round_map_bijective(map: &RoundMap) {
        let mut seen = vec![false; map.comp_rounds as usize];
        for r in 0..map.rounds {
            let (c, j) = map.to_comp(r);
            assert!(c < map.comp_rounds);
            seen[c as usize] = true;
            assert_eq!(map.to_real(c, j), r, "round {r}");
        }
        assert!(seen.iter().all(|&s| s), "unused compressed rounds");
        assert_eq!(map.to_comp(map.rounds), (map.comp_rounds, 0));
    }

    #[test]
    fn round_map_is_a_bijection_on_real_rounds() {
        for (rounds, breaks) in [
            (60, vec![]),
            (61, vec![]),
            (200, vec![50, 53, 130]),
            (23, vec![]),
            (100, vec![99]),
            (1_000, vec![7, 500]),
        ] {
            let set: BTreeSet<u32> = breaks.into_iter().collect();
            let map = RoundMap::build(rounds, &set);
            assert_round_map_bijective(&map);
        }
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

    /// The monolithic model + a periodic compile of the same experiment.
    fn pair(
        timeline: &PatchTimeline,
        rounds: u32,
        schedule: &DefectSchedule,
    ) -> (TimelineModel, PeriodicModel) {
        let params = NoiseParams::paper();
        let mono = TimelineModel::build_scheduled(
            timeline,
            Basis::Z,
            rounds,
            params,
            schedule,
            DecoderPrior::Informed,
        );
        let per = PeriodicModel::build(
            timeline,
            Basis::Z,
            rounds,
            params,
            schedule,
            DecoderPrior::Informed,
        )
        .expect("horizon long enough to compress");
        (mono, per)
    }

    fn assert_bit_identical(mono: &TimelineModel, per: &PeriodicModel) {
        assert!(per.compressed_rounds() < per.rounds());
        assert_eq!(per.num_detectors(), mono.model.num_detectors);
        assert_eq!(per.observable_threaded(), mono.observable_threaded);
        for (d, &r) in mono.model.detector_rounds.iter().enumerate() {
            assert_eq!(per.detector_round(d as u32), r, "detector {d}");
        }
        // Per-round detector lists.
        let total = per.total_rounds();
        let mut got = Vec::new();
        per.detectors_in(0..total, &mut got);
        let mut want: Vec<u32> = (0..mono.model.num_detectors as u32).collect();
        want.sort_by_key(|&d| (mono.model.detector_rounds[d as usize], d));
        assert_eq!(got, want, "per-round detector lists");
        // The expanded channel list, in exact emission order.
        let mut idx = 0usize;
        per.for_each_channel(|round, dets, obs, p_true, p_prior| {
            let m = &mono.model.channels[idx];
            assert_eq!(round, m.round, "channel {idx} round");
            assert_eq!(
                dets.iter().map(|&d| d as usize).collect::<Vec<_>>(),
                m.detectors,
                "channel {idx} detectors"
            );
            assert_eq!(obs, m.observable, "channel {idx} observable");
            assert_eq!(p_true.to_bits(), m.p_true.to_bits(), "channel {idx} p_true");
            assert_eq!(
                p_prior.to_bits(),
                m.p_prior.to_bits(),
                "channel {idx} p_prior"
            );
            idx += 1;
        });
        assert_eq!(idx, mono.model.channels.len(), "channel count");
        // Window edges over the full horizon equal the monolithic graph
        // edge for edge: same values, same (epoch-major) order.
        let mut got = Vec::new();
        per.window_edges(0..total, &mut got);
        let want = mono.model.graph.edges();
        assert_eq!(got.len(), want.len(), "edge count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.a as usize, w.a, "edge {i} endpoint a");
            assert_eq!(g.b.map(|b| b as usize), w.b, "edge {i} endpoint b");
            assert_eq!(g.observables, w.observables, "edge {i} observables");
            assert_eq!(
                g.probability.to_bits(),
                w.probability.to_bits(),
                "edge {i} probability"
            );
        }
    }

    #[test]
    fn static_patch_expands_bit_identically() {
        let patch = Patch::rotated(3);
        let timeline = PatchTimeline::fixed(patch, DefectMap::new());
        for rounds in [60, 61, 75] {
            let (mono, per) = pair(&timeline, rounds, &DefectSchedule::new());
            assert_bit_identical(&mono, &per);
        }
    }

    #[test]
    fn deformed_timeline_expands_bit_identically() {
        let timeline = removal_timeline(3, 40);
        let (mono, per) = pair(&timeline, 110, &DefectSchedule::new());
        assert_eq!(per.epoch_starts(), &[0, 40]);
        assert_bit_identical(&mono, &per);
    }

    #[test]
    fn scheduled_defects_expand_bit_identically() {
        let timeline = removal_timeline(3, 50);
        let q = surf_lattice::Coord::new(1, 1);
        let schedule = DefectSchedule::from_episodes([
            DefectEpisode {
                start: 20,
                end: Some(80),
                defects: DefectMap::from_qubits([q], 0.4),
            },
            DefectEpisode {
                start: 120,
                end: None,
                defects: DefectMap::from_qubits([surf_lattice::Coord::new(3, 1)], 0.3),
            },
        ]);
        let (mono, per) = pair(&timeline, 170, &schedule);
        assert_bit_identical(&mono, &per);
    }

    #[test]
    fn short_horizons_fall_back_to_monolithic() {
        let patch = Patch::rotated(3);
        let timeline = PatchTimeline::fixed(patch, DefectMap::new());
        let per = PeriodicModel::build(
            &timeline,
            Basis::Z,
            21,
            NoiseParams::paper(),
            &DefectSchedule::new(),
            DecoderPrior::Informed,
        );
        assert!(per.is_none(), "21 rounds has no compressible stretch");
    }

    #[test]
    fn window_edges_over_sub_ranges_match_the_full_graph() {
        let timeline = removal_timeline(3, 30);
        let (mono, per) = pair(&timeline, 90, &DefectSchedule::new());
        let rounds_of = &mono.model.detector_rounds;
        let mut full = Vec::new();
        per.window_edges(0..per.total_rounds(), &mut full);
        for (start, end) in [(0u32, 10u32), (10, 20), (25, 35), (40, 60), (80, 91)] {
            let mut got = Vec::new();
            per.window_edges(start..end, &mut got);
            let in_range = |e: &SourceEdge| {
                let ra = rounds_of[e.a as usize];
                let rlo = match e.b {
                    Some(b) => ra.min(rounds_of[b as usize]),
                    None => ra,
                };
                (start..end).contains(&rlo)
            };
            let want: Vec<&SourceEdge> = full.iter().filter(|e| in_range(e)).collect();
            let got_filtered: Vec<&SourceEdge> = got.iter().filter(|e| in_range(e)).collect();
            assert_eq!(got_filtered.len(), want.len(), "window {start}..{end}");
            for (g, w) in got_filtered.iter().zip(&want) {
                assert_eq!(g.a, w.a, "window {start}..{end}");
                assert_eq!(g.b, w.b);
                assert_eq!(g.observables, w.observables);
                assert_eq!(g.probability.to_bits(), w.probability.to_bits());
            }
        }
    }

    #[test]
    fn sparse_sampling_consumes_the_rng_draw_for_draw() {
        let timeline = removal_timeline(3, 40);
        let q = surf_lattice::Coord::new(1, 1);
        let schedule = DefectSchedule::from_episodes([DefectEpisode {
            start: 25,
            end: Some(60),
            defects: DefectMap::from_qubits([q], 0.4),
        }]);
        let (mono, per) = pair(&timeline, 130, &schedule);
        let sampler = mono.model.batch_sampler();
        let mut batch = SparseBatch::new(mono.model.num_detectors);
        let mut scratch = PeriodicScratch::default();
        let mut events = Vec::new();
        for seed in 0..8u64 {
            for lanes in [64usize, 17, 1] {
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let obs_a = sampler.sample_sparse(&mut rng_a, lanes, &mut batch);
                let obs_b = per.sample_sparse_into(&mut rng_b, lanes, &mut scratch, &mut events);
                assert_eq!(obs_a, obs_b, "observable word (seed {seed}, lanes {lanes})");
                let mut want: Vec<(u32, u32, u64)> = batch
                    .touched()
                    .iter()
                    .filter_map(|&d| {
                        let w = batch.word(d as usize);
                        (w != 0).then(|| (mono.model.detector_rounds[d as usize], d, w))
                    })
                    .collect();
                want.sort_unstable();
                let got: Vec<(u32, u32, u64)> =
                    events.iter().map(|e| (e.round, e.det, e.word)).collect();
                assert_eq!(got, want, "events (seed {seed}, lanes {lanes})");
                // Draw-for-draw: both RNGs must be in the same state.
                assert_eq!(
                    rng_a.gen::<u64>(),
                    rng_b.gen::<u64>(),
                    "rng state diverged (seed {seed}, lanes {lanes})"
                );
            }
        }
    }

    #[test]
    fn event_rate_is_positive_and_horizon_free() {
        let patch = Patch::rotated(3);
        let timeline = PatchTimeline::fixed(patch, DefectMap::new());
        let (_, per_a) = pair(&timeline, 100, &DefectSchedule::new());
        let (_, per_b) = pair(&timeline, 10_000, &DefectSchedule::new());
        assert!(per_a.expected_fires_per_round() > 0.0);
        // Steady state dominates: the rate barely moves with the horizon.
        let ratio = per_a.expected_fires_per_round() / per_b.expected_fires_per_round();
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
        // And the compressed size does not grow with the horizon.
        assert_eq!(per_a.compressed_rounds(), per_b.compressed_rounds());
    }
}
