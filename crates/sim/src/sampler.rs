//! Word-level bit-packed batch sampling of detector-error models.
//!
//! The scalar [`DetectorModel::sample`](crate::DetectorModel::sample) draws
//! one `f64` per error channel per shot. The [`BatchSampler`] instead fills
//! a [`BitBatch`] with up to 64 shots at once, walking the channel list a
//! single time per batch and choosing, per channel-probability group, the
//! cheaper of two exact Bernoulli strategies:
//!
//! * **Geometric skipping** (rare channels, `p <` [`GEOMETRIC_THRESHOLD`]):
//!   successes over the `channels × lanes` trial grid are enumerated by
//!   geometric jumps, costing ~one RNG draw per *firing* instead of one
//!   per trial — a ~`1/p` reduction at paper noise levels.
//! * **Per-word Bernoulli masks** (common channels): one 64-lane mask per
//!   channel built from the binary expansion of `p` with
//!   [`bernoulli_mask`], costing at most 32 draws per 64 shots.
//!
//! Both strategies draw exact Bernoulli samples (the mask path quantises
//! `p` to 32 fractional bits, an absolute error below `2⁻³²`), so batch
//! statistics match the scalar oracle; `tests/batch_sampling.rs` checks
//! this against [`DetectorModel::sample`] in aggregate and exactly at
//! `p = 0`.

use rand::Rng;
use surf_pauli::BitBatch;

use crate::model::Channel;

/// Probability below which geometric skipping beats per-word masks.
pub const GEOMETRIC_THRESHOLD: f64 = 0.2;

/// Draws a 64-lane Bernoulli mask: each bit is set independently with
/// probability `p` (quantised to 32 fractional bits; `0` and `1` exact).
///
/// Uses the binary-expansion composition: walking the fraction bits of `p`
/// from least to most significant, `mask = mask | u` for a one-bit and
/// `mask = mask & u` for a zero-bit (with `u` fresh uniform words) yields
/// `P(bit set) = p` in at most 32 draws.
pub fn bernoulli_mask<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return u64::MAX;
    }
    let q = (p * (1u64 << 32) as f64).round() as u64;
    if q == 0 {
        return 0;
    }
    if q >= 1 << 32 {
        return u64::MAX;
    }
    let tz = q.trailing_zeros();
    let mut bits = q >> tz;
    let mut mask = 0u64;
    for _ in tz..32 {
        let u = rng.next_u64();
        mask = if bits & 1 == 1 { mask | u } else { mask & u };
        bits >>= 1;
    }
    mask
}

/// A deterministic natural logarithm for the geometric-skip hot path.
///
/// `f64::ln` routes through the platform libm, whose last-bit rounding
/// varies across platforms — which would make geometric skip lengths,
/// and therefore every sampled trajectory, platform-dependent. This
/// self-contained evaluation (exponent split plus an odd atanh series on
/// the mantissa, relative error < 1e-9 — far below the quantisation the
/// skip floor applies) pins the `(shots, seed)` determinism contract to
/// the code rather than the host libm, and runs ~3× faster than the libm
/// call on the machines this was tuned on.
///
/// Domain: finite `x > 0` (the hot path feeds `u ∈ (2⁻⁵³, 1]`;
/// subnormals, zero, negatives and non-finite inputs are excluded by
/// construction there and unsupported here).
pub(crate) fn fast_ln(x: f64) -> f64 {
    const LN_2: f64 = std::f64::consts::LN_2;
    const SQRT_2: f64 = std::f64::consts::SQRT_2;
    let bits = x.to_bits();
    // Split x = m · 2^e with m ∈ [1, 2).
    let mut e = ((bits >> 52) & 0x7FF) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // Re-centre to m ∈ [√2/2, √2) so |t| ≤ 3 − 2√2 ≈ 0.1716.
    if m >= SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    // ln m = 2·atanh t with t = (m − 1)/(m + 1):
    // 2t·(1 + t²/3 + … + t¹⁰/11), truncation error < t¹³/13 ≈ 1e-11.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let series = 2.0
        * t
        * (1.0
            + t2 * (1.0 / 3.0
                + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0 + t2 * (1.0 / 9.0 + t2 * (1.0 / 11.0))))));
    e as f64 * LN_2 + series
}

/// One geometric skip length: the number of Bernoulli(`p`) failures
/// before the next success, `⌊ln u / ln(1 − p)⌋` with `u` uniform on
/// `(0, 1]` and `inv_ln_q = 1 / ln(1 − p)` precomputed by the caller.
#[inline]
pub(crate) fn geometric_skip<R: Rng + ?Sized>(rng: &mut R, inv_ln_q: f64) -> u64 {
    let u = 1.0 - rng.gen::<f64>(); // (0, 1]
    (fast_ln(u) * inv_ln_q) as u64 // ≥ 0, floors
}

/// Enumerates Bernoulli(`p`) successes over the `sites × lanes` trial grid
/// by geometric jumps ([`geometric_skip`]), calling
/// `fire(rng, site, lane_bit)` for each. Costs ~one RNG draw per *firing*
/// instead of one per trial — the shared core of the rare-channel paths in
/// [`BatchSampler`] and the frame batch sampler.
pub(crate) fn geometric_fires<R: Rng + ?Sized>(
    rng: &mut R,
    sites: usize,
    lanes: usize,
    inv_ln_q: f64,
    mut fire: impl FnMut(&mut R, usize, u64),
) {
    let total = sites as u64 * lanes as u64;
    let mut t = 0u64;
    if lanes == 64 {
        // Full-word batches (every batch but the global tail): the
        // site/lane split is a shift and a mask instead of a hardware
        // division per firing.
        loop {
            t = t.saturating_add(geometric_skip(rng, inv_ln_q));
            if t >= total {
                break;
            }
            fire(rng, (t >> 6) as usize, 1u64 << (t & 63));
            t += 1;
        }
        return;
    }
    loop {
        t = t.saturating_add(geometric_skip(rng, inv_ln_q));
        if t >= total {
            break;
        }
        fire(rng, (t / lanes as u64) as usize, 1u64 << (t % lanes as u64));
        t += 1;
    }
}

/// A sparse 64-shot sample: dense per-detector scratch plus the list of
/// detectors touched by at least one firing, so a mostly-silent batch can
/// be consumed *and reset* in O(firings) instead of O(detectors). The
/// payoff grows with the stream length — a 10⁵-round model has millions of
/// detector rows but only ~p · rows firings per batch.
pub struct SparseBatch {
    /// One word per detector; zero everywhere outside `touched`.
    words: Vec<u64>,
    /// Detectors hit this batch, unsorted, each listed once.
    touched: Vec<u32>,
    /// Membership bitmap for `touched`.
    marked: Vec<u64>,
}

impl SparseBatch {
    /// An empty sparse batch over `num_detectors` detector rows.
    pub fn new(num_detectors: usize) -> Self {
        SparseBatch {
            words: vec![0u64; num_detectors],
            touched: Vec::new(),
            marked: vec![0u64; num_detectors.div_ceil(64)],
        }
    }

    /// Number of detector rows.
    pub fn num_detectors(&self) -> usize {
        self.words.len()
    }

    /// Detectors hit by at least one firing this batch (unsorted; a
    /// detector flipped an even number of times in every lane stays
    /// listed, with word 0).
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// The defect word of `det` (lane `b` = shot `b`).
    pub fn word(&self, det: usize) -> u64 {
        self.words[det]
    }

    /// Clears only the touched entries — O(firings).
    pub fn clear(&mut self) {
        for &d in &self.touched {
            self.words[d as usize] = 0;
            self.marked[(d / 64) as usize] &= !(1u64 << (d % 64));
        }
        self.touched.clear();
    }

    fn xor_word(&mut self, det: usize, bit: u64) {
        if self.marked[det / 64] & (1u64 << (det % 64)) == 0 {
            self.marked[det / 64] |= 1u64 << (det % 64);
            self.touched.push(det as u32);
        }
        self.words[det] ^= bit;
    }
}

/// Error channels grouped by firing probability.
struct Group {
    /// Shared firing probability.
    p: f64,
    /// `1 / ln(1 - p)` (negative), for geometric jump lengths.
    inv_ln_q: f64,
    /// Whether this group uses geometric skipping.
    geometric: bool,
    /// Channel `c` flips detectors `dets[det_start[c]..det_start[c + 1]]`.
    det_start: Vec<u32>,
    dets: Vec<u32>,
    /// Whether channel `c` flips the logical observable.
    observable: Vec<bool>,
}

/// A reusable 64-shot batch sampler over a fixed channel list.
///
/// Build once per detector model (via
/// [`DetectorModel::batch_sampler`](crate::DetectorModel::batch_sampler))
/// and call [`sample_into`](Self::sample_into) per batch.
pub struct BatchSampler {
    num_detectors: usize,
    groups: Vec<Group>,
}

impl BatchSampler {
    /// Groups `channels` by true firing probability (channels with
    /// `p_true <= 0` never fire and are dropped, keeping the noiseless
    /// path exactly silent).
    pub fn new(channels: &[Channel], num_detectors: usize) -> Self {
        let mut groups: Vec<Group> = Vec::new();
        let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for ch in channels {
            if ch.p_true <= 0.0 {
                continue;
            }
            let gi = *index.entry(ch.p_true.to_bits()).or_insert_with(|| {
                groups.push(Group {
                    p: ch.p_true,
                    inv_ln_q: 1.0 / (-ch.p_true).ln_1p(),
                    geometric: ch.p_true < GEOMETRIC_THRESHOLD,
                    det_start: vec![0],
                    dets: Vec::new(),
                    observable: Vec::new(),
                });
                groups.len() - 1
            });
            let g = &mut groups[gi];
            g.dets.extend(ch.detectors.iter().map(|&d| d as u32));
            g.det_start.push(g.dets.len() as u32);
            g.observable.push(ch.observable);
        }
        BatchSampler {
            num_detectors,
            groups,
        }
    }

    /// Number of detector rows the produced batches carry.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Samples one batch of `batch.lanes()` shots into `batch` (cleared
    /// first) and returns the observable-flip word (lane `b` = shot `b`).
    ///
    /// # Panics
    ///
    /// Panics if `batch.num_bits()` differs from the model's detector
    /// count.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, batch: &mut BitBatch) -> u64 {
        assert_eq!(
            batch.num_bits(),
            self.num_detectors,
            "batch shape does not match the detector model"
        );
        batch.clear();
        let lanes = batch.lanes();
        let lane_mask = batch.lane_mask();
        let mut obs_word = 0u64;
        for g in &self.groups {
            let num_channels = g.observable.len();
            if g.geometric {
                geometric_fires(rng, num_channels, lanes, g.inv_ln_q, |_, c, bit| {
                    for &d in &g.dets[g.det_start[c] as usize..g.det_start[c + 1] as usize] {
                        batch.xor_word(d as usize, bit);
                    }
                    if g.observable[c] {
                        obs_word ^= bit;
                    }
                });
            } else {
                for c in 0..num_channels {
                    let mask = bernoulli_mask(rng, g.p) & lane_mask;
                    if mask == 0 {
                        continue;
                    }
                    for &d in &g.dets[g.det_start[c] as usize..g.det_start[c + 1] as usize] {
                        batch.xor_word(d as usize, mask);
                    }
                    if g.observable[c] {
                        obs_word ^= mask;
                    }
                }
            }
        }
        obs_word & lane_mask
    }

    /// The sparse twin of [`sample_into`](Self::sample_into): runs the
    /// identical per-group strategies and consumes `rng` draw-for-draw
    /// the same (the produced sample is bit-identical to the dense one
    /// for the same RNG state — the sparse streaming determinism
    /// contract), but accumulates firings into `out`'s touched-set
    /// representation so reading and clearing the batch costs
    /// O(firings), not O(detectors).
    pub fn sample_sparse<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        lanes: usize,
        out: &mut SparseBatch,
    ) -> u64 {
        assert_eq!(
            out.num_detectors(),
            self.num_detectors,
            "sparse batch shape does not match the detector model"
        );
        assert!(
            (1..=BitBatch::LANES).contains(&lanes),
            "lanes {lanes} out of range 1..={}",
            BitBatch::LANES
        );
        out.clear();
        let lane_mask = BitBatch::mask_for(lanes);
        let mut obs_word = 0u64;
        for g in &self.groups {
            let num_channels = g.observable.len();
            if g.geometric {
                geometric_fires(rng, num_channels, lanes, g.inv_ln_q, |_, c, bit| {
                    for &d in &g.dets[g.det_start[c] as usize..g.det_start[c + 1] as usize] {
                        out.xor_word(d as usize, bit);
                    }
                    if g.observable[c] {
                        obs_word ^= bit;
                    }
                });
            } else {
                for c in 0..num_channels {
                    let mask = bernoulli_mask(rng, g.p) & lane_mask;
                    if mask == 0 {
                        continue;
                    }
                    for &d in &g.dets[g.det_start[c] as usize..g.det_start[c + 1] as usize] {
                        out.xor_word(d as usize, mask);
                    }
                    if g.observable[c] {
                        obs_word ^= mask;
                    }
                }
            }
        }
        obs_word & lane_mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fast_ln_tracks_libm_over_the_geometric_domain() {
        // The hot path feeds u ∈ (2⁻⁵³, 1]; cover that plus the rest of
        // the positive normals for headroom. Relative error < 1e-9 keeps
        // skip = ⌊ln u / ln(1 − p)⌋ statistically indistinguishable.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20_000 {
            let u = 1.0 - rng.gen::<f64>(); // (0, 1]
            let got = fast_ln(u);
            let want = u.ln();
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1e-300),
                "u={u:e}: fast {got:e} vs libm {want:e}"
            );
        }
        // Exact anchors and extremes of the domain.
        assert_eq!(fast_ln(1.0), 0.0);
        for x in [2.0f64, 0.5, f64::MIN_POSITIVE, f64::MAX, 1e-300, 1e300] {
            let (got, want) = (fast_ln(x), x.ln());
            assert!(
                (got - want).abs() <= 1e-9 * want.abs(),
                "x={x:e}: fast {got:e} vs libm {want:e}"
            );
        }
    }

    fn channel(detectors: Vec<usize>, observable: bool, p: f64) -> Channel {
        Channel {
            detectors,
            observable,
            p_true: p,
            p_prior: p,
            round: 0,
        }
    }

    #[test]
    fn bernoulli_mask_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(bernoulli_mask(&mut rng, 0.0), 0);
        assert_eq!(bernoulli_mask(&mut rng, 1.0), u64::MAX);
        assert_eq!(bernoulli_mask(&mut rng, -0.5), 0);
        assert_eq!(bernoulli_mask(&mut rng, 1.5), u64::MAX);
    }

    #[test]
    fn bernoulli_mask_density_tracks_p() {
        let mut rng = StdRng::seed_from_u64(7);
        for &p in &[0.03, 0.25, 0.5, 0.9] {
            let trials = 4000u64;
            let ones: u64 = (0..trials)
                .map(|_| bernoulli_mask(&mut rng, p).count_ones() as u64)
                .sum();
            let observed = ones as f64 / (trials * 64) as f64;
            // 64·4000 = 256k trials: ±5σ band is well within 10 % relative.
            assert!(
                (observed - p).abs() < 0.1 * p.max(0.05),
                "p = {p}: observed {observed}"
            );
        }
    }

    #[test]
    fn zero_probability_channels_never_fire() {
        let sampler = BatchSampler::new(&[channel(vec![0, 1], true, 0.0)], 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut batch = BitBatch::zeros(2);
        for _ in 0..32 {
            let obs = sampler.sample_into(&mut rng, &mut batch);
            assert_eq!(obs, 0);
            assert_eq!(batch.count_ones(), 0);
        }
    }

    #[test]
    fn certain_channel_always_fires() {
        // p = 0.5 twice on the same detector: each lane flips detector 0
        // zero, once, or twice; observable word = XOR of both firings.
        let sampler = BatchSampler::new(
            &[channel(vec![0], true, 0.5), channel(vec![0], false, 0.5)],
            1,
        );
        let mut rng = StdRng::seed_from_u64(11);
        let mut batch = BitBatch::zeros(1);
        let mut fired = 0u64;
        let batches = 400;
        for _ in 0..batches {
            let obs = sampler.sample_into(&mut rng, &mut batch);
            fired += obs.count_ones() as u64;
        }
        // Observable tracks only the first channel: expect ~p = 0.5.
        let rate = fired as f64 / (batches * 64) as f64;
        assert!((rate - 0.5).abs() < 0.03, "obs rate {rate}");
    }

    #[test]
    fn geometric_and_mask_paths_agree_statistically() {
        // Same physical channel sampled through both strategies (forced by
        // probabilities either side of the threshold would differ, so use a
        // direct frequency check on the geometric path instead).
        let p = 0.01;
        let sampler = BatchSampler::new(&[channel(vec![0], false, p)], 1);
        assert!(sampler.groups[0].geometric);
        let mut rng = StdRng::seed_from_u64(5);
        let mut batch = BitBatch::zeros(1);
        let batches = 3000;
        let mut flips = 0usize;
        for _ in 0..batches {
            sampler.sample_into(&mut rng, &mut batch);
            flips += batch.count_ones();
        }
        let observed = flips as f64 / (batches * 64) as f64;
        assert!(
            (observed - p).abs() < 0.15 * p,
            "geometric path density {observed} vs {p}"
        );
    }

    #[test]
    fn dropped_zero_channels_do_not_shift_detector_alignment() {
        // p = 0 channels interleaved with live ones: the grouped
        // detector/observable tables must stay aligned with the surviving
        // channels (a misalignment would fire the wrong detectors).
        let channels = vec![
            channel(vec![0], true, 0.0), // dropped
            channel(vec![1, 2], false, 0.5),
            channel(vec![3], true, 0.0), // dropped
            channel(vec![4], true, 0.5),
            channel(vec![5], false, 0.0), // dropped
        ];
        let sampler = BatchSampler::new(&channels, 6);
        assert_eq!(sampler.groups.len(), 1, "both live channels share p");
        let g = &sampler.groups[0];
        assert_eq!(g.observable, vec![false, true]);
        assert_eq!(g.det_start, vec![0, 2, 3]);
        assert_eq!(g.dets, vec![1, 2, 4]);
        let mut rng = StdRng::seed_from_u64(17);
        let mut batch = BitBatch::zeros(6);
        for _ in 0..64 {
            let obs = sampler.sample_into(&mut rng, &mut batch);
            // Dropped channels' detectors never fire...
            assert_eq!(batch.word(0), 0);
            assert_eq!(batch.word(3), 0);
            assert_eq!(batch.word(5), 0);
            // ...the pair channel flips rows 1 and 2 in lockstep, and the
            // observable word tracks exactly the detector-4 channel.
            assert_eq!(batch.word(1), batch.word(2));
            assert_eq!(obs, batch.word(4));
        }
    }

    #[test]
    fn all_zero_model_yields_an_empty_sampler() {
        let channels = vec![channel(vec![0], true, 0.0), channel(vec![], true, 0.0)];
        let sampler = BatchSampler::new(&channels, 1);
        assert!(sampler.groups.is_empty());
        // Sampling must not consume any RNG draws: the next draw from the
        // used RNG must equal the first draw of an untouched clone.
        let mut rng = StdRng::seed_from_u64(3);
        let mut batch = BitBatch::zeros(1);
        sampler.sample_into(&mut rng, &mut batch);
        let mut untouched = StdRng::seed_from_u64(3);
        assert_eq!(
            rng.gen::<f64>(),
            untouched.gen::<f64>(),
            "no draws consumed"
        );
    }

    #[test]
    fn geometric_threshold_boundary_is_exclusive() {
        // p exactly at the threshold takes the mask path (`<`, not `<=`);
        // a nudge below takes geometric skipping. Both remain exact
        // Bernoulli samplers, so their densities agree at the boundary.
        let at = BatchSampler::new(&[channel(vec![0], false, GEOMETRIC_THRESHOLD)], 1);
        assert!(!at.groups[0].geometric, "p = 0.2 must use the mask path");
        let below = BatchSampler::new(&[channel(vec![0], false, GEOMETRIC_THRESHOLD - 1e-9)], 1);
        assert!(below.groups[0].geometric, "p < 0.2 must use geometric");
        let density = |sampler: &BatchSampler, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut batch = BitBatch::zeros(1);
            let batches = 2000;
            let mut ones = 0usize;
            for _ in 0..batches {
                sampler.sample_into(&mut rng, &mut batch);
                ones += batch.count_ones();
            }
            ones as f64 / (batches * 64) as f64
        };
        let d_at = density(&at, 21);
        let d_below = density(&below, 22);
        assert!((d_at - 0.2).abs() < 0.01, "mask path at boundary: {d_at}");
        assert!(
            (d_below - 0.2).abs() < 0.01,
            "geometric path at boundary: {d_below}"
        );
    }

    #[test]
    fn geometric_fires_covers_the_full_trial_grid() {
        // p close to 1 within the geometric regime: every (site, lane)
        // trial must stay in bounds and the last site must be reachable
        // (an off-by-one in the jump arithmetic would clip the grid).
        let sites = 5usize;
        let lanes = 7usize;
        let p = 0.19f64;
        let inv_ln_q = 1.0 / (-p).ln_1p();
        let mut hits = vec![0u64; sites];
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..4000 {
            geometric_fires(&mut rng, sites, lanes, inv_ln_q, |_, site, bit| {
                assert!(site < sites, "site {site} out of range");
                assert!(bit.trailing_zeros() < lanes as u32, "lane out of range");
                hits[site] += 1;
            });
        }
        let expected = 4000.0 * lanes as f64 * p;
        for (site, &h) in hits.iter().enumerate() {
            assert!(
                (h as f64 - expected).abs() < 0.15 * expected,
                "site {site}: {h} fires vs expected {expected}"
            );
        }
    }

    #[test]
    fn sparse_sampling_matches_dense_bit_for_bit() {
        // Mixed geometric and mask groups, shared detectors, both lane
        // widths: the sparse path must consume the RNG draw-for-draw the
        // same and produce the identical sample.
        let channels = vec![
            channel(vec![0, 1], true, 0.01),
            channel(vec![2], false, 0.5),
            channel(vec![1, 3], true, 0.03),
            channel(vec![4], true, 0.5),
        ];
        let sampler = BatchSampler::new(&channels, 5);
        for lanes in [64usize, 5] {
            let mut dense_rng = StdRng::seed_from_u64(42);
            let mut sparse_rng = StdRng::seed_from_u64(42);
            let mut batch = BitBatch::with_lanes(5, lanes);
            let mut sparse = SparseBatch::new(5);
            for step in 0..300 {
                let obs_dense = sampler.sample_into(&mut dense_rng, &mut batch);
                let obs_sparse = sampler.sample_sparse(&mut sparse_rng, lanes, &mut sparse);
                assert_eq!(obs_dense, obs_sparse, "lanes {lanes} step {step}");
                for d in 0..5 {
                    assert_eq!(batch.word(d), sparse.word(d), "lanes {lanes} det {d}");
                }
            }
            // The RNG streams stayed in lockstep throughout.
            assert_eq!(dense_rng.gen::<u64>(), sparse_rng.gen::<u64>());
        }
    }

    #[test]
    fn sparse_batch_clears_only_touched_state() {
        let mut sparse = SparseBatch::new(4);
        sparse.xor_word(2, 0b101);
        sparse.xor_word(0, 1);
        sparse.xor_word(2, 0b001);
        assert_eq!(sparse.touched(), &[2, 0], "each detector listed once");
        assert_eq!(sparse.word(2), 0b100);
        sparse.clear();
        assert!(sparse.touched().is_empty());
        for d in 0..4 {
            assert_eq!(sparse.word(d), 0);
        }
        // Re-use after clear starts from a clean slate.
        sparse.xor_word(3, 1);
        assert_eq!(sparse.touched(), &[3]);
    }

    #[test]
    fn partial_lanes_stay_clean() {
        let sampler = BatchSampler::new(&[channel(vec![0], true, 0.5)], 1);
        let mut rng = StdRng::seed_from_u64(13);
        let mut batch = BitBatch::with_lanes(1, 5);
        for _ in 0..50 {
            let obs = sampler.sample_into(&mut rng, &mut batch);
            assert_eq!(batch.word(0) & !0b11111, 0, "inactive lanes dirty");
            assert_eq!(obs & !0b11111, 0);
        }
    }
}
