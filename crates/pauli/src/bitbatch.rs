//! Word-level bit-packed shot batches.
//!
//! Monte-Carlo pipelines in this workspace process shots 64 at a time: a
//! [`BitBatch`] stores one `u64` word per *bit index* (a qubit, detector,
//! or measurement record), with lane `b` of the batch living in bit `b` of
//! every row's word. XOR-ing an error mask into a detector row applies it
//! to up to 64 shots simultaneously, which is what makes the batch sampler
//! and the round streams in `surf-sim` fast.
//!
//! The layout is the transpose of [`crate::BitVec`]: a `BitVec` packs many
//! bits of one shot into each word, a `BitBatch` packs the same bit of
//! many shots. [`BitBatch::extract_lane`] converts one lane back into a
//! `BitVec`.

use crate::BitVec;

/// A bit matrix of `num_bits` rows × up to 64 shot lanes, one `u64` word
/// per row (lane `b` = shot `b`).
///
/// Lanes beyond [`lanes`](BitBatch::lanes) are kept zero by every
/// mutating operation, so popcounts and lane extraction never see stale
/// shots after a partial (tail) batch.
///
/// # Example
///
/// ```
/// use surf_pauli::BitBatch;
///
/// let mut batch = BitBatch::zeros(10);
/// batch.xor_word(3, 0b101); // flip bit 3 in shots 0 and 2
/// assert!(batch.get(3, 0));
/// assert!(!batch.get(3, 1));
/// assert_eq!(batch.count_ones(), 2);
/// let shot2 = batch.extract_lane(2);
/// assert!(shot2.get(3));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitBatch {
    /// One word per bit row.
    words: Vec<u64>,
    lanes: usize,
}

impl BitBatch {
    /// Maximum number of shot lanes per batch.
    pub const LANES: usize = 64;

    /// Creates a zeroed batch of `num_bits` rows with all lanes active.
    pub fn zeros(num_bits: usize) -> Self {
        Self::with_lanes(num_bits, Self::LANES)
    }

    /// Creates a zeroed batch with only the first `lanes` shots active.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds [`BitBatch::LANES`].
    pub fn with_lanes(num_bits: usize, lanes: usize) -> Self {
        assert!(
            (1..=Self::LANES).contains(&lanes),
            "lanes {lanes} out of range 1..={}",
            Self::LANES
        );
        BitBatch {
            words: vec![0; num_bits],
            lanes,
        }
    }

    /// Number of bit rows (qubits / detectors).
    pub fn num_bits(&self) -> usize {
        self.words.len()
    }

    /// Number of active shot lanes (≤ 64).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mask with the low `lanes` bits set — the shared lane-mask formula
    /// of every batch consumer.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds 64.
    #[inline]
    pub fn mask_for(lanes: usize) -> u64 {
        assert!(
            (1..=Self::LANES).contains(&lanes),
            "lanes {lanes} out of range 1..={}",
            Self::LANES
        );
        if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        }
    }

    /// Mask with the low [`lanes`](BitBatch::lanes) bits set.
    #[inline]
    pub fn lane_mask(&self) -> u64 {
        Self::mask_for(self.lanes)
    }

    /// Reshapes to `num_bits` zeroed rows, keeping the lane count and the
    /// backing allocation (rows only reallocate when growing past the
    /// capacity high-water mark) — the scratch-reuse path of consumers
    /// that decode differently-sized sub-batches in a loop.
    pub fn reset_rows(&mut self, num_bits: usize) {
        self.words.clear();
        self.words.resize(num_bits, 0);
    }

    /// Changes the active lane count, truncating bits of deactivated lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds [`BitBatch::LANES`].
    pub fn set_lanes(&mut self, lanes: usize) {
        let mask = Self::mask_for(lanes);
        let shrinking = lanes < self.lanes;
        self.lanes = lanes;
        if shrinking {
            for w in &mut self.words {
                *w &= mask;
            }
        }
    }

    /// The word of bit row `bit` (lane `b` = shot `b`).
    #[inline]
    pub fn word(&self, bit: usize) -> u64 {
        self.words[bit]
    }

    /// Overwrites the word of bit row `bit` (masked to active lanes).
    #[inline]
    pub fn set_word(&mut self, bit: usize, word: u64) {
        let mask = self.lane_mask();
        self.words[bit] = word & mask;
    }

    /// XORs `mask` into bit row `bit` (masked to active lanes).
    #[inline]
    pub fn xor_word(&mut self, bit: usize, mask: u64) {
        let lanes = self.lane_mask();
        self.words[bit] ^= mask & lanes;
    }

    /// Reads bit `bit` of shot `lane`.
    #[inline]
    pub fn get(&self, bit: usize, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of range {}", self.lanes);
        (self.words[bit] >> lane) & 1 == 1
    }

    /// Writes bit `bit` of shot `lane`.
    #[inline]
    pub fn set(&mut self, bit: usize, lane: usize, value: bool) {
        assert!(lane < self.lanes, "lane {lane} out of range {}", self.lanes);
        let mask = 1u64 << lane;
        let word = &mut self.words[bit];
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Zeroes every word, keeping shape and lane count.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Total number of set bits across all rows and active lanes.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of shots in which bit row `bit` is set.
    pub fn row_count_ones(&self, bit: usize) -> usize {
        self.words[bit].count_ones() as usize
    }

    /// Extracts shot `lane` as a dense [`BitVec`] over the bit rows.
    pub fn extract_lane(&self, lane: usize) -> BitVec {
        assert!(lane < self.lanes, "lane {lane} out of range {}", self.lanes);
        let probe = 1u64 << lane;
        self.words.iter().map(|&word| word & probe != 0).collect()
    }

    /// The backing words, one per bit row.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// An empty batch (zero rows, all lanes active) — the scratch-friendly
/// starting state for buffers later reshaped via
/// [`reset_rows`](BitBatch::reset_rows).
impl Default for BitBatch {
    fn default() -> Self {
        Self::zeros(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let b = BitBatch::zeros(5);
        assert_eq!(b.num_bits(), 5);
        assert_eq!(b.lanes(), 64);
        assert_eq!(b.lane_mask(), u64::MAX);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitBatch::zeros(4);
        b.set(2, 63, true);
        b.set(0, 0, true);
        assert!(b.get(2, 63));
        assert!(b.get(0, 0));
        assert!(!b.get(2, 0));
        b.set(2, 63, false);
        assert!(!b.get(2, 63));
    }

    #[test]
    fn xor_word_respects_lane_mask() {
        let mut b = BitBatch::with_lanes(3, 4);
        assert_eq!(b.lane_mask(), 0b1111);
        b.xor_word(1, u64::MAX);
        assert_eq!(b.word(1), 0b1111);
        assert_eq!(b.count_ones(), 4);
        b.xor_word(1, 0b0110);
        assert_eq!(b.word(1), 0b1001);
    }

    #[test]
    fn set_lanes_truncates() {
        let mut b = BitBatch::zeros(2);
        b.xor_word(0, u64::MAX);
        b.set_lanes(3);
        assert_eq!(b.word(0), 0b111);
        // Growing back does not resurrect the truncated shots.
        b.set_lanes(64);
        assert_eq!(b.word(0), 0b111);
    }

    #[test]
    fn lane_extraction() {
        let mut b = BitBatch::zeros(6);
        b.xor_word(1, 1 << 7);
        b.xor_word(4, 1 << 7);
        b.xor_word(4, 1 << 9);
        let v = b.extract_lane(7);
        assert_eq!(v.len(), 6);
        assert!(v.get(1) && v.get(4) && !v.get(0));
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![1, 4]);
        let ones = |lane| b.extract_lane(lane).iter_ones().collect::<Vec<_>>();
        assert_eq!(ones(9), vec![4]);
        assert!(ones(0).is_empty());
    }

    #[test]
    fn row_counts() {
        let mut b = BitBatch::zeros(2);
        b.xor_word(0, 0b1011);
        assert_eq!(b.row_count_ones(0), 3);
        assert_eq!(b.row_count_ones(1), 0);
        b.clear();
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.lanes(), 64);
    }

    #[test]
    fn reset_rows_keeps_lanes() {
        let mut b = BitBatch::with_lanes(2, 40);
        b.xor_word(1, u64::MAX);
        b.reset_rows(5);
        assert_eq!(b.num_bits(), 5);
        assert_eq!(b.lanes(), 40);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.words(), &[0; 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_out_of_range_panics() {
        let b = BitBatch::with_lanes(1, 8);
        b.get(0, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_lanes_panics() {
        BitBatch::with_lanes(1, 0);
    }
}
