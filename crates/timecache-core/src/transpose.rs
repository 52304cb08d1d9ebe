//! Transposed SRAM array model for per-line timestamps.
//!
//! The paper stores the per-line fill timestamps `Tc` in a separate SRAM
//! array built from 8-T multi-access cells (after Neural Cache, Eckert et
//! al., ISCA 2018). The array supports two access modes:
//!
//! * **transpose interface** — used during normal cache operation to read or
//!   write *one line's* timestamp (a whole word at a time), e.g. when a fill
//!   updates `Tc`;
//! * **regular bit-line interface** — used at context switches to read the
//!   *same bit position of every line's timestamp simultaneously* (one
//!   bit-plane per cycle), feeding the bit-serial comparator.
//!
//! In hardware both interfaces address the same cells, so each is free. In
//! software only one layout can be the fast one, and the two interfaces run
//! at wildly different rates: fills happen on every cache miss, bit-plane
//! sweeps only at context switches. [`TransposeArray`] therefore keeps the
//! **word-major** array authoritative — [`TransposeArray::write_word`] is a
//! single store — and maintains the bit-plane view lazily: writes mark
//! their 64-line *group* dirty, and a dirty group is re-transposed only
//! when a sweep is about to read it. Group `g` is exactly word `g` of every
//! bit-plane, so one group rebuild is one 64×64 bit-matrix transpose.
//! Streaming fills touch consecutive flat indices, so a whole group of
//! fills costs one re-transposition instead of 64 scattered
//! read-modify-writes per fill.
//!
//! [`crate::BitSerialComparator::compare`] syncs, group by group
//! (`TransposeArray::sync_group`), only the words it sweeps and leaves
//! the other groups dirty. Direct [`TransposeArray::bit_plane`] readers
//! must bring every group up to date first
//! ([`TransposeArray::sync_planes`]; enforced by an assert).

use crate::timestamp::TimestampWidth;
use std::fmt;

const WORD_BITS: usize = 64;

/// An SRAM array of `num_words` timestamps, each `width` bits, readable
/// word-at-a-time (transpose interface) or bit-plane-at-a-time (regular
/// interface).
///
/// Bit-plane `b` holds bit `b` of every word, packed 64 lines per `u64`.
///
/// # Examples
///
/// ```
/// use timecache_core::{TransposeArray, TimestampWidth};
///
/// let mut t = TransposeArray::new(128, TimestampWidth::new(8));
/// t.write_word(3, 0xAB);
/// assert_eq!(t.read_word(3), 0xAB);
/// // Bit-plane reads see the write once the lazy view is synced.
/// t.sync_planes();
/// // Bit-plane 0 has bit 0 of word 3 set (0xAB & 1 == 1).
/// assert_eq!(t.bit_plane(0)[0] >> 3 & 1, 1);
/// ```
#[derive(Clone)]
pub struct TransposeArray {
    /// Word-major authoritative storage: `words[i]` is line `i`'s
    /// (truncated) timestamp. Every hot-path operation touches only this.
    words: Vec<u64>,
    /// The bit-plane view, stored group by group: `planes[g * width + b]`
    /// is word `g` of bit-plane `b` (bit `b` of lines `g*64..g*64+63`), so
    /// one group's `width` plane words — what a sweep of those 64 lines
    /// reads — are contiguous. Lazily rebuilt from `words`, one dirty group
    /// at a time.
    planes: Vec<u64>,
    /// One bit per 64-line group (group `g` covers flat lines
    /// `g*64..(g+1)*64`, i.e. word `g` of every plane), set when the
    /// group's words changed since its plane words were last rebuilt.
    dirty: Vec<u64>,
    num_words: usize,
    width: TimestampWidth,
    words_per_plane: usize,
}

impl TransposeArray {
    /// Creates an array of `num_words` zeroed timestamps of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `num_words` is zero.
    pub fn new(num_words: usize, width: TimestampWidth) -> Self {
        assert!(num_words > 0, "transpose array must hold at least one word");
        let words_per_plane = num_words.div_ceil(WORD_BITS);
        TransposeArray {
            words: vec![0; num_words],
            planes: vec![0; words_per_plane * width.bits() as usize],
            dirty: vec![0; words_per_plane.div_ceil(WORD_BITS)],
            num_words,
            width,
            words_per_plane,
        }
    }

    /// Number of timestamps stored (one per cache line).
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Timestamp width.
    pub fn width(&self) -> TimestampWidth {
        self.width
    }

    /// Writes one line's timestamp through the transpose interface,
    /// truncating `value` to the array width (the hardware counter simply
    /// has no more wires than that). A single store plus a dirty-group mark;
    /// the bit-plane view catches up when the group is next synced.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_words()`.
    #[inline]
    pub fn write_word(&mut self, index: usize, value: u64) {
        self.bounds(index);
        self.words[index] = self.width.truncate(value);
        let group = index / WORD_BITS;
        self.dirty[group / WORD_BITS] |= 1 << (group % WORD_BITS);
    }

    /// Reads one line's timestamp through the transpose interface.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_words()`.
    #[inline]
    pub fn read_word(&self, index: usize) -> u64 {
        self.bounds(index);
        self.words[index]
    }

    /// Brings the whole bit-plane view up to date with the word-major
    /// array by re-transposing every dirty 64-line group.
    pub fn sync_planes(&mut self) {
        for dw in 0..self.dirty.len() {
            let mut mask = std::mem::take(&mut self.dirty[dw]);
            while mask != 0 {
                let group = dw * WORD_BITS + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.rebuild_group(group);
            }
        }
    }

    /// Brings one 64-line group (word `group` of every bit-plane) up to
    /// date, re-transposing it if any of its words changed since its last
    /// rebuild. Returns whether it had to. Other dirty groups stay dirty,
    /// so a sweep pays only for the words it reads.
    ///
    /// # Panics
    ///
    /// Panics if `group >= words_per_plane()`.
    #[inline]
    pub(crate) fn sync_group(&mut self, group: usize) -> bool {
        assert!(
            group < self.words_per_plane,
            "group {group} out of bounds for {} groups",
            self.words_per_plane
        );
        let (dw, bit) = (group / WORD_BITS, 1u64 << (group % WORD_BITS));
        let dirty = self.dirty[dw] & bit != 0;
        if dirty {
            self.dirty[dw] &= !bit;
            self.rebuild_group(group);
        }
        dirty
    }

    /// Re-transposes one 64-line group of `words` into word `group` of
    /// every plane: the group's words form a 64×64 bit matrix (row = line,
    /// column = timestamp bit) whose transpose has one bit-plane per row.
    /// Lines past `num_words` in a partial last group read as zero.
    fn rebuild_group(&mut self, group: usize) {
        let base = group * WORD_BITS;
        let end = (base + WORD_BITS).min(self.num_words);
        let mut block = [0u64; WORD_BITS];
        block[..end - base].copy_from_slice(&self.words[base..end]);
        transpose64(&mut block);
        let width = self.width.bits() as usize;
        self.planes[group * width..(group + 1) * width].copy_from_slice(&block[..width]);
    }

    /// Reads one bit-plane through the regular bit-line interface: bit
    /// `bit` of every stored timestamp, packed 64 lines per `u64`
    /// (`words_per_plane()` words).
    ///
    /// This is what the hardware comparator reads once per cycle, most
    /// significant plane first; the software model reads the same cells
    /// group by group (`TransposeArray::group_planes`).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= width().bits()`, or if any group has pending
    /// writes — call [`TransposeArray::sync_planes`] before reading whole
    /// planes.
    pub fn bit_plane(&self, bit: u8) -> Vec<u64> {
        assert!(
            self.dirty_groups() == 0,
            "bit-plane read with unsynced writes: call sync_planes() first"
        );
        assert!(
            bit < self.width.bits(),
            "bit plane {bit} out of range for {} timestamps",
            self.width
        );
        let width = self.width.bits() as usize;
        self.planes[bit as usize..]
            .iter()
            .step_by(width)
            .copied()
            .collect()
    }

    /// Reads one 64-line group through the regular bit-line interface:
    /// word `group` of every bit-plane, indexed by bit (least significant
    /// plane first) — what the comparator peripherals of these 64 bit
    /// lines see over a sweep, which walks it MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `group >= words_per_plane()`, or if the group has pending
    /// writes — call `TransposeArray::sync_group` first.
    #[inline]
    pub(crate) fn group_planes(&self, group: usize) -> &[u64] {
        assert!(
            self.dirty[group / WORD_BITS] >> (group % WORD_BITS) & 1 == 0,
            "bit-plane read from unsynced group {group}: call sync_group() first"
        );
        let width = self.width.bits() as usize;
        &self.planes[group * width..(group + 1) * width]
    }

    /// Number of `u64` words per bit-plane (the comparator mask length).
    pub fn words_per_plane(&self) -> usize {
        self.words_per_plane
    }

    /// Number of 64-line groups whose plane words are out of date.
    pub fn dirty_groups(&self) -> usize {
        self.dirty.iter().map(|d| d.count_ones() as usize).sum()
    }

    #[inline]
    fn bounds(&self, index: usize) {
        assert!(
            index < self.num_words,
            "word index {index} out of bounds for {} words",
            self.num_words
        );
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `j` of `a[i]`
/// is what bit `i` of `a[j]` was. Six rounds of block swaps (32×32 blocks,
/// then 16×16, ... 1×1), each a masked exchange between row pairs — the
/// recursive transpose of Hacker's Delight §7-3, widened to 64 bits.
fn transpose64(a: &mut [u64; WORD_BITS]) {
    let mut j = WORD_BITS / 2;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        // Rows k with bit j of k clear pair with row k + j: in every
        // 2j-bit column block, the high j bits of row k swap with the low
        // j bits of row k + j.
        let mut k = 0;
        while k < WORD_BITS {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Equality is over the authoritative word-major contents; the lazy plane
/// view and dirty bookkeeping are representation details.
impl PartialEq for TransposeArray {
    fn eq(&self, other: &Self) -> bool {
        self.num_words == other.num_words && self.width == other.width && self.words == other.words
    }
}

impl Eq for TransposeArray {}

impl fmt::Debug for TransposeArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransposeArray")
            .field("num_words", &self.num_words)
            .field("width", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let w = TimestampWidth::new(16);
        let mut t = TransposeArray::new(200, w);
        for i in 0..200 {
            t.write_word(i, (i as u64).wrapping_mul(2654435761) & w.mask());
        }
        for i in 0..200 {
            assert_eq!(
                t.read_word(i),
                (i as u64).wrapping_mul(2654435761) & w.mask()
            );
        }
    }

    #[test]
    fn write_truncates_to_width() {
        let mut t = TransposeArray::new(4, TimestampWidth::new(8));
        t.write_word(0, 0x1FF);
        assert_eq!(t.read_word(0), 0xFF);
    }

    #[test]
    fn overwrite_clears_old_bits() {
        let mut t = TransposeArray::new(4, TimestampWidth::new(8));
        t.write_word(1, 0xFF);
        t.write_word(1, 0x01);
        assert_eq!(t.read_word(1), 0x01);
        t.sync_planes();
        assert_eq!(t.bit_plane(0)[0] >> 1 & 1, 1);
        assert_eq!(t.bit_plane(1)[0] >> 1 & 1, 0);
    }

    #[test]
    fn bit_planes_are_transposed_view() {
        let mut t = TransposeArray::new(70, TimestampWidth::new(4));
        t.write_word(0, 0b1010);
        t.write_word(69, 0b0101);
        t.sync_planes();
        // Plane 1 (value bit 1) must have line 0 set, line 69 clear.
        assert_eq!(t.bit_plane(1)[0] & 1, 1);
        assert_eq!(t.bit_plane(1)[1] >> (69 - 64) & 1, 0);
        // Plane 2 the other way round.
        assert_eq!(t.bit_plane(2)[0] & 1, 0);
        assert_eq!(t.bit_plane(2)[1] >> (69 - 64) & 1, 1);
    }

    #[test]
    fn sync_rebuilds_only_dirty_groups_but_exactly() {
        // Scatter writes across 3 of 4 groups; after sync every plane word
        // must match a from-scratch transposition.
        let w = TimestampWidth::new(8);
        let mut t = TransposeArray::new(250, w);
        for i in [0usize, 63, 64, 200, 249] {
            t.write_word(i, (i as u64).wrapping_mul(0x9E37) & w.mask());
        }
        t.sync_planes();
        for bit in 0..8u8 {
            for i in 0..250 {
                let expect = t.read_word(i) >> bit & 1;
                let got = t.bit_plane(bit)[i / 64] >> (i % 64) & 1;
                assert_eq!(got, expect, "bit {bit} line {i}");
            }
        }
    }

    /// The per-bit transposition the block transpose replaced: bit `bit`
    /// of lane `l` of `words` into bit `l` of plane word `bit`.
    fn per_bit_reference(words: &[u64], bit: u8) -> u64 {
        words
            .iter()
            .enumerate()
            .fold(0, |acc, (lane, &w)| acc | (w >> bit & 1) << lane)
    }

    #[test]
    fn block_transpose_matches_per_bit_reference() {
        let mut rng = crate::FastRng::seed_from_u64(0x7E57);
        for _ in 0..16 {
            let words: Vec<u64> = (0..WORD_BITS).map(|_| rng.next_u64()).collect();
            let mut block = [0u64; WORD_BITS];
            block.copy_from_slice(&words);
            transpose64(&mut block);
            for bit in 0..WORD_BITS as u8 {
                assert_eq!(block[bit as usize], per_bit_reference(&words, bit));
            }
        }
    }

    #[test]
    fn synced_planes_match_per_bit_reference_at_every_width() {
        // Partial last groups (70, 130) and whole ones (64, 256).
        let mut rng = crate::FastRng::seed_from_u64(0x9A9E);
        for width in [1u8, 8, 16, 32, 64] {
            for len in [64usize, 70, 130, 256] {
                let mut t = TransposeArray::new(len, TimestampWidth::new(width));
                for i in 0..len {
                    t.write_word(i, rng.next_u64());
                }
                t.sync_planes();
                for bit in 0..width {
                    let plane = t.bit_plane(bit);
                    for (g, &word) in plane.iter().enumerate() {
                        let words = &t.words[g * WORD_BITS..((g + 1) * WORD_BITS).min(len)];
                        assert_eq!(
                            word,
                            per_bit_reference(words, bit),
                            "width {width} len {len} bit {bit} group {g}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sync_group_rebuilds_one_group_only() {
        let mut t = TransposeArray::new(200, TimestampWidth::new(8));
        t.write_word(1, 0xFF);
        t.write_word(130, 0x0F);
        assert_eq!(t.dirty_groups(), 2);
        assert!(t.sync_group(2));
        assert!(!t.sync_group(2), "a clean group is not rebuilt again");
        assert!(!t.sync_group(1), "an untouched group was never dirty");
        assert_eq!(t.dirty_groups(), 1);
        let planes = t.group_planes(2);
        assert_eq!(planes.len(), 8);
        assert_eq!(planes[3] >> 2 & 1, 1);
        assert_eq!(planes[4] >> 2 & 1, 0);
    }

    #[test]
    #[should_panic(expected = "group 4 out of bounds")]
    fn group_bounds_checked() {
        TransposeArray::new(200, TimestampWidth::new(8)).sync_group(4);
    }

    #[test]
    #[should_panic(expected = "unsynced group 0")]
    fn stale_group_read_rejected() {
        let mut t = TransposeArray::new(100, TimestampWidth::new(8));
        t.write_word(0, 1);
        let _ = t.group_planes(0);
    }

    #[test]
    #[should_panic(expected = "unsynced writes")]
    fn sparse_sweep_leaves_unread_group_dirty() {
        // The sweep cares only about group 0, so group 1's write stays
        // pending and a whole-plane read must still be refused.
        let mut t = TransposeArray::new(128, TimestampWidth::new(8));
        t.write_word(0, 5);
        t.write_word(100, 7);
        let ts = crate::WrappingTime::from_cycle(3, TimestampWidth::new(8));
        let out = crate::BitSerialComparator::compare(&mut t, ts, &[1, 0]);
        assert_eq!(out.reset_mask, vec![1, 0]);
        assert_eq!(t.dirty_groups(), 1);
        t.bit_plane(0);
    }

    #[test]
    #[should_panic(expected = "unsynced writes")]
    fn stale_plane_read_rejected() {
        let mut t = TransposeArray::new(10, TimestampWidth::new(8));
        t.write_word(0, 1);
        t.bit_plane(0);
    }

    #[test]
    fn fresh_array_planes_are_clean() {
        // A never-written array is all-zero in both views: no sync needed.
        let t = TransposeArray::new(10, TimestampWidth::new(8));
        assert_eq!(t.bit_plane(0), &[0]);
    }

    #[test]
    fn equality_ignores_plane_staleness() {
        let mut a = TransposeArray::new(10, TimestampWidth::new(8));
        let mut b = TransposeArray::new(10, TimestampWidth::new(8));
        a.write_word(3, 42);
        b.write_word(3, 42);
        a.sync_planes(); // a synced, b stale: still equal
        assert_eq!(a, b);
        b.write_word(4, 1);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn word_bounds_checked() {
        TransposeArray::new(10, TimestampWidth::new(8)).read_word(10);
    }

    #[test]
    #[should_panic(expected = "bit plane")]
    fn plane_bounds_checked() {
        let t = TransposeArray::new(10, TimestampWidth::new(8));
        t.bit_plane(8);
    }

    #[test]
    fn words_per_plane_rounds_up() {
        let t = TransposeArray::new(65, TimestampWidth::new(8));
        assert_eq!(t.words_per_plane(), 2);
    }
}
