//! Gate-level model of the bit-serial, timestamp-parallel comparator.
//!
//! Section V-C / Fig. 6 of the paper: at a context switch, the s-bits
//! restored for the resuming process are stale — any line filled after the
//! process was preempted (`Tc > Ts`) must have its s-bit reset. Comparing
//! timestamps line-by-line would take O(lines) cycles; instead the hardware
//! streams the transposed timestamp array out one *bit-plane* per cycle
//! (MSB first) and attaches a tiny peripheral circuit to every bit line:
//!
//! * an SR latch `GT` — set when this line's `Tc` is discovered to be
//!   greater than `Ts` (its output later drives the s-bit reset);
//! * an SR latch `DONE` — set when `Tc < Ts` is discovered, which must
//!   *stop* further bit comparisons for this line;
//! * two AND gates implementing, per iteration `i` from the MSB:
//!   `set_GT = Tc[i] & !Ts[i] & !DONE & !GT` and
//!   `set_DONE = !Tc[i] & Ts[i] & !DONE & !GT`.
//!
//! After `width` iterations, lines whose `GT` latch is set have their s-bit
//! reset through the regular bit-line drivers. Total cost: O(width) cycles
//! regardless of the number of lines.
//!
//! [`BitSerialComparator::compare`] executes this circuit 64 lines at a time
//! using word-wide boolean algebra — the same parallelism the silicon gets
//! from having one peripheral per bit line — and is property-tested against
//! the functional predicate `Tc > Ts` in the crate's test suite.
//!
//! The software model runs the circuit only where its output can matter.
//! The `GT` latch drives an s-bit *reset*, and resetting an s-bit that is
//! already clear changes nothing, so the caller passes a `care` mask (the
//! s-bits just restored) and the model sweeps only the 64-line words where
//! that mask is nonzero, word by word: all `width` bit-planes of one word,
//! MSB first, with the two latches held in registers (an order chosen by
//! measurement on dense restores, DESIGN §10). The result is exactly the
//! full sweep's mask restricted to `care`, and the charged cost is
//! still `width + 1` cycles — the silicon sweeps every bit line at once
//! whatever the model skips. A restore therefore costs host time in
//! proportion to the s-bit words the resuming process holds, not to the
//! cache size.

use crate::timestamp::WrappingTime;
use crate::transpose::TransposeArray;

/// The result of one bit-serial comparison sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareOutcome {
    /// Packed mask over lines: bit set ⇔ the line is in the `care` mask and
    /// `Tc > Ts` ⇔ the line's s-bit must be reset for the resuming context.
    /// Same packing as [`crate::SBitArray::words`]; always
    /// [`TransposeArray::words_per_plane`] words long.
    pub reset_mask: Vec<u64>,
    /// Hardware cycles consumed: one per timestamp bit (plus the final
    /// reset drive, charged as one cycle).
    pub cycles: u64,
    /// Host work: 64-line words the model swept (those with a nonzero
    /// `care` word). Deterministic, so it can be pinned on any host.
    pub swept_words: usize,
    /// Host work: 64-line groups re-transposed before being swept
    /// (their `Tc` words changed since their last rebuild).
    pub groups_transposed: usize,
}

impl CompareOutcome {
    /// Number of lines flagged for reset.
    pub fn reset_count(&self) -> usize {
        self.reset_mask
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// Bit-serial, timestamp-parallel comparator (Fig. 6).
///
/// The comparator is stateless between invocations (its SR latches are reset
/// before each sweep), so it is modelled as a unit struct with a single
/// associated function.
///
/// # Examples
///
/// ```
/// use timecache_core::{BitSerialComparator, TransposeArray, TimestampWidth, WrappingTime};
///
/// let w = TimestampWidth::new(8);
/// let mut tc = TransposeArray::new(3, w);
/// tc.write_word(0, 50);   // older than Ts: keep
/// tc.write_word(1, 100);  // equal to Ts: keep
/// tc.write_word(2, 150);  // newer than Ts: reset
///
/// let all = vec![u64::MAX; tc.words_per_plane()];
/// let out = BitSerialComparator::compare(&mut tc, WrappingTime::from_cycle(100, w), &all);
/// assert_eq!(out.reset_mask[0], 0b100);
/// assert_eq!(out.cycles, 9); // 8 bit iterations + reset drive
/// assert_eq!(out.swept_words, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitSerialComparator;

impl BitSerialComparator {
    /// Runs the comparison circuit: for every line `l`,
    /// `reset_mask[l] = care[l] & (Tc[l] > Ts)`.
    ///
    /// `ts` is the resuming process's preemption timestamp, loaded into the
    /// shift register; `tc` is the transposed timestamp array; `care` marks
    /// the lines whose result matters (the restore path passes the restored
    /// s-bits; pass all ones for the full sweep). Both timestamps use
    /// truncated (width-masked) values; rollover must be handled by the
    /// caller *before* invoking the comparator (see
    /// [`WrappingTime::rollover_since`]).
    ///
    /// Takes the array mutably because each swept word's group is first
    /// brought up to date (re-transposed if dirty) — in hardware
    /// both interfaces address the same cells, so the sweep always sees
    /// current data. Groups outside `care` are neither read nor synced.
    ///
    /// # Panics
    ///
    /// Panics if `ts` and `tc` have different timestamp widths, or if
    /// `care` is not [`TransposeArray::words_per_plane`] words long.
    pub fn compare(tc: &mut TransposeArray, ts: WrappingTime, care: &[u64]) -> CompareOutcome {
        assert_eq!(
            tc.width(),
            ts.width(),
            "comparator requires matching timestamp widths"
        );
        let words = tc.words_per_plane();
        assert_eq!(
            care.len(),
            words,
            "care mask has {} words, the array {words}",
            care.len()
        );
        let width = tc.width().bits();
        let mut reset_mask = vec![0u64; words];
        let mut swept_words = 0;
        let mut groups_transposed = 0;

        // Ts[bit] is a single wire fanned out to every peripheral: all ones
        // or all zeros across the 64 bit lines of a word.
        let mut wires = [0u64; 64];
        for (bit, wire) in wires.iter_mut().enumerate() {
            *wire = 0u64.wrapping_sub(ts.value() >> bit & 1);
        }

        for (w, &c) in care.iter().enumerate() {
            if c == 0 {
                continue;
            }
            groups_transposed += usize::from(tc.sync_group(w));
            swept_words += 1;
            // The SR latches of this word's 64 bit lines, held as `gt` = GT
            // and `idle` = !(GT | DONE): a line stays idle while its `Tc`
            // matches `Ts` bit for bit, and leaves on the first differing
            // bit, latching GT if that bit of `Tc` is the 1.
            let mut gt = 0u64;
            let mut idle = u64::MAX;
            // The shift register feeds Ts MSB-first; each iteration reads
            // one bit-plane of the transposed array.
            let planes = tc.group_planes(w);
            for bit in (0..planes.len()).rev() {
                let (b, a) = (planes[bit], wires[bit]);
                // set_GT = b & !a & idle ; set_DONE = !b & a & idle; a
                // line leaves idle when either latch sets, i.e. b != a.
                gt |= b & !a & idle;
                idle &= !(b ^ a);
            }
            reset_mask[w] = gt & c;
        }

        // Mask out any phantom lines in the final partial word so the reset
        // count reflects real lines only.
        let valid = tc.num_words() - (words - 1) * 64;
        if valid < 64 {
            reset_mask[words - 1] &= (1u64 << valid) - 1;
        }

        CompareOutcome {
            reset_mask,
            cycles: Self::sweep_cycles(width),
            swept_words,
            groups_transposed,
        }
    }

    /// Cycle cost of a sweep for a given timestamp width, without running
    /// it. One cycle per bit-plane plus one for the s-bit reset drive.
    pub fn sweep_cycles(width: u8) -> u64 {
        width as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::TimestampWidth;

    /// The full sweep: every line cared about.
    fn compare_all(tc: &mut TransposeArray, ts: WrappingTime) -> CompareOutcome {
        let all = vec![u64::MAX; tc.words_per_plane()];
        BitSerialComparator::compare(tc, ts, &all)
    }

    fn run(values: &[u64], ts: u64, width: u8) -> Vec<bool> {
        let w = TimestampWidth::new(width);
        let mut tc = TransposeArray::new(values.len(), w);
        for (i, &v) in values.iter().enumerate() {
            tc.write_word(i, v);
        }
        let out = compare_all(&mut tc, WrappingTime::from_cycle(ts, w));
        (0..values.len())
            .map(|i| out.reset_mask[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn greater_resets_equal_and_smaller_keep() {
        let r = run(&[50, 100, 150, 0, 255], 100, 8);
        assert_eq!(r, vec![false, false, true, false, true]);
    }

    #[test]
    fn paper_example_msb_decides() {
        // "the greater of '1100' and '0101' can be determined as the first
        // number by looking at the MSB"
        let r = run(&[0b1100], 0b0101, 4);
        assert_eq!(r, vec![true]);
        let r = run(&[0b0101], 0b1100, 4);
        assert_eq!(r, vec![false]);
    }

    #[test]
    fn ts_zero_resets_everything_nonzero() {
        let r = run(&[0, 1, 2, 3], 0, 4);
        assert_eq!(r, vec![false, true, true, true]);
    }

    #[test]
    fn ts_max_resets_nothing() {
        let r = run(&[0, 7, 15], 15, 4);
        assert_eq!(r, vec![false, false, false]);
    }

    #[test]
    fn partial_last_word_has_no_phantom_resets() {
        // 70 lines, all Tc newer than Ts: exactly 70 resets, not 128.
        let w = TimestampWidth::new(8);
        let mut tc = TransposeArray::new(70, w);
        for i in 0..70 {
            tc.write_word(i, 200);
        }
        let out = compare_all(&mut tc, WrappingTime::from_cycle(10, w));
        assert_eq!(out.reset_count(), 70);
    }

    #[test]
    fn cycles_scale_with_width_not_lines() {
        let w = TimestampWidth::new(32);
        let mut small = TransposeArray::new(8, w);
        let mut large = TransposeArray::new(100_000, w);
        let ts = WrappingTime::from_cycle(0, w);
        assert_eq!(
            compare_all(&mut small, ts).cycles,
            compare_all(&mut large, ts).cycles,
        );
        assert_eq!(BitSerialComparator::sweep_cycles(32), 33);
    }

    #[test]
    #[should_panic(expected = "matching timestamp widths")]
    fn width_mismatch_rejected() {
        let mut tc = TransposeArray::new(4, TimestampWidth::new(8));
        let ts = WrappingTime::from_cycle(0, TimestampWidth::new(16));
        compare_all(&mut tc, ts);
    }

    #[test]
    fn one_bit_width_boundary() {
        // Narrowest legal counter: a single bit-plane sweep must still
        // implement `Tc > Ts` exactly, and cost 1 + 1 cycles.
        assert_eq!(run(&[0, 1], 0, 1), vec![false, true]);
        assert_eq!(run(&[0, 1], 1, 1), vec![false, false]);
        let w = TimestampWidth::new(1);
        let mut tc = TransposeArray::new(2, w);
        let out = compare_all(&mut tc, WrappingTime::from_cycle(0, w));
        assert_eq!(out.cycles, 2);
        assert_eq!(BitSerialComparator::sweep_cycles(1), 2);
    }

    #[test]
    fn sixty_four_bit_width_boundary() {
        // Widest legal counter: full-u64 values must not overflow the mask
        // arithmetic, and the MSB (bit 63) must decide.
        let top = 1u64 << 63;
        let r = run(&[0, top - 1, top, u64::MAX], top - 1, 64);
        assert_eq!(r, vec![false, false, true, true]);
        assert_eq!(run(&[u64::MAX], u64::MAX, 64), vec![false]);
        assert_eq!(BitSerialComparator::sweep_cycles(64), 65);
    }

    #[test]
    fn equal_timestamps_never_reset() {
        // Tc == Ts means the line was filled before (or at) preemption: it
        // stays visible. Ties must not reset at any width or value shape.
        for width in [1u8, 4, 8, 32, 64] {
            let mask = TimestampWidth::new(width).mask();
            for ts in [0u64, 1, mask / 2, mask.saturating_sub(1), mask] {
                let ts = ts & mask;
                assert_eq!(
                    run(&[ts], ts, width),
                    vec![false],
                    "tie at ts={ts} width={width} must keep the s-bit"
                );
            }
        }
    }

    #[test]
    fn exhaustive_small_width_equivalence() {
        // For 5-bit timestamps, check the circuit against `tc > ts` for every
        // (tc, ts) pair exhaustively.
        for ts in 0u64..32 {
            let values: Vec<u64> = (0..32).collect();
            let r = run(&values, ts, 5);
            for (tc, &flag) in values.iter().zip(&r) {
                assert_eq!(flag, *tc > ts, "tc={tc} ts={ts}");
            }
        }
    }
}
