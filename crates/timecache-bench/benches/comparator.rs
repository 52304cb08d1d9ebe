//! Micro-bench: the bit-serial, timestamp-parallel comparator against
//! a naive line-serial software comparison, across cache sizes.
//!
//! The hardware argument of Section V-C is that comparison cost must not
//! scale with the number of lines. In host time both models here do: the
//! full bit-serial sweep handles 64 lines per word operation but needs
//! `width` of them per word, while the naive model walks every line. The
//! sparse-restore case times a whole `TimeCacheState::restore_context`
//! whose snapshot holds a few s-bits while a few `Tc` groups are dirty:
//! the model sweeps only the s-bit words, so its cost must not grow with
//! the cache either.

use std::hint::black_box;
use timecache_bench::microbench::Bencher;
use timecache_core::{
    BitSerialComparator, TimeCacheConfig, TimeCacheState, TimestampWidth, TransposeArray,
    WrappingTime,
};

fn main() {
    let width = TimestampWidth::new(32);
    let mut b = Bencher::new();
    for lines in [512usize, 32_768, 131_072] {
        let mut arr = TransposeArray::new(lines, width);
        for i in 0..lines {
            arr.write_word(i, (i as u64).wrapping_mul(2654435761));
        }
        let ts = WrappingTime::from_cycle(1_000_000, width);
        // Pre-sync so the bench times the sweep itself, not the one-off
        // lazy re-transposition of the fill loop above.
        arr.sync_planes();
        let all = vec![u64::MAX; arr.words_per_plane()];

        b.bench(&format!("comparator/bit-serial/{lines}"), || {
            black_box(BitSerialComparator::compare(&mut arr, ts, &all))
        });
        b.bench(&format!("comparator/line-serial/{lines}"), || {
            let mut resets = 0u64;
            for i in 0..lines {
                if arr.read_word(i) > ts.value() {
                    resets += 1;
                }
            }
            black_box(resets)
        });
    }

    // Sparse restore on a 2 MB LLC (32,768 lines): the snapshot holds four
    // s-bits in three words; each iteration first refills a line in each of
    // four groups (one shared with the snapshot), so the restore re-transposes
    // at most one dirty group and leaves the others dirty.
    let lines = 32_768usize;
    let mut tc = TimeCacheState::new(lines, 1, TimeCacheConfig::new(32));
    for line in [5usize, 40, 20_000, 32_767] {
        tc.on_fill(line, 0, 100);
    }
    let snap = tc.save_context(0, 1_000);
    let mut now = 1_000u64;
    b.bench(&format!("comparator/sparse-restore/{lines}"), || {
        now += 1;
        for line in [6usize, 4_096, 16_384, 30_000] {
            tc.on_fill(line, 0, now);
        }
        black_box(tc.restore_context(0, Some(&snap), now))
    });
}
