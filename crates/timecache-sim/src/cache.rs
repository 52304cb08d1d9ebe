//! A single set-associative cache level.
//!
//! [`Cache`] owns the tag array, LRU state, statistics, and — when the
//! hierarchy runs in [`crate::SecurityMode::TimeCache`] — a
//! [`TimeCacheState`] covering its lines. Access *semantics* (what counts as
//! a hit, where requests go next) live in [`crate::Hierarchy`]; the cache
//! provides the mechanical operations: lookup, fill, invalidate, and the
//! TimeCache visibility hooks.
//!
//! The tag array is structure-of-arrays: tags live in one contiguous
//! `Vec<u64>` (so the way-scan in [`Cache::lookup`] is a branch-light
//! compare over a contiguous slab) and dirty bits in a packed bitset,
//! instead of an array-of-structs `Vec<Line>` whose per-entry flag padded
//! every tag to 16 bytes and halved scan density.

use crate::addr::LineAddr;
use crate::config::CacheConfig;
use crate::geometry::CacheGeometry;
use crate::lru::Lru;
use crate::stats::CacheStats;
use timecache_core::{Snapshot, TimeCacheConfig, TimeCacheState, Visibility};

/// Sentinel tag marking an invalid way. Folding validity into the tag
/// keeps the lookup scan to a single compare per way (no separate valid-bit
/// branch). No real line can carry this tag: line addresses are byte
/// addresses shifted right by the (nonzero) line-size bits, so their top
/// bits are always clear.
const INVALID_TAG: u64 = u64::MAX;

/// Result of a tag lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Set index.
    pub set: u64,
    /// Way within the set.
    pub way: u32,
    /// Flat line index (`set * ways + way`), the key into TimeCache state.
    pub flat: usize,
}

/// A line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced line's address.
    pub line: LineAddr,
    /// Whether it held modified data (needs a write-back).
    pub dirty: bool,
}

/// A set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    name: &'static str,
    geometry: CacheGeometry,
    index: crate::index::IndexFn,
    /// Tag per flat line index (`set * ways + way`); [`INVALID_TAG`] marks
    /// an empty way. Contiguous so a set's ways are one cache-friendly slab.
    tags: Vec<u64>,
    /// Dirty flags, packed 64 lines per word, indexed by flat line index.
    dirty: Vec<u64>,
    lru: Lru,
    timecache: Option<TimeCacheState>,
    stats: CacheStats,
    /// Hot-path copies of the derived geometry, resolved once at build time
    /// so `lookup`/`fill` never re-divide capacity by ways × line size.
    num_sets: u64,
    ways: usize,
}

impl Cache {
    /// Builds a cache. `timecache` supplies the mechanism config when the
    /// defense is engaged; `num_contexts` is the number of hardware
    /// contexts sharing this cache (SMT threads for an L1, all contexts for
    /// the LLC).
    ///
    /// # Panics
    ///
    /// Panics if `num_contexts` is zero while `timecache` is `Some`.
    pub fn new(
        name: &'static str,
        config: CacheConfig,
        num_contexts: usize,
        timecache: Option<TimeCacheConfig>,
    ) -> Self {
        let g = config.geometry;
        Cache {
            name,
            geometry: g,
            index: config.index,
            tags: vec![INVALID_TAG; g.num_lines()],
            dirty: vec![0; g.num_lines().div_ceil(64)],
            lru: Lru::new(g.num_sets(), g.ways()),
            timecache: timecache.map(|tc| TimeCacheState::new(g.num_lines(), num_contexts, tc)),
            stats: CacheStats::new(),
            num_sets: g.num_sets(),
            ways: g.ways() as usize,
        }
    }

    /// The cache's diagnostic name (`"L1I0"`, `"LLC"`, ...).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The cache's shape.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable statistics (the hierarchy attributes hits/misses; the cache
    /// itself counts evictions, invalidations, and write-backs).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Resets statistics (not cache contents) — used between warm-up and
    /// measurement phases.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    #[inline]
    fn dirty_bit(&self, flat: usize) -> bool {
        self.dirty[flat / 64] >> (flat % 64) & 1 == 1
    }

    #[inline]
    fn set_dirty_bit(&mut self, flat: usize, dirty: bool) {
        let (word, bit) = (flat / 64, flat % 64);
        if dirty {
            self.dirty[word] |= 1 << bit;
        } else {
            self.dirty[word] &= !(1 << bit);
        }
    }

    /// Tag lookup without side effects.
    ///
    /// This is the innermost loop of the whole simulator (three calls per
    /// simulated memory access in the worst case), so the scan is kept
    /// branch-lean: one tag compare per way against the set's contiguous
    /// tag slab, with validity folded into the tag via `INVALID_TAG`.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<LookupResult> {
        let set = self.index.set_of(line, self.num_sets);
        let base = set as usize * self.ways;
        let raw = line.raw();
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == raw)
            .map(|way| LookupResult {
                set,
                way: way as u32,
                flat: base + way,
            })
    }

    /// Records a demand hit for replacement purposes.
    pub fn touch(&mut self, hit: LookupResult) {
        self.lru.on_hit(hit.set, hit.way);
    }

    /// Fills `line` for hardware context `ctx` at cycle `now`, evicting a
    /// victim if the set is full. Returns the slot the line landed in and
    /// the displaced line, if any — callers needing the filled position
    /// (e.g. for directory bookkeeping) get it for free instead of paying a
    /// second lookup.
    ///
    /// The victim's TimeCache s-bits are reset and the new line's `Tc` and
    /// filling-context s-bit are recorded. The eviction (and, if the victim
    /// was dirty, the eventual write-back) is counted here; the caller
    /// performs the actual write-back propagation.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the line is already present — the
    /// hierarchy must not double-fill.
    pub fn fill(
        &mut self,
        line: LineAddr,
        ctx: usize,
        now: u64,
    ) -> (LookupResult, Option<Evicted>) {
        debug_assert!(
            self.lookup(line).is_none(),
            "{}: double fill of {line}",
            self.name
        );
        let set = self.index.set_of(line, self.num_sets);
        let base = set as usize * self.ways;

        // Prefer an invalid way; otherwise evict the least recently used.
        let way = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == INVALID_TAG)
            .map(|w| w as u32)
            .unwrap_or_else(|| self.lru.victim(set));
        let flat = base + way as usize;

        let old = self.tags[flat];
        let evicted = (old != INVALID_TAG).then(|| {
            self.stats.evictions += 1;
            Evicted {
                line: LineAddr::from_raw(old),
                dirty: self.dirty_bit(flat),
            }
        });
        if let (Some(tc), Some(_)) = (&mut self.timecache, &evicted) {
            tc.on_evict(flat);
        }

        self.tags[flat] = line.raw();
        self.set_dirty_bit(flat, false);
        self.lru.on_fill(set, way);
        if let Some(tc) = &mut self.timecache {
            tc.on_fill(flat, ctx, now);
        }
        (LookupResult { set, way, flat }, evicted)
    }

    /// Invalidates `line` if present (coherence, back-invalidation, or
    /// `clflush`). Returns whether it was present and dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let hit = self.lookup(line)?;
        let dirty = self.dirty_bit(hit.flat);
        self.tags[hit.flat] = INVALID_TAG;
        self.set_dirty_bit(hit.flat, false);
        self.stats.invalidations += 1;
        if let Some(tc) = &mut self.timecache {
            tc.on_evict(hit.flat);
        }
        Some(dirty)
    }

    /// Marks a resident line dirty (write hit) or clean (write-back done).
    pub fn set_dirty(&mut self, at: LookupResult, dirty: bool) {
        debug_assert!(self.tags[at.flat] != INVALID_TAG);
        self.set_dirty_bit(at.flat, dirty);
    }

    /// Whether a resident line is dirty.
    pub fn is_dirty(&self, at: LookupResult) -> bool {
        self.dirty_bit(at.flat)
    }

    /// TimeCache visibility of a resident line for `ctx`; `Visible` always
    /// in baseline mode.
    pub fn visibility(&self, at: LookupResult, ctx: usize) -> Visibility {
        match &self.timecache {
            Some(tc) => tc.visibility(at.flat, ctx),
            None => Visibility::Visible,
        }
    }

    /// Records that `ctx` has now paid the first-access delay for a line.
    /// No-op in baseline mode.
    pub fn record_first_access(&mut self, at: LookupResult, ctx: usize) {
        if let Some(tc) = &mut self.timecache {
            tc.record_first_access(at.flat, ctx);
        }
    }

    /// Saves the caching context of `ctx` (None in baseline mode).
    pub fn save_context(&self, ctx: usize, now: u64) -> Option<Snapshot> {
        self.timecache.as_ref().map(|tc| tc.save_context(ctx, now))
    }

    /// Restores a caching context; see
    /// [`TimeCacheState::restore_context`]. Returns `None` in baseline mode.
    pub fn restore_context(
        &mut self,
        ctx: usize,
        snapshot: Option<&Snapshot>,
        now: u64,
    ) -> Option<timecache_core::RestoreOutcome> {
        self.timecache
            .as_mut()
            .map(|tc| tc.restore_context(ctx, snapshot, now))
    }

    /// [`Cache::restore_context`] under fault injection; see
    /// [`TimeCacheState::restore_context_faulty`]. Returns `None` in
    /// baseline mode.
    pub fn restore_context_faulty(
        &mut self,
        ctx: usize,
        snapshot: Option<&Snapshot>,
        now: u64,
        faults: &timecache_core::FaultInjector,
    ) -> Option<timecache_core::RestoreOutcome> {
        self.timecache
            .as_mut()
            .map(|tc| tc.restore_context_faulty(ctx, snapshot, now, faults))
    }

    /// Read-only view of the TimeCache state (None in baseline mode).
    pub fn timecache(&self) -> Option<&TimeCacheState> {
        self.timecache.as_ref()
    }

    /// Number of valid lines currently resident (diagnostics/tests).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new("T", CacheConfig::new(512, 2, 64), 1, None)
    }

    fn la(addr: u64) -> LineAddr {
        LineAddr::from_addr(addr, 64)
    }

    #[test]
    fn fill_then_lookup() {
        let mut c = tiny();
        assert!(c.lookup(la(0x100)).is_none());
        let (slot, evicted) = c.fill(la(0x100), 0, 0);
        assert_eq!(evicted, None);
        let hit = c.lookup(la(0x100)).unwrap();
        assert_eq!(hit, slot);
        assert_eq!(hit.set, (0x100 / 64) % 4);
    }

    #[test]
    fn conflicting_fills_evict_lru() {
        let mut c = tiny();
        // Set 0 holds lines 0x000, 0x100 (stride 256 = sets*linesize).
        c.fill(la(0x000), 0, 0);
        c.fill(la(0x100), 0, 1);
        c.touch(c.lookup(la(0x000)).unwrap()); // 0x000 most recent
        let ev = c.fill(la(0x200), 0, 2).1.unwrap();
        assert_eq!(ev.line, la(0x100));
        assert!(!ev.dirty);
        assert!(c.lookup(la(0x100)).is_none());
        assert!(c.lookup(la(0x000)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.fill(la(0x000), 0, 0);
        let at = c.lookup(la(0x000)).unwrap();
        c.set_dirty(at, true);
        c.fill(la(0x100), 0, 1);
        let ev = c.fill(la(0x200), 0, 2).1.unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn fill_reports_landing_slot() {
        let mut c = tiny();
        let (slot, _) = c.fill(la(0x000), 0, 0);
        assert_eq!(slot, c.lookup(la(0x000)).unwrap());
        // A conflicting fill lands in the same set, different way.
        let (slot2, _) = c.fill(la(0x100), 0, 1);
        assert_eq!(slot2.set, slot.set);
        assert_ne!(slot2.way, slot.way);
        assert_eq!(slot2, c.lookup(la(0x100)).unwrap());
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.fill(la(0x40), 0, 0);
        let at = c.lookup(la(0x40)).unwrap();
        c.set_dirty(at, true);
        assert_eq!(c.invalidate(la(0x40)), Some(true));
        assert_eq!(c.invalidate(la(0x40)), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn refill_after_dirty_invalidate_is_clean() {
        // The packed dirty bit must be cleared on invalidate and fill, not
        // leak into the next occupant of the same way.
        let mut c = tiny();
        c.fill(la(0x40), 0, 0);
        c.set_dirty(c.lookup(la(0x40)).unwrap(), true);
        c.invalidate(la(0x40));
        c.fill(la(0x40), 0, 1);
        assert!(!c.is_dirty(c.lookup(la(0x40)).unwrap()));
    }

    #[test]
    fn timecache_hooks_wire_through() {
        let mut c = Cache::new(
            "T",
            CacheConfig::new(512, 2, 64),
            2,
            Some(TimeCacheConfig::default()),
        );
        c.fill(la(0x40), 0, 100);
        let at = c.lookup(la(0x40)).unwrap();
        assert_eq!(c.visibility(at, 0), Visibility::Visible);
        assert_eq!(c.visibility(at, 1), Visibility::FirstAccess);
        c.record_first_access(at, 1);
        assert_eq!(c.visibility(at, 1), Visibility::Visible);

        // Eviction resets s-bits: refill after conflict.
        c.fill(la(0x140), 0, 200);
        c.fill(la(0x240), 0, 300); // evicts one of them
        if let Some(at) = c.lookup(la(0x40)) {
            // 0x40 survived; its s-bits are intact.
            assert_eq!(c.visibility(at, 0), Visibility::Visible);
        }
    }

    #[test]
    fn baseline_is_always_visible() {
        let mut c = tiny();
        c.fill(la(0x80), 0, 0);
        let at = c.lookup(la(0x80)).unwrap();
        assert_eq!(c.visibility(at, 0), Visibility::Visible);
        assert!(c.save_context(0, 0).is_none());
        assert!(c.restore_context(0, None, 0).is_none());
    }

    #[test]
    fn resident_lines_counts_valid() {
        let mut c = tiny();
        assert_eq!(c.resident_lines(), 0);
        c.fill(la(0x00), 0, 0);
        c.fill(la(0x40), 0, 0);
        assert_eq!(c.resident_lines(), 2);
        c.invalidate(la(0x00));
        assert_eq!(c.resident_lines(), 1);
    }
}
