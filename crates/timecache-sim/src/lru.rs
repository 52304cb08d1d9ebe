//! Exact least-recently-used replacement.

/// Exact LRU: every touch stamps the line with a monotonically increasing
/// counter; the victim is the way with the oldest stamp.
///
/// This is the policy of the gem5 classic caches the paper evaluates on,
/// the one the LRU-state side channel of its Section VII-A reasons about,
/// and the only one the simulator implements — so the oracle's exact-LRU
/// reference model covers every cache it can build.
#[derive(Debug, Clone)]
pub struct Lru {
    stamps: Vec<u64>,
    ways: u32,
    clock: u64,
}

impl Lru {
    /// Creates LRU state for `sets` sets of `ways` ways.
    pub fn new(sets: u64, ways: u32) -> Self {
        Lru {
            stamps: vec![0; (sets * ways as u64) as usize],
            ways,
            clock: 0,
        }
    }

    /// Stamp the way as most recently used.
    #[inline]
    pub fn on_hit(&mut self, set: u64, way: u32) {
        self.clock += 1;
        self.stamps[(set * self.ways as u64 + way as u64) as usize] = self.clock;
    }

    /// Fills stamp like hits.
    #[inline]
    pub fn on_fill(&mut self, set: u64, way: u32) {
        self.on_hit(set, way);
    }

    /// The way with the smallest stamp (ties broken towards way 0).
    #[inline]
    pub fn victim(&self, set: u64) -> u32 {
        let base = (set * self.ways as u64) as usize;
        let row = &self.stamps[base..base + self.ways as usize];
        row.iter()
            .enumerate()
            .min_by_key(|&(_, s)| s)
            .map(|(w, _)| w as u32)
            .expect("ways is nonzero")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(1, 4);
        for w in 0..4 {
            lru.on_fill(0, w);
        }
        lru.on_hit(0, 0); // 0 is now newest; 1 is oldest
        assert_eq!(lru.victim(0), 1);
        lru.on_hit(0, 1);
        assert_eq!(lru.victim(0), 2);
    }

    #[test]
    fn sets_are_independent() {
        let mut lru = Lru::new(2, 2);
        lru.on_fill(0, 0);
        lru.on_fill(0, 1);
        lru.on_fill(1, 1);
        lru.on_fill(1, 0);
        assert_eq!(lru.victim(0), 0);
        assert_eq!(lru.victim(1), 1);
    }

    #[test]
    fn untouched_ways_are_preferred_victims() {
        let mut lru = Lru::new(1, 4);
        lru.on_fill(0, 2);
        assert_eq!(lru.victim(0), 0); // stamp 0 < any touched stamp
    }
}
