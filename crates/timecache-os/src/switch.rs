//! Context-switch cost model.

use timecache_sim::SwitchCost;

/// How many cycles a context switch costs.
///
/// # Examples
///
/// ```
/// use timecache_os::SwitchCostModel;
///
/// let m = SwitchCostModel::default();
/// // A null switch (baseline mode: no transfers) costs just the base.
/// assert_eq!(m.cycles(&Default::default()), m.base_cycles);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchCostModel {
    /// Cycles for a null context switch (register save, runqueue, TLB...).
    /// ~1 µs at 2 GHz.
    pub base_cycles: u64,
    /// s-bit DMA cycles, charged whenever snapshots move. The paper's
    /// methodology (Section VI-D): a fixed delay per context switch —
    /// 1.08 µs measured on a Xeon for the simulated system's buffer,
    /// "added to each context switch". 2160 cycles at 2 GHz.
    pub dma_cycles: u64,
}

impl Default for SwitchCostModel {
    fn default() -> Self {
        SwitchCostModel {
            base_cycles: 2000,
            dma_cycles: 2160,
        }
    }
}

impl SwitchCostModel {
    /// Total cycles charged for a switch whose restore reported `cost`.
    ///
    /// The comparator sweep is additionally charged (it cannot overlap the
    /// first user instruction).
    pub fn cycles(&self, cost: &SwitchCost) -> u64 {
        let dma = if cost.transfer_lines > 0 {
            self.dma_cycles
        } else {
            0
        };
        self.base_cycles + dma + cost.comparator_cycles
    }

    /// The TimeCache-specific part of [`SwitchCostModel::cycles`] (what the
    /// paper reports as the 0.024 % bookkeeping overhead).
    pub fn timecache_overhead_cycles(&self, cost: &SwitchCost) -> u64 {
        self.cycles(cost) - self.base_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_charges_the_paper_constant() {
        let m = SwitchCostModel::default();
        let small = SwitchCost {
            transfer_lines: 66, // 2 MB LLC hierarchy
            comparator_cycles: 33,
            ..Default::default()
        };
        let large = SwitchCost {
            transfer_lines: 258, // 8 MB LLC hierarchy
            comparator_cycles: 33,
            ..Default::default()
        };
        // Same DMA charge regardless of size — the paper's methodology.
        assert_eq!(
            m.timecache_overhead_cycles(&small),
            m.timecache_overhead_cycles(&large)
        );
        assert_eq!(m.timecache_overhead_cycles(&small), 2160 + 33);
    }

    #[test]
    fn baseline_switches_cost_base_only() {
        let m = SwitchCostModel::default();
        assert_eq!(m.cycles(&SwitchCost::default()), 2000);
        assert_eq!(m.timecache_overhead_cycles(&SwitchCost::default()), 0);
    }
}
