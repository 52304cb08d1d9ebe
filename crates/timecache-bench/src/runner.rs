//! Shared machinery for the performance experiments: build a system, run a
//! warm-up phase, then measure a fixed instruction budget under both
//! security modes.

use timecache_core::TimeCacheConfig;
use timecache_os::{System, SystemConfig};
use timecache_sim::{HierarchyConfig, HierarchyStats, SecurityMode};
use timecache_workloads::mixes::PairSpec;
use timecache_workloads::parsec::ParsecBenchmark;

/// Parameters of one measured run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunParams {
    /// Instructions per process before measurement starts (cache and s-bit
    /// state reaches steady state).
    pub warmup_instructions: u64,
    /// Instructions per process in the measured phase.
    pub measure_instructions: u64,
    /// LLC capacity in bytes (Fig. 10 sweeps this).
    pub llc_bytes: u64,
    /// Scheduler quantum in cycles.
    pub quantum_cycles: u64,
    /// TimeCache timestamp width in bits.
    pub timestamp_bits: u8,
    /// Ablation: discard snapshots at context switches (see
    /// [`SystemConfig::discard_snapshots`]).
    pub discard_snapshots: bool,
}

impl Default for RunParams {
    /// The measurement profile: a 1 M-cycle quantum (0.5 ms at 2 GHz, a
    /// busy-system CFS slice) and a 16 M-instruction measured phase per
    /// process, giving each run tens of quanta so the paper's steady-state
    /// (not transient) overhead is what gets measured; the 4 M-instruction
    /// warm-up absorbs the initial mutual first-access transient. The
    /// context-switch DMA is priced as the paper does: a constant 1.08 us
    /// per switch.
    fn default() -> Self {
        RunParams {
            warmup_instructions: 4_000_000,
            measure_instructions: 16_000_000,
            llc_bytes: 2 * 1024 * 1024,
            quantum_cycles: 1_000_000,
            timestamp_bits: 32,
            discard_snapshots: false,
        }
    }
}

impl RunParams {
    /// A faster profile for tests and smoke runs (transient-heavy: treat
    /// its absolute overheads as smoke signals only).
    pub fn quick() -> Self {
        RunParams {
            warmup_instructions: 200_000,
            measure_instructions: 800_000,
            quantum_cycles: 500_000,
            ..RunParams::default()
        }
    }
}

/// Measured-phase metrics for one (workload pair, security mode) run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeMetrics {
    /// Cycles consumed by the measured phase.
    pub cycles: u64,
    /// Instructions retired in the measured phase (both processes).
    pub instructions: u64,
    /// Cache statistics for the measured phase only.
    pub stats: HierarchyStats,
    /// TimeCache context-switch bookkeeping cycles over the whole run.
    pub tc_switch_cycles: u64,
    /// Context switches over the whole run.
    pub context_switches: u64,
}

impl ModeMetrics {
    /// LLC MPKI (misses + first-access misses per kilo-instruction).
    pub fn llc_mpki(&self) -> f64 {
        self.stats.llc.mpki(self.instructions)
    }

    /// First-access MPKI at the LLC.
    pub fn llc_first_access_mpki(&self) -> f64 {
        self.stats.llc.first_access_mpki(self.instructions)
    }

    /// First-access MPKI at the (aggregated) L1I.
    pub fn l1i_first_access_mpki(&self) -> f64 {
        self.stats.l1i_total().first_access_mpki(self.instructions)
    }

    /// First-access MPKI at the (aggregated) L1D.
    pub fn l1d_first_access_mpki(&self) -> f64 {
        self.stats.l1d_total().first_access_mpki(self.instructions)
    }
}

/// Baseline + TimeCache measurements for one workload pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Row label ("2Xlbm", "fluidanimate", ...).
    pub label: String,
    /// Conventional-cache metrics.
    pub baseline: ModeMetrics,
    /// TimeCache metrics.
    pub timecache: ModeMetrics,
}

impl Comparison {
    /// Normalized execution time: TimeCache cycles / baseline cycles (the
    /// y-axis of Figs. 7 and 9a; Table II's overhead column).
    pub fn overhead(&self) -> f64 {
        self.timecache.cycles as f64 / self.baseline.cycles.max(1) as f64
    }
}

/// The TimeCache security mode a parameter set selects (the counterpart of
/// [`SecurityMode::Baseline`] in every comparison). Public so sweep jobs
/// can run the two modes of a comparison as independent units of work.
pub fn timecache_mode(params: &RunParams) -> SecurityMode {
    SecurityMode::TimeCache(TimeCacheConfig::new(params.timestamp_bits))
}

fn build_system(params: &RunParams, cores: usize, security: SecurityMode) -> System {
    let mut hier = HierarchyConfig::with_cores(cores).with_llc_bytes(params.llc_bytes);
    hier.security = security;
    let cfg = SystemConfig {
        hierarchy: hier,
        quantum_cycles: params.quantum_cycles,
        discard_snapshots: params.discard_snapshots,
        telemetry: crate::telemetry::current(),
        ..SystemConfig::default()
    };
    System::new(cfg).expect("experiment config is valid")
}

/// Runs one mode of a SPEC pair: two processes time-sliced on one core.
pub fn run_spec_pair_mode(
    spec: &PairSpec,
    security: SecurityMode,
    params: &RunParams,
) -> ModeMetrics {
    let mut sys = build_system(params, 1, security);
    let a = sys.spawn(
        Box::new(spec.a.workload(0)),
        0,
        0,
        Some(params.warmup_instructions),
    );
    let b = sys.spawn(
        Box::new(spec.b.workload(1)),
        0,
        0,
        Some(params.warmup_instructions),
    );
    let warm = sys.run(u64::MAX);
    assert!(warm.all_completed(), "warmup did not complete");
    let warm_cycles = sys.total_cycles();
    let warm_tc = warm.timecache_switch_cycles;

    sys.reset_stats();
    sys.extend_target(a, params.measure_instructions);
    sys.extend_target(b, params.measure_instructions);
    let report = sys.run(u64::MAX);
    assert!(report.all_completed(), "measurement did not complete");

    ModeMetrics {
        cycles: report.total_cycles - warm_cycles,
        instructions: 2 * params.measure_instructions,
        stats: report.stats,
        tc_switch_cycles: report.timecache_switch_cycles - warm_tc,
        context_switches: report.context_switches,
    }
}

/// Runs a SPEC pair under both modes.
pub fn compare_spec_pair(spec: &PairSpec, params: &RunParams) -> Comparison {
    Comparison {
        label: spec.label(),
        baseline: run_spec_pair_mode(spec, SecurityMode::Baseline, params),
        timecache: run_spec_pair_mode(spec, timecache_mode(params), params),
    }
}

/// Runs one mode of a PARSEC benchmark: two threads on two cores.
pub fn run_parsec_mode(
    bench: ParsecBenchmark,
    security: SecurityMode,
    params: &RunParams,
) -> ModeMetrics {
    let mut sys = build_system(params, 2, security);
    let t0 = sys.spawn(
        Box::new(bench.thread_workload(0)),
        0,
        0,
        Some(params.warmup_instructions),
    );
    let t1 = sys.spawn(
        Box::new(bench.thread_workload(1)),
        1,
        0,
        Some(params.warmup_instructions),
    );
    let warm = sys.run(u64::MAX);
    assert!(warm.all_completed(), "warmup did not complete");
    let warm_cycles = sys.total_cycles();
    let warm_tc = warm.timecache_switch_cycles;

    sys.reset_stats();
    sys.extend_target(t0, params.measure_instructions);
    sys.extend_target(t1, params.measure_instructions);
    let report = sys.run(u64::MAX);
    assert!(report.all_completed(), "measurement did not complete");

    ModeMetrics {
        cycles: report.total_cycles - warm_cycles,
        instructions: 2 * params.measure_instructions,
        stats: report.stats,
        tc_switch_cycles: report.timecache_switch_cycles - warm_tc,
        context_switches: report.context_switches,
    }
}

/// Runs a PARSEC benchmark under both modes.
pub fn compare_parsec(bench: ParsecBenchmark, params: &RunParams) -> Comparison {
    Comparison {
        label: bench.name().to_owned(),
        baseline: run_parsec_mode(bench, SecurityMode::Baseline, params),
        timecache: run_parsec_mode(bench, timecache_mode(params), params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecache_workloads::mixes;

    #[test]
    fn spec_pair_produces_sane_metrics() {
        let spec = &mixes::same_benchmark_pairs()[0]; // 2Xspecrand: cheap
        let cmp = compare_spec_pair(spec, &RunParams::quick());
        assert_eq!(cmp.label, "2Xspecrand");
        assert!(cmp.baseline.cycles > 0);
        assert!(
            cmp.overhead() > 0.5 && cmp.overhead() < 2.0,
            "{}",
            cmp.overhead()
        );
        // Baseline never sees first-access misses.
        assert_eq!(cmp.baseline.stats.total_first_access(), 0);
        assert!(cmp.baseline.context_switches > 0);
    }

    #[test]
    fn parsec_two_cores_have_no_l1_first_access() {
        let cmp = compare_parsec(ParsecBenchmark::Blackscholes, &RunParams::quick());
        // Threads never share a core: L1 first-access misses are zero
        // (Fig. 9b), LLC may have some.
        assert_eq!(cmp.timecache.l1i_first_access_mpki(), 0.0);
        assert_eq!(cmp.timecache.l1d_first_access_mpki(), 0.0);
        assert_eq!(cmp.timecache.context_switches, 0);
    }
}
