//! `spec-pairs`: Table II pairs time-sliced on one core, each unit one
//! pair under Baseline and TimeCache, each with a simulated warm-up and a
//! measured phase.

use crate::bench::{Build, Outcome, Workload, DEFAULT_SEED};
use crate::span::Ledger;
use crate::system_unit::{spawn, Layer, Traced};
use crate::{digest, stats_words};
use std::time::Instant;
use timecache_core::TimeCacheConfig;
use timecache_os::{Pid, Program, RunReport, System, SystemConfig};
use timecache_sim::{HierarchyConfig, SecurityMode};
use timecache_telemetry::Telemetry;
use timecache_workloads::mixes;
use timecache_workloads::{SpecBenchmark, SyntheticWorkload};

/// The pairs, chosen to span the traffic: low MPKI with an L1-hit-bound
/// path (2Xcalculix), high MPKI with a DRAM-miss-bound path (2Xmilc,
/// leslie3d+gobmk), medium MPKI between two different binaries
/// (h264ref+sjeng), and large shared text that is first-access heavy under
/// TimeCache (2Xperlbench). An odd count keeps the median unit inside one
/// pair's samples instead of between two pairs'.
pub const PAIRS: [(SpecBenchmark, SpecBenchmark); 5] = [
    (SpecBenchmark::Calculix, SpecBenchmark::Calculix),
    (SpecBenchmark::Milc, SpecBenchmark::Milc),
    (SpecBenchmark::Leslie3d, SpecBenchmark::Gobmk),
    (SpecBenchmark::H264ref, SpecBenchmark::Sjeng),
    (SpecBenchmark::Perlbench, SpecBenchmark::Perlbench),
];

/// Warm-up instructions per process (simulated; users pay it every run,
/// so it is part of the unit, not of set-up).
pub const WARMUP: u64 = 100_000;
/// Measured instructions per process.
pub const MEASURE: u64 = 400_000;
/// The paper's scheduler quantum, in cycles.
const QUANTUM: u64 = 1_000_000;
/// Table I's LLC.
const LLC_BYTES: u64 = 2 * 1024 * 1024;

/// Per-unit digests at [`DEFAULT_SEED`], in [`PAIRS`] order. A change
/// that alters any simulated statistic of these runs changes them.
const DIGESTS: [u64; 5] = [
    0x7b58_0db3_77e9_47ce,
    0x7f8a_1be8_679b_f85a,
    0x9f3e_63b2_8cda_7317,
    0x1b33_1b43_bf40_413a,
    0xf9fd_6515_0c8a_f327,
];

/// Wraps each program before it is spawned (and, when traced, before the
/// timing wrapper): lets a test add known work to a layer.
pub type Wrap = fn(Box<dyn Program>) -> Box<dyn Program>;

/// The spec-pairs workload.
#[derive(Debug, Clone, Copy)]
pub struct SpecPairs {
    /// Warm-up instructions per process.
    pub warmup: u64,
    /// Measured instructions per process.
    pub measure: u64,
    /// Optional program wrapper.
    pub wrap: Option<Wrap>,
}

impl Default for SpecPairs {
    fn default() -> Self {
        SpecPairs {
            warmup: WARMUP,
            measure: MEASURE,
            wrap: None,
        }
    }
}

/// A pair under one security mode, built and spawned.
struct ModeRun {
    sys: System,
    pids: [Pid; 2],
    traced: Option<Traced>,
}

/// One pair under [Baseline, TimeCache], on the same inputs.
pub struct SpecUnit {
    runs: [ModeRun; 2],
}

/// `bench`'s preset for process `instance`, with `seed` XORed into its
/// generator seed.
pub fn program(bench: SpecBenchmark, instance: usize, seed: u64) -> SyntheticWorkload {
    let mut params = bench.params();
    params.seed ^= seed;
    SyntheticWorkload::new(params, bench.bench_id(), instance)
}

fn config(tc: bool, telemetry: Telemetry) -> SystemConfig {
    let mut hierarchy = HierarchyConfig::with_cores(1).with_llc_bytes(LLC_BYTES);
    if tc {
        hierarchy.security = SecurityMode::TimeCache(TimeCacheConfig::new(32));
    }
    SystemConfig {
        hierarchy,
        quantum_cycles: QUANTUM,
        telemetry,
        ..SystemConfig::default()
    }
}

impl SpecPairs {
    /// Warm-up, statistics reset, measured phase; checks and digests the
    /// result as mode `m`'s run.
    fn drive(&self, m: usize, r: &mut ModeRun) -> (Outcome, RunReport) {
        let t = Instant::now();
        r.sys.run(u64::MAX);
        let warm = r.sys.total_cycles();
        r.sys.reset_stats();
        for pid in r.pids {
            r.sys.extend_target(pid, self.measure);
        }
        let report = r.sys.run(u64::MAX);
        let ns = t.elapsed().as_nanos() as u64;

        let cycles = report.total_cycles - warm;
        let mut words = vec![cycles, report.total_instructions];
        words.extend(stats_words(&report.stats));
        words.extend([
            report.context_switches,
            report.switch_cycles,
            report.timecache_switch_cycles,
        ]);
        let work = 2 * (self.warmup + self.measure);
        let mut o = Outcome::mode(m, work, ns, cycles, digest(words));
        if !report.all_completed() {
            o.failure = Some("a process did not complete".to_owned());
        } else if m == 0 && report.stats.total_first_access() != 0 {
            o.failure = Some("Baseline run took first-access misses".to_owned());
        }
        (o, report)
    }
}

impl Workload for SpecPairs {
    type Unit = SpecUnit;

    fn units(&self) -> usize {
        PAIRS.len()
    }

    fn build(&self, seed: u64, i: usize, how: Build<'_>) -> SpecUnit {
        let (a, b) = PAIRS[i];
        let (telemetry, traced) = match how {
            Build::Plain => (Telemetry::disabled(), false),
            Build::Traced(_) => (Telemetry::disabled(), true),
            Build::Telemetry(t) => (t, false),
        };
        let ops = (self.warmup + self.measure) as usize;
        let runs = [false, true].map(|tc| {
            let mut sys =
                System::new(config(tc, telemetry.clone())).expect("Table I config is valid");
            let mut traced = traced.then(Traced::default);
            let pids = [(a, 0), (b, 1)].map(|(bench, instance)| {
                let mut prog: Box<dyn Program> = Box::new(program(bench, instance, seed));
                if let Some(wrap) = self.wrap {
                    prog = wrap(prog);
                }
                spawn(
                    &mut sys,
                    &mut traced,
                    prog,
                    Layer::Workloads,
                    Some(self.warmup),
                    ops,
                )
            });
            ModeRun { sys, pids, traced }
        });
        SpecUnit { runs }
    }

    fn run(&self, u: SpecUnit) -> Outcome {
        let mut o = Outcome::default();
        for (m, mut r) in u.runs.into_iter().enumerate() {
            o.absorb(self.drive(m, &mut r).0);
        }
        o
    }

    fn run_traced(&self, u: SpecUnit, ledger: &mut Ledger) -> Outcome {
        let mut o = Outcome::default();
        for (m, mut r) in u.runs.into_iter().enumerate() {
            let t0 = Instant::now();
            let (mut mo, report) = self.drive(m, &mut r);
            let t1 = Instant::now();
            let traced = r.traced.take().expect("unit was built traced");
            let exact = traced.record(ledger, &r.sys, &report, (t0, t1), |rp| {
                rp.run(u64::MAX);
                rp.reset_stats();
                for pid in 0..2 {
                    rp.extend_target(pid, self.measure);
                }
                rp.run(u64::MAX);
            });
            if !exact && mo.failure.is_none() {
                mo.failure = Some("hierarchy replay did not reproduce the run".to_owned());
            }
            o.absorb(mo);
        }
        o
    }

    fn expected_digests(&self, seed: u64) -> Option<&'static [u64]> {
        let stock = self.warmup == WARMUP && self.measure == MEASURE;
        (seed == DEFAULT_SEED && stock).then_some(&DIGESTS[..])
    }

    /// `paper_err_pp`: mean |measured − Table II| normalized-execution-time
    /// overhead over the pairs, in percentage points (simulated).
    fn extra(&self, outcomes: &[Outcome]) -> Vec<(&'static str, f64, &'static str)> {
        let table = mixes::all_pairs();
        let err: f64 = PAIRS
            .iter()
            .enumerate()
            .map(|(p, &(a, b))| {
                let paper = table
                    .iter()
                    .find(|s| s.a == a && s.b == b)
                    .expect("every pair is a Table II row")
                    .paper_overhead;
                let c = outcomes[p].mode_cycles;
                let measured = c[1] as f64 / c[0].max(1) as f64;
                (measured - paper).abs() * 100.0
            })
            .sum();
        vec![("paper_err_pp", err / PAIRS.len() as f64, "pp")]
    }
}
