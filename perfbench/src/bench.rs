//! The workload-independent harness: timed passes over a workload's units,
//! output checks, and the traced run's per-layer ledger.

use crate::span::{Calibration, Ledger};
use crate::stats::{median, tail};
use crate::{host, report};
use std::time::{Duration, Instant};
use timecache_bench::sweep;
use timecache_telemetry::Telemetry;

/// The seed the stored spec-pairs digest was taken at. XORing it into the
/// preset seeds leaves them as the repository's experiments use them.
pub const DEFAULT_SEED: u64 = 0;

/// What one unit did, as the unit itself reports it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Host ns spent simulating under [Baseline, TimeCache], timed inside
    /// the unit.
    pub mode_ns: [u64; 2],
    /// Simulated instructions executed under [Baseline, TimeCache]
    /// (oracle-diff: trace events replayed, each one memory operation of
    /// one hardware context).
    pub mode_work: [u64; 2],
    /// Oracle traces replayed.
    pub traces: u64,
    /// Simulated cycles under [Baseline, TimeCache] (spec-pairs: of the
    /// measured phase).
    pub mode_cycles: [u64; 2],
    /// Digest of every simulated result the unit produced.
    pub digest: u64,
    /// Why the unit's output is wrong, if it is.
    pub failure: Option<String>,
}

impl Outcome {
    /// The run of a unit under one security mode (`m`: 0 Baseline, 1
    /// TimeCache) that took `ns` of host time.
    pub fn mode(m: usize, work: u64, ns: u64, cycles: u64, digest: u64) -> Outcome {
        let mut o = Outcome {
            digest,
            ..Outcome::default()
        };
        o.mode_ns[m] = ns;
        o.mode_work[m] = work;
        o.mode_cycles[m] = cycles;
        o
    }

    /// Adds another run of the same unit; the first failure is kept.
    pub fn absorb(&mut self, o: Outcome) {
        self.traces += o.traces;
        for m in 0..2 {
            self.mode_ns[m] += o.mode_ns[m];
            self.mode_work[m] += o.mode_work[m];
            self.mode_cycles[m] += o.mode_cycles[m];
        }
        self.digest = crate::digest([self.digest, o.digest]);
        if self.failure.is_none() {
            self.failure = o.failure;
        }
    }
}

/// How a unit is built.
pub enum Build<'a> {
    /// As users run it, telemetry off.
    Plain,
    /// Instrumented: programs wrapped in timers, generation timed.
    Traced(&'a mut Ledger),
    /// With this telemetry handle attached.
    Telemetry(Telemetry),
}

/// One benchmark workload: a fixed set of units per seed.
pub trait Workload: Sync {
    /// A unit, built during set-up and consumed by running it.
    type Unit;
    /// Units in one pass.
    fn units(&self) -> usize;
    /// Builds unit `i` of the pass for `seed`.
    fn build(&self, seed: u64, i: usize, how: Build<'_>) -> Self::Unit;
    /// Runs a unit built with [`Build::Plain`] or [`Build::Telemetry`].
    fn run(&self, unit: Self::Unit) -> Outcome;
    /// Runs a unit built with [`Build::Traced`], recording its spans.
    fn run_traced(&self, unit: Self::Unit, ledger: &mut Ledger) -> Outcome;
    /// Digests the pass's units must produce at `seed`, if stored.
    fn expected_digests(&self, _seed: u64) -> Option<&'static [u64]> {
        None
    }
    /// Whether [`Build::Telemetry`] attaches the handle (the oracle's
    /// replay takes none).
    fn takes_telemetry(&self) -> bool {
        true
    }
    /// Workload-specific figures for the summary, from one pass.
    fn extra(&self, _outcomes: &[Outcome]) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }
}

/// Result of one benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Whether every unit's output checked out.
    pub correct: bool,
    /// Units run.
    pub attempted: u64,
    /// Units whose output failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in [`report`] order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Span records of a traced run.
    pub spans: Option<String>,
}

/// Checks a pass's outcomes: unit failures, stored digests, and that the
/// pass reproduced the first pass's digests.
fn check_pass<W: Workload>(
    w: &W,
    seed: u64,
    outs: &mut [Outcome],
    first: &mut Option<Vec<u64>>,
) -> u64 {
    let digests: Vec<u64> = outs.iter().map(|o| o.digest).collect();
    let expected = w.expected_digests(seed);
    for (i, o) in outs.iter_mut().enumerate() {
        if o.failure.is_some() {
            continue;
        }
        if let Some(e) = expected {
            if e.get(i) != Some(&o.digest) {
                o.failure = Some(format!(
                    "unit {i}: digest {:#018x} differs from the stored {:#018x}",
                    o.digest,
                    e.get(i).copied().unwrap_or(0)
                ));
                continue;
            }
        }
        if let Some(f) = first {
            if f[i] != o.digest {
                o.failure = Some(format!("unit {i}: digest changed between passes"));
            }
        }
    }
    first.get_or_insert(digests);
    outs.iter().filter(|o| o.failure.is_some()).count() as u64
}

fn tc_ratio(mode_ns: [u64; 2], mode_work: [u64; 2]) -> f64 {
    let per = |m: usize| mode_ns[m] as f64 / mode_work[m].max(1) as f64;
    if mode_work[0] == 0 || mode_work[1] == 0 {
        return 0.0;
    }
    per(1) / per(0)
}

/// The untraced run: passes over the units until `seconds` have elapsed,
/// every pass set up afresh. Rates and ratios are taken per pass and
/// reported as medians over passes.
pub fn run_plain<W: Workload>(w: &W, seed: u64, seconds: u64) -> Run {
    let start = Instant::now();
    let n = w.units();
    let (mut setups, mut passes, mut unit_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut tc_ratios, mut trace_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first = None;
    let mut notes = Vec::new();
    let mut extra = Vec::new();
    loop {
        let t0 = Instant::now();
        let units: Vec<W::Unit> = (0..n).map(|i| w.build(seed, i, Build::Plain)).collect();
        setups.push(t0.elapsed().as_secs_f64());
        let mut outs = Vec::with_capacity(n);
        let mut pass = Outcome::default();
        let mut pass_s = 0.0;
        for u in units {
            let t = Instant::now();
            let o = w.run(u);
            let d = t.elapsed().as_secs_f64();
            unit_ms.push(d * 1e3);
            pass_s += d;
            pass.absorb(o.clone());
            outs.push(o);
        }
        passes.push(t0.elapsed().as_secs_f64());
        rates.push(pass.mode_work.iter().sum::<u64>() as f64 / pass_s / 1e6);
        tc_ratios.push(tc_ratio(pass.mode_ns, pass.mode_work));
        trace_rates.push(pass.traces as f64 / pass_s);
        attempted += n as u64;
        failed += check_pass(w, seed, &mut outs, &mut first);
        for f in outs.iter().filter_map(|o| o.failure.as_ref()) {
            if notes.len() < 20 {
                notes.push(format!("FAILED {f}"));
            }
        }
        if extra.is_empty() {
            extra = w.extra(&outs);
        }
        if start.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    let t = tail(&unit_ms);
    notes.push(format!(
        "passes {}, units {attempted}, unit_ms_tail is p{:.1} over {} unit samples",
        passes.len(),
        t.pct,
        t.n
    ));
    notes.push(format!(
        "failed_frac {} ({failed} of {attempted} units)",
        failed as f64 / attempted as f64
    ));
    if median(&trace_rates) > 0.0 {
        notes.push(format!("traces_per_s {:.1}", median(&trace_rates)));
    }
    for (name, v, unit) in extra {
        notes.push(format!("{name} {v:.4} {unit}"));
    }
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("wall_s", median(&passes), "s"),
        ("unit_ms_p50", median(&unit_ms), "ms"),
        ("unit_ms_tail", t.value, "ms"),
        ("sim_minstr_per_s", median(&rates), "Minstr/s"),
        ("tc_host_ratio", median(&tc_ratios), "ratio"),
        ("peak_rss_mb", host::vm_hwm_kib() as f64 / 1024.0, "MB"),
    ];
    Run {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        spans: None,
    }
}

/// Host time of running `unit`, and its outcome.
fn timed_run<W: Workload>(w: &W, unit: W::Unit) -> (f64, Outcome) {
    let t = Instant::now();
    let o = w.run(unit);
    (t.elapsed().as_nanos() as f64, o)
}

/// Telemetry with counters and profiles on, trace events off.
fn counters_only() -> Telemetry {
    let tel = Telemetry::enabled();
    tel.set_trace_events(false);
    tel
}

/// The traced run. Each unit runs plain (the overhead baseline), traced
/// (its spans feed the ledger), then with telemetry counters and with
/// trace events on, interleaved so host drift cancels from the ratios.
/// Each round ends with the sweep-engine probe. Rounds repeat until
/// `seconds` have elapsed.
pub fn run_traced<W: Workload>(w: &W, seed: u64, seconds: u64) -> Run {
    let start = Instant::now();
    let mut ledger = Ledger::new(Calibration::measure());
    let n = w.units();
    let jobs = host::nproc();
    let (mut plain_ns, mut counters_ns, mut events_ns) = (0.0, 0.0, 0.0);
    let (mut serial_ns, mut parallel_ns) = (0.0, 0.0);
    let (mut attempted, mut failed, mut rounds) = (0u64, 0u64, 0u64);
    let mut notes = Vec::new();
    let mut first = None;
    loop {
        rounds += 1;
        let mut outs = Vec::with_capacity(n);
        for i in 0..n {
            let (ns, plain) = timed_run(w, w.build(seed, i, Build::Plain));
            plain_ns += ns;
            ledger.begin_unit();
            let t0 = Instant::now();
            let unit = w.build(seed, i, Build::Traced(&mut ledger));
            let t1 = Instant::now();
            let mut o = w.run_traced(unit, &mut ledger);
            ledger.span("setup", "unit", t0, t1);
            ledger.span("unit", "run", t1, Instant::now());
            if o.failure.is_none() && o.digest != plain.digest {
                o.failure = Some(format!("unit {i}: traced digest differs from plain"));
            }
            outs.push(o);
            if w.takes_telemetry() {
                let tel = Build::Telemetry(counters_only());
                counters_ns += timed_run(w, w.build(seed, i, tel)).0;
                let tel = Build::Telemetry(Telemetry::enabled());
                events_ns += timed_run(w, w.build(seed, i, tel)).0;
            }
        }
        attempted += n as u64;
        failed += check_pass(w, seed, &mut outs, &mut first);
        notes.extend(outs.iter().filter_map(|o| o.failure.clone()).take(20));

        let job = |i: usize| w.run(w.build(seed, i, Build::Plain)).digest;
        let t = Instant::now();
        let serial = sweep::run_with_jobs(n, 1, job);
        serial_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let parallel = sweep::run_with_jobs(n, jobs, job);
        parallel_ns += t.elapsed().as_nanos() as f64;
        let traced: Vec<u64> = outs.iter().map(|o| o.digest).collect();
        if serial != parallel || serial != traced {
            failed += 1;
            notes.push("sweep: results differ between job counts".to_owned());
        }
        if start.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    let inexact = ledger.get_count("trace.inexact_units");
    let ratio = |a: f64| if plain_ns > 0.0 { a / plain_ns } else { 0.0 };
    let traced_ns = ledger.total("unit").raw_ns as f64;
    let mut metrics = report::layer_metrics(&ledger);
    let (counters, events) = if w.takes_telemetry() {
        (ratio(counters_ns), ratio(events_ns))
    } else {
        (0.0, 0.0)
    };
    metrics.extend([
        ("telemetry.counters_ratio", counters, "ratio"),
        ("telemetry.events_ratio", events, "ratio"),
        ("sweep.speedup", serial_ns / parallel_ns, "ratio"),
        ("trace.overhead_ratio", ratio(traced_ns), "ratio"),
        (
            "trace.replay_exact",
            f64::from(u8::from(inexact == 0)),
            "bool",
        ),
    ]);
    if inexact > 0 {
        notes.push(format!(
            "FLAGGED: {inexact} unit(s) replayed inexactly; their layer times are left out"
        ));
    }
    notes.push(format!(
        "traced rounds {rounds}, sweep jobs {jobs}, calibration: empty span {:.1} ns, \
         next_op call {:.1} ns, observe call {:.1} ns",
        ledger.cal.empty_ns, ledger.cal.next_op_call_ns, ledger.cal.observe_call_ns
    ));
    Run {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        spans: Some(ledger.records().to_owned()),
    }
}
