//! In-memory spans for the traced run.
//!
//! Coarse spans (a unit, a `System` run, a hierarchy replay) are kept one
//! record each. Per-operation spans (one `next_op`, one hierarchy access)
//! would be millions per unit, so they are summed in memory per unit and
//! per name ([`Agg`]) and written as one aggregate record each. Everything
//! is written out once, when the benchmark ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};
use timecache_os::{Observation, Op, Program};

/// A sum of span readings: how many spans, and their total raw duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans summed.
    pub count: u64,
    /// Sum of their raw readings, in ns (includes the timer's own cost).
    pub raw_ns: u64,
}

impl Agg {
    /// Adds one span reading.
    #[inline]
    pub fn add(&mut self, d: Duration) {
        self.count += 1;
        self.raw_ns += d.as_nanos() as u64;
    }

    /// Adds another sum.
    pub fn merge(&mut self, o: Agg) {
        self.count += o.count;
        self.raw_ns += o.raw_ns;
    }

    /// Total time with the reading of an empty span (`empty_ns`) taken off
    /// every span, floored at 0.
    pub fn net_ns(&self, empty_ns: f64) -> f64 {
        (self.raw_ns as f64 - self.count as f64 * empty_ns).max(0.0)
    }

    /// [`Agg::net_ns`] per span (0 when empty).
    pub fn net_per(&self, empty_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.net_ns(empty_ns) / self.count as f64
        }
    }
}

/// Fixed costs of the instrumentation, measured on this host before the
/// traced run and subtracted from its readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// What a span around nothing reads, in ns.
    pub empty_ns: f64,
    /// Full cost of one [`Timed::next_op`] call around a program that does
    /// nothing (timer reads, op recording, bookkeeping), in ns.
    pub next_op_call_ns: f64,
    /// Full cost of one [`Timed::observe`] call around an empty `observe`.
    pub observe_call_ns: f64,
}

impl Calibration {
    /// Measures the costs as medians over batches of calls.
    pub fn measure() -> Self {
        const BATCH: usize = 50_000;
        const BATCHES: usize = 9;
        fn median_of(mut f: impl FnMut() -> f64) -> f64 {
            let v: Vec<f64> = (0..BATCHES).map(|_| f()).collect();
            crate::stats::median(&v)
        }
        let empty_ns = median_of(|| {
            let mut a = Agg::default();
            for _ in 0..BATCH {
                let t0 = Instant::now();
                a.add(black_box(Instant::now()) - t0);
            }
            a.raw_ns as f64 / BATCH as f64
        });
        // The log keeps every op, as in a traced run, so the calibration
        // pays the same streaming stores into a large buffer.
        let log = ProgramLog::shared(BATCH * BATCHES);
        let mut timed = Timed::new(Box::new(Nop), Rc::clone(&log));
        let next_op_call_ns = median_of(|| {
            let p: &mut dyn Program = black_box(&mut timed);
            let t0 = Instant::now();
            for _ in 0..BATCH {
                black_box(p.next_op());
            }
            t0.elapsed().as_nanos() as f64 / BATCH as f64
        });
        let mut timed = Timed::new(Box::new(Nop), Rc::clone(&log));
        let obs = Observation {
            instr_index: 0,
            data_latency: None,
            flush_latency: None,
            now: 0,
        };
        let observe_call_ns = median_of(|| {
            let p: &mut dyn Program = black_box(&mut timed);
            let t0 = Instant::now();
            for _ in 0..BATCH {
                p.observe(black_box(obs));
            }
            t0.elapsed().as_nanos() as f64 / BATCH as f64
        });
        Calibration {
            empty_ns,
            next_op_call_ns,
            observe_call_ns,
        }
    }
}

/// A program that does nothing: the calibration target.
struct Nop;

impl Program for Nop {
    fn next_op(&mut self) -> Op {
        Op::Instr { pc: 0, data: None }
    }
}

/// What a [`Timed`] wrapper saw of its program: the time spent inside it
/// and every op it emitted, in order (the stream the hierarchy replay
/// feeds back in).
#[derive(Debug, Default)]
pub struct ProgramLog {
    /// Spans around `next_op`.
    pub next_op: Agg,
    /// Spans around `observe`.
    pub observe: Agg,
    /// Ops returned by `next_op`, `Done` included.
    pub ops: Vec<Op>,
}

impl ProgramLog {
    /// A shareable log with room for `ops` ops before it reallocates.
    pub fn shared(ops: usize) -> Rc<RefCell<ProgramLog>> {
        Rc::new(RefCell::new(ProgramLog {
            ops: Vec::with_capacity(ops),
            ..ProgramLog::default()
        }))
    }
}

/// Times every call into a [`Program`] and records the ops it emits.
pub struct Timed {
    inner: Box<dyn Program>,
    log: Rc<RefCell<ProgramLog>>,
}

impl Timed {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: Box<dyn Program>, log: Rc<RefCell<ProgramLog>>) -> Self {
        Timed { inner, log }
    }
}

impl Program for Timed {
    #[inline]
    fn next_op(&mut self) -> Op {
        let t0 = Instant::now();
        let op = self.inner.next_op();
        let d = t0.elapsed();
        let mut log = self.log.borrow_mut();
        log.next_op.add(d);
        log.ops.push(op);
        op
    }

    #[inline]
    fn observe(&mut self, obs: Observation) {
        let t0 = Instant::now();
        self.inner.observe(obs);
        let d = t0.elapsed();
        self.log.borrow_mut().observe.add(d);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Span records of the traced run plus run-wide sums per span name.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    /// Instrumentation costs subtracted from readings.
    pub cal: Calibration,
    unit: u32,
    records: String,
    totals: BTreeMap<&'static str, Agg>,
    counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// An empty ledger; span times are relative to now.
    pub fn new(cal: Calibration) -> Self {
        Ledger {
            origin: Instant::now(),
            cal,
            unit: 0,
            records: String::new(),
            totals: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Starts a new unit; later records carry its id.
    pub fn begin_unit(&mut self) -> u32 {
        self.unit += 1;
        self.unit
    }

    /// Records one coarse span `[t0, t1]` under `parent` and returns its
    /// duration.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: &'static str,
        t0: Instant,
        t1: Instant,
    ) -> Duration {
        let d = t1 - t0;
        let start = (t0 - self.origin).as_nanos();
        let end = (t1 - self.origin).as_nanos();
        let _ = writeln!(
            self.records,
            r#"{{"unit":{},"name":"{name}","parent":"{parent}","start_ns":{start},"end_ns":{end}}}"#,
            self.unit
        );
        self.totals.entry(name).or_default().add(d);
        d
    }

    /// Records a sum of per-operation spans under `parent`.
    pub fn agg(&mut self, name: &'static str, parent: &'static str, a: Agg) {
        if a.count == 0 {
            return;
        }
        let _ = writeln!(
            self.records,
            r#"{{"unit":{},"name":"{name}","parent":"{parent}","count":{},"raw_ns":{}}}"#,
            self.unit, a.count, a.raw_ns
        );
        self.totals.entry(name).or_default().merge(a);
    }

    /// Adds `n` to the exact count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Run-wide sum of the spans called `name`.
    pub fn total(&self, name: &str) -> Agg {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Run-wide value of the count `name`.
    pub fn get_count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Net per-span time of `name`, in ns.
    pub fn net_per(&self, name: &str) -> f64 {
        self.total(name).net_per(self.cal.empty_ns)
    }

    /// Net total time of `name`, in ns.
    pub fn net_ns(&self, name: &str) -> f64 {
        self.total(name).net_ns(self.cal.empty_ns)
    }

    /// The records, one JSON object per line.
    pub fn records(&self) -> &str {
        &self.records
    }
}
