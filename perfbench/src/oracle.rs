//! `oracle-diff`: the differential campaign (`generate` → `diff::replay`)
//! in fixed-size batches of traces, one batch per unit.

use crate::bench::{Build, Outcome, Workload};
use crate::digest;
use crate::span::{Agg, Ledger};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use timecache_oracle::{generate, replay, Event, RefHierarchy, TraceDoc};
use timecache_sim::{AccessKind, Addr, BatchClock, Hierarchy};

/// Units per pass.
pub const BATCHES: usize = 5;
/// Traces per unit: enough that a unit takes tens of milliseconds, so a
/// short host stall lands in one or two unit samples, not in the ten that
/// would move `unit_ms_tail`.
pub const BATCH: usize = 400;

/// The oracle-diff workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleDiff;

/// One batch of generated traces.
pub struct OracleUnit {
    docs: Vec<TraceDoc>,
}

impl Workload for OracleDiff {
    type Unit = OracleUnit;

    fn units(&self) -> usize {
        BATCHES
    }

    /// Traces `seed + i·BATCH ..` of the campaign starting at `seed`.
    fn build(&self, seed: u64, i: usize, how: Build<'_>) -> OracleUnit {
        let first = seed.wrapping_add((i * BATCH) as u64);
        let seeds = (0..BATCH as u64).map(|k| first.wrapping_add(k));
        let docs = match how {
            Build::Traced(ledger) => {
                let mut gen = Agg::default();
                let docs = seeds
                    .map(|s| {
                        let t = Instant::now();
                        let doc = generate(s);
                        gen.add(t.elapsed());
                        doc
                    })
                    .collect();
                ledger.agg("oracle.generate", "setup", gen);
                docs
            }
            _ => seeds.map(generate).collect(),
        };
        OracleUnit { docs }
    }

    fn run(&self, u: OracleUnit) -> Outcome {
        let mut o = Outcome::default();
        let mut words = Vec::with_capacity(u.docs.len());
        for doc in &u.docs {
            diff_one(doc, &mut o, &mut words);
        }
        finish(o, words, u.docs.len())
    }

    fn run_traced(&self, u: OracleUnit, ledger: &mut Ledger) -> Outcome {
        let mut o = Outcome::default();
        let mut words = Vec::with_capacity(u.docs.len());
        let mut spans = MirrorSpans::default();
        let mut exact = true;
        for doc in &u.docs {
            let (d, end) = diff_one(doc, &mut o, &mut words);
            spans.diff.add(d);
            exact &= end.is_some() && end == mirror(doc, &mut spans);
        }
        if exact {
            spans.record(ledger);
            ledger.count("oracle.traces", u.docs.len() as u64);
        } else {
            ledger.count("trace.inexact_units", 1);
            o.failure
                .get_or_insert("instrumented replay disagreed with diff::replay".to_owned());
        }
        finish(o, words, u.docs.len())
    }

    fn takes_telemetry(&self) -> bool {
        false
    }
}

/// Replays `doc` through `diff::replay`, adding its host time and events
/// to `o` under the trace's security mode and its final cycle to `words`.
/// Returns the host time and the final cycle (`None` on a divergence).
fn diff_one(doc: &TraceDoc, o: &mut Outcome, words: &mut Vec<u64>) -> (Duration, Option<u64>) {
    let t = Instant::now();
    let result = replay(doc, None);
    let d = t.elapsed();
    let m = usize::from(doc.cfg.ts_bits.is_some());
    o.mode_ns[m] += d.as_nanos() as u64;
    o.mode_work[m] += doc.events.len() as u64;
    match result {
        Ok(summary) => {
            words.push(summary.final_cycle);
            (d, Some(summary.final_cycle))
        }
        Err(e) => {
            o.failure.get_or_insert(format!("divergence: {e}"));
            (d, None)
        }
    }
}

fn finish(mut o: Outcome, words: Vec<u64>, traces: usize) -> Outcome {
    o.traces = traces as u64;
    o.digest = digest(words);
    o
}

/// Spans of the instrumented twin of `diff::replay`, summed over a unit.
#[derive(Default)]
struct MirrorSpans {
    diff: Agg,
    build: Agg,
    refmodel: Agg,
    batch: Agg,
    clflush: Agg,
    save: Agg,
    restore: Agg,
    batched: u64,
    events: u64,
    switches: u64,
    sbits_reset: u64,
    transfer_lines: u64,
    comparator_cycles: u64,
}

impl MirrorSpans {
    fn record(&self, ledger: &mut Ledger) {
        ledger.agg("oracle.diff", "unit", self.diff);
        ledger.agg("oracle.build", "oracle.mirror", self.build);
        ledger.agg("oracle.refmodel", "oracle.mirror", self.refmodel);
        ledger.agg("sim.access_batch", "oracle.mirror", self.batch);
        ledger.agg("sim.clflush", "oracle.mirror", self.clflush);
        ledger.agg("sim.save", "oracle.mirror", self.save);
        ledger.agg("sim.restore", "oracle.mirror", self.restore);
        ledger.count("sim.batched_accesses", self.batched);
        ledger.count("oracle.events", self.events);
        ledger.count("core.switches", self.switches);
        ledger.count("core.sbits_reset", self.sbits_reset);
        ledger.count("core.transfer_lines", self.transfer_lines);
        ledger.count("core.comparator_cycles", self.comparator_cycles);
    }
}

/// Times `f` into `agg`.
#[inline]
fn timed<T>(agg: &mut Agg, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    agg.add(t.elapsed());
    v
}

/// `diff::replay` with every model call timed: the same event walk, batch
/// grouping and clock, comparing outcomes by value. Returns the final
/// cycle, or `None` where the two models disagree.
fn mirror(doc: &TraceDoc, s: &mut MirrorSpans) -> Option<u64> {
    let cfg = doc.cfg.hierarchy();
    let (mut reference, mut real) = timed(&mut s.build, || {
        let reference = RefHierarchy::new(&cfg, None);
        let real = Hierarchy::new(cfg.clone()).expect("trace configs are always valid");
        (reference, real)
    });
    let (cores, smt) = (doc.cfg.cores, doc.cfg.smt);
    let mut current: Vec<u32> = (0..(cores * smt) as u32).collect();
    let mut snaps_real = BTreeMap::new();
    let mut snaps_ref = BTreeMap::new();
    let mut now: u64 = 1;
    let mut batch: Vec<(AccessKind, Addr)> = Vec::new();
    s.events += doc.events.len() as u64;

    let mut step = 0;
    while step < doc.events.len() {
        match doc.events[step] {
            Event::Access {
                core,
                thread,
                kind,
                addr,
            } => {
                let (core, thread) = (core % cores, thread % smt);
                batch.clear();
                batch.push((kind, addr));
                let mut end = step + 1;
                while let Some(&Event::Access {
                    core: c,
                    thread: t,
                    kind,
                    addr,
                }) = doc.events.get(end)
                {
                    if (c % cores, t % smt) != (core, thread) {
                        break;
                    }
                    batch.push((kind, addr));
                    end += 1;
                }
                let (outs, batch_end) = timed(&mut s.batch, || {
                    real.access_batch(core, thread, &batch, now, BatchClock::LatencyPlus(1))
                });
                s.batched += batch.len() as u64;
                for (&(kind, addr), a) in batch.iter().zip(&outs) {
                    let b = timed(&mut s.refmodel, || {
                        reference.access(core, thread, kind, addr, now)
                    });
                    if *a != b {
                        return None;
                    }
                    now += a.latency + 1;
                }
                if now != batch_end {
                    return None;
                }
                step = end;
                continue;
            }
            Event::Flush { addr } => {
                let a = timed(&mut s.clflush, || real.clflush(addr));
                let b = timed(&mut s.refmodel, || reference.clflush(addr));
                if a != b {
                    return None;
                }
                now += a + 1;
            }
            Event::Switch { core, thread, pid } => {
                let (core, thread) = (core % cores, thread % smt);
                let ctx = core * smt + thread;
                if current[ctx] != pid {
                    let old = current[ctx];
                    let snap = timed(&mut s.save, || real.save_context(core, thread, now));
                    snaps_real.insert(old, snap);
                    let snap = timed(&mut s.refmodel, || {
                        reference.save_context(core, thread, now)
                    });
                    snaps_ref.insert(old, snap);
                    let a = timed(&mut s.restore, || {
                        real.restore_context(core, thread, snaps_real.get(&pid), now)
                    });
                    let b = timed(&mut s.refmodel, || {
                        reference.restore_context(core, thread, snaps_ref.get(&pid), now)
                    });
                    if a != b {
                        return None;
                    }
                    current[ctx] = pid;
                    s.switches += 1;
                    s.sbits_reset += a.sbits_reset;
                    s.transfer_lines += a.transfer_lines;
                    s.comparator_cycles += a.comparator_cycles;
                    now += a.comparator_cycles + a.transfer_lines + 1;
                }
            }
            Event::Fork {
                core,
                thread,
                child,
            } => {
                let (core, thread) = (core % cores, thread % smt);
                let snap = timed(&mut s.save, || real.save_context(core, thread, now));
                snaps_real.insert(child, snap);
                let snap = timed(&mut s.refmodel, || {
                    reference.save_context(core, thread, now)
                });
                snaps_ref.insert(child, snap);
                now += 1;
            }
        }
        step += 1;
    }
    (real.stats() == reference.stats()).then_some(now)
}
