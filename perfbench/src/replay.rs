//! Replays the op streams a `System` run recorded into a fresh
//! [`Hierarchy`], timing every hierarchy call.
//!
//! [`Replay`] is a `System` with the programs taken out: it schedules the
//! recorded per-process op streams on one hardware context with the
//! `System`'s rules (round-robin queue, quantum expiry and yields preempt,
//! a save only when someone else is waiting, a restore only on a change of
//! process, switch cost charged after boot) and advances the clock the way
//! `System::step` does (1 cycle plus every latency beyond an L1 hit, data
//! access issued after the fetch's stall, flush latency in full). Callers
//! drive it with the same `run` / `reset_stats` / `extend_target` sequence
//! they drove the `System` with, then check [`Replay::matches`] before
//! trusting its times.

use crate::span::Agg;
use std::collections::VecDeque;
use std::time::Instant;
use timecache_os::{DataKind, Op, RunReport, SwitchCostModel, SystemConfig};
use timecache_sim::{AccessKind, AccessOutcome, ContextSnapshot, Hierarchy, Level, SwitchCost};

/// Spans of `Hierarchy::access`, one per class of [`AccessOutcome`]: a
/// first-access miss, else the level that served it (a remote L1 counts
/// as the LLC; the replayed systems have one core).
pub const ACCESS_SPANS: [&str; 4] = [
    "sim.access.l1",
    "sim.access.llc",
    "sim.access.memory",
    "sim.access.first_access",
];

fn class_of(out: &AccessOutcome) -> usize {
    if out.is_first_access() {
        return 3;
    }
    match out.served_by {
        Level::L1 => 0,
        Level::LLC | Level::RemoteL1 => 1,
        Level::Memory => 2,
    }
}

/// Host time and simulated work the replay measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayTimes {
    /// `Hierarchy::access` spans per [`ACCESS_SPANS`] entry.
    pub access: [Agg; 4],
    /// `Hierarchy::clflush` spans.
    pub clflush: Agg,
    /// `Hierarchy::save_context` spans.
    pub save: Agg,
    /// `Hierarchy::restore_context` spans.
    pub restore: Agg,
    /// Sums of the [`SwitchCost`]s of charged switches.
    pub sbits_reset: u64,
    /// See [`ReplayTimes::sbits_reset`].
    pub transfer_lines: u64,
    /// See [`ReplayTimes::sbits_reset`].
    pub comparator_cycles: u64,
}

struct Proc {
    ops: Vec<Op>,
    next: usize,
    instructions: u64,
    target: Option<u64>,
    completed: bool,
    has_run: bool,
    snapshot: Option<ContextSnapshot>,
}

/// A single-context `System` replaying recorded op streams.
pub struct Replay {
    hier: Hierarchy,
    quantum: u64,
    switch_cost: SwitchCostModel,
    l1_hit: u64,
    procs: Vec<Proc>,
    clock: u64,
    queue: VecDeque<usize>,
    current: Option<usize>,
    quantum_left: u64,
    ever_dispatched: bool,
    last: Option<usize>,
    switches: u64,
    /// Set when a process asks for more ops than were recorded: the
    /// schedule diverged from the `System`'s.
    overran: bool,
    /// What the replay measured.
    pub times: ReplayTimes,
}

impl Replay {
    /// A replay of `procs` (op stream and instruction target, in spawn
    /// order) on a fresh hierarchy built from `cfg`, which must describe a
    /// single hardware context and no fault plan, as the `System` runs that
    /// feed it do.
    pub fn new(cfg: &SystemConfig, procs: Vec<(Vec<Op>, Option<u64>)>) -> Self {
        assert_eq!(
            cfg.hierarchy.cores * cfg.hierarchy.smt_per_core,
            1,
            "replay schedules one hardware context"
        );
        assert!(cfg.fault_plan.is_none() && !cfg.discard_snapshots);
        let hier = Hierarchy::new(cfg.hierarchy.clone()).expect("config already built a System");
        let n = procs.len();
        Replay {
            hier,
            quantum: cfg.quantum_cycles,
            switch_cost: cfg.switch_cost,
            l1_hit: cfg.hierarchy.latencies.l1_hit,
            procs: procs
                .into_iter()
                .map(|(ops, target)| Proc {
                    ops,
                    next: 0,
                    instructions: 0,
                    target,
                    completed: false,
                    has_run: false,
                    snapshot: None,
                })
                .collect(),
            clock: 0,
            queue: (0..n).collect(),
            current: None,
            quantum_left: 0,
            ever_dispatched: false,
            last: None,
            switches: 0,
            overran: false,
            times: ReplayTimes::default(),
        }
    }

    /// `System::run`.
    pub fn run(&mut self, max_cycles: u64) {
        while (self.current.is_some() || !self.queue.is_empty())
            && self.clock < max_cycles
            && !self.overran
        {
            match self.current {
                None => self.dispatch(),
                Some(pi) => self.step(pi),
            }
        }
    }

    /// `System::reset_stats`.
    pub fn reset_stats(&mut self) {
        self.hier.reset_stats();
    }

    /// `System::extend_target` for the process spawned `pid`-th.
    pub fn extend_target(&mut self, pid: usize, extra: u64) {
        let p = &mut self.procs[pid];
        p.target = Some(p.target.expect("extended processes have a target") + extra);
        if p.completed {
            p.completed = false;
            self.queue.push_back(pid);
        }
    }

    /// Whether the replay ended where the `System` did: every recorded op
    /// consumed, and the same clock, switch count and statistics as
    /// `report`.
    pub fn matches(&self, report: &RunReport) -> bool {
        !self.overran
            && self.procs.iter().all(|p| p.next == p.ops.len())
            && self.clock == report.total_cycles
            && self.switches == report.context_switches
            && self.hier.stats() == report.stats
    }

    fn dispatch(&mut self) {
        let Some(next) = self.queue.pop_front() else {
            return;
        };
        if self.last != Some(next) {
            let p = &self.procs[next];
            let snap = if p.has_run { p.snapshot.as_ref() } else { None };
            let t0 = Instant::now();
            let cost = self.hier.restore_context(0, 0, snap, self.clock);
            self.times.restore.add(t0.elapsed());
            if self.ever_dispatched {
                self.charge(&cost);
            }
        }
        self.ever_dispatched = true;
        self.last = Some(next);
        self.current = Some(next);
        self.quantum_left = self.quantum;
        self.procs[next].has_run = true;
    }

    fn charge(&mut self, cost: &SwitchCost) {
        self.clock += self.switch_cost.cycles(cost);
        self.switches += 1;
        self.times.sbits_reset += cost.sbits_reset;
        self.times.transfer_lines += cost.transfer_lines;
        self.times.comparator_cycles += cost.comparator_cycles;
    }

    fn access(&mut self, kind: AccessKind, addr: u64, now: u64) -> u64 {
        let t0 = Instant::now();
        let out = self.hier.access(0, 0, kind, addr, now);
        let d = t0.elapsed();
        self.times.access[class_of(&out)].add(d);
        out.latency.saturating_sub(self.l1_hit)
    }

    fn step(&mut self, pi: usize) {
        let p = &mut self.procs[pi];
        let Some(&op) = p.ops.get(p.next) else {
            self.overran = true;
            return;
        };
        p.next += 1;
        let (pc, yielded) = match op {
            Op::Done => {
                self.complete(pi);
                return;
            }
            Op::Instr { pc, .. } | Op::Flush { pc, .. } => (pc, false),
            Op::Yield { pc } => (pc, true),
        };
        let now = self.clock;
        let mut cycles = 1 + self.access(AccessKind::IFetch, pc, now);
        match op {
            Op::Instr {
                data: Some((kind, addr)),
                ..
            } => {
                let kind = match kind {
                    DataKind::Load => AccessKind::Load,
                    DataKind::Store => AccessKind::Store,
                };
                cycles += self.access(kind, addr, now + cycles);
            }
            Op::Flush { target, .. } => {
                let t0 = Instant::now();
                let lat = self.hier.clflush(target);
                self.times.clflush.add(t0.elapsed());
                cycles += lat;
            }
            _ => {}
        }
        self.clock += cycles;
        self.quantum_left = self.quantum_left.saturating_sub(cycles);
        let p = &mut self.procs[pi];
        p.instructions += 1;
        if p.target.is_some_and(|t| p.instructions >= t) {
            self.complete(pi);
        } else if yielded || self.quantum_left == 0 {
            self.preempt(pi);
        }
    }

    fn preempt(&mut self, pi: usize) {
        if self.queue.is_empty() {
            self.quantum_left = self.quantum;
            return;
        }
        let t0 = Instant::now();
        let snap = self.hier.save_context(0, 0, self.clock);
        self.times.save.add(t0.elapsed());
        self.procs[pi].snapshot = Some(snap);
        self.queue.push_back(pi);
        self.current = None;
    }

    fn complete(&mut self, pi: usize) {
        self.procs[pi].completed = true;
        self.current = None;
    }
}
