//! Shared by the workloads whose units are `System` runs: spawning
//! programs wrapped for tracing, and turning a traced run plus its
//! hierarchy replay into ledger records.

use crate::replay::{Replay, ACCESS_SPANS};
use crate::span::{Ledger, ProgramLog, Timed};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use timecache_os::{Pid, Program, RunReport, System};

/// The crate a program comes from; names its spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `timecache-workloads` (synthetic SPEC processes, the RSA victim).
    Workloads,
    /// `timecache-attacks` (the RSA prober).
    Attacks,
}

impl Layer {
    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Layer::Workloads => ("workloads.next_op", "workloads.observe"),
            Layer::Attacks => ("attacks.next_op", "attacks.observe"),
        }
    }
}

/// The wrapped programs of one traced unit, in spawn order.
#[derive(Default)]
pub struct Traced {
    procs: Vec<(Layer, Rc<RefCell<ProgramLog>>, Option<u64>)>,
}

/// Spawns `prog` on core 0 of `sys`, wrapped in a [`Timed`] logger when
/// `traced` is set (with room for `ops` ops).
pub fn spawn(
    sys: &mut System,
    traced: &mut Option<Traced>,
    prog: Box<dyn Program>,
    layer: Layer,
    target: Option<u64>,
    ops: usize,
) -> Pid {
    let prog = match traced {
        Some(t) => {
            let log = ProgramLog::shared(ops);
            t.procs.push((layer, Rc::clone(&log), target));
            Box::new(Timed::new(prog, log))
        }
        None => prog,
    };
    sys.spawn(prog, 0, 0, target)
}

impl Traced {
    /// Replays the recorded ops into a fresh hierarchy, driven by `drive`
    /// through the same phase sequence the `System` ran, and records the
    /// unit in `ledger` if the replay reproduced `report` exactly. `run` is
    /// the span of the `System`'s own run. Returns whether it did.
    pub fn record(
        self,
        ledger: &mut Ledger,
        sys: &System,
        report: &RunReport,
        run: (Instant, Instant),
        drive: impl FnOnce(&mut Replay),
    ) -> bool {
        let streams = self
            .procs
            .iter()
            .map(|(_, log, target)| (std::mem::take(&mut log.borrow_mut().ops), *target))
            .collect();
        let mut replay = Replay::new(sys.config(), streams);
        let r0 = Instant::now();
        drive(&mut replay);
        let r1 = Instant::now();
        if !replay.matches(report) {
            ledger.count("trace.inexact_units", 1);
            return false;
        }
        ledger.span("system.run", "unit", run.0, run.1);
        for (layer, log, _) in &self.procs {
            let log = log.borrow();
            let (next_op, observe) = layer.spans();
            ledger.agg(next_op, "system.run", log.next_op);
            ledger.agg(observe, "system.run", log.observe);
        }
        ledger.span("replay", "unit", r0, r1);
        let t = replay.times;
        for (name, a) in ACCESS_SPANS.iter().zip(t.access) {
            ledger.agg(name, "replay", a);
        }
        ledger.agg("sim.clflush", "replay", t.clflush);
        ledger.agg("sim.save", "replay", t.save);
        ledger.agg("sim.restore", "replay", t.restore);
        ledger.count("os.instructions", report.total_instructions);
        ledger.count("os.switches", report.context_switches);
        ledger.count("core.switches", report.context_switches);
        ledger.count("core.sbits_reset", t.sbits_reset);
        ledger.count("core.transfer_lines", t.transfer_lines);
        ledger.count("core.comparator_cycles", t.comparator_cycles);
        true
    }
}
