//! Metric names, the per-layer ledger, and the JSON the benchmark prints.

use crate::bench::Run;
use crate::host;
use crate::replay::ACCESS_SPANS;
use crate::span::Ledger;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run, in this order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "wall_s",
    "unit_ms_p50",
    "unit_ms_tail",
    "sim_minstr_per_s",
    "tc_host_ratio",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by every traced run, in this order.
pub const PER_LAYER: [&str; 34] = [
    "workloads.next_op_ns",
    "workloads.ops",
    "attacks.next_op_ns",
    "attacks.observe_ns",
    "attacks.ops",
    "os.self_ns_per_instr",
    "os.instructions",
    "os.switches",
    "sim.access_ns.l1",
    "sim.access_ns.llc",
    "sim.access_ns.memory",
    "sim.access_ns.first_access",
    "sim.accesses.l1",
    "sim.accesses.llc",
    "sim.accesses.memory",
    "sim.accesses.first_access",
    "sim.clflush_ns",
    "sim.clflushes",
    "sim.save_ns",
    "sim.restore_ns",
    "sim.access_batch_ns",
    "core.sbits_reset",
    "core.transfer_lines",
    "core.comparator_cycles",
    "oracle.generate_ns",
    "oracle.build_ns",
    "oracle.refmodel_ns",
    "oracle.diff_ns",
    "oracle.events",
    "telemetry.counters_ratio",
    "telemetry.events_ratio",
    "sweep.speedup",
    "trace.overhead_ratio",
    "trace.replay_exact",
];

/// Spans of program code inside a `System` run.
const PROGRAM_SPANS: [&str; 4] = [
    "workloads.next_op",
    "workloads.observe",
    "attacks.next_op",
    "attacks.observe",
];

/// Spans of simulator calls other than per-access ones.
const SIM_SPANS: [&str; 4] = ["sim.clflush", "sim.save", "sim.restore", "sim.access_batch"];

fn ratio(a: f64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a / b as f64
    }
}

/// Every [`PER_LAYER`] metric the ledger holds, in order; the traced run
/// appends the run-level ratios (`telemetry.*`, `sweep.*`, `trace.*`).
pub fn layer_metrics(l: &Ledger) -> Vec<(&'static str, f64, &'static str)> {
    let cal = l.cal;
    let count = |name: &str| l.total(name).count;
    let mut m = vec![
        ("workloads.next_op_ns", l.net_per("workloads.next_op"), "ns"),
        ("workloads.ops", count("workloads.next_op") as f64, "count"),
        ("attacks.next_op_ns", l.net_per("attacks.next_op"), "ns"),
        ("attacks.observe_ns", l.net_per("attacks.observe"), "ns"),
        ("attacks.ops", count("attacks.next_op") as f64, "count"),
    ];

    // OS self time: the run span minus the program spans (raw, since the
    // run contains their readings in full), minus the instrumentation's
    // cost outside those readings, minus the replayed hierarchy time.
    let instructions = l.get_count("os.instructions");
    let switches = l.get_count("os.switches");
    let prog_raw: u64 = PROGRAM_SPANS.iter().map(|s| l.total(s).raw_ns).sum();
    let calls = |suffix: &str| -> f64 {
        PROGRAM_SPANS
            .iter()
            .filter(|s| s.ends_with(suffix))
            .map(|s| count(s) as f64)
            .sum()
    };
    let wrapper = calls("next_op") * (cal.next_op_call_ns - cal.empty_ns)
        + calls("observe") * (cal.observe_call_ns - cal.empty_ns);
    let hier: f64 = ACCESS_SPANS
        .iter()
        .map(|s| l.net_ns(s))
        .chain(SIM_SPANS[..3].iter().map(|s| l.net_ns(s)))
        .sum();
    let run = l.total("system.run").raw_ns as f64;
    let os_self = ratio(run - prog_raw as f64 - wrapper - hier, instructions);
    m.extend([
        ("os.self_ns_per_instr", os_self, "ns"),
        ("os.instructions", instructions as f64, "count"),
        ("os.switches", switches as f64, "count"),
    ]);

    for (i, s) in ACCESS_SPANS.iter().enumerate() {
        m.push((PER_LAYER[8 + i], l.net_per(s), "ns"));
    }
    for (i, s) in ACCESS_SPANS.iter().enumerate() {
        m.push((PER_LAYER[12 + i], count(s) as f64, "count"));
    }
    let switches_all = l.get_count("core.switches");
    m.extend([
        ("sim.clflush_ns", l.net_per("sim.clflush"), "ns"),
        ("sim.clflushes", count("sim.clflush") as f64, "count"),
        ("sim.save_ns", l.net_per("sim.save"), "ns"),
        ("sim.restore_ns", l.net_per("sim.restore"), "ns"),
        (
            "sim.access_batch_ns",
            ratio(
                l.net_ns("sim.access_batch"),
                l.get_count("sim.batched_accesses"),
            ),
            "ns",
        ),
        (
            "core.sbits_reset",
            ratio(l.get_count("core.sbits_reset") as f64, switches_all),
            "count/switch",
        ),
        (
            "core.transfer_lines",
            ratio(l.get_count("core.transfer_lines") as f64, switches_all),
            "count/switch",
        ),
        (
            "core.comparator_cycles",
            ratio(l.get_count("core.comparator_cycles") as f64, switches_all),
            "count/switch",
        ),
    ]);

    // Self time of `diff::replay`: the whole differential replay of a trace
    // minus what the instrumented twin measured in its parts.
    let traces = l.get_count("oracle.traces");
    let parts = l.net_ns("oracle.build")
        + l.net_ns("oracle.refmodel")
        + SIM_SPANS.iter().map(|s| l.net_ns(s)).sum::<f64>();
    let diff = if traces == 0 {
        0.0
    } else {
        ratio((l.net_ns("oracle.diff") - parts).max(0.0), traces)
    };
    m.extend([
        ("oracle.generate_ns", l.net_per("oracle.generate"), "ns"),
        ("oracle.build_ns", l.net_per("oracle.build"), "ns"),
        (
            "oracle.refmodel_ns",
            ratio(l.net_ns("oracle.refmodel"), traces),
            "ns",
        ),
        ("oracle.diff_ns", diff, "ns"),
        (
            "oracle.events",
            l.get_count("oracle.events") as f64,
            "count",
        ),
    ]);
    m
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number, all digits kept (non-finite values, which only a
/// division by an empty sum produces, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// What was run, where, and what it cost the host.
pub fn manifest(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    units: usize,
    run: &Run,
) -> String {
    format!(
        concat!(
            r#"{{"workload":{},"seed":{},"seconds":{},"trace":{},"units_per_pass":{},"#,
            r#""units_attempted":{},"units_failed":{},"nproc":{},"cpu_model":{},"#,
            r#""git_revision":{},"cpu_time_s":{},"vm_hwm_kib":{}}}"#
        ),
        json_str(workload),
        seed,
        seconds,
        u8::from(trace),
        units,
        run.attempted,
        run.failed,
        host::nproc(),
        json_str(&host::cpu_model()),
        json_str(&host::git_revision()),
        json_num(host::cpu_time_s()),
        host::vm_hwm_kib(),
    )
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                r#"{}: {{"value": {}, "unit": {}}}"#,
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        run.correct,
        run.attempted,
        run.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(json_str("\n"), r#""\u000a""#);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034567891), "1.2034567891");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
