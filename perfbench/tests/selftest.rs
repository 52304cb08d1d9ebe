//! Self-tests: attribution of the traced run, agreement with the
//! experiments' simulation, and the benchmark's printed names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (timings in a debug build are valid but slow).

use perfbench::bench::{Build, Workload, DEFAULT_SEED};
use perfbench::report::{layer_metrics, END_TO_END, PER_LAYER};
use perfbench::span::{Calibration, Ledger};
use perfbench::spec::{self, SpecPairs};
use perfbench::stats::median;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use timecache_bench::runner::{run_spec_pair_mode, timecache_mode, RunParams};
use timecache_os::{Observation, Op, Program};
use timecache_sim::SecurityMode;
use timecache_workloads::mixes;

const SEED: u64 = 7;
/// Length of the busy-wait added to every `next_op`. A wait on the clock,
/// not a loop of instructions, so its cost does not depend on what the
/// simulator left in the host's caches.
const SPIN: Duration = Duration::from_nanos(300);

fn spin() {
    let t = Instant::now();
    while t.elapsed() < SPIN {
        std::hint::spin_loop();
    }
}

/// Host ns of one [`spin`], measured alone.
fn spin_ns() -> f64 {
    let runs: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..20_000 {
                spin();
            }
            t.elapsed().as_nanos() as f64 / 20_000.0
        })
        .collect();
    median(&runs)
}

/// A benchmark-side program wrapper that adds a fixed spin per `next_op`.
struct Spin(Box<dyn Program>);

impl Program for Spin {
    fn next_op(&mut self) -> Op {
        spin();
        self.0.next_op()
    }

    fn observe(&mut self, obs: Observation) {
        self.0.observe(obs);
    }
}

fn spinning(p: Box<dyn Program>) -> Box<dyn Program> {
    Box::new(Spin(p))
}

/// Layer metrics of one traced pass over the first two spec-pairs units
/// (2Xcalculix and 2Xmilc, both modes), shortened.
fn traced(w: &SpecPairs, cal: Calibration) -> BTreeMap<&'static str, f64> {
    let mut ledger = Ledger::new(cal);
    for i in 0..2 {
        ledger.begin_unit();
        let unit = w.build(SEED, i, Build::Traced(&mut ledger));
        let o = w.run_traced(unit, &mut ledger);
        assert_eq!(o.failure, None, "unit {i}");
    }
    assert_eq!(ledger.get_count("trace.inexact_units"), 0);
    layer_metrics(&ledger)
        .into_iter()
        .map(|(name, v, _)| (name, v))
        .collect()
}

#[test]
fn added_program_time_lands_in_the_workloads_layer_only() {
    let plain = SpecPairs {
        warmup: 10_000,
        measure: 40_000,
        wrap: None,
    };
    let with_spin = SpecPairs {
        wrap: Some(spinning),
        ..plain
    };
    let cal = Calibration::measure();
    let spin = spin_ns();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        a.push(traced(&plain, cal));
        b.push(traced(&with_spin, cal));
    }
    let med = |runs: &[BTreeMap<&str, f64>], k: &str| {
        median(&runs.iter().map(|m| m[k]).collect::<Vec<_>>())
    };
    let range = |runs: &[BTreeMap<&str, f64>], k: &str| {
        let v: Vec<f64> = runs.iter().map(|m| m[k]).collect();
        v.iter().copied().fold(f64::MIN, f64::max) - v.iter().copied().fold(f64::MAX, f64::min)
    };

    let delta = med(&b, "workloads.next_op_ns") - med(&a, "workloads.next_op_ns");
    assert!(
        (delta - spin).abs() <= 0.35 * spin,
        "next_op rose by {delta:.1} ns for a {spin:.1} ns spin"
    );

    for k in PER_LAYER
        .iter()
        .filter(|k| k.starts_with("sim.") || k.starts_with("os."))
    {
        let (pa, pb) = (med(&a, k), med(&b, k));
        if k.contains("_ns") {
            // Within the plain runs' own spread, or a quarter of the value
            // where three runs happened to agree closely.
            let tol = (2.0 * range(&a, k)).max(0.25 * pa).max(2.0);
            assert!(
                (pb - pa).abs() <= tol,
                "{k}: {pa:.1} ns without the spin, {pb:.1} ns with it (tolerance {tol:.1})"
            );
        } else {
            assert_eq!(pa, pb, "{k} is a count and must not change");
        }
    }
}

#[test]
fn seed_zero_runs_the_experiments_simulation() {
    let params = RunParams {
        warmup_instructions: spec::WARMUP,
        measure_instructions: spec::MEASURE,
        quantum_cycles: 1_000_000,
        ..RunParams::default()
    };
    let (a, b) = spec::PAIRS[0];
    let pair = mixes::all_pairs()
        .into_iter()
        .find(|p| p.a == a && p.b == b)
        .expect("a Table II pair");
    let w = SpecPairs::default();
    let o = w.run(w.build(DEFAULT_SEED, 0, Build::Plain));
    assert_eq!(o.failure, None);
    for (m, security) in [SecurityMode::Baseline, timecache_mode(&params)]
        .into_iter()
        .enumerate()
    {
        let expected = run_spec_pair_mode(&pair, security, &params);
        assert_eq!(o.mode_cycles[m], expected.cycles, "mode {m}");
    }
}

/// The `name`s listed under `section` in BENCHMARK.json.
fn names_in(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name value").to_owned())
        .collect()
}

/// The metric names in the result line of a run of the benchmark binary.
fn printed_names(root: &Path, trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "oracle-diff", "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace])
        .current_dir(root)
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with(r#"{"correct": true, "attempted": "#),
        "{last}"
    );
    // Every piece before a `: {"value"` ends with the metric's quoted name.
    let pieces: Vec<&str> = last.split(r#": {"value""#).collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|s| s.rsplit('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root");
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert_eq!(names_in(&json, "end_to_end"), END_TO_END);
    assert_eq!(names_in(&json, "per_layer"), PER_LAYER);
    assert_eq!(printed_names(root, "0"), END_TO_END);
    assert_eq!(printed_names(root, "1"), PER_LAYER);
}
