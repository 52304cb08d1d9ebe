//! The parallel sweep engine's contract: worker count changes wall-clock
//! only, never results — not even which job failed and why — and
//! per-worker telemetry merges to the same counters a serial run records.

use std::sync::Mutex;
use timecache_bench::exp::sweep_pairs;
use timecache_bench::runner::RunParams;
use timecache_bench::{sweep, telemetry};
use timecache_workloads::mixes;

/// `sweep::set_jobs` is process-wide; serialize the tests that toggle it.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// A reduced profile so the sweep finishes in seconds.
fn tiny_params() -> RunParams {
    RunParams {
        warmup_instructions: 20_000,
        measure_instructions: 80_000,
        quantum_cycles: 50_000,
        ..RunParams::default()
    }
}

#[test]
fn jobs_1_and_jobs_4_produce_identical_comparisons() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let pairs = &mixes::all_pairs()[..4];
    let params = tiny_params();

    sweep::set_jobs(1);
    let serial = sweep_pairs(pairs, &params);
    sweep::set_jobs(4);
    let parallel = sweep_pairs(pairs, &params);
    sweep::set_jobs(0);

    assert_eq!(serial.len(), pairs.len());
    // Comparison derives PartialEq: every metric of every run must match
    // bit-for-bit, in pair order.
    assert_eq!(serial, parallel);
}

#[test]
fn wait_bound_jobs_overlap_regardless_of_host_cpus() {
    // The engine's scalability contract, separated from the host's core
    // count: jobs that *wait* (sleep) instead of compute overlap under the
    // worker pool even on a single-CPU machine. Eight 20 ms jobs take
    // ~160 ms serially; four workers should finish two rounds in ~40 ms.
    // The 2.5x floor leaves headroom for scheduler jitter (the ideal is
    // 4x) while still failing if workers ever serialize.
    let job = |i: usize| {
        std::thread::sleep(std::time::Duration::from_millis(20));
        i
    };

    let t0 = std::time::Instant::now();
    let serial = sweep::run_with_jobs(8, 1, job);
    let serial_s = t0.elapsed().as_secs_f64();

    let t0 = std::time::Instant::now();
    let parallel = sweep::run_with_jobs(8, 4, job);
    let parallel_s = t0.elapsed().as_secs_f64();

    assert_eq!(serial, (0..8).collect::<Vec<_>>());
    assert_eq!(serial, parallel);
    let speedup = serial_s / parallel_s;
    assert!(
        speedup >= 2.5,
        "4-worker pool overlapped wait-bound jobs only {speedup:.2}x \
         (serial {serial_s:.3}s, parallel {parallel_s:.3}s)"
    );
}

#[test]
fn parallel_sweep_telemetry_matches_serial_counters() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let pairs = &mixes::all_pairs()[..2];
    let params = tiny_params();

    // Serial run with a fresh handle.
    sweep::set_jobs(1);
    let serial_tel = telemetry::enable();
    let serial = sweep_pairs(pairs, &params);
    telemetry::disable();

    // Parallel run with another fresh handle; workers record into their
    // own registries, merged back at join.
    sweep::set_jobs(4);
    let parallel_tel = telemetry::enable();
    let parallel = sweep_pairs(pairs, &params);
    telemetry::disable();
    sweep::set_jobs(0);

    assert_eq!(serial, parallel);
    let serial_reg = serial_tel.registry().unwrap();
    let parallel_reg = parallel_tel.registry().unwrap();
    for (cache, outcome) in [
        ("l1d", "hit"),
        ("l1d", "miss"),
        ("l1d", "first_access"),
        ("llc", "hit"),
        ("llc", "miss"),
        ("llc", "first_access"),
    ] {
        let labels = [("cache", cache), ("outcome", outcome)];
        let s = serial_reg.counter_value("sim_cache_accesses_total", &labels);
        let p = parallel_reg.counter_value("sim_cache_accesses_total", &labels);
        assert_eq!(s, p, "counter mismatch for {cache}/{outcome}");
        assert!(
            s.unwrap_or(0) > 0 || outcome == "first_access",
            "serial run recorded nothing for {cache}/{outcome}"
        );
    }
    assert_eq!(
        serial_reg.counter_value("sim_switch_restores_total", &[]),
        parallel_reg.counter_value("sim_switch_restores_total", &[]),
    );
}

#[test]
fn panicking_job_fails_identically_on_one_and_four_workers() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let root = std::env::temp_dir().join(format!("tc-parallel-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let encode = |v: &usize| v.to_string();
    let decode = |s: &str| s.parse::<usize>().ok();
    let panicking = |i: usize| {
        assert!(i != 5, "job 5 always panics");
        i * 3
    };

    let mut outcomes = Vec::new();
    for workers in [1, 4] {
        sweep::set_jobs(workers);
        let dir = root.join(format!("jobs{workers}"));
        let out =
            sweep::run_checkpointed(&dir, "panicky", "v1", 12, encode, decode, panicking).unwrap();
        assert!(
            dir.join("panicky.partial.jsonl").exists(),
            "a failed sweep on {workers} workers must keep its journal"
        );
        outcomes.push((dir, out));
    }
    sweep::set_jobs(0);

    let (serial, parallel) = (&outcomes[0].1, &outcomes[1].1);
    assert_eq!(serial, parallel);
    let failure = serial[5].as_ref().unwrap_err();
    assert_eq!(failure.index, 5);
    assert!(failure.message.contains("job 5 always panics"));
    assert_eq!(serial.iter().filter(|r| r.is_ok()).count(), 11);

    // Resuming with a job that no longer panics completes the sweep and
    // removes the journal.
    for (dir, _) in &outcomes {
        let out =
            sweep::run_checkpointed(dir, "panicky", "v1", 12, encode, decode, |i| i * 3).unwrap();
        assert_eq!(out, (0..12).map(|i| Ok(i * 3)).collect::<Vec<_>>());
        assert!(!dir.join("panicky.partial.jsonl").exists());
    }
    let _ = std::fs::remove_dir_all(&root);
}
