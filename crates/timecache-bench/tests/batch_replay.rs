//! The batched access path's contract: pushing runs of accesses through
//! `Hierarchy::access_batch` with the serial clock rule
//! (`BatchClock::LatencyPlus(0)`), split at each `clflush`, yields exactly
//! the per-access loop's observables — the `AccessOutcome` sequence, the
//! final clock, the hierarchy statistics, and the merged telemetry
//! counters — whether the replay runs on the caller's thread (`--jobs 1`)
//! or across sweep workers (`--jobs 4`).

use timecache_bench::{sweep, telemetry};
use timecache_core::TimeCacheConfig;
use timecache_sim::{
    AccessKind, AccessOutcome, BatchClock, Hierarchy, HierarchyConfig, HierarchyStats, SecurityMode,
};

/// An uninterrupted run of accesses, then an optional `clflush` target.
type Segment = (Vec<(AccessKind, u64)>, Option<u64>);

/// A deterministic ~600-access stream mixing tight loops (L1 hits), a
/// working set beyond the L1 (LLC hits), a streaming region (DRAM misses),
/// and periodic flushes, so the replay exercises every latency class.
/// Each instruction is a fetch at its pc plus a load or store; a flush is
/// a fetch at its pc followed by the `clflush`, which ends the run.
fn mixed_segments() -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut run = Vec::new();
    let mut rng = 0x9e37_79b9_u64;
    let mut step = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for i in 0..200u64 {
        let pc = 0x1000 + (i % 32) * 4;
        let r = step();
        let addr = match r % 4 {
            0 => 0x4000 + (r % 8) * 64,      // hot lines: L1 hits
            1 => 0x10_0000 + (r % 512) * 64, // beyond L1: LLC traffic
            2 => 0x4000_0000 + i * 64,       // streaming: DRAM misses
            _ => 0x4000 + (r % 64) * 64,     // warm set
        };
        let kind = if r % 3 == 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        run.push((AccessKind::IFetch, pc));
        run.push((kind, addr));
        if i % 37 == 36 {
            run.push((AccessKind::IFetch, pc + 4));
            segments.push((std::mem::take(&mut run), Some(0x4000 + (r % 8) * 64)));
        }
        if i % 51 == 50 {
            // A yield: only its instruction fetch touches the hierarchy.
            run.push((AccessKind::IFetch, pc + 4));
        }
    }
    segments.push((run, None));
    segments
}

fn hierarchy() -> Hierarchy {
    let mut cfg = HierarchyConfig::with_cores(1);
    cfg.security = SecurityMode::TimeCache(TimeCacheConfig::default());
    Hierarchy::new(cfg).expect("valid config")
}

/// The per-access reference: the same stream through `Hierarchy::access`
/// one call at a time with the serial clock rule (`now += latency`;
/// clflush adds its own latency). Instrumented only while telemetry is
/// enabled.
fn replay_per_access(segments: &[Segment]) -> (Vec<AccessOutcome>, u64, HierarchyStats) {
    let mut h = hierarchy();
    h.attach_telemetry(&telemetry::current());
    let mut now = 1u64;
    let mut outs = Vec::new();
    for (run, flush) in segments {
        for &(kind, addr) in run {
            let o = h.access(0, 0, kind, addr, now);
            now += o.latency;
            outs.push(o);
        }
        if let Some(target) = *flush {
            now += h.clflush(target);
        }
    }
    let stats = h.stats();
    (outs, now, stats)
}

/// One batched replay with an instrumented hierarchy: each run is one
/// `access_batch` call.
fn replay_batched(segments: &[Segment]) -> (Vec<AccessOutcome>, u64, HierarchyStats) {
    let mut h = hierarchy();
    h.attach_telemetry(&telemetry::current());
    let mut now = 1u64;
    let mut outs = Vec::new();
    for (run, flush) in segments {
        let (batch, end) = h.access_batch(0, 0, run, now, BatchClock::LatencyPlus(0));
        outs.extend(batch);
        now = end;
        if let Some(target) = *flush {
            now += h.clflush(target);
        }
    }
    let stats = h.stats();
    (outs, now, stats)
}

fn access_counter(tel: &timecache_telemetry::Telemetry, cache: &str, outcome: &str) -> u64 {
    tel.registry()
        .expect("telemetry enabled")
        .counter_value(
            "sim_cache_accesses_total",
            &[("cache", cache), ("outcome", outcome)],
        )
        .unwrap_or(0)
}

#[test]
fn batched_replay_matches_per_access_loop_serial_and_parallel() {
    let segments = mixed_segments();
    assert!(
        segments.iter().filter(|(_, flush)| flush.is_some()).count() > 1,
        "stream never splits at a clflush"
    );

    let (ref_outs, ref_end, ref_stats) = replay_per_access(&segments);
    assert!(ref_outs.len() > 200, "stream too small to be interesting");

    // An instrumented per-access run gives the reference telemetry totals.
    let ref_tel = telemetry::enable();
    replay_per_access(&segments);
    telemetry::disable();

    for jobs in [1usize, 4] {
        // Four independent replays of the same stream fanned across the
        // sweep engine; each worker records into its own telemetry handle,
        // merged into `tel` at join.
        let tel = telemetry::enable();
        let runs = sweep::run_with_jobs(4, jobs, |_| replay_batched(&segments));
        telemetry::disable();

        for (outs, end, stats) in &runs {
            assert_eq!(
                outs, &ref_outs,
                "outcome sequence diverged at --jobs {jobs}"
            );
            assert_eq!(*end, ref_end, "final clock diverged at --jobs {jobs}");
            assert_eq!(stats, &ref_stats, "stats diverged at --jobs {jobs}");
        }

        // Merged telemetry = 4x the single per-access run's counters.
        for (cache, outcome) in [
            ("l1i", "hit"),
            ("l1d", "hit"),
            ("l1d", "miss"),
            ("llc", "hit"),
            ("llc", "miss"),
        ] {
            let reference = access_counter(&ref_tel, cache, outcome);
            let merged = access_counter(&tel, cache, outcome);
            assert_eq!(
                merged,
                4 * reference,
                "telemetry counter {cache}/{outcome} diverged at --jobs {jobs}"
            );
        }
        assert!(
            access_counter(&ref_tel, "l1d", "miss") > 0,
            "stream never missed the L1D; counters are vacuous"
        );
    }
}
