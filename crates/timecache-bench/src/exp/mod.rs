//! One module per paper artifact (table or figure), each exposing a
//! `run(params)` that prints the regenerated table and writes a CSV.

pub mod ablation;
pub mod area;
pub mod bench_sweep;
pub mod fault_sweep;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod ftm;
pub mod leakage_sweep;
pub mod other_attacks;
pub mod rollover;
pub mod security;
pub mod switchcost;
pub mod table1;
pub mod table2;
pub mod telemetry_demo;

use crate::runner::{run_spec_pair_mode, timecache_mode, Comparison, RunParams};
use crate::sweep;
use timecache_sim::SecurityMode;
use timecache_workloads::mixes::{self, PairSpec};

/// Runs the full Table II SPEC sweep once — every pair from
/// [`mixes::all_pairs`] (15 same-benchmark + 9 mixed = 24 pairs as of this
/// writing; the count is whatever `all_pairs()` returns) under both
/// security modes. The results feed Fig. 7, Fig. 8, and Table II.
///
/// Each `(pair, mode)` run is an independent job fanned across cores by
/// [`crate::sweep`]; results are returned in pair order regardless of the
/// worker count.
pub fn spec_sweep(params: &RunParams) -> Vec<Comparison> {
    sweep_pairs(&mixes::all_pairs(), params)
}

/// [`spec_sweep`] over an explicit pair list (ablations and tests sweep
/// subsets).
pub fn sweep_pairs(pairs: &[PairSpec], params: &RunParams) -> Vec<Comparison> {
    let metrics = sweep::run_with_jobs(pairs.len() * 2, sweep::jobs(), |i| {
        let spec = &pairs[i / 2];
        let (mode, name) = if i % 2 == 0 {
            (SecurityMode::Baseline, "baseline")
        } else {
            (timecache_mode(params), "timecache")
        };
        sweep::progress(&format!("  running {} [{name}] ...", spec.label()));
        run_spec_pair_mode(spec, mode, params)
    });
    let mut metrics = metrics.into_iter();
    pairs
        .iter()
        .map(|spec| {
            let baseline = metrics.next().expect("two runs per pair");
            let timecache = metrics.next().expect("two runs per pair");
            Comparison {
                label: spec.label(),
                baseline,
                timecache,
            }
        })
        .collect()
}
