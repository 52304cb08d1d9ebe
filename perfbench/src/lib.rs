//! The repository benchmark: end-to-end host-time metrics per workload and
//! a traced per-layer ledger, measured through the public functions of the
//! simulator's crates. See `perfbench/README.md` for the workloads, the
//! metrics and what each per-layer metric predicts.

pub mod bench;
pub mod host;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod rsa;
pub mod span;
pub mod spec;
pub mod stats;
pub mod system_unit;

use timecache_sim::{CacheStats, HierarchyStats};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["spec-pairs", "rsa-attack", "oracle-diff"];

/// FNV-1a over the little-endian bytes of `words`.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every counter of `s`, L1I per core, then L1D per core, then the LLC.
pub fn stats_words(s: &HierarchyStats) -> Vec<u64> {
    let cache = |c: &CacheStats| {
        [
            c.accesses,
            c.hits,
            c.misses,
            c.first_access,
            c.evictions,
            c.invalidations,
            c.writebacks,
        ]
    };
    s.l1i
        .iter()
        .chain(&s.l1d)
        .chain(std::iter::once(&s.llc))
        .flat_map(cache)
        .collect()
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: bench::DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|e| format!("bad {flag} {v:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = num(&value)?,
            "--seconds" => out.seconds = num(&value)?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            out.workload
        ));
    }
    Ok(out)
}

/// Runs the benchmark `args` describes; returns the run and its unit count
/// per pass.
pub fn execute(args: &Args) -> (bench::Run, usize) {
    fn go<W: bench::Workload>(w: W, a: &Args) -> (bench::Run, usize) {
        let run = if a.trace {
            bench::run_traced(&w, a.seed, a.seconds)
        } else {
            bench::run_plain(&w, a.seed, a.seconds)
        };
        (run, w.units())
    }
    match args.workload.as_str() {
        "spec-pairs" => go(spec::SpecPairs::default(), args),
        "rsa-attack" => go(rsa::RsaAttack, args),
        _ => go(oracle::OracleDiff, args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload rsa-attack --seed 7 --seconds 30 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "rsa-attack".to_owned(),
                seed: 7,
                seconds: 30,
                trace: true,
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload spec-pairs --trace 2").is_err());
        assert!(args("--workload spec-pairs --seed -1").is_err());
        assert!(args("--workload spec-pairs --seed").is_err());
        assert!(args("--workload spec-pairs --frobnicate 1").is_err());
    }

    #[test]
    fn digest_depends_on_order_and_values() {
        assert_ne!(digest([1, 2]), digest([2, 1]));
        assert_eq!(digest([1, 2]), digest([1, 2]));
    }
}
