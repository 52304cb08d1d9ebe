//! Host facts for the run manifest, read from `/proc` and `.git` with no
//! dependencies. Every reader degrades to a placeholder instead of failing:
//! a manifest field that cannot be read must not fail the benchmark.

use std::fs;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit `.git/HEAD` points at, resolved through loose and packed refs
/// (relative to the working directory, which is the checkout root).
pub fn git_revision() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{name}")) {
        return rev.trim().to_owned();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, r)| *r == name)
                    .map(|(rev, _)| rev.to_owned())
            })
        })
        .unwrap_or_else(|| format!("unresolved {name}"))
}

/// User plus system CPU time of this process, in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of `USER_HZ`, which
/// is 100 on every Linux ABI the benchmark targets).
pub fn cpu_time_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Field 2 (comm) may contain spaces; fields after its closing paren
    // start at field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set size (`VmHWM` in `/proc/self/status`), in KiB.
pub fn vm_hwm_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        assert!(vm_hwm_kib() > 0);
        assert!(cpu_time_s() >= 0.0);
        assert!(!cpu_model().is_empty());
    }
}
