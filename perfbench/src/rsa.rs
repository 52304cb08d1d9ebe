//! `rsa-attack`: §VI-A flush+reload key extraction against the
//! square-and-multiply victim, each unit one seeded key under Baseline and
//! TimeCache.

use crate::bench::{Build, Outcome, Workload};
use crate::span::Ledger;
use crate::system_unit::{spawn, Layer, Traced};
use crate::{digest, stats_words};
use std::time::Instant;
use timecache_attacks::analysis::exponent_tail_bits;
use timecache_attacks::harness::{single_core_system, timecache_mode};
use timecache_attacks::rsa_attack::{RoundLog, RsaProber};
use timecache_attacks::{KeyRecovery, Threshold};
use timecache_core::FastRng;
use timecache_os::{RunReport, System};
use timecache_sim::SecurityMode;
use timecache_workloads::rsa::{Mpi, RsaVictim};

/// Keys per pass.
pub const KEYS: usize = 6;
/// Secret exponent length in bits.
pub const KEY_BITS: usize = 1024;
/// The attack's safety valve on simulated cycles, as in the attack demo.
const MAX_CYCLES: u64 = 2_000_000_000;

/// The rsa-attack workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct RsaAttack;

/// The attack on one key under one security mode, built and spawned.
struct ModeRun {
    sys: System,
    log: RoundLog,
    traced: Option<Traced>,
}

/// The attack on one key under [Baseline, TimeCache].
pub struct RsaUnit {
    key: Mpi,
    runs: [ModeRun; 2],
}

/// Key `k` of the pass for `seed`: `KEY_BITS` random bits, top bit set.
pub fn key(seed: u64, k: usize) -> Mpi {
    let mut r = FastRng::seed_from_u64(seed ^ 0x5253_415F_4B45_5900 ^ k as u64);
    let mut limbs: Vec<u32> = (0..KEY_BITS / 32).map(|_| r.next_u64() as u32).collect();
    *limbs.last_mut().expect("KEY_BITS >= 32") |= 1 << 31;
    Mpi::from_limbs(limbs)
}

/// Runs the attack as mode `m`; checks and digests the result.
fn drive(key: &Mpi, m: usize, r: &mut ModeRun) -> (Outcome, RunReport) {
    let t = Instant::now();
    let report = r.sys.run(MAX_CYCLES);
    let ns = t.elapsed().as_nanos() as u64;

    let rounds = r.log.borrow();
    let recovery = KeyRecovery::decode(&rounds);
    let bits: Vec<bool> = (0..key.bit_len()).rev().map(|i| key.bit(i)).collect();
    let accuracy = recovery.accuracy(&exponent_tail_bits(&bits));
    let decoded = recovery.decoded_count() as u64;
    let mut words = vec![report.total_cycles, report.total_instructions, decoded];
    words.extend(stats_words(&report.stats));
    words.extend([report.context_switches, report.switch_cycles]);
    let work = report.total_instructions;
    let mut o = Outcome::mode(m, work, ns, report.total_cycles, digest(words));
    o.failure = if !report.all_completed() {
        Some("attack did not finish".to_owned())
    } else if rounds.len() != key.bit_len() - 1 {
        Some(format!("{} windows probed", rounds.len()))
    } else if m == 0 && accuracy != 1.0 {
        Some(format!("Baseline recovered {accuracy} of the key"))
    } else if m == 1 && decoded != 0 {
        Some(format!("TimeCache decoded {decoded} windows"))
    } else {
        None
    };
    (o, report)
}

impl Workload for RsaAttack {
    type Unit = RsaUnit;

    fn units(&self) -> usize {
        KEYS
    }

    fn build(&self, seed: u64, i: usize, how: Build<'_>) -> RsaUnit {
        let (telemetry, traced) = match how {
            Build::Plain => (None, false),
            Build::Traced(_) => (None, true),
            Build::Telemetry(t) => (Some(t), false),
        };
        let key = key(seed, i);
        let runs = [SecurityMode::Baseline, timecache_mode()].map(|security| {
            let mut sys = single_core_system(security);
            if let Some(t) = &telemetry {
                let mut cfg = sys.config().clone();
                cfg.telemetry = t.clone();
                sys = System::new(cfg).expect("Table I config is valid");
            }
            let mut traced = traced.then(Traced::default);
            let windows = (key.bit_len() - 1) as u32;
            let lat = sys.config().hierarchy.latencies;
            let (prober, log) = RsaProber::new(Threshold::cross_core(&lat), windows);
            let victim = RsaVictim::new(
                Mpi::from_u64(0x1234_5678_9ABC_DEF1),
                key.clone(),
                Mpi::from_hex("f123456789abcdef0123456789abcdef"),
                1,
                true,
            );
            let ops = 1 << 16;
            spawn(
                &mut sys,
                &mut traced,
                Box::new(prober),
                Layer::Attacks,
                None,
                ops,
            );
            spawn(
                &mut sys,
                &mut traced,
                Box::new(victim),
                Layer::Workloads,
                None,
                ops,
            );
            ModeRun { sys, log, traced }
        });
        RsaUnit { key, runs }
    }

    fn run(&self, u: RsaUnit) -> Outcome {
        let mut o = Outcome::default();
        for (m, mut r) in u.runs.into_iter().enumerate() {
            o.absorb(drive(&u.key, m, &mut r).0);
        }
        o
    }

    fn run_traced(&self, u: RsaUnit, ledger: &mut Ledger) -> Outcome {
        let mut o = Outcome::default();
        for (m, mut r) in u.runs.into_iter().enumerate() {
            let t0 = Instant::now();
            let (mut mo, report) = drive(&u.key, m, &mut r);
            let t1 = Instant::now();
            let traced = r.traced.take().expect("unit was built traced");
            let exact = traced.record(ledger, &r.sys, &report, (t0, t1), |rp| rp.run(MAX_CYCLES));
            if !exact && mo.failure.is_none() {
                mo.failure = Some("hierarchy replay did not reproduce the run".to_owned());
            }
            o.absorb(mo);
        }
        o
    }
}
