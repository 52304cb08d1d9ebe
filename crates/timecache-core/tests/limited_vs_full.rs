//! Safety property of the limited-pointer representation: under any event
//! sequence, a context that the limited tracker shows as *visible* is also
//! visible under the full s-bit map — pointer overflow only ever revokes
//! visibility (extra misses), never grants it (stale hits).
//!
//! Deterministic seed-driven randomization from the crate's own
//! [`FastRng`] (no third-party crates; see DESIGN.md §6).

use timecache_core::{FastRng, LimitedPointers, SBitArray};

#[derive(Debug, Clone)]
enum Ev {
    Fill { line: usize, ctx: usize },
    FirstAccess { line: usize, ctx: usize },
    Evict { line: usize },
    ResetCtx { ctx: usize },
}

fn random_event(rng: &mut FastRng, lines: usize, ctxs: usize) -> Ev {
    let line = rng.next_below(lines as u64) as usize;
    let ctx = rng.next_below(ctxs as u64) as usize;
    match rng.next_below(4) {
        0 => Ev::Fill { line, ctx },
        1 => Ev::FirstAccess { line, ctx },
        2 => Ev::Evict { line },
        _ => Ev::ResetCtx { ctx },
    }
}

fn apply(e: &Ev, limited: &mut LimitedPointers, full: &mut [SBitArray]) {
    match *e {
        Ev::Fill { line, ctx } => {
            limited.set_exclusive(line, ctx);
            for (c, bits) in full.iter_mut().enumerate() {
                if c == ctx {
                    bits.set(line);
                } else {
                    bits.clear(line);
                }
            }
        }
        Ev::FirstAccess { line, ctx } => {
            limited.grant(line, ctx);
            full[ctx].set(line);
        }
        Ev::Evict { line } => {
            limited.clear_line(line);
            for bits in full.iter_mut() {
                bits.clear(line);
            }
        }
        Ev::ResetCtx { ctx } => {
            limited.clear_ctx(ctx);
            full[ctx].clear_all();
        }
    }
}

#[test]
fn limited_is_never_more_permissive() {
    const LINES: usize = 16;
    const CTXS: usize = 6;
    for seed in 0..48u64 {
        let mut rng = FastRng::seed_from_u64(seed);
        let k = (rng.next_below(3) + 1) as usize;
        let nevents = rng.next_below(300) as usize;
        let mut limited = LimitedPointers::new(LINES, CTXS, k);
        let mut full: Vec<SBitArray> = (0..CTXS).map(|_| SBitArray::new(LINES)).collect();

        for _ in 0..nevents {
            let e = random_event(&mut rng, LINES, CTXS);
            apply(&e, &mut limited, &mut full);
            // Invariant: limited-visible ⇒ full-visible.
            for line in 0..LINES {
                for (ctx, full_ctx) in full.iter().enumerate() {
                    if limited.has(line, ctx) {
                        assert!(
                            full_ctx.get(line),
                            "seed {seed} k {k}: line {line} ctx {ctx} visible in \
                             limited but not full"
                        );
                    }
                }
            }
        }
    }
}

/// With k == num_contexts the representations are exactly equivalent
/// (enough slots for every context: nothing is ever revoked).
#[test]
fn full_k_is_exact() {
    const LINES: usize = 12;
    const CTXS: usize = 3;
    for seed in 0..48u64 {
        let mut rng = FastRng::seed_from_u64(0x100 + seed);
        let nevents = rng.next_below(200) as usize;
        let mut limited = LimitedPointers::new(LINES, CTXS, CTXS);
        let mut full: Vec<SBitArray> = (0..CTXS).map(|_| SBitArray::new(LINES)).collect();

        for _ in 0..nevents {
            let e = random_event(&mut rng, LINES, CTXS);
            apply(&e, &mut limited, &mut full);
        }
        for line in 0..LINES {
            for (ctx, full_ctx) in full.iter().enumerate() {
                assert_eq!(limited.has(line, ctx), full_ctx.get(line), "seed {seed}");
            }
        }
    }
}

/// Snapshot extraction/load round-trips through the packed bit form.
#[test]
fn extract_load_roundtrip() {
    for seed in 0..32u64 {
        let mut rng = FastRng::seed_from_u64(0x200 + seed);
        let mut a = LimitedPointers::new(16, 4, 2);
        let ngrants = rng.next_below(64) as usize;
        for _ in 0..ngrants {
            let line = rng.next_below(16) as usize;
            let ctx = rng.next_below(4) as usize;
            a.grant(line, ctx);
        }
        for ctx in 0..4 {
            let bits = a.extract_bits(ctx);
            let mut b = LimitedPointers::new(16, 4, 2);
            b.load_bits(ctx, &bits);
            for line in 0..16 {
                assert_eq!(b.has(line, ctx), a.has(line, ctx), "seed {seed} ctx {ctx}");
            }
        }
    }
}
