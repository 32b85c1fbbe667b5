//! Rewrite-saturation acceptance suite (the term-rewriting PR): the
//! pre-bit-blasting simplifier must change *what gets solved*, never
//! *what gets concluded*.
//!
//! Two contracts:
//!  1. On the whole known-bug corpus, rewriting on vs. off produces
//!     identical verdicts (the paper-shape 29 detected / 7 missed split),
//!     while the rewriter demonstrably discharges work: obligations
//!     folded to literals, strictly fewer live SAT solves than the 28 the
//!     corpus needed before the pass existed, and fewer than the same
//!     corpus needs with the pass off.
//!  2. On random term DAGs, a solver with rewriting enabled and one with
//!     it disabled agree on satisfiability, and the rewritten term is
//!     provably equivalent to the original.

use alive2::core::engine::ValidationEngine;
use alive2::core::obs::StatsTotals;
use alive2::ir::parser::parse_module;
use alive2::sema::config::EncodeConfig;
use alive2::smt::prelude::*;
use alive2::smt::rewrite::simplify;
use alive2::testgen::known_bugs::{known_bugs, Expectation};
use alive2::testgen::rng::Rng64;

/// Live solves the corpus needed before the rewrite pass existed (the
/// incremental-CDCL PR's cold-run count). Rewriting must beat it.
const PRE_REWRITE_SAT_SOLVES: u64 = 28;

fn run_corpus(rewrite: bool) -> (Vec<(String, &'static str)>, StatsTotals) {
    let cfg = EncodeConfig {
        rewrite,
        ..EncodeConfig::default()
    };
    let engine = ValidationEngine::default();
    let mut verdicts = Vec::new();
    let mut stats = StatsTotals::default();
    for bug in known_bugs() {
        let src = parse_module(bug.src).unwrap();
        let tgt = parse_module(bug.tgt).unwrap();
        for o in engine.validate_modules_outcomes(&src, &tgt, &cfg) {
            verdicts.push((format!("{}::{}", bug.name, o.name), o.verdict.kind()));
            stats.add_job(&o.stats);
        }
    }
    (verdicts, stats)
}

#[test]
fn known_bug_corpus_rewrite_parity() {
    // Each pass runs on an engine of its own, and no engine reads another
    // one's cache entries, so both passes count their live solves cold.
    let (on_verdicts, on_stats) = run_corpus(true);
    let (off_verdicts, off_stats) = run_corpus(false);

    assert_eq!(
        on_verdicts, off_verdicts,
        "rewriting must never change a verdict"
    );

    // The paper-shape split survives the pass.
    let mut detected = 0;
    let mut missed = 0;
    for (bug, (name, kind)) in known_bugs().iter().zip(&on_verdicts) {
        match bug.expect {
            Expectation::Detected => {
                assert_eq!(*kind, "incorrect", "{name}: expected detection");
                detected += 1;
            }
            Expectation::Missed(reason) => {
                assert_ne!(*kind, "incorrect", "{name}: expected a miss ({reason})");
                missed += 1;
            }
        }
    }
    assert_eq!((detected, missed), (29, 7));

    // The pass did real work: some obligations folded to literals before
    // any CNF existed, and the corpus needed strictly fewer live solves
    // than it did before the pass, and than it does without it.
    assert!(
        on_stats.rewrite_discharged > 0,
        "no obligation was discharged by rewriting: {on_stats:?}"
    );
    assert!(
        on_stats.rewrite_steps > 0,
        "the rewriter never fired a rule: {on_stats:?}"
    );
    assert!(
        on_stats.sat_solves < PRE_REWRITE_SAT_SOLVES,
        "rewriting should cut live solves below {PRE_REWRITE_SAT_SOLVES}, got {}",
        on_stats.sat_solves
    );
    assert!(
        on_stats.sat_solves < off_stats.sat_solves,
        "rewriting should cut live solves: {} on, {} off",
        on_stats.sat_solves,
        off_stats.sat_solves
    );

    // Turning the pass off is airtight: no rewrite counter moves.
    assert_eq!(
        (
            off_stats.rewrite_discharged,
            off_stats.rewrite_steps,
            off_stats.rewrite_residue
        ),
        (0, 0, 0),
        "rewriting off must bypass the pass entirely: {off_stats:?}"
    );
}

// ---- Random term DAG differential ---------------------------------------

const W: u32 = 8;

fn leaf_bv(ctx: &Ctx, rng: &mut Rng64) -> TermId {
    match rng.range_usize(0, 6) {
        0 => ctx.var("x", Sort::BitVec(W)),
        1 => ctx.var("y", Sort::BitVec(W)),
        2 => ctx.var("z", Sort::BitVec(W)),
        3 => ctx.bv_lit_u64(W, rng.next_u64() & 0xff),
        // Boundary constants the rule catalog keys on: identities,
        // absorbing elements, INT_MIN, -1.
        _ => ctx.bv_lit_u64(W, [0, 1, 0xff, 0x80, 2][rng.range_usize(0, 5)]),
    }
}

fn gen_bv(ctx: &Ctx, rng: &mut Rng64, depth: u32) -> TermId {
    if depth == 0 || rng.range_usize(0, 5) == 0 {
        return leaf_bv(ctx, rng);
    }
    let a = gen_bv(ctx, rng, depth - 1);
    let b = gen_bv(ctx, rng, depth - 1);
    match rng.range_usize(0, 21) {
        0 => ctx.bv_add(a, b),
        1 => ctx.bv_sub(a, b),
        2 => ctx.bv_mul(a, b),
        3 => ctx.bv_and(a, b),
        4 => ctx.bv_or(a, b),
        5 => ctx.bv_xor(a, b),
        6 => ctx.bv_shl(a, b),
        7 => ctx.bv_lshr(a, b),
        8 => ctx.bv_ashr(a, b),
        9 => ctx.bv_udiv(a, b),
        10 => ctx.bv_urem(a, b),
        11 => ctx.bv_sdiv(a, b),
        12 => ctx.bv_srem(a, b),
        13 => ctx.bv_not(a),
        14 => ctx.bv_neg(a),
        15 => {
            let c = gen_bool(ctx, rng, depth - 1);
            ctx.ite(c, a, b)
        }
        // A slice of the 16-bit concat, straddling the seam or not.
        16 => {
            let lo = rng.range_usize(0, W as usize + 1) as u32;
            ctx.extract(ctx.concat(a, b), lo + W - 1, lo)
        }
        // A low slice of `a`, extended back to the word.
        17 => {
            let low = ctx.extract(a, rng.range_usize(0, W as usize - 1) as u32, 0);
            if rng.range_usize(0, 2) == 0 {
                ctx.zext(low, W)
            } else {
                ctx.sext(low, W)
            }
        }
        // Three arms' weight: only sliced words put two ites on one
        // condition side by side under a concat.
        _ => {
            let c = gen_bool(ctx, rng, depth - 1);
            gen_sliced_word(ctx, rng, c, a, b)
        }
    }
}

/// A word built from slices of `a` and `b` at the positions they hold in
/// the word, as a load reads back bytes a store wrote: each part is
/// usually `ite(c, a[..], b[..])` on the one shared condition `c`, else a
/// swapped `ite` or a plain slice of `a`. The parts are concatenated high
/// part first, nested to the left or to the right.
fn gen_sliced_word(ctx: &Ctx, rng: &mut Rng64, c: TermId, a: TermId, b: TermId) -> TermId {
    const SPLITS: [&[u32]; 5] = [&[4, 4], &[2, 6], &[2, 3, 3], &[2, 2, 2, 2], &[1, 3, 4]];
    let mut hi = W;
    let mut parts = Vec::new();
    for &w in SPLITS[rng.range_usize(0, SPLITS.len())] {
        let (h, l) = (hi - 1, hi - w);
        hi -= w;
        let (sa, sb) = (ctx.extract(a, h, l), ctx.extract(b, h, l));
        parts.push(match rng.range_usize(0, 6) {
            0 => ctx.ite(c, sb, sa),
            1 => sa,
            _ => ctx.ite(c, sa, sb),
        });
    }
    if rng.range_usize(0, 2) == 0 {
        ctx.concat_many(&parts)
    } else {
        let (last, rest) = parts.split_last().unwrap();
        rest.iter().rev().fold(*last, |acc, &p| ctx.concat(p, acc))
    }
}

fn gen_bool(ctx: &Ctx, rng: &mut Rng64, depth: u32) -> TermId {
    if depth == 0 {
        return match rng.range_usize(0, 3) {
            0 => ctx.var("p", Sort::Bool),
            1 => ctx.var("q", Sort::Bool),
            _ => ctx.bool_lit(rng.next_u64() & 1 == 0),
        };
    }
    match rng.range_usize(0, 9) {
        0 => {
            let a = gen_bool(ctx, rng, depth - 1);
            let b = gen_bool(ctx, rng, depth - 1);
            ctx.and(a, b)
        }
        1 => {
            let a = gen_bool(ctx, rng, depth - 1);
            let b = gen_bool(ctx, rng, depth - 1);
            ctx.or(a, b)
        }
        2 => {
            let a = gen_bool(ctx, rng, depth - 1);
            ctx.not(a)
        }
        3 => {
            let a = gen_bool(ctx, rng, depth - 1);
            let b = gen_bool(ctx, rng, depth - 1);
            ctx.bxor(a, b)
        }
        4 => {
            let a = gen_bv(ctx, rng, depth - 1);
            let b = gen_bv(ctx, rng, depth - 1);
            ctx.eq(a, b)
        }
        5 => {
            let a = gen_bv(ctx, rng, depth - 1);
            let b = gen_bv(ctx, rng, depth - 1);
            ctx.bv_ult(a, b)
        }
        6 => {
            let a = gen_bv(ctx, rng, depth - 1);
            let b = gen_bv(ctx, rng, depth - 1);
            ctx.bv_slt(a, b)
        }
        7 => {
            let a = gen_bv(ctx, rng, depth - 1);
            let b = gen_bv(ctx, rng, depth - 1);
            ctx.bv_ule(a, b)
        }
        _ => {
            let c = gen_bool(ctx, rng, depth - 1);
            let a = gen_bool(ctx, rng, depth - 1);
            let b = gen_bool(ctx, rng, depth - 1);
            ctx.ite(c, a, b)
        }
    }
}

#[test]
fn random_term_dags_solve_identically_with_and_without_rewriting() {
    let cases = if std::env::var("ALIVE2_FULL_CORPUS").map(|v| v == "1") == Ok(true) {
        200
    } else {
        60
    };
    for seed in 0..cases {
        let mut rng = Rng64::seed_from_u64(0x2e17_1e5e ^ (seed as u64).wrapping_mul(0x9e37_79b9));
        let ctx = Ctx::new();
        let phi = gen_bool(&ctx, &mut rng, 4);

        // Satisfiability parity between the two solver configurations.
        let mut with = Solver::new(&ctx);
        with.set_rewrite(true);
        with.assert(phi);
        let mut without = Solver::new(&ctx);
        without.set_rewrite(false);
        without.assert(phi);
        let (r_on, r_off) = (
            with.check(Budget::unlimited()),
            without.check(Budget::unlimited()),
        );
        assert_eq!(
            r_on.is_sat(),
            r_off.is_sat(),
            "seed {seed}: rewrite changed satisfiability"
        );
        assert_eq!(
            r_on.is_unsat(),
            r_off.is_unsat(),
            "seed {seed}: rewrite changed unsatisfiability"
        );

        // The rewritten term is equivalent to the original — proved, not
        // sampled: `phi == simplify(phi)` must be valid.
        let r = simplify(&ctx, phi);
        assert_eq!(ctx.sort(r), ctx.sort(phi), "seed {seed}: sort changed");
        assert_eq!(
            is_valid(&ctx, ctx.eq(phi, r), Budget::unlimited()),
            Some(true),
            "seed {seed}: simplify changed meaning"
        );
    }
}
