//! In-tree micro-benchmarks (replaces the former criterion benches):
//! SMT substrate costs, IR parse/encode costs, and end-to-end refinement
//! checks — the per-query and per-function unit costs behind Figures 6–8.
//!
//! Run with `cargo run --release -p alive2-bench --bin micro`.
//! Options: `--samples N` (default 25), `--filter SUBSTR` (run matching
//! benches only). Output is one JSON line per bench (see
//! `alive2_bench::timer`).

use alive2_bench::{flag_value, timer};
use alive2_core::validator::validate_modules;
use alive2_ir::parser::{parse_function, parse_module};
use alive2_sema::config::EncodeConfig;
use alive2_sema::encode::{encode_function, Env};
use alive2_sema::unroll::unroll_loops;
use alive2_smt::cache::TermKey;
use alive2_smt::fxhash::FxHashMap;
use alive2_smt::prelude::*;
use alive2_smt::sat::{Budget, Lit, SatOutcome, SatSolver};
use alive2_testgen::known_bugs::known_bugs;

const FIG1: &str = r#"define i32 @fn(i32 %a, i32 %b) {
entry:
  %t = add i32 %a, %a
  %c = icmp eq i32 %t, 0
  br i1 %c, label %then, label %else
then:
  %q = shl i32 %a, 2
  ret i32 %q
else:
  %r = and i32 %b, 1
  ret i32 %r
}"#;

const LOOPY: &str = r#"define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %acc1 = add i32 %acc, %i
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}"#;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let samples: usize = flag_value(&args, "--samples").unwrap_or(25);
    let filter: Option<String> = flag_value(&args, "--filter");
    let wants = |name: &str| filter.as_deref().map_or(true, |f| name.contains(f));
    let run = |name: &str, f: &mut dyn FnMut()| {
        if wants(name) {
            timer::bench_report(name, samples, f);
        }
    };

    // ---- ir/sema micro (former encode_micro.rs) ------------------------
    run("ir/parse-fig1", &mut || {
        parse_function(FIG1).unwrap();
    });
    let loopy = parse_function(LOOPY).unwrap();
    run("sema/unroll-x8", &mut || {
        unroll_loops(&loopy, 8).unwrap();
    });
    let fig1_mod = parse_module(FIG1).unwrap();
    run("sema/encode-fig1", &mut || {
        let f = &fig1_mod.functions[0];
        let env = Env::new(EncodeConfig::default(), &fig1_mod, f).unwrap();
        encode_function(&env, f).unwrap();
    });
    let loopy_mod = parse_module(LOOPY).unwrap();
    run("sema/encode-loop-x4", &mut || {
        let f = &loopy_mod.functions[0];
        let env = Env::new(EncodeConfig::with_unroll(4), &loopy_mod, f).unwrap();
        encode_function(&env, f).unwrap();
    });

    // ---- smt micro (former smt_micro.rs) -------------------------------
    run("sat/pigeonhole-6-5", &mut || {
        let mut s = SatSolver::new();
        let (n, h) = (6, 5);
        let mut p = vec![];
        for _ in 0..n * h {
            p.push(s.new_var());
        }
        let idx = |i: usize, j: usize| p[i * h + j];
        for i in 0..n {
            let cl: Vec<Lit> = (0..h).map(|j| Lit::new(idx(i, j), true)).collect();
            s.add_clause(&cl);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::new(idx(i1, j), false), Lit::new(idx(i2, j), false)]);
                }
            }
        }
        assert_eq!(s.solve(Budget::unlimited()), SatOutcome::Unsat);
    });
    run("smt/mul-shl-equiv-16bit", &mut || {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(16));
        let two = ctx.bv_lit_u64(16, 2);
        let one = ctx.bv_lit_u64(16, 1);
        let t = ctx.eq(ctx.bv_mul(x, two), ctx.bv_shl(x, one));
        assert_eq!(is_valid(&ctx, t, Budget::unlimited()), Some(true));
    });
    run("smt/udiv-roundtrip-8bit", &mut || {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        // (x / y) * y + (x % y) == x  whenever y != 0
        let q = ctx.bv_udiv(x, y);
        let r = ctx.bv_urem(x, y);
        let lhs = ctx.bv_add(ctx.bv_mul(q, y), r);
        let nz = ctx.ne(y, ctx.bv_lit_u64(8, 0));
        let t = ctx.implies(nz, ctx.eq(lhs, x));
        assert_eq!(is_valid(&ctx, t, Budget::unlimited()), Some(true));
    });
    run("smt/cegqi-masking", &mut || {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(8));
        let y = ctx.var("y", Sort::BitVec(8));
        let phi = ctx.eq(ctx.bv_and(x, y), y);
        assert!(solve_exists_forall(&ctx, &[y], phi, EfConfig::default()).is_sat());
    });

    // ---- term kernels ----------------------------------------------------
    // Hash-consing: 1,000 lookups of existing nodes, and 1,000 new nodes
    // in a fresh context.
    let ctx = Ctx::new();
    let vars: Vec<TermId> = (0..1001)
        .map(|i| ctx.var(&format!("v{i}"), Sort::BitVec(32)))
        .collect();
    run("term/intern-hit-x1000", &mut || {
        for w in vars.windows(2) {
            std::hint::black_box(ctx.bv_and(w[0], w[1]));
        }
    });
    run("term/intern-miss-x1000", &mut || {
        let ctx = Ctx::new();
        let x = ctx.var("x", Sort::BitVec(32));
        std::hint::black_box((0..1000).fold(x, |acc, _| ctx.bv_add(acc, x)));
    });
    // The walks over one obligation of a known_bugs pair: ∃ args ∀ source
    // non-determinism. the source is defined and the target's return
    // value differs from the source's, or the target has UB.
    let bug = known_bugs()
        .into_iter()
        .find(|b| b.name == "fsub-zero-to-fneg")
        .expect("known bug");
    let (bsrc, btgt) = (
        parse_module(bug.src).unwrap(),
        parse_module(bug.tgt).unwrap(),
    );
    let env = Env::new(EncodeConfig::default(), &bsrc, &bsrc.functions[0]).unwrap();
    let (es, et) = (
        encode_function(&env, &bsrc.functions[0]).unwrap(),
        encode_function(&env, &btgt.functions[0]).unwrap(),
    );
    let c = &env.ctx;
    let (rs, rt) = (
        es.ret.as_ref().unwrap().as_scalar(),
        et.ret.as_ref().unwrap().as_scalar(),
    );
    let differs = c.or(et.ub, c.and(c.not(rs.poison), c.ne(rs.value, rt.value)));
    let phi = c.and(c.not(es.ub), differs);
    let zero: FxHashMap<TermId, TermId> = es
        .nondet
        .iter()
        .map(|&u| (u, Model::new().value_term(c, u)))
        .collect();
    run("term/substitute-kb-obligation", &mut || {
        std::hint::black_box(c.substitute(phi, &zero));
    });
    run("term/free-vars-kb-obligation", &mut || {
        std::hint::black_box(c.free_vars(phi));
    });
    run("cache/key-kb-obligation", &mut || {
        std::hint::black_box(TermKey::of_obligation(c, &es.nondet, phi, &[], true, &[]));
    });

    // ---- end-to-end refinement (former refine_micro.rs) ----------------
    let cfg = EncodeConfig::default();
    let src =
        parse_module("define i8 @f(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}").unwrap();
    let tgt =
        parse_module("define i8 @f(i8 %x) {\nentry:\n  %r = shl i8 %x, 1\n  ret i8 %r\n}").unwrap();
    run("refine/mul-to-shl-correct", &mut || {
        let r = validate_modules(&src, &tgt, &cfg);
        assert!(r[0].1.is_correct());
    });
    let bad = parse_module("define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, %x\n  ret i8 %r\n}")
        .unwrap();
    run("refine/mul-to-addself-incorrect", &mut || {
        let r = validate_modules(&src, &bad, &cfg);
        assert!(r[0].1.is_incorrect());
    });
    let msrc = parse_module(
        r#"define i32 @g(i32 %x) {
entry:
  %p = alloca i32
  store i32 %x, ptr %p
  %v = load i32, ptr %p
  ret i32 %v
}"#,
    )
    .unwrap();
    let mtgt = parse_module("define i32 @g(i32 %x) {\nentry:\n  ret i32 %x\n}").unwrap();
    run("refine/store-forwarding-memory", &mut || {
        let r = validate_modules(&msrc, &mtgt, &cfg);
        assert!(r[0].1.is_correct());
    });
}
