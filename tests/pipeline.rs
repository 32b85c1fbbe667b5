//! Integration test for the §8.2 workflow: run the optimizer over the
//! unit-test corpus with translation validation after every pass.
//!
//! - With no seeded bugs, no pass may produce a refinement violation.
//! - With a bug seeded, the validator must catch it on the corpus case
//!   that triggers it — with the right §5.3 query class.

use alive2_core::engine::ValidationEngine;
use alive2_core::validator::{
    validate_pair, validate_pair_with_deadline, validate_pair_with_stats, Verdict,
};
use alive2_ir::parser::parse_module;
use alive2_ir::verify::verify_function;
use alive2_opt::bugs::{BugId, BugSet};
use alive2_opt::pass::PassManager;
use alive2_sema::config::EncodeConfig;
use alive2_sema::unroll::unroll_loops;
use alive2_testgen::appgen::{generate, profiles};
use alive2_testgen::corpus::{corpus, Family};
use alive2_testgen::known_bugs::known_bugs;

/// True when `ALIVE2_FULL_CORPUS=1`: sweep the whole unit-test corpus
/// (CI always does; see ci.sh). The default subset keeps `cargo test`
/// interactive while still crossing every pass at least once.
fn full_corpus() -> bool {
    std::env::var("ALIVE2_FULL_CORPUS").map(|v| v == "1") == Ok(true)
}

/// Runs the pipeline over one module and validates every changed pass.
fn validate_case(text: &str, bugs: BugSet, cfg: &EncodeConfig) -> Vec<(&'static str, Verdict)> {
    let module = parse_module(text).unwrap();
    let pm = PassManager::default_pipeline(bugs);
    let mut out = Vec::new();
    for func in &module.functions {
        let mut f = func.clone();
        for (pass, before, after) in pm.run_with_snapshots(&mut f) {
            let v = validate_pair(&module, &before, &after, cfg);
            out.push((pass, v));
        }
    }
    out
}

/// The clean pipeline and the ten bug-seeded ones.
fn every_pipeline() -> Vec<BugSet> {
    let mut pipelines = vec![BugSet::none()];
    pipelines.extend(BugId::all().into_iter().map(BugSet::only));
    pipelines
}

#[test]
fn clean_pipeline_never_miscompiles_the_corpus() {
    let cfg = EncodeConfig::default();
    let mut validated = 0;
    // Fast mode samples every third case; the full sweep covers them all.
    let stride = if full_corpus() { 1 } else { 3 };
    for case in corpus().into_iter().step_by(stride) {
        for (pass, v) in validate_case(case.text, BugSet::none(), &cfg) {
            assert!(
                !v.is_incorrect(),
                "{}: pass {pass} flagged incorrect: {v:?}",
                case.name
            );
            if v.is_correct() {
                validated += 1;
            }
        }
    }
    let floor = if full_corpus() { 20 } else { 6 };
    assert!(
        validated >= floor,
        "expected the pipeline to change and validate many cases, got {validated}"
    );
}

#[test]
fn seeded_bugs_are_caught_on_their_trigger_cases() {
    let cfg = EncodeConfig::default();
    // (bug, families whose cases can trigger it)
    let table: &[(BugId, &[Family])] = &[
        (BugId::MulToAddSelf, &[Family::InstCombine]),
        (BugId::SelectToLogic, &[Family::InstCombine]),
        (BugId::ShlDivFold, &[Family::InstCombine]),
        (BugId::SelectToBranch, &[Family::SimplifyCfg]),
        (BugId::LicmHoistLoad, &[Family::Licm]),
        (BugId::FAddZero, &[Family::Float]),
        (BugId::DseWrongSize, &[Family::Dse]),
    ];
    for (bug, families) in table {
        let mut caught = false;
        for case in corpus()
            .into_iter()
            .filter(|c| families.contains(&c.family))
        {
            for (_, v) in validate_case(case.text, BugSet::only(*bug), &cfg) {
                if v.is_incorrect() {
                    caught = true;
                }
            }
            // One triggering case proves the bug is caught; the remaining
            // family cases only add wall time outside the full sweep.
            if caught && !full_corpus() {
                break;
            }
        }
        assert!(caught, "seeded bug {bug:?} was never caught");
    }
}

/// A generated app module and its pipeline-optimized counterpart: a
/// source/target pair where the functions genuinely differ, so parallel
/// runs exercise real solver work rather than the byte-identical fast
/// path.
fn generated_pair() -> (alive2_ir::module::Module, alive2_ir::module::Module) {
    let mut profile = alive2_testgen::appgen::profiles()[0];
    profile.functions = if full_corpus() { 6 } else { 3 };
    profile.unsupported_density = 0.0;
    let src = alive2_testgen::appgen::generate(&profile);
    let mut tgt = src.clone();
    let pm = PassManager::default_pipeline(BugSet::none());
    for f in &mut tgt.functions {
        pm.run(f);
    }
    (src, tgt)
}

/// A parallel run must report exactly the same verdicts as a sequential
/// one — validation jobs are independent, so worker count can only change
/// wall-clock, never verdicts.
#[test]
fn parallel_run_matches_sequential_counts() {
    let (src, tgt) = generated_pair();
    let cfg = EncodeConfig::default();
    let seq_results = ValidationEngine::sequential().validate_modules(&src, &tgt, &cfg);
    let par_results = ValidationEngine::new(4).validate_modules(&src, &tgt, &cfg);
    assert_eq!(seq_results.len(), par_results.len());
    assert_eq!(seq_results.len(), src.functions.len());
    for ((sn, sv), (pn, pv)) in seq_results.iter().zip(&par_results) {
        assert_eq!(sn, pn, "result order must not depend on worker count");
        assert_eq!(
            std::mem::discriminant(sv),
            std::mem::discriminant(pv),
            "{sn}: sequential={sv:?} parallel={pv:?}"
        );
    }
}

/// A tiny per-job deadline must turn expensive jobs into `Timeout`
/// verdicts — never a hang.
#[test]
fn tiny_deadline_times_out_instead_of_hanging() {
    let (src, tgt) = generated_pair();
    let cfg = EncodeConfig::default();
    let engine = ValidationEngine::new(2).with_deadline_ms(Some(0));
    let results = engine.validate_modules(&src, &tgt, &cfg);
    assert_eq!(results.len(), src.functions.len());
    let mut timeouts = 0;
    for (name, v) in &results {
        // Functions the pipeline left untouched short-circuit to Correct
        // before any solving; every job that reaches the solver must
        // report Timeout under a zero deadline.
        assert!(
            v.is_correct() || matches!(v, Verdict::Timeout),
            "{name}: expected Correct (identical fast path) or Timeout, got {v:?}"
        );
        if matches!(v, Verdict::Timeout) {
            timeouts += 1;
        }
    }
    assert!(
        timeouts > 0,
        "the zero deadline should have timed out at least one changed function"
    );
}

#[test]
fn dup_add_gvn_pair_is_correct_within_two_seconds() {
    // `%a = add %x,%y; %b = add %x,%y; %r = mul %a,%b` → `mul %a,%a`. The
    // source re-reads its possibly-undef inputs for %b, so the CEGQI
    // seeds pair dead source reads with the target's and the loop runs
    // out of time; seed settling proves each obligation without it.
    let case = corpus().into_iter().find(|c| c.name == "dup-add").unwrap();
    let module = parse_module(case.text).unwrap();
    let mut f = module.functions[0].clone();
    let snapshots = PassManager::default_pipeline(BugSet::none()).run_with_snapshots(&mut f);
    let (_, before, after) = snapshots
        .iter()
        .find(|(pass, _, _)| *pass == "gvn")
        .expect("GVN changes dup-add");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let (v, stats) = validate_pair_with_deadline(
        &module,
        before,
        after,
        &EncodeConfig::default(),
        Some(deadline),
    );
    assert!(v.is_correct(), "{v:?} {stats:?}");
    assert_eq!(stats.cegqi_iters, 0, "{stats:?}");
}

#[test]
fn dup_call_and_two_slot_pairs_settle_through_every_pipeline() {
    // `dup-readnone-call`: GVN keeps one of two `sqrt(%x)` calls, and the
    // §6 call relation equates the two source outputs, so seed settling
    // needs that equality class to fold the two double adders into one.
    // `promote-two-slots`: each load reads back four bytes
    // `ite(isundef, undef[..], x[..])`, which the rewriter fuses into the
    // word mem2reg left once the shared condition leaves the concat.
    // Both used to reach the CEGQI loop (3 and 35 iterations) and time
    // out at the unit_pipeline limit.
    let cfg = EncodeConfig::default();
    let pipelines = every_pipeline();
    for name in ["dup-readnone-call", "promote-two-slots"] {
        let case = corpus().into_iter().find(|c| c.name == name).unwrap();
        let module = parse_module(case.text).unwrap();
        let mut validated = 0;
        for bugs in &pipelines {
            let mut f = module.functions[0].clone();
            let pm = PassManager::default_pipeline(bugs.clone());
            for (pass, before, after) in pm.run_with_snapshots(&mut f) {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                let (v, stats) =
                    validate_pair_with_deadline(&module, &before, &after, &cfg, Some(deadline));
                assert!(v.is_correct(), "{name} {pass}: {v:?} {stats:?}");
                assert_eq!(stats.cegqi_iters, 0, "{name} {pass}: {stats:?}");
                assert_eq!(stats.incremental_solves, 0, "{name} {pass}: {stats:?}");
                validated += 1;
            }
        }
        assert!(validated >= pipelines.len(), "{name}: {validated} pairs");
    }
}

#[test]
fn three_sqlite3_pairs_settle_by_a_matched_seed() {
    // Three pairs of the benchmark's apps items (appgen's sqlite3 profile
    // at scale 0.25, before and after one clean pass) whose CEGQI loops
    // ran into the 2 s limit. In fn7, instsimplify folds `or %a0, %a0`
    // into `%a0`, so the source reads `%a0` three times where the target
    // reads it twice; in fn19 and fn33, dce removes dead instructions.
    // The matched settling seed pairs each source read with the target
    // term in its place, and fn33's Query 2 also needs a non-variable
    // atom fixed by propagation, so no obligation reaches the loop. A
    // loop that runs at all fails the test, so one round is allowed: a
    // failure shows in a round instead of a 240 s loop.
    let pairs = [
        (
            "sqlite3/fn7/instsimplify",
            include_str!("fixtures/sqlite3_fn7_instsimplify_src.ll"),
            include_str!("fixtures/sqlite3_fn7_instsimplify_tgt.ll"),
        ),
        (
            "sqlite3/fn19/dce",
            include_str!("fixtures/sqlite3_fn19_dce_src.ll"),
            include_str!("fixtures/sqlite3_fn19_dce_tgt.ll"),
        ),
        (
            "sqlite3/fn33/dce",
            include_str!("fixtures/sqlite3_fn33_dce_src.ll"),
            include_str!("fixtures/sqlite3_fn33_dce_tgt.ll"),
        ),
    ];
    for (name, src, tgt) in pairs {
        let src = parse_module(src).unwrap();
        let tgt = parse_module(tgt).unwrap();
        let cfg = EncodeConfig {
            max_ef_iterations: 1,
            ..EncodeConfig::default()
        };
        let (v, stats) = validate_pair_with_stats(&src, &src.functions[0], &tgt.functions[0], &cfg);
        assert!(v.is_correct(), "{name}: {v:?} {stats:?}");
        assert_eq!(stats.cegqi_iters, 0, "{name}: {stats:?}");
        assert_eq!(stats.incremental_solves, 0, "{name}: {stats:?}");
    }
}

#[test]
fn dup_gep_pairs_are_correct_through_every_pipeline() {
    // `dup-gep` loads twice through equal GEPs of `%p`, so its return
    // value reads argument memory through `init_mem`, an uninterpreted
    // function. That value stays out of the seed pool, and every query
    // reaches the solvers Ackermannized; an application that slipped
    // through would panic in the bit-blaster.
    let cfg = EncodeConfig::default();
    let case = corpus().into_iter().find(|c| c.name == "dup-gep").unwrap();
    let module = parse_module(case.text).unwrap();
    let pipelines = every_pipeline();
    let mut validated = 0;
    for bugs in &pipelines {
        let mut f = module.functions[0].clone();
        let pm = PassManager::default_pipeline(bugs.clone());
        for (pass, before, after) in pm.run_with_snapshots(&mut f) {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            let (v, stats) =
                validate_pair_with_deadline(&module, &before, &after, &cfg, Some(deadline));
            assert!(v.is_correct(), "{pass} {bugs:?}: {v:?} {stats:?}");
            validated += 1;
        }
    }
    assert!(validated >= pipelines.len(), "{validated} pairs");
}

#[test]
fn a_deadline_stops_encoding_mid_function() {
    // `%v_i = add %v_{i-1}, %x` for 1,000 instructions takes seconds to
    // encode; the deadline is polled per instruction, so the job stops
    // well before the chain's end and reports a timeout while encoding.
    const LEN: u32 = 1_000;
    let mut text = String::from("define i32 @f(i32 %x) {\nentry:\n  %v0 = add i32 %x, %x\n");
    for i in 1..LEN {
        text += &format!("  %v{i} = add i32 %v{}, %x\n", i - 1);
    }
    let src = parse_module(&format!("{text}  ret i32 %v{}\n}}", LEN - 1)).unwrap();
    let tgt = parse_module(&format!("{text}  ret i32 %v{}\n}}", LEN - 2)).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(50);
    let (v, stats) = validate_pair_with_deadline(
        &src,
        &src.functions[0],
        &tgt.functions[0],
        &EncodeConfig::default(),
        Some(deadline),
    );
    assert!(matches!(v, Verdict::Timeout), "{v:?}");
    assert_eq!(stats.phase, alive2_core::obs::Phase::Encode, "{stats:?}");
    assert!(stats.insts_encoded < LEN, "{stats:?}");
}

#[test]
fn loop_functions_read_their_parameters() {
    // `%a` is used in the entry block and after a loop; the target returns
    // `%a + 2` where the source returns `%a + 1`. The unroller once moved
    // such a parameter into a stack slot nothing wrote, so both sides read
    // undef after the loop: the i4 pair validated and the i8 pair timed out.
    let src = include_str!("fixtures/entry_param_loop_src.ll");
    let tgt = include_str!("fixtures/entry_param_loop_tgt.ll");
    for width in ["i4", "i8"] {
        let src = parse_module(&src.replace("i8", width)).unwrap();
        let tgt = parse_module(&tgt.replace("i8", width)).unwrap();
        let v = validate_pair(
            &src,
            &src.functions[0],
            &tgt.functions[0],
            &EncodeConfig::default(),
        );
        match v {
            Verdict::Incorrect(cex) => assert_eq!(cex.query.name(), "ret_value", "{width}"),
            other => panic!("{width}: expected Incorrect, got {other:?}"),
        }
    }
}

#[test]
fn every_workload_function_unrolls_to_verified_ir() {
    // The unit corpus, both sides of the §8.5 suite and the five apps at
    // the benchmark's scale 0.25, each function as written and after the
    // clean pipeline: `unroll_loops` ends by verifying its output, and no
    // known input may fail that check at any factor up to 8.
    let mut modules: Vec<_> = corpus()
        .iter()
        .map(|c| parse_module(c.text).unwrap())
        .collect();
    for bug in known_bugs() {
        modules.push(parse_module(bug.src).unwrap());
        modules.push(parse_module(bug.tgt).unwrap());
    }
    for mut profile in profiles() {
        profile.functions = profile.functions.div_ceil(4);
        modules.push(generate(&profile));
    }
    let pm = PassManager::default_pipeline(BugSet::none());
    let mut looped = 0;
    for module in &modules {
        for f in &module.functions {
            let mut opt = f.clone();
            pm.run(&mut opt);
            for f in [f, &opt] {
                assert_eq!(verify_function(f), vec![], "{f}");
                for factor in [1, 2, 4, 8] {
                    match unroll_loops(f, factor) {
                        Ok(u) => {
                            let errs = verify_function(&u.func);
                            assert!(errs.is_empty(), "@{} x{factor}: {errs:?}", f.name);
                            looped += usize::from(u.had_loops);
                        }
                        Err(e) => assert_eq!(
                            e.reason, "irreducible control flow is unsupported",
                            "@{} x{factor}",
                            f.name
                        ),
                    }
                }
            }
        }
    }
    assert!(looped > 0, "no function had a loop");
}
