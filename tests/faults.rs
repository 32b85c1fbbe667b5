//! End-to-end fault-containment tests (the robustness PR's acceptance
//! scenario): a corpus run where one job panics and one job blows the
//! memory budget must complete every remaining job, report exactly one
//! Crash and one OutOfMemory, and produce identical verdict counts at
//! `--jobs 1` and `--jobs 4` and across a kill + `--resume`.

use alive2::core::engine::{Counts, Job, ValidationEngine};
use alive2::core::journal::{Journal, ResumeLog};
use alive2::core::validator::Verdict;
use alive2::ir::module::Module;
use alive2::ir::parser::parse_module;
use alive2::sema::config::EncodeConfig;
use std::sync::Arc;

/// A loop over a wide vector whose term DAG grows superlinearly with the
/// unroll factor: ~150 KiB at x1 but several MiB by x4 and far past any
/// small budget at x8 — the "one pathological function" of the scenario.
fn explosive(ret: &str) -> String {
    format!(
        r#"define <8 x i64> @burn(<8 x i64> %x, i64 %n) {{
entry:
  br label %head
head:
  %i = phi i64 [ 0, %entry ], [ %i1, %body ]
  %acc = phi <8 x i64> [ %x, %entry ], [ %a3, %body ]
  %c = icmp ult i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %a1 = mul <8 x i64> %acc, %acc
  %a2 = {ret}
  %a3 = xor <8 x i64> %a2, %a1
  %i1 = add i64 %i, 1
  br label %head
exit:
  ret <8 x i64> %acc
}}"#
    )
}

/// The mixed corpus: a healthy pair, a pair whose job will be made to
/// panic (by fault marker), and the term-explosive pair. The target of
/// the explosive pair commutes one operand so the fast path for
/// byte-identical functions cannot skip encoding it.
fn corpus() -> (Module, Module) {
    let healthy_src = "define i8 @ok(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}\n\
                       define i8 @doomed(i8 %x) {\nentry:\n  ret i8 %x\n}\n";
    let healthy_tgt = "define i8 @ok(i8 %x) {\nentry:\n  %r = shl i8 %x, 1\n  ret i8 %r\n}\n\
                       define i8 @doomed(i8 %x) {\nentry:\n  ret i8 %x\n}\n";
    let src = parse_module(&format!(
        "{healthy_src}{}",
        explosive("add <8 x i64> %a1, %x")
    ))
    .unwrap();
    let tgt = parse_module(&format!(
        "{healthy_tgt}{}",
        explosive("add <8 x i64> %x, %a1")
    ))
    .unwrap();
    (src, tgt)
}

fn jobs_of<'m>(src: &'m Module, tgt: &'m Module, cfg: EncodeConfig) -> Vec<Job<'m>> {
    src.functions
        .iter()
        .map(|f| Job {
            name: f.name.clone(),
            module: src,
            src: f,
            tgt: tgt.function(&f.name).unwrap(),
            cfg,
        })
        .collect()
}

/// Unroll deep enough to explode, budget small enough to trip fast.
fn tight_cfg() -> EncodeConfig {
    let mut cfg = EncodeConfig::with_unroll(8);
    cfg.mem_budget_mb = Some(2);
    cfg
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("alive2-faults-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn explosive_pair_hits_memory_budget_not_the_oom_killer() {
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, tight_cfg());
    let outcomes = ValidationEngine::sequential().run(&jobs[2..]);
    assert!(
        matches!(outcomes[0].verdict, Verdict::OutOfMemory),
        "expected OutOfMemory, got {:?}",
        outcomes[0].verdict
    );
}

#[test]
fn one_crash_one_oom_rest_complete() {
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, tight_cfg());
    let engine = ValidationEngine::new(4).with_fault_marker(Some("doomed".into()));
    let (outcomes, counts) = engine.run_counts(&jobs);
    assert_eq!(outcomes.len(), 3);
    assert_eq!(counts.crash, 1, "{counts:?}");
    assert_eq!(counts.oom, 1, "{counts:?}");
    assert_eq!(counts.correct, 1, "{counts:?}");
    assert!(outcomes[0].verdict.is_correct());
    assert!(matches!(outcomes[1].verdict, Verdict::Crash(_)));
    assert!(matches!(outcomes[2].verdict, Verdict::OutOfMemory));
}

#[test]
fn crash_and_oom_parity_jobs_1_vs_4() {
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, tight_cfg());
    let run = |workers: usize| -> Counts {
        ValidationEngine::new(workers)
            .with_fault_marker(Some("doomed".into()))
            .run_counts(&jobs)
            .1
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.crash, 1);
    assert_eq!(seq.oom, 1);
    assert!(seq.same_verdicts(&par), "{seq:?} vs {par:?}");
}

#[test]
fn killed_then_resumed_run_reports_identical_counts() {
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, tight_cfg());
    let path = temp_path("kill-resume");
    let _ = std::fs::remove_file(&path);

    // Full journaled run: the ground truth.
    let journal = Arc::new(Journal::append(&path).unwrap());
    let engine = ValidationEngine::new(2)
        .with_fault_marker(Some("doomed".into()))
        .with_journal(Some(journal));
    let (_, full) = engine.run_counts(&jobs);
    assert_eq!(full.crash, 1);
    assert_eq!(full.oom, 1);

    // Simulate a kill mid-write: keep the first journal line plus a torn
    // fragment of the second.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let first = lines.next().unwrap().to_string();
    let second = lines.next().unwrap();
    let torn = format!("{first}\n{}", &second[..second.len() / 2]);
    std::fs::write(&path, torn).unwrap();

    // Resumed run: replays the surviving line, recomputes the rest (the
    // marker still injects the panic for the re-run job), and lands on
    // identical counts.
    let resume = Arc::new(ResumeLog::load(&path).unwrap());
    assert_eq!(resume.len(), 1);
    let resumed_engine = ValidationEngine::sequential()
        .with_fault_marker(Some("doomed".into()))
        .with_resume(Some(resume));
    let (_, resumed) = resumed_engine.run_counts(&jobs);
    assert!(full.same_verdicts(&resumed), "{full:?} vs {resumed:?}");

    let _ = std::fs::remove_file(&path);
}

/// A hostile index path must degrade, never crash. The parser rejects
/// textual out-of-bounds aggregate indices outright; a module built by
/// other means (a frontend, a mutation harness) can still carry one, and
/// encoding must answer `Unsupported`, not panic into `Crash`.
#[test]
fn out_of_bounds_aggregate_index_is_unsupported_not_crash() {
    use alive2::core::validator::validate_modules;
    use alive2::ir::instruction::InstOp;

    let corrupt = |text: &str| {
        let mut m = parse_module(text).unwrap();
        for inst in &mut m.functions[0].blocks[0].insts {
            match &mut inst.op {
                InstOp::ExtractValue { indices, .. } | InstOp::InsertValue { indices, .. } => {
                    indices[0] = 99;
                }
                _ => {}
            }
        }
        m
    };

    let src = corrupt(
        "define i8 @f({i8, i8} %s) {\nentry:\n  %x = extractvalue {i8, i8} %s, 0\n  ret i8 %x\n}",
    );
    let tgt = parse_module(
        "define i8 @f({i8, i8} %s) {\nentry:\n  %x = extractvalue {i8, i8} %s, 0\n  ret i8 %x\n}",
    )
    .unwrap();
    let results = validate_modules(&src, &tgt, &EncodeConfig::default());
    assert!(
        matches!(&results[0].1, Verdict::Unsupported(_)),
        "{:?}",
        results[0].1
    );

    // Same shape through insertvalue. The target stays well-formed: a
    // byte-identical pair would be skipped without ever encoding.
    let src = corrupt(
        "define {i8, i8} @f({i8, i8} %s) {\nentry:\n  %x = insertvalue {i8, i8} %s, i8 1, 0\n  ret {i8, i8} %x\n}",
    );
    let tgt = parse_module(
        "define {i8, i8} @f({i8, i8} %s) {\nentry:\n  %x = insertvalue {i8, i8} %s, i8 1, 0\n  ret {i8, i8} %x\n}",
    )
    .unwrap();
    let results = validate_modules(&src, &tgt, &EncodeConfig::default());
    assert!(
        matches!(&results[0].1, Verdict::Unsupported(_)),
        "{:?}",
        results[0].1
    );
}

/// A branch back to the entry block is ill-formed (LLVM's verifier rejects
/// it too), so the pair is skipped as unsupported. The unroller's
/// live-out demotion cannot place a slot in a loop's entry block; without
/// the rule the pair reached that invariant and crashed its job.
#[test]
fn branch_to_the_entry_block_is_unsupported_not_crash() {
    let pair = |k: u8| {
        parse_module(&format!(
            "define i8 @f(i8 %a, i1 %c) {{\nentry:\n  %x = add i8 %a, {k}\n  \
             br i1 %c, label %entry, label %exit\nexit:\n  ret i8 %x\n}}"
        ))
        .unwrap()
    };
    let (src, tgt) = (pair(1), pair(2));
    let jobs = jobs_of(&src, &tgt, EncodeConfig::default());
    let outcomes = ValidationEngine::sequential().run(&jobs);
    match &outcomes[0].verdict {
        Verdict::Unsupported(reason) => assert_eq!(
            reason,
            "ill-formed IR: @f: entry block %entry has predecessors"
        ),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}
