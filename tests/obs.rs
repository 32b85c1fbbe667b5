//! End-to-end observability tests (the telemetry PR's acceptance
//! scenarios): trace events must be balanced and well-formed JSON,
//! counters must not depend on the worker count, per-job stats must
//! survive a kill + `--resume`, and the timeout/crash verdicts must
//! report the phase they fired in.
//!
//! The span/trace/timing state is process-global, so every test in this
//! file takes `OBS_LOCK` first and restores the disabled state before
//! releasing it.

use alive2::core::engine::{Job, ValidationEngine};
use alive2::core::journal::{Journal, ResumeLog};
use alive2::core::obs;
use alive2::core::obs::json::JsonValue;
use alive2::core::obs::Phase;
use alive2::core::validator::Verdict;
use alive2::ir::module::Module;
use alive2::ir::parser::parse_module;
use alive2::sema::config::EncodeConfig;
use std::sync::{Arc, Mutex, MutexGuard};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the test and arms/disarms the global observability state
/// around it, starting from a drained trace buffer.
fn obs_guard(trace: bool, timing: bool) -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = obs::trace::take_events();
    obs::trace::set_enabled(trace);
    obs::set_timing(timing);
    obs::reset_phase_totals();
    guard
}

fn obs_off() {
    obs::trace::set_enabled(false);
    obs::trace::set_detail(false);
    obs::set_timing(false);
    let _ = obs::trace::take_events();
}

/// The faults corpus: one healthy pair, one pair the fault marker can
/// crash, one term-explosive pair (OOM under a tight budget).
fn corpus() -> (Module, Module) {
    let explosive = |ret: &str| {
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
    };
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

/// Two pairs whose obligations reach the CEGQI loop: a detected
/// `mul 2` → `add x, x` and a correct `(x & y) | x` → `x`. The fault
/// corpus's healthy pair is settled by seed instantiation without any
/// solve, so these give the parity check live solver traffic.
fn live_corpus() -> (Module, Module) {
    let src = parse_module(
        "define i8 @twice(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}\n\
         define i8 @mask(i8 %x, i8 %y) {\nentry:\n  %a = and i8 %x, %y\n  %r = or i8 %a, %x\n  ret i8 %r\n}\n",
    )
    .unwrap();
    let tgt = parse_module(
        "define i8 @twice(i8 %x) {\nentry:\n  %r = add i8 %x, %x\n  ret i8 %r\n}\n\
         define i8 @mask(i8 %x, i8 %y) {\nentry:\n  ret i8 %x\n}\n",
    )
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

fn tight_cfg() -> EncodeConfig {
    let mut cfg = EncodeConfig::with_unroll(8);
    cfg.mem_budget_mb = Some(2);
    cfg
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("alive2-obs-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn trace_events_balance_per_thread() {
    let _g = obs_guard(true, true);
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, tight_cfg());
    let _ = ValidationEngine::new(2).run(&jobs);
    let events = obs::trace::take_events();
    obs_off();
    assert!(!events.is_empty());

    // Per-thread LIFO discipline: every End closes the most recent Begin
    // of the same phase/label on its thread.
    let mut stacks: std::collections::HashMap<u64, Vec<(Phase, String)>> =
        std::collections::HashMap::new();
    for e in &events {
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            obs::trace::EventKind::Begin => stack.push((e.phase, e.label.clone())),
            obs::trace::EventKind::End => {
                let top = stack.pop().expect("End without Begin");
                assert_eq!(top, (e.phase, e.label.clone()), "mismatched span close");
            }
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }

    // The run must produce the expected span taxonomy: per-job spans plus
    // the encode phase on each real job, and solver queries on at least
    // the healthy pair.
    let phases: std::collections::HashSet<Phase> = events.iter().map(|e| e.phase).collect();
    for p in [Phase::Job, Phase::Encode, Phase::Solve, Phase::Query] {
        assert!(phases.contains(&p), "no {p:?} span in trace");
    }
}

#[test]
fn trace_file_is_valid_chrome_json() {
    let _g = obs_guard(true, true);
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, tight_cfg());
    let _ = ValidationEngine::sequential().run(&jobs[..1]);
    let path = temp_path("trace");
    let n = obs::trace::write_chrome(&path).unwrap();
    obs_off();
    assert!(n > 0);

    let text = std::fs::read_to_string(&path).unwrap();
    let v = JsonValue::parse(&text).expect("trace must parse with the in-tree codec");
    let events = v.as_arr().expect("trace is a JSON array");
    // Span events plus the trailing trace_buffer metadata record.
    assert_eq!(events.len(), n + 1);
    let mut begins = 0i64;
    let mut meta = 0usize;
    for e in events {
        assert!(e.get("name").and_then(|n| n.as_str()).is_some());
        assert!(e.get("ts").is_some());
        assert!(e.get("tid").is_some());
        match e.get("ph").and_then(|p| p.as_str()).expect("ph field") {
            "B" => begins += 1,
            "E" => begins -= 1,
            "M" => meta += 1,
            other => panic!("unexpected event type {other}"),
        }
        assert_eq!(e.get("cat").and_then(|c| c.as_str()), Some("alive2"));
    }
    assert_eq!(begins, 0, "unbalanced B/E events");
    assert_eq!(meta, 1, "exactly one metadata event");
    // The metadata event is last and carries the drop accounting.
    let last = events.last().unwrap();
    assert_eq!(
        last.get("name").and_then(|n| n.as_str()),
        Some("trace_buffer")
    );
    let args = last.get("args").expect("metadata args");
    assert_eq!(args.get("dropped").and_then(|d| d.as_num()), Some(0));
    assert_eq!(args.get("events").and_then(|d| d.as_num()), Some(n as u64));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn counters_identical_jobs_1_vs_4() {
    let _g = obs_guard(false, true);
    let (src, tgt) = corpus();
    let (live_src, live_tgt) = live_corpus();
    let mut jobs = jobs_of(&src, &tgt, tight_cfg());
    jobs.extend(jobs_of(&live_src, &live_tgt, tight_cfg()));
    let run = |workers: usize| {
        ValidationEngine::new(workers)
            .with_fault_marker(Some("doomed".into()))
            .run_counts(&jobs)
            .1
    };
    let seq = run(1);
    let par = run(4);
    obs_off();
    assert!(seq.stats.queries > 0, "{:?}", seq.stats);
    assert!(seq.stats.smt_unsat > 0, "{:?}", seq.stats);
    assert!(seq.stats.incremental_solves > 0, "{:?}", seq.stats);
    assert!(seq.stats.insts_encoded > 0, "{:?}", seq.stats);
    assert!(seq.stats.terms > 0, "{:?}", seq.stats);
    assert_eq!(seq.stats.jobs, 5);
    assert!(
        seq.stats.same_counters(&par.stats),
        "{:?} vs {:?}",
        seq.stats,
        par.stats
    );
    // The CNF-size sample is a pure function of the blasted formula (a
    // cache hit replays its writer's sample), so the buckets must be
    // bit-identical regardless of worker count; rule-family fire counts
    // partition rewrite_steps.
    assert!(!seq.stats.h_cnf_clauses.is_empty(), "{:?}", seq.stats);
    assert_eq!(
        seq.stats.h_cnf_clauses.buckets(),
        par.stats.h_cnf_clauses.buckets()
    );
    assert_eq!(
        seq.stats.rw_sum_normalize
            + seq.stats.rw_bitwise_absorb
            + seq.stats.rw_shift_extract
            + seq.stats.rw_ite_cmp
            + seq.stats.rw_eq_cancel
            + seq.stats.rw_div_fold,
        seq.stats.rewrite_steps,
        "family counters must partition rewrite_steps: {:?}",
        seq.stats
    );
    // Latency histograms carry timing (not bit-identical across worker
    // counts), but both runs profile the same number of queries.
    assert_eq!(
        seq.stats.h_latency_us.count(),
        par.stats.h_latency_us.count()
    );
}

#[test]
fn phase_totals_partition_busy_time_when_enabled() {
    let _g = obs_guard(false, true);
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, tight_cfg());
    let (_, counts) = ValidationEngine::sequential().run_counts(&jobs);
    let encode_us = obs::report::phase_us(Phase::Encode);
    let solve_us = obs::report::phase_us(Phase::Solve);
    obs_off();
    assert!(encode_us > 0, "encode phase never measured");
    assert!(solve_us > 0, "solve phase never measured");
    // Per-job busy aggregates mirror the global phase accumulators.
    assert!(counts.stats.encode_us > 0);
    assert!(counts.stats.encode_us <= encode_us);
}

#[test]
fn stats_survive_kill_and_resume() {
    let _g = obs_guard(false, false);
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, tight_cfg());
    let path = temp_path("kill-resume");
    let _ = std::fs::remove_file(&path);

    let journal = Arc::new(Journal::append(&path).unwrap());
    let engine = ValidationEngine::new(2)
        .with_fault_marker(Some("doomed".into()))
        .with_journal(Some(journal));
    let (_, full) = engine.run_counts(&jobs);
    assert_eq!(full.crash, 1);
    assert_eq!(full.oom, 1);

    // Every journal line carries the stats sub-object.
    let text = std::fs::read_to_string(&path).unwrap();
    for line in text.lines() {
        assert!(line.contains("\"stats\":{"), "no stats in: {line}");
    }

    // Kill mid-write: first line intact, second torn.
    let mut lines = text.lines();
    let first = lines.next().unwrap().to_string();
    let second = lines.next().unwrap();
    std::fs::write(&path, format!("{first}\n{}", &second[..second.len() / 2])).unwrap();

    // The resumed run reconstructs the replayed job's telemetry from the
    // journal and recomputes the rest: counter totals must match the
    // uninterrupted run exactly (times are excluded by same_counters).
    let resume = Arc::new(ResumeLog::load(&path).unwrap());
    assert_eq!(resume.len(), 1);
    let (_, resumed) = ValidationEngine::sequential()
        .with_fault_marker(Some("doomed".into()))
        .with_resume(Some(resume))
        .run_counts(&jobs);
    obs_off();
    assert!(full.same_verdicts(&resumed), "{full:?} vs {resumed:?}");
    assert!(
        full.stats.same_counters(&resumed.stats),
        "{:?} vs {:?}",
        full.stats,
        resumed.stats
    );
    // Histograms ride the journal's per-job stats, so the resumed run
    // reconstructs the replayed job's buckets without re-solving: the
    // deterministic CNF-size histogram must match the uninterrupted run
    // exactly, and the timing histogram must cover the same query count.
    assert!(!full.stats.h_cnf_clauses.is_empty(), "{:?}", full.stats);
    assert_eq!(
        full.stats.h_cnf_clauses.buckets(),
        resumed.stats.h_cnf_clauses.buckets()
    );
    assert_eq!(
        full.stats.h_latency_us.count(),
        resumed.stats.h_latency_us.count()
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn timeout_reports_the_phase_it_fired_in() {
    let _g = obs_guard(false, false);
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, EncodeConfig::default());
    // A zero deadline fires at the first span-close check, i.e. during
    // (or before) encoding — never silently in a later phase.
    let outcomes = ValidationEngine::sequential()
        .with_deadline_ms(Some(0))
        .run(&jobs);
    obs_off();
    for o in &outcomes {
        assert!(matches!(o.verdict, Verdict::Timeout), "{o:?}");
        assert_eq!(o.stats.phase, Phase::Encode, "{}: {:?}", o.name, o.stats);
    }
}

#[test]
fn crash_outcome_carries_partial_stats() {
    let _g = obs_guard(false, false);
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, tight_cfg());
    let outcomes = ValidationEngine::sequential()
        .with_fault_marker(Some("doomed".into()))
        .run(&jobs);
    obs_off();
    let crashed = &outcomes[1];
    assert!(matches!(crashed.verdict, Verdict::Crash(_)));
    // The injected panic fires before the validator starts, so the
    // furthest phase reached is Queued; a real mid-encode crash would
    // report Encode the same way.
    assert_eq!(crashed.stats.phase, Phase::Queued, "{:?}", crashed.stats);
    // The OOM verdict (a contained fault inside the validator) reports
    // the encode phase it died in, with the partial counters it gathered.
    let oom = &outcomes[2];
    assert!(matches!(oom.verdict, Verdict::OutOfMemory));
    assert_eq!(oom.stats.phase, Phase::Encode, "{:?}", oom.stats);
    assert!(oom.stats.terms > 0, "{:?}", oom.stats);
}

/// Journal and summary lines written before the counters were declared
/// in one table: `known_bugs --jobs 1 --stats --journal` lines, the
/// fault corpus's `alive2_tv` journal, and the `known_bugs` summary.
const GOLDEN: &str = include_str!("fixtures/stats_pr14.jsonl");

/// The `stats` object of a journal or summary line, as written.
fn stats_obj(line: &str) -> &str {
    let start = line.find("\"stats\":{").expect("a stats object") + "\"stats\":".len();
    let mut depth = 0usize;
    for (i, c) in line[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &line[start..=start + i];
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced stats object in {line}");
}

#[test]
fn golden_stats_objects_reserialize_byte_for_byte() {
    let mut objects = 0;
    for line in GOLDEN.lines() {
        let text = stats_obj(line);
        let v = JsonValue::parse(text).expect("valid JSON");
        let again = if line.starts_with("{\"run\":") {
            obs::JobStats::from_json(&v).to_json_obj()
        } else {
            obs::StatsTotals::from_json(&v).to_json_obj()
        };
        assert_eq!(again, text);
        objects += 1;
    }
    assert_eq!(objects, 40);
}

#[test]
fn golden_fault_journal_resumes_to_an_uninterrupted_run() {
    let _g = obs_guard(false, false);
    let (src, tgt) = corpus();
    let jobs = jobs_of(&src, &tgt, tight_cfg());
    let fault_lines: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| {
            src.functions
                .iter()
                .any(|f| l.contains(&format!("\"name\":\"{}\",\"verdict\"", f.name)))
        })
        .collect();
    assert_eq!(fault_lines.len(), 3);
    let path = temp_path("golden-resume");
    std::fs::write(&path, fault_lines.join("\n") + "\n").unwrap();

    let engine = || ValidationEngine::sequential().with_fault_marker(Some("doomed".into()));
    let (_, full) = engine().run_counts(&jobs);
    let resume = Arc::new(ResumeLog::load(&path).unwrap());
    assert_eq!(resume.len(), 3);
    let (_, resumed) = engine().with_resume(Some(resume)).run_counts(&jobs);
    obs_off();
    assert!(full.same_verdicts(&resumed), "{full:?} vs {resumed:?}");
    assert!(
        full.stats.same_counters(&resumed.stats),
        "{:?} vs {:?}",
        full.stats,
        resumed.stats
    );
    let _ = std::fs::remove_file(&path);
}
