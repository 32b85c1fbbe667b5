//! Fresh-vs-incremental parity (the incremental-CDCL PR's acceptance
//! suite): the persistent CEGQI candidate solver must produce the same
//! verdicts as per-iteration one-shot solving on the whole known-bug
//! corpus, the default path must actually run on a live solver, and
//! `--no-incremental` must keep everything one-shot.
//!
//! Parity is a *verdict* contract, not a counter or model contract: the
//! warm candidate solver may return different (equally valid) models, so
//! iteration counts and per-query timings can differ between the modes.

use alive2::core::engine::ValidationEngine;
use alive2::core::obs::StatsTotals;
use alive2::ir::parser::parse_module;
use alive2::sema::config::EncodeConfig;
use alive2::testgen::known_bugs::known_bugs;

fn run_corpus(incremental: bool) -> (Vec<(String, &'static str)>, StatsTotals) {
    let cfg = EncodeConfig {
        incremental,
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
fn known_bug_corpus_verdict_parity() {
    // The shared query cache is process-global, so the second run replays
    // repeated queries. Running one-shot mode cold keeps its sat_solves
    // count the honest baseline; the strict cold-vs-cold comparison (both
    // modes in separate processes) is ci.sh's incremental-solving smoke.
    let (fresh_verdicts, fresh_stats) = run_corpus(false);
    let (inc_verdicts, inc_stats) = run_corpus(true);
    assert_eq!(
        inc_verdicts, fresh_verdicts,
        "incremental and one-shot modes must agree on every verdict"
    );
    // The default path really runs on a live solver: candidate steps after
    // iteration 1 reuse it instead of rebuilding, and at least one check
    // inherited a warm clause database.
    assert!(
        inc_stats.incremental_solves > 0,
        "default mode never touched the live solver: {inc_stats:?}"
    );
    assert!(
        inc_stats.clauses_reused > 0,
        "no check inherited a warm clause database: {inc_stats:?}"
    );
    // Fewer one-shot SAT solves: the candidate solves moved onto the live
    // solver, so only verification (and trivial) queries still solve fresh.
    assert!(
        inc_stats.sat_solves < fresh_stats.sat_solves,
        "incremental mode should lower one-shot solves: {} vs {}",
        inc_stats.sat_solves,
        fresh_stats.sat_solves
    );
    // The escape hatch is airtight: one-shot mode never checks on a live
    // solver and never reports assumption-derived state.
    assert_eq!(
        (fresh_stats.incremental_solves, fresh_stats.clauses_reused),
        (0, 0),
        "--no-incremental must stay fully one-shot: {fresh_stats:?}"
    );
}
