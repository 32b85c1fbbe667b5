//! The persistent CEGQI candidate solver on the known-bug corpus: every
//! pair must get its known answer, the candidate steps must run on a
//! live solver that inherits its clause database, and a counterexample
//! must prefer defined inputs when one exists.

use alive2::core::engine::{Outcome, ValidationEngine};
use alive2::core::obs::StatsTotals;
use alive2::core::validator::Verdict;
use alive2::ir::parser::parse_module;
use alive2::sema::config::EncodeConfig;
use alive2::testgen::known_bugs::{known_bugs, Expectation, KnownBug};

fn run_pair(engine: &ValidationEngine, bug: &KnownBug) -> Vec<Outcome> {
    let src = parse_module(bug.src).unwrap();
    let tgt = parse_module(bug.tgt).unwrap();
    engine.validate_modules_outcomes(&src, &tgt, &EncodeConfig::default())
}

#[test]
fn known_bug_corpus_verdict_parity() {
    let engine = ValidationEngine::default();
    let mut stats = StatsTotals::default();
    for bug in known_bugs() {
        let outcomes = run_pair(&engine, &bug);
        assert_eq!(outcomes.len(), 1, "{}: expected one pair", bug.name);
        let verdict = &outcomes[0].verdict;
        match bug.expect {
            Expectation::Detected => {
                assert!(verdict.is_incorrect(), "{}: {verdict:?}", bug.name)
            }
            Expectation::Missed(why) => {
                assert!(!verdict.is_incorrect(), "{} ({why}): {verdict:?}", bug.name)
            }
        }
        stats.add_job(&outcomes[0].stats);
    }
    // The candidate steps really run on a live solver: checks after
    // iteration 1 reuse it instead of rebuilding, and at least one check
    // inherited a warm clause database.
    assert!(
        stats.incremental_solves > 0,
        "the live solver never ran: {stats:?}"
    );
    assert!(
        stats.clauses_reused > 0,
        "no check inherited a warm clause database: {stats:?}"
    );
}

/// The counterexample arguments of `name`'s verdict.
fn witness(outcomes: &[Outcome], name: &str) -> Vec<(String, String)> {
    match &outcomes[0].verdict {
        Verdict::Incorrect(cex) => cex.args.clone(),
        other => panic!("{name}: expected a counterexample, got {other:?}"),
    }
}

#[test]
fn counterexamples_prefer_defined_inputs_and_replay_warm() {
    let arg = |v: &str| vec![("%x".to_string(), v.to_string())];
    for (name, want) in [
        // A defined input shows this bug: for x = +0.0 the source's
        // 0.0 - x is +0.0, while fneg x is -0.0.
        ("fsub-zero-to-fneg", arg("0")),
        // Only an undef input shows this one: the witness stays undef.
        ("mul2-to-add-i8", arg("undef")),
    ] {
        let bug = known_bugs().into_iter().find(|b| b.name == name).unwrap();
        // One engine: its second run reads what the first one stored.
        let engine = ValidationEngine::default();
        let cold = run_pair(&engine, &bug);
        assert_eq!(witness(&cold, name), want, "{name}: cold witness");
        let warm = run_pair(&engine, &bug);
        assert_eq!(witness(&warm, name), want, "{name}: warm witness");
        let s = &warm[0].stats;
        assert_eq!(
            (s.sat_solves, s.incremental_solves),
            (0, 0),
            "{name}: the warm run must replay without a live solve: {s:?}"
        );
        assert!(s.cache_hits > 0, "{name}: {s:?}");
    }
}
