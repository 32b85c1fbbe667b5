//! Shared driver code for the Alive2-rs evaluation harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§8). The pipeline-and-validate loop itself lives
//! in [`alive2_core::engine`]; this crate adds the two workload shapes
//! (pass-pipeline snapshots, explicit module pairs), a `--jobs`/
//! `--deadline-ms` CLI convention shared by every harness, the in-tree
//! [`timer`] used in place of criterion, and the Fig. 7 table printers.

pub mod timer;

use alive2_core::engine::{Job, ValidationEngine};
use alive2_core::validator::Verdict;
use alive2_ir::function::Function;
use alive2_ir::module::Module;
use alive2_opt::bugs::BugSet;
use alive2_opt::pass::PassManager;
use alive2_sema::config::EncodeConfig;
use std::time::Instant;

pub use alive2_core::engine::Counts;

// The CLI convention (the driver prologue and tail) lives in
// `alive2_core::cli` so the process supervisor can rebuild the same
// engine on both sides of the fork; re-exported here so the bench bins
// and external users keep their import paths.
pub use alive2_core::cli::{
    engine_from_args, finish_obs, flag_value, obs_from_args, setup, ObsConfig,
};

/// Prints the machine-readable run summary consumed by `ci.sh` and the
/// resume-parity checks: a single JSON line holding the full [`Counts`],
/// the aggregated per-job telemetry (`stats`), and the per-phase busy
/// times (`phases`, all zero unless `--stats`/`--trace` armed timing).
pub fn print_summary_json(name: &str, c: &Counts) {
    println!(
        "{{\"name\":\"{}\",\"pairs\":{},\"diff\":{},{},\"stats\":{},\"phases\":{}}}",
        name,
        c.pairs,
        c.diff,
        c.verdicts_json(),
        c.stats.to_json_obj(),
        alive2_core::obs::report::phases_json_obj(c.millis * 1_000)
    );
}

/// Runs the default pipeline (with `bugs` seeded) over every function of a
/// module, validating each changed pass — the `opt -tv` workflow (§8.1).
///
/// The (sequential, cheap) optimization phase collects before/after
/// snapshots; the (expensive) validation phase fans out on `engine`.
pub fn validate_module_pipeline(
    module: &Module,
    bugs: BugSet,
    cfg: &EncodeConfig,
    engine: &ValidationEngine,
) -> Counts {
    let pm = PassManager::default_pipeline(bugs);
    let start = Instant::now();
    let mut pairs = 0u32;
    let mut snaps: Vec<(String, Function, Function)> = Vec::new();
    for func in &module.functions {
        let mut f = func.clone();
        pairs += pm.pass_names().len() as u32;
        for (pass, before, after) in pm.run_with_snapshots(&mut f) {
            snaps.push((format!("{}/{pass}", func.name), before, after));
        }
    }
    let jobs: Vec<Job> = snaps
        .iter()
        .map(|(name, before, after)| Job {
            name: name.clone(),
            module,
            src: before,
            tgt: after,
            cfg: *cfg,
        })
        .collect();
    let (_, mut counts) = engine.run_counts(&jobs);
    counts.pairs = pairs;
    counts.diff = jobs.len() as u32;
    counts.millis = start.elapsed().as_millis() as u64;
    counts
}

/// Validates a list of explicit source/target module pairs.
///
/// Every source function participates: those with no same-named target
/// are counted as unsupported (the dropped-function case).
pub fn validate_pairs(
    pairs: &[(Module, Module)],
    cfg: &EncodeConfig,
    engine: &ValidationEngine,
) -> (Counts, Vec<Verdict>) {
    let start = Instant::now();
    let mut counts = Counts::default();
    let mut verdicts = Vec::new();
    // One validate_modules call per pair would serialize on small pairs;
    // flatten everything into a single engine work list instead.
    let mut jobs: Vec<Job> = Vec::new();
    let mut resolved: Vec<(usize, Verdict)> = Vec::new();
    let mut slot = 0usize;
    for (src, tgt) in pairs {
        for s in &src.functions {
            match tgt.function(&s.name) {
                Some(t) => jobs.push(Job {
                    name: s.name.clone(),
                    module: src,
                    src: s,
                    tgt: t,
                    cfg: *cfg,
                }),
                None => resolved.push((
                    slot,
                    Verdict::Unsupported("no matching target function".into()),
                )),
            }
            slot += 1;
        }
    }
    let outcomes = engine.run(&jobs);
    for o in &outcomes {
        counts.stats.add_job(&o.stats);
    }
    engine.fold_supervision_into(&mut counts.stats);
    let mut merged: Vec<Option<Verdict>> = vec![None; slot];
    for (i, v) in resolved {
        merged[i] = Some(v);
    }
    let mut it = outcomes.into_iter();
    for m in merged.iter_mut() {
        if m.is_none() {
            *m = Some(it.next().expect("one outcome per job").verdict);
        }
    }
    for v in merged.into_iter().map(|m| m.expect("slot filled")) {
        counts.pairs += 1;
        counts.diff += 1;
        counts.record(&v);
        verdicts.push(v);
    }
    counts.millis = start.elapsed().as_millis() as u64;
    (counts, verdicts)
}

/// Prints a Fig. 7-style header.
pub fn print_fig7_header() {
    println!(
        "{:8} {:>6} {:>6} {:>9} {:>6} {:>6} {:>5} {:>5} {:>7} {:>5}",
        "Prog.", "Pairs", "Diff", "Time(s)", "OK", "Fail", "TO", "OOM", "Unsup.", "Crash"
    );
}

/// Prints a Fig. 7-style row.
pub fn print_fig7_row(name: &str, c: &Counts) {
    println!(
        "{:8} {:>6} {:>6} {:>9.1} {:>6} {:>6} {:>5} {:>5} {:>7} {:>5}",
        name,
        c.pairs,
        c.diff,
        c.millis as f64 / 1000.0,
        c.correct,
        c.incorrect,
        c.timeout,
        c.oom,
        c.unsupported,
        c.crash
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive2_ir::parser::parse_module;

    #[test]
    fn pipeline_driver_counts() {
        let m =
            parse_module("define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 0\n  ret i32 %a\n}")
                .unwrap();
        let c = validate_module_pipeline(
            &m,
            BugSet::none(),
            &EncodeConfig::default(),
            &ValidationEngine::sequential(),
        );
        assert!(c.diff >= 1);
        assert_eq!(c.incorrect, 0);
        assert!(c.correct >= 1);
    }

    #[test]
    fn pipeline_driver_parallel_matches_sequential() {
        let m = parse_module(
            "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 0\n  ret i32 %a\n}\n\
             define i32 @g(i32 %x) {\nentry:\n  %a = mul i32 %x, 2\n  ret i32 %a\n}",
        )
        .unwrap();
        let cfg = EncodeConfig::default();
        let seq =
            validate_module_pipeline(&m, BugSet::none(), &cfg, &ValidationEngine::sequential());
        let par = validate_module_pipeline(&m, BugSet::none(), &cfg, &ValidationEngine::new(4));
        assert!(seq.same_verdicts(&par));
        assert_eq!(seq.pairs, par.pairs);
        assert_eq!(seq.diff, par.diff);
    }

    #[test]
    fn injected_fault_flows_through_driver() {
        let m = parse_module(
            "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 0\n  ret i32 %a\n}\n\
             define i32 @g(i32 %x) {\nentry:\n  %a = mul i32 %x, 2\n  ret i32 %a\n}",
        )
        .unwrap();
        let engine = ValidationEngine::new(2).with_fault_marker(Some("g/".into()));
        let c = validate_module_pipeline(&m, BugSet::none(), &EncodeConfig::default(), &engine);
        assert!(c.crash >= 1, "{c:?}");
        assert!(c.correct >= 1, "other jobs must still run: {c:?}");
    }
}
