//! Bug hunt over the unit-test corpus (§8.2): enables every seeded
//! historic bug in the optimizer, runs the pipeline over the corpus with
//! validation after each pass, and prints the violations grouped by the
//! paper's taxonomy categories.
//!
//! Run with `cargo run --example find_bugs` (add `--release` for speed).
//! Validation fans out on the shared engine, so the standard flags apply:
//! `--jobs N`, `--procs N` (supervised worker processes),
//! `--deadline-ms MS`, `--mem-budget-mb MB`, `--journal`/`--resume`,
//! `--stats`, `--trace FILE`, `--profile FILE`.

use alive2::core::cli::{finish_obs, setup};
use alive2::core::engine::Job;
use alive2::core::obs::StatsTotals;
use alive2::core::validator::Verdict;
use alive2::ir::function::Function;
use alive2::ir::module::Module;
use alive2::ir::parser::parse_module;
use alive2::opt::bugs::{BugCategory, BugId, BugSet};
use alive2::opt::pass::PassManager;
use alive2::testgen::corpus::corpus;
use std::collections::HashMap;
use std::time::Instant;

/// One before/after snapshot with the metadata needed to attribute a
/// violation back to its seeded bug, corpus case, and pass.
struct Candidate {
    bug: BugId,
    case_name: &'static str,
    pass: String,
    module: Module,
    before: Function,
    after: Function,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let started = Instant::now();
    let (obs, engine, cfg) = setup(&args, alive2::sema::config::EncodeConfig::default());

    // Cheap sequential phase: enable each bug in isolation (so a
    // violation is attributable) and snapshot every changed pass.
    let mut candidates: Vec<Candidate> = Vec::new();
    for bug in BugId::all() {
        let pm = PassManager::default_pipeline(BugSet::only(bug));
        for case in corpus() {
            let module = parse_module(case.text).expect("corpus parses");
            for func in &module.functions {
                let mut f = func.clone();
                for (pass, before, after) in pm.run_with_snapshots(&mut f) {
                    candidates.push(Candidate {
                        bug,
                        case_name: case.name,
                        pass: pass.to_string(),
                        module: module.clone(),
                        before,
                        after,
                    });
                }
            }
        }
    }

    // Expensive phase: one engine work list for the whole hunt.
    let jobs: Vec<Job> = candidates
        .iter()
        .map(|c| Job {
            name: format!("{}/{:?}/{}", c.case_name, c.bug, c.pass),
            module: &c.module,
            src: &c.before,
            tgt: &c.after,
            cfg,
        })
        .collect();
    let outcomes = engine.run(&jobs);
    let mut stats = StatsTotals::default();
    for o in &outcomes {
        stats.add_job(&o.stats);
    }
    engine.fold_supervision_into(&mut stats);

    let mut found: HashMap<&'static str, Vec<String>> = HashMap::new();
    for (c, o) in candidates.iter().zip(&outcomes) {
        if let Verdict::Incorrect(cex) = &o.verdict {
            found
                .entry(c.case_name)
                .or_default()
                .push(format!("{:?} via {}: {}", c.bug, c.pass, cex.query));
        }
    }

    println!("== refinement violations by corpus case ==");
    let mut names: Vec<_> = found.keys().copied().collect();
    names.sort_unstable();
    for name in &names {
        println!("{name}:");
        for hit in &found[name] {
            println!("  {hit}");
        }
    }

    println!("\n== category coverage (paper §8.2 taxonomy) ==");
    let mut by_cat: HashMap<BugCategory, usize> = HashMap::new();
    for hits in found.values() {
        for hit in hits {
            for bug in BugId::all() {
                if hit.starts_with(&format!("{bug:?}")) {
                    *by_cat.entry(bug.category()).or_default() += 1;
                }
            }
        }
    }
    for cat in BugCategory::all() {
        println!(
            "  {:45} paper: {:3}   found here: {}",
            cat.to_string(),
            cat.paper_count(),
            by_cat.get(&cat).copied().unwrap_or(0)
        );
    }
    finish_obs(&obs, &stats, started.elapsed().as_micros() as u64);
}
