//! The §8.2 bug-taxonomy table: seed each historic bug, run the optimizer
//! over the corpus with validation after every pass, and count the
//! refinement violations per category.
//!
//! Run with `cargo run --release -p alive2-bench --bin table_bugs`.
//! Accepts the shared `--jobs N` / `--deadline-ms MS` flags, plus
//! `--procs N` to shard validation across supervised worker processes.

use alive2_bench::{finish_obs, print_summary_json, setup, Counts};
use alive2_core::engine::Job;
use alive2_ir::function::Function;
use alive2_ir::module::Module;
use alive2_ir::parser::parse_module;
use alive2_opt::bugs::{BugCategory, BugId, BugSet};
use alive2_opt::pass::PassManager;
use alive2_sema::config::EncodeConfig;
use alive2_testgen::corpus::Family;
use alive2_testgen::{corpus::corpus, known_bugs};
use std::collections::HashMap;

/// Corpus families that can trigger each pass-seeded bug; scanning only
/// those keeps the harness fast without changing what is found.
fn trigger_families(bug: BugId) -> &'static [Family] {
    match bug {
        BugId::MulToAddSelf | BugId::SelectToLogic | BugId::ShlDivFold => {
            &[Family::InstCombine, Family::InstSimplify]
        }
        BugId::SelectToBranch => &[Family::SimplifyCfg, Family::InstCombine],
        BugId::LicmHoistLoad => &[Family::Licm],
        BugId::FAddZero => &[Family::Float],
        BugId::DseWrongSize => &[Family::Dse],
        _ => &[],
    }
}

/// One candidate violation: the pair to validate plus the category it
/// counts toward if the validator flags it.
struct Candidate {
    category: BugCategory,
    module: Module,
    before: Function,
    after: Function,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let started = std::time::Instant::now();
    // The paper capped Z3 at one minute per query on a much larger
    // machine; scale the cap down so the table regenerates quickly.
    let (obs, engine, mut cfg) = setup(&args, EncodeConfig::default());
    cfg.solver_timeout_ms = 10_000;

    // Phase 1 (cheap, sequential): run the seeded optimizer pipelines and
    // collect every changed before/after pair.
    let mut candidates: Vec<Candidate> = Vec::new();
    for bug in BugId::all() {
        let families = trigger_families(bug);
        let pm = PassManager::default_pipeline(BugSet::only(bug));
        for case in corpus()
            .into_iter()
            .filter(|c| families.contains(&c.family))
        {
            let module = parse_module(case.text).expect("corpus parses");
            for func in &module.functions {
                let mut f = func.clone();
                for (_pass, before, after) in pm.run_with_snapshots(&mut f) {
                    candidates.push(Candidate {
                        category: bug.category(),
                        module: module.clone(),
                        before,
                        after,
                    });
                }
            }
        }
    }
    // Plus the curated pair suite (covers bug shapes no pass reproduces).
    for b in known_bugs::known_bugs() {
        let src = parse_module(b.src).unwrap();
        let tgt = parse_module(b.tgt).unwrap();
        let f = src.functions[0].clone();
        let t = tgt.function(&f.name).unwrap().clone();
        candidates.push(Candidate {
            category: b.category,
            module: src,
            before: f,
            after: t,
        });
    }

    // Phase 2 (expensive): validate every candidate on the engine.
    let jobs: Vec<Job> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| Job {
            name: format!("cand{i}"),
            module: &c.module,
            src: &c.before,
            tgt: &c.after,
            cfg,
        })
        .collect();
    let outcomes = engine.run(&jobs);
    let mut per_category: HashMap<BugCategory, u32> = HashMap::new();
    let mut counts = Counts::default();
    for (c, o) in candidates.iter().zip(&outcomes) {
        counts.add_outcome(o);
        if o.verdict.is_incorrect() {
            *per_category.entry(c.category).or_default() += 1;
        }
    }
    engine.fold_supervision_into(&mut counts.stats);
    counts.millis = started.elapsed().as_millis() as u64;
    finish_obs(&obs, &counts.stats, counts.millis * 1_000);
    print_summary_json("table_bugs", &counts);

    println!("§8.2: refinement violations by category\n");
    println!("{:>48}  {:>6}  {:>10}", "category", "paper", "found here");
    let mut ours_total = 0;
    for cat in BugCategory::all() {
        let ours = per_category.get(&cat).copied().unwrap_or(0);
        ours_total += ours;
        println!(
            "{:>48}  {:>6}  {:>10}",
            cat.to_string(),
            cat.paper_count(),
            ours
        );
    }
    println!(
        "{:>48}  {:>6}  {:>10}",
        "TOTAL (compiler bugs)", 106, ours_total
    );
    println!("\nEvery paper category must be non-zero here; absolute counts differ");
    println!("(the paper ran 36,000 real unit tests).");
    let missing: Vec<_> = BugCategory::all()
        .into_iter()
        .filter(|c| per_category.get(c).copied().unwrap_or(0) == 0)
        .collect();
    if !missing.is_empty() {
        println!("MISSING CATEGORIES: {missing:?}");
        std::process::exit(1);
    }
}
