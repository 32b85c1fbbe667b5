//! The §8.5 experiment: run the validator on 36 known miscompilations and
//! report which are detected and which are (soundly) missed, with reasons.
//!
//! Run with `cargo run --release -p alive2-bench --bin known_bugs`.
//! Accepts the shared `--jobs N` / `--deadline-ms MS` flags, plus
//! `--procs N` to shard the suite across supervised worker processes
//! (with `--inject-abort` / `--inject-hang` exercising the quarantine
//! and watchdog paths deterministically).

use alive2_bench::{finish_obs, print_summary_json, setup, Counts};
use alive2_core::engine::Job;
use alive2_ir::module::Module;
use alive2_ir::parser::parse_module;
use alive2_sema::config::EncodeConfig;
use alive2_testgen::known_bugs::{known_bugs, Expectation};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let started = std::time::Instant::now();
    let (obs, engine, cfg) = setup(&args, EncodeConfig::default());
    let bugs = known_bugs();
    // Parse every pair up front, then hand the whole suite to the engine
    // as one work list (one job per bug).
    let modules: Vec<(Module, Module)> = bugs
        .iter()
        .map(|b| {
            (
                parse_module(b.src).expect("bug source parses"),
                parse_module(b.tgt).expect("bug target parses"),
            )
        })
        .collect();
    let jobs: Vec<Job> = bugs
        .iter()
        .zip(&modules)
        .map(|(b, (src, tgt))| {
            let s = &src.functions[0];
            Job {
                name: b.name.to_string(),
                module: src,
                src: s,
                tgt: tgt
                    .function(&s.name)
                    .expect("bug target keeps the function"),
                cfg,
            }
        })
        .collect();
    let outcomes = engine.run(&jobs);

    let (mut detected, mut missed) = (0u32, 0u32);
    println!("§8.5: reproducing known LLVM bugs\n");
    for (bug, outcome) in bugs.iter().zip(&outcomes) {
        let got_detection = outcome.verdict.is_incorrect();
        let (status, note) = match (got_detection, bug.expect) {
            (true, Expectation::Detected) => {
                detected += 1;
                ("DETECTED", String::new())
            }
            (false, Expectation::Missed(reason)) => {
                missed += 1;
                ("missed  ", format!("({reason})"))
            }
            (got, expect) => (
                "UNEXPECTED",
                format!("got detection={got}, expected {expect:?}"),
            ),
        };
        println!("  {:10} {:32} {}", status, bug.name, note);
    }
    let mut counts = Counts::default();
    for o in &outcomes {
        counts.add_outcome(o);
    }
    engine.fold_supervision_into(&mut counts.stats);
    counts.millis = started.elapsed().as_millis() as u64;
    finish_obs(&obs, &counts.stats, counts.millis * 1_000);
    print_summary_json("known_bugs", &counts);
    println!("\n{detected} detected / {missed} missed (paper: 29 / 7)");
    if detected != 29 || missed != 7 {
        std::process::exit(1);
    }
}
