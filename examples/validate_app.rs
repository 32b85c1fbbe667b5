//! Translation validation while "compiling" an application (§8.4).
//!
//! Generates one of the synthetic single-file applications, optimizes it
//! with the default pipeline, validates every pass over every function on
//! the parallel validation engine, and prints a Fig. 7-style summary row.
//!
//! ```text
//! cargo run --release --example validate_app -- [bzip2|gzip|oggenc|ph7|sqlite3] \
//!     [--jobs N] [--procs N] [--deadline-ms MS] [--mem-budget-mb MB] \
//!     [--journal PATH] [--resume PATH] [--stats] [--trace FILE] [--profile FILE]
//! ```
//!
//! Flags follow the shared convention in [`alive2::core::cli`]; with
//! `--procs N` the validation phase is sharded across supervised worker
//! processes (this example re-invokes itself in worker-shard mode).

use alive2::core::cli::{finish_obs, positional_args, setup};
use alive2::core::engine::Job;
use alive2::opt::bugs::BugSet;
use alive2::opt::pass::PassManager;
use alive2::sema::config::EncodeConfig;
use alive2::testgen::appgen::{generate, profiles};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (obs, engine, cfg) = setup(&args, EncodeConfig::default());
    let which = positional_args(&args, &[])
        .into_iter()
        .next()
        .unwrap_or_else(|| "gzip".to_string());
    let Some(profile) = profiles().into_iter().find(|p| p.name == which) else {
        eprintln!("unknown app `{which}`; choose one of bzip2, gzip, oggenc, ph7, sqlite3");
        std::process::exit(1);
    };

    println!(
        "generating synthetic `{}` ({} functions)… validating on {} worker(s)",
        profile.name, profile.functions, engine.workers
    );
    let module = generate(&profile);
    let pm = PassManager::default_pipeline(BugSet::none());

    // Cheap sequential phase: optimize and snapshot every changed pass.
    let start = Instant::now();
    let mut pairs = 0u32;
    let mut snaps = Vec::new();
    for func in &module.functions {
        let mut f = func.clone();
        pairs += pm.pass_names().len() as u32;
        for (pass, before, after) in pm.run_with_snapshots(&mut f) {
            snaps.push((format!("{}/{pass}", func.name), before, after));
        }
    }
    // Expensive phase: fan the snapshots out on the engine.
    let jobs: Vec<Job> = snaps
        .iter()
        .map(|(name, before, after)| Job {
            name: name.clone(),
            module: &module,
            src: before,
            tgt: after,
            cfg,
        })
        .collect();
    let (_, mut counts) = engine.run_counts(&jobs);
    counts.pairs = pairs;
    counts.diff = jobs.len() as u32;
    let wall_us = start.elapsed().as_micros() as u64;
    counts.millis = wall_us / 1_000;

    println!();
    println!(
        "{:8} {:>6} {:>6} {:>9} {:>5} {:>5} {:>5} {:>5} {:>7}",
        "Prog.", "Pairs", "Diff", "Time (s)", "OK", "Fail", "TO", "OOM", "Unsup."
    );
    println!(
        "{:8} {:>6} {:>6} {:>9.1} {:>5} {:>5} {:>5} {:>5} {:>7}",
        profile.name,
        counts.pairs,
        counts.diff,
        counts.millis as f64 / 1000.0,
        counts.correct,
        counts.incorrect,
        counts.timeout,
        counts.oom,
        counts.unsupported
    );
    finish_obs(&obs, &counts.stats, wall_us);
    if counts.incorrect > 0 {
        println!("\nNOTE: refinement failures with a bug-free pipeline indicate a validator or optimizer defect.");
        std::process::exit(1);
    }
}
