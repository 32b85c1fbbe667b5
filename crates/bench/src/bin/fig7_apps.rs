//! Figure 7: translation validation while compiling the five single-file
//! applications (synthetic profiles; see DESIGN.md for the substitution).
//!
//! Run with `cargo run --release -p alive2-bench --bin fig7_apps`.
//! Pass `--scale F` (e.g. 0.25) to shrink the generated apps, `--jobs N`
//! to set the validation worker count (default: all cores),
//! `--deadline-ms MS` to cap each function pair's wall-clock time, and
//! `--procs N` to shard each app's validation across supervised worker
//! processes (crash/hang quarantine instead of a sunk run).

use alive2_bench::{
    finish_obs, flag_value, print_fig7_header, print_fig7_row, print_summary_json, setup,
    validate_module_pipeline, Counts,
};
use alive2_opt::bugs::{BugId, BugSet};
use alive2_sema::config::EncodeConfig;
use alive2_testgen::appgen::{generate, profiles};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = flag_value(&args, "--scale").unwrap_or(1.0);
    let (obs, engine, mut cfg) = setup(&args, EncodeConfig::default());
    // §8.4 found real miscompilations in the wild (the select→and/or
    // canonicalization); seed the matching bug so the experiment
    // reproduces non-zero failure columns.
    let mut bugs = BugSet::none();
    bugs.enable(BugId::SelectToLogic);

    // The paper capped Z3 at one minute per query on an 8-core Xeon; scale
    // the cap to this harness so one hard function cannot dominate the run.
    cfg.solver_timeout_ms = 10_000;
    println!(
        "Figure 7: single-file application validation (synthetic substitutes; {} worker{})\n",
        engine.workers,
        if engine.workers == 1 { "" } else { "s" }
    );
    print_fig7_header();
    let mut grand = Counts::default();
    for mut profile in profiles() {
        profile.functions = ((profile.functions as f64) * scale).ceil() as usize;
        let module = generate(&profile);
        let counts = validate_module_pipeline(&module, bugs.clone(), &cfg, &engine);
        print_fig7_row(profile.name, &counts);
        grand.add(counts);
    }
    print_fig7_row("TOTAL", &grand);
    finish_obs(&obs, &grand.stats, grand.millis * 1_000);
    print_summary_json("fig7", &grand);
    println!("\nPaper shape: most pairs validate; a small number of genuine");
    println!("refinement failures (the select canonicalization); the rest split");
    println!("between timeouts and unsupported features.");
}
