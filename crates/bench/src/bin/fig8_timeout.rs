//! Figure 8: effect of the SMT solver timeout on the number of definitive
//! results and the running time.
//!
//! Run with `cargo run --release -p alive2-bench --bin fig8_timeout`.
//! Accepts the shared `--jobs N` / `--deadline-ms MS` / `--procs N`
//! flags (each timeout step's runs are supervised independently).

use alive2_bench::{
    finish_obs, print_summary_json, setup, validate_module_pipeline, validate_pairs, Counts,
};
use alive2_ir::parser::parse_module;
use alive2_opt::bugs::BugSet;
use alive2_sema::config::EncodeConfig;
use alive2_testgen::{appgen, corpus::corpus, known_bugs::known_bugs};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (obs, engine, base) = setup(&args, EncodeConfig::default());
    // The paper sweeps 1 s … 5 min against Z3 on 8 cores; our workload and
    // solver are smaller, so the sweep is scaled down proportionally.
    let timeouts_ms = [5u64, 20, 50, 200, 1000, 5000];
    println!("Figure 8: effect of the SMT solver timeout\n");
    println!(
        "{:>12} {:>10} {:>12} {:>10} {:>14}",
        "Timeout(ms)", "# Correct", "# Incorrect", "# Timeout", "Runtime Δ(%)"
    );
    let mut base_ms: Option<f64> = None;
    let mut grand = Counts::default();
    for ms in timeouts_ms {
        let cfg = EncodeConfig {
            solver_timeout_ms: ms,
            max_ef_iterations: 16,
            ..base
        };
        let mut total = Counts::default();
        // Unit-test corpus…
        for case in corpus() {
            let m = parse_module(case.text).expect("corpus parses");
            total.add(validate_module_pipeline(&m, BugSet::none(), &cfg, &engine));
        }
        // …known bugs…
        let pairs: Vec<_> = known_bugs()
            .iter()
            .map(|b| (parse_module(b.src).unwrap(), parse_module(b.tgt).unwrap()))
            .collect();
        total.add(validate_pairs(&pairs, &cfg, &engine).0);
        // …and one synthetic app.
        let mut profile = appgen::profiles()[1]; // gzip
        profile.functions = profile.functions.min(20);
        let m = appgen::generate(&profile);
        total.add(validate_module_pipeline(&m, BugSet::none(), &cfg, &engine));

        let t = total.millis as f64;
        let delta = match base_ms {
            None => {
                base_ms = Some(t);
                0.0
            }
            Some(b) => (t - b) / b * 100.0,
        };
        println!(
            "{:>12} {:>10} {:>12} {:>10} {:>14.0}",
            ms, total.correct, total.incorrect, total.timeout, delta
        );
        grand.add(total);
    }
    finish_obs(&obs, &grand.stats, grand.millis * 1_000);
    print_summary_json("fig8", &grand);
    println!("\nPaper shape: the number of definitive results plateaus once the");
    println!("timeout is large enough, while running time keeps growing with it.");
}
