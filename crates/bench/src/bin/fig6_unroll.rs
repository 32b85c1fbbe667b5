//! Figure 6: effect of the unroll factor on the number of validated
//! tests, refinement failures, and running time when validating the
//! unit-test corpus plus the known-bug suite.
//!
//! Run with `cargo run --release -p alive2-bench --bin fig6_unroll`.
//! Accepts the shared `--jobs N` / `--deadline-ms MS` / `--procs N`
//! flags (supervised worker children replay earlier unroll factors from
//! the merged journal, so `--procs` composes with the multi-run loop).

use alive2_bench::{
    finish_obs, print_summary_json, setup, validate_module_pipeline, validate_pairs, Counts,
};
use alive2_ir::parser::parse_module;
use alive2_opt::bugs::BugSet;
use alive2_sema::config::EncodeConfig;
use alive2_testgen::{corpus::corpus, known_bugs::known_bugs};

/// A miscompilation that only manifests after `k` loop iterations: the
/// target returns a wrong value on the loop exit taken at trip count `k`.
/// An unroll factor of at least `k + 1` is needed to expose it — these
/// pairs are what makes Fig. 6's #incorrect curve grow with the factor.
fn depth_bug(k: u32) -> (String, String) {
    let src = format!(
        r#"define i32 @depth{k}() {{
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %c = icmp ult i32 %i, {k}
  br i1 %c, label %body, label %exit
body:
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i32 %i
}}"#
    );
    let tgt = src.replace(
        "ret i32 %i
",
        "ret i32 12345
",
    );
    (src, tgt)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (obs, engine, base) = setup(&args, EncodeConfig::default());
    let factors = [1u32, 2, 4, 8, 16, 32];
    println!("Figure 6: effect of the unroll factor (corpus + known-bug suite)\n");
    println!(
        "{:>8} {:>10} {:>12} {:>12}",
        "Unroll", "# Correct", "# Incorrect", "Time (s)"
    );
    let mut grand = Counts::default();
    for factor in factors {
        let cfg = EncodeConfig {
            unroll_factor: factor,
            ..base
        };
        let mut total = Counts::default();
        for case in corpus() {
            let m = parse_module(case.text).expect("corpus parses");
            total.add(validate_module_pipeline(&m, BugSet::none(), &cfg, &engine));
        }
        let mut pairs: Vec<_> = known_bugs()
            .iter()
            .map(|b| (parse_module(b.src).unwrap(), parse_module(b.tgt).unwrap()))
            .collect();
        for k in [1u32, 2, 4, 8, 16, 24] {
            let (src, tgt) = depth_bug(k);
            pairs.push((parse_module(&src).unwrap(), parse_module(&tgt).unwrap()));
        }
        let (kb_counts, _) = validate_pairs(&pairs, &cfg, &engine);
        total.add(kb_counts);
        println!(
            "{:>8} {:>10} {:>12} {:>12.1}",
            factor,
            total.correct,
            total.incorrect,
            total.millis as f64 / 1000.0
        );
        grand.add(total);
    }
    finish_obs(&obs, &grand.stats, grand.millis * 1_000);
    print_summary_json("fig6", &grand);
    println!("\nPaper shape: #correct decreases slightly with the factor (timeouts),");
    println!("#incorrect grows as deeper iterations come into scope, and wall-clock");
    println!("time grows roughly linearly.");
}
