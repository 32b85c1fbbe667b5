//! `serve_bench --emit-requests` — prints the §8.5 known-bugs corpus as
//! two `validate` request lines (ids `batch-1`, `batch-2`) for piping
//! into an `alive2-serve` daemon. ci.sh's serve smoke and the benchmark
//! README use it; the daemon's warm-cache latency is measured by the
//! benchmark's `warm_serve` workload.

use alive2_testgen::known_bugs::known_bugs;
use std::process::ExitCode;

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One `validate` request line carrying the whole 36-pair corpus.
fn batch_line(id: &str) -> String {
    let pairs: Vec<String> = known_bugs()
        .iter()
        .map(|b| {
            format!(
                "{{\"name\":\"{}\",\"src\":\"{}\",\"tgt\":\"{}\"}}",
                esc(b.name),
                esc(b.src),
                esc(b.tgt)
            )
        })
        .collect();
    format!(
        "{{\"id\":\"{id}\",\"op\":\"validate\",\"pairs\":[{}]}}",
        pairs.join(",")
    )
}

fn main() -> ExitCode {
    if !std::env::args().skip(1).any(|a| a == "--emit-requests") {
        eprintln!("usage: serve_bench --emit-requests");
        return ExitCode::from(2);
    }
    println!("{}", batch_line("batch-1"));
    println!("{}", batch_line("batch-2"));
    ExitCode::SUCCESS
}
