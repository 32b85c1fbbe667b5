//! The `alive-tv` driver (§8.1) behind the `alive2_tv` binary, and the
//! `alive2-serve` daemon's entry point.
//!
//! Takes two LLVM IR files and checks refinement between each function
//! present in both, printing Alive2-style reports. With no files, runs on
//! a built-in demo pair. Parsing goes through [`alive2_core::cli`], so
//! every shared flag works here — including `--procs N` process
//! supervision (this driver is also what `tests/supervise.rs` spawns as
//! both parent and worker child).
//!
//! Fault containment: a validator panic or a blown memory budget is
//! reported per function (CRASH / OOM) and the run continues; under
//! `--procs`, aborts and hangs are quarantined the same way. The exit
//! code reflects *refinement failures only* — crashes, OOMs, and
//! quarantined pairs leave it at 0 so one bad function cannot abort a
//! corpus sweep. The final stdout line is a machine-readable JSON summary
//! including the crash/oom columns and supervision counters.

use alive2_core::cli as core_cli;
use alive2_core::engine::{Counts, ValidationEngine};
use alive2_core::obs;
use alive2_core::report::verdict_line;
use alive2_core::validator::Verdict;
use alive2_ir::parser::parse_module;
use alive2_sema::config::EncodeConfig;
use std::process::ExitCode;
use std::time::Instant;

const DEMO_SRC: &str = r#"
define i8 @twice(i8 %x) {
entry:
  %r = mul i8 %x, 2
  ret i8 %r
}

define i32 @clamp(i32 %x) {
entry:
  %c = icmp slt i32 %x, 0
  %r = select i1 %c, i32 0, i32 %x
  ret i32 %r
}
"#;

const DEMO_TGT: &str = r#"
define i8 @twice(i8 %x) {
entry:
  %r = shl i8 %x, 1
  ret i8 %r
}

define i32 @clamp(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  %r = select i1 %c, i32 %x, i32 0
  ret i32 %r
}
"#;

/// The setup both drivers share: the shared prologue, plus `--unroll N`
/// and `--timeout MS` on the encoder configuration.
fn setup(args: &[String]) -> (core_cli::ObsConfig, ValidationEngine, EncodeConfig) {
    let (obs_cfg, engine, mut cfg) = core_cli::setup(args, EncodeConfig::default());
    if let Some(unroll) = core_cli::flag_value(args, "--unroll") {
        cfg.unroll_factor = unroll;
    }
    if let Some(timeout) = core_cli::flag_value(args, "--timeout") {
        cfg.solver_timeout_ms = timeout;
    }
    (obs_cfg, engine, cfg)
}

/// The shared driver tail: the observability artifacts, then the
/// machine-readable summary as the LAST stdout line (ci.sh tails it).
fn finish(name: &str, obs_cfg: &core_cli::ObsConfig, counts: &Counts, wall_us: u64) {
    core_cli::finish_obs(obs_cfg, &counts.stats, wall_us);
    println!(
        "{{\"name\":\"{name}\",\"pairs\":{},{},\"stats\":{},\"phases\":{}}}",
        counts.pairs,
        counts.verdicts_json(),
        counts.stats.to_json_obj(),
        obs::report::phases_json_obj(wall_us)
    );
}

/// Runs the `alive-tv` workflow over `std::env::args`.
pub fn alive_tv_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (obs_cfg, engine, cfg) = setup(&args);
    let files = core_cli::positional_args(&args, &["--unroll", "--timeout"]);

    let (src_text, tgt_text) = match files.as_slice() {
        [] => {
            println!("(no files given; running the built-in demo pair)\n");
            (DEMO_SRC.to_string(), DEMO_TGT.to_string())
        }
        [s, t] => {
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| eprintln!("error: cannot read {path}: {e}"))
            };
            match (read(s), read(t)) {
                (Ok(s), Ok(t)) => (s, t),
                _ => return ExitCode::FAILURE,
            }
        }
        _ => {
            eprintln!("usage: alive2_tv <src.ll> <tgt.ll> [--unroll N] [--timeout MS] [--procs N]");
            return ExitCode::FAILURE;
        }
    };

    let started = Instant::now();
    let src = match parse_module(&src_text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("source: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tgt = match parse_module(&tgt_text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("target: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut counts = Counts::default();
    // Worker children (`--worker-shard`) exit inside this call after
    // streaming their shard; everything below is parent-only.
    for outcome in engine.validate_modules_outcomes(&src, &tgt, &cfg) {
        println!(
            "----------------------------------------\n@{}:",
            outcome.name
        );
        counts.add_outcome(&outcome);
        match outcome.verdict {
            Verdict::Incorrect(cex) => {
                for line in cex.to_string().lines() {
                    println!("  {line}");
                }
            }
            other => println!("  {}", verdict_line(&other)),
        }
    }
    engine.fold_supervision_into(&mut counts.stats);
    // Microsecond wall precision: the busy-vs-wall CI bound is tighter
    // than millisecond rounding on a fast run.
    let wall_us = started.elapsed().as_micros() as u64;
    counts.millis = wall_us / 1_000;
    println!("----------------------------------------");
    finish("alive_tv", &obs_cfg, &counts, wall_us);
    // Contained faults (crash/oom, incl. quarantined pairs) do not fail
    // the run; genuine refinement violations do.
    if counts.incorrect > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the `alive2-serve` daemon over `std::env::args` (see DESIGN.md,
/// "Validation as a service").
///
/// Shares the whole CLI convention with `alive2_tv` — `--jobs`,
/// `--deadline-ms`, `--unroll`, `--timeout`, `--mem-budget-mb`,
/// `--journal`/`--resume`, `--stats`/`--trace`/`--profile` — plus the
/// daemon knobs:
/// `--listen ADDR` (length-prefixed Unix/TCP socket instead of stdio),
/// `--max-batch-pairs N`, `--max-queued-pairs N`.
///
/// `--journal` doubles as the request log: admitted batches are recorded
/// before execution, and `--resume` replays them (journaled outcomes
/// re-emit without solving) before serving new traffic. `--procs` is
/// rejected: a daemon re-invoking itself as worker shards would read the
/// protocol stream twice.
///
/// Exit code: 0 on clean shutdown (stdin EOF or a `shutdown` request);
/// refinement failures are per-response data, not a daemon failure.
pub fn alive2_serve_main() -> ExitCode {
    use alive2_core::serve;
    use std::sync::Arc;

    let args: Vec<String> = std::env::args().skip(1).collect();
    if core_cli::flag_value::<usize>(&args, "--procs").is_some_and(|p| p > 1) {
        eprintln!("error: alive2-serve does not support --procs (the daemon is the long-lived process; use --jobs for parallelism)");
        return ExitCode::FAILURE;
    }
    let (obs_cfg, engine, cfg) = setup(&args);
    let mut opts = serve::ServeOptions {
        mem_budget_mb: core_cli::flag_value(&args, "--mem-budget-mb"),
        ..serve::ServeOptions::default()
    };
    if let Some(n) = core_cli::flag_value(&args, "--max-batch-pairs") {
        opts.max_batch_pairs = n;
    }
    if let Some(n) = core_cli::flag_value(&args, "--max-queued-pairs") {
        opts.max_queued_pairs = n;
    }
    let daemon = Arc::new(serve::Daemon::new(engine, cfg, opts));

    // Crash recovery: replay the request log (in admission order) before
    // accepting new traffic. The engine's own `--resume` log answers the
    // already-journaled pairs, so this is cheap for completed work.
    if let Some(path) = core_cli::flag_value::<String>(&args, "--resume") {
        match serve::load_request_log(&path) {
            Ok(reqs) if !reqs.is_empty() => {
                let sink: Arc<dyn serve::ResponseSink> =
                    Arc::new(serve::LineSink::new(std::io::stdout()));
                let n = daemon.replay(&reqs, &sink);
                eprintln!("serve: replayed {n} journaled batches from {path}");
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: cannot read request log `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let started = Instant::now();
    let counts = match core_cli::flag_value::<String>(&args, "--listen") {
        Some(addr) => match serve::serve_listen(&daemon, &addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot listen on `{addr}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => serve::serve_stdio(&daemon),
    };

    // Exit summary over the daemon's whole lifetime, in the same shape
    // as the other drivers'.
    finish(
        "alive2_serve",
        &obs_cfg,
        &counts,
        started.elapsed().as_micros() as u64,
    );
    ExitCode::SUCCESS
}
