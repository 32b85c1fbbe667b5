//! The shared CLI convention for every driver (bench bins, examples, the
//! `alive2_tv` and `alive2-serve` binaries): engine construction, encoder
//! configuration, observability flags and the post-run tail that honours
//! them ([`finish_obs`]), and the persistent query cache.
//!
//! This lives in `alive2-core` (rather than the bench crate) because the
//! process supervisor needs it on both sides of the fork: the parent
//! parses `--procs`/`--watchdog-ms`/... into a [`SuperviseSpec`] whose
//! `child_args` are this module's [`sanitize_child_args`] of its own
//! argv, and the child parses the appended `--worker-shard`/`--journal`/
//! `--resume` back out with the same code.

use crate::engine::ValidationEngine;
use crate::journal::{Journal, ResumeLog};
use crate::supervisor::{SuperviseSpec, WorkerShard};
use alive2_obs::StatsTotals;
use alive2_sema::config::EncodeConfig;
use std::sync::Arc;

/// Parses `--flag VALUE` from an argument list.
pub fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn marker_from(args: &[String], flag: &str, env: &str) -> Option<String> {
    flag_value::<String>(args, flag)
        .or_else(|| std::env::var(env).ok())
        .filter(|s| !s.is_empty())
}

/// Strips the flags a supervising parent must not forward to its worker
/// children: supervision control (`--procs`, `--worker-shard`, watchdog/
/// shard tuning), journal/resume paths (the supervisor appends its own),
/// and reporting (`--stats`, `--trace*` — the parent owns reporting).
/// Everything else — `--jobs`, `--deadline-ms`, `--journal-sync`,
/// `--cache`, fault-injection markers, positional inputs — passes
/// through, so a child reproduces the parent's work list and semantics.
pub fn sanitize_child_args(args: &[String]) -> Vec<String> {
    const VALUED: &[&str] = &[
        "--procs",
        "--worker-shard",
        "--watchdog-ms",
        "--shard-size",
        "--shard-retries",
        "--journal",
        "--resume",
        "--trace",
        "--profile",
    ];
    const BOOLEAN: &[&str] = &["--stats", "--trace-detail"];
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUED.contains(&a) {
            i += 2;
        } else if BOOLEAN.contains(&a) {
            i += 1;
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

/// Returns the positional (non-flag) arguments: everything left after
/// skipping the shared convention's flags and their values. Drivers with
/// extra value-taking flags of their own (e.g. `alive2_tv`'s `--unroll`)
/// list them in `extra_valued`.
pub fn positional_args(args: &[String], extra_valued: &[&str]) -> Vec<String> {
    const VALUED: &[&str] = &[
        "--jobs",
        "--deadline-ms",
        "--journal",
        "--resume",
        "--inject-panic",
        "--inject-abort",
        "--inject-hang",
        "--mem-budget-mb",
        "--cache",
        "--trace",
        "--profile",
        "--procs",
        "--worker-shard",
        "--watchdog-ms",
        "--shard-size",
        "--shard-retries",
        "--listen",
        "--max-batch-pairs",
        "--max-queued-pairs",
    ];
    const BOOLEAN: &[&str] = &[
        "--stats",
        "--trace-detail",
        "--no-rewrite",
        "--journal-sync",
    ];
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUED.contains(&a) || extra_valued.contains(&a) {
            i += 2;
        } else if BOOLEAN.contains(&a) {
            i += 1;
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

/// Builds a [`ValidationEngine`] from the shared CLI convention:
///
/// - `--jobs N` — worker threads (default `available_parallelism()`;
///   under `--procs` the default divides by the process count so the
///   fleet does not oversubscribe the machine);
/// - `--deadline-ms MS` — per-job wall-clock cap (default none);
/// - `--journal PATH` — append one JSON line per completed outcome;
/// - `--journal-sync` — additionally fsync each journal record;
/// - `--resume PATH` — skip jobs already recorded in a journal;
/// - `--procs N` — supervise the run across N child worker processes,
///   with `--watchdog-ms MS` / `--shard-size N` / `--shard-retries N`
///   tuning the watchdog, shard planner, and quarantine threshold;
/// - `--worker-shard RUN:START:END` — (internal) run as a worker child;
/// - `--inject-panic` / `--inject-abort` / `--inject-hang` MARKER (or
///   the `ALIVE2_INJECT_{PANIC,ABORT,HANG}` env vars) — deterministic
///   fault injection for the containment/supervision smoke tests.
///
/// Exits with a diagnostic if `--journal`/`--resume` name an unusable
/// path or `--worker-shard` is malformed; fault containment is about
/// surviving *job* failures, not silently dropping the operator's flags.
pub fn engine_from_args(args: &[String]) -> ValidationEngine {
    let explicit_jobs: Option<usize> = flag_value(args, "--jobs");
    let deadline_ms = flag_value(args, "--deadline-ms");
    let journal_sync = args.iter().any(|a| a == "--journal-sync");
    let journal = flag_value::<String>(args, "--journal").map(|path| {
        Arc::new(
            Journal::append_with_sync(&path, journal_sync).unwrap_or_else(|e| {
                eprintln!("error: cannot open journal `{path}`: {e}");
                std::process::exit(2);
            }),
        )
    });
    let resume = flag_value::<String>(args, "--resume").map(|path| {
        Arc::new(ResumeLog::load(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read resume journal `{path}`: {e}");
            std::process::exit(2);
        }))
    });
    let worker_shard = flag_value::<String>(args, "--worker-shard").map(|s| {
        WorkerShard::parse(&s).unwrap_or_else(|| {
            eprintln!("error: malformed --worker-shard `{s}` (want RUN:START:END)");
            std::process::exit(2);
        })
    });
    let procs: usize = flag_value(args, "--procs").unwrap_or(1);
    let supervise = if procs > 1 && worker_shard.is_none() {
        match std::env::current_exe() {
            Ok(exe) => {
                let mut child_args = sanitize_child_args(args);
                if explicit_jobs.is_none() {
                    // Split the machine across the fleet instead of
                    // oversubscribing it procs-fold.
                    let avail = std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1);
                    child_args.push("--jobs".into());
                    child_args.push((avail / procs).max(1).to_string());
                }
                let mut spec = SuperviseSpec::new(procs, exe, child_args);
                spec.watchdog_ms = flag_value(args, "--watchdog-ms");
                spec.shard_size = flag_value(args, "--shard-size");
                spec.shard_retries = flag_value(args, "--shard-retries").unwrap_or(1);
                Some(Arc::new(spec))
            }
            Err(e) => {
                eprintln!("warning: --procs {procs} ignored (cannot locate own binary: {e})");
                None
            }
        }
    } else {
        None
    };
    let workers = explicit_jobs.unwrap_or_else(|| ValidationEngine::default().workers);
    ValidationEngine::new(workers)
        .with_deadline_ms(deadline_ms)
        .with_journal(journal)
        .with_resume(resume)
        .with_fault_marker(marker_from(args, "--inject-panic", "ALIVE2_INJECT_PANIC"))
        .with_abort_marker(marker_from(args, "--inject-abort", "ALIVE2_INJECT_ABORT"))
        .with_hang_marker(marker_from(args, "--inject-hang", "ALIVE2_INJECT_HANG"))
        .with_supervise(supervise)
        .with_worker_shard(worker_shard)
}

/// Builds an [`EncodeConfig`] from the shared CLI convention:
/// `--mem-budget-mb MB` (global term-allocation budget per job; exceeding
/// it yields `Verdict::OutOfMemory` instead of swapping) and `--no-rewrite`
/// (skip the term-level rewrite saturation pass and send every refinement
/// obligation straight to the bit-blaster — same verdicts, useful for
/// triage and A/B timing).
pub fn config_from_args(args: &[String], base: EncodeConfig) -> EncodeConfig {
    EncodeConfig {
        mem_budget_mb: flag_value(args, "--mem-budget-mb").or(base.mem_budget_mb),
        rewrite: base.rewrite && !args.iter().any(|a| a == "--no-rewrite"),
        ..base
    }
}

/// Observability settings shared by every driver:
/// `--stats` (per-phase breakdown + counter totals on stdout),
/// `--trace FILE` (Chrome tracing JSON, load via `chrome://tracing` or
/// Perfetto), `--trace-detail` (adds per-instruction encode spans to the
/// trace — high volume, off by default), `--profile FILE` (one JSON line
/// per SMT query with job attribution plus a rule-fire trailer).
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// Print the phase/counter report after the run.
    pub stats: bool,
    /// Destination for Chrome tracing JSON, if requested.
    pub trace: Option<String>,
    /// Destination for per-query JSON-lines profiles, if requested.
    pub profile: Option<String>,
}

/// Parses the observability flags and arms the global span/trace/profile
/// state accordingly. Call once, before any validation work runs.
///
/// Exits with a diagnostic if `--profile` names an unwritable path — a
/// silently disabled profile sink would invalidate a triage run.
pub fn obs_from_args(args: &[String]) -> ObsConfig {
    let stats = args.iter().any(|a| a == "--stats");
    let trace = flag_value::<String>(args, "--trace");
    let detail = args.iter().any(|a| a == "--trace-detail");
    let profile = flag_value::<String>(args, "--profile");
    alive2_obs::trace::set_enabled(trace.is_some());
    alive2_obs::trace::set_detail(detail);
    // Tracing needs timestamps anyway, so --trace implies phase timing.
    alive2_obs::set_timing(stats || trace.is_some());
    if let Some(path) = profile.as_deref() {
        if let Err(e) = alive2_obs::profile::arm_sink(std::path::Path::new(path)) {
            eprintln!("error: cannot open profile sink `{path}`: {e}");
            std::process::exit(2);
        }
    }
    ObsConfig {
        stats,
        trace,
        profile,
    }
}

/// Emits the observability artifacts a driver owes its flags once the
/// run is over: the `--stats` report on stdout, the `--profile` trailer
/// (which also flushes the sink), and the `--trace` Chrome JSON file.
/// Call it before printing the summary line, which must stay the last
/// line of stdout (the contract `ci.sh` relies on). `wall_us` is the
/// run's wall time in microseconds.
///
/// Exits with a diagnostic if the profile or trace file cannot be
/// written — a half-written triage artifact must not look complete.
pub fn finish_obs(obs: &ObsConfig, stats: &StatsTotals, wall_us: u64) {
    use alive2_obs::{profile, report, trace};
    if obs.stats {
        print!("{}", report::render_phase_table(wall_us));
        print!("{}", report::render_counters(stats));
        print!("{}", report::render_top_queries(&profile::summary()));
    }
    if obs.profile.is_some() {
        match profile::finish_sink(stats) {
            Ok(Some((path, lines))) => {
                eprintln!(
                    "profile: wrote {lines} query profiles to {}",
                    path.display()
                );
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: cannot finish profile sink: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &obs.trace {
        match trace::write_chrome(path) {
            Ok(n) => match trace::dropped() {
                0 => eprintln!("trace: wrote {n} events to {path}"),
                dropped => eprintln!("trace: wrote {n} events to {path} ({dropped} dropped)"),
            },
            Err(e) => {
                eprintln!("error: cannot write trace `{path}`: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// Arms the persistent query-cache tier from the shared CLI convention:
/// `--cache DIR` loads every cache file in `DIR` into the in-process
/// query cache and appends new canonical-CNF results to this process's
/// private `DIR/cache-<pid>.jsonl`, so a rerun replays solved queries
/// instead of solving them live (and concurrent processes sharing the
/// dir cannot tear each other's lines). Call once, before any validation
/// work runs. Returns the number of entries loaded (`None` when the flag
/// is absent).
///
/// Exits with a diagnostic if the directory cannot be created or read —
/// a silently disabled cache would invalidate a warm-run benchmark.
pub fn cache_from_args(args: &[String]) -> Option<usize> {
    let dir = flag_value::<String>(args, "--cache")?;
    match alive2_smt::cache::global().attach_dir(std::path::Path::new(&dir)) {
        Ok(loaded) => {
            eprintln!("cache: loaded {loaded} entries from {dir}");
            Some(loaded)
        }
        Err(e) => {
            eprintln!("error: cannot attach query cache `{dir}`: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sanitize_strips_supervision_and_reporting_flags() {
        let args = argv(&[
            "suite.ll",
            "--procs",
            "4",
            "--jobs",
            "2",
            "--journal",
            "j.jsonl",
            "--journal-sync",
            "--resume",
            "j.jsonl",
            "--stats",
            "--trace",
            "t.json",
            "--trace-detail",
            "--profile",
            "p.jsonl",
            "--watchdog-ms",
            "500",
            "--shard-size",
            "8",
            "--shard-retries",
            "2",
            "--worker-shard",
            "0:0:4",
            "--deadline-ms",
            "100",
            "--inject-abort",
            "m",
            "--cache",
            "dir",
        ]);
        let kept = sanitize_child_args(&args);
        assert_eq!(
            kept,
            argv(&[
                "suite.ll",
                "--jobs",
                "2",
                "--journal-sync",
                "--deadline-ms",
                "100",
                "--inject-abort",
                "m",
                "--cache",
                "dir",
            ])
        );
    }

    #[test]
    fn positional_args_skip_flag_values() {
        let args = argv(&[
            "a.ll",
            "--jobs",
            "4",
            "--stats",
            "b.ll",
            "--unroll",
            "8",
            "--journal-sync",
        ]);
        assert_eq!(
            positional_args(&args, &["--unroll"]),
            argv(&["a.ll", "b.ll"])
        );
    }

    #[test]
    fn engine_from_args_parses_shared_flags() {
        let e = engine_from_args(&argv(&["--jobs", "3", "--deadline-ms", "250"]));
        assert_eq!(e.workers, 3);
        assert_eq!(e.deadline_ms, Some(250));
        let e2 = engine_from_args(&[]);
        assert!(e2.workers >= 1);
        assert_eq!(e2.deadline_ms, None);
    }

    #[test]
    fn engine_from_args_parses_injection_markers() {
        let e = engine_from_args(&argv(&[
            "--inject-panic",
            "p",
            "--inject-abort",
            "a",
            "--inject-hang",
            "h",
        ]));
        assert_eq!(e.fault_marker.as_deref(), Some("p"));
        assert_eq!(e.abort_marker.as_deref(), Some("a"));
        assert_eq!(e.hang_marker.as_deref(), Some("h"));
    }

    #[test]
    fn config_from_args_parses_mem_budget_and_rewrite() {
        let cfg = config_from_args(&argv(&["--mem-budget-mb", "64"]), EncodeConfig::default());
        assert_eq!(cfg.mem_budget_mb, Some(64));
        let base = EncodeConfig::with_mem_budget_mb(8);
        assert_eq!(config_from_args(&[], base).mem_budget_mb, Some(8));
        assert!(config_from_args(&[], EncodeConfig::default()).rewrite);
        assert!(!config_from_args(&argv(&["--no-rewrite"]), EncodeConfig::default()).rewrite);
        // A base that already disabled rewriting keeps it disabled.
        let off = EncodeConfig {
            rewrite: false,
            ..EncodeConfig::default()
        };
        assert!(!config_from_args(&[], off).rewrite);
    }
}
