//! Process-level supervision: sharded worker processes with a watchdog,
//! retry/backoff, split-on-crash bisection, and poison-pair quarantine.
//!
//! The engine's thread-level firewall (`catch_unwind`) contains panics,
//! but not aborts, stack overflows, OOM-killer terminations, or a
//! non-cooperative infinite loop inside the SAT core — any of those still
//! kills the whole process. The paper's harness survived all of them
//! across ~36k LLVM unit tests (§8.2) because every job ran in its own
//! `alive-tv` process. This module restores that property without giving
//! up the in-process thread pool: with `--procs N` the parent driver
//! splits the pending work list into shards and re-invokes its own binary
//! once per shard in a hidden `--worker-shard RUN:START:END` mode.
//!
//! The supervision loop:
//!
//! - each child journals to a private per-shard file (the normal
//!   crash-safe format, with *global* job indices and the parent's run
//!   id) and additionally streams each outcome line over stdout, tagged
//!   with [`OUTCOME_PREFIX`]; the parent merges both sources into one
//!   journal incrementally, so `--resume` works across the process
//!   boundary and a killed *parent* resumes cleanly too;
//! - a per-child wall-clock watchdog SIGKILLs hung workers (its budget is
//!   derived from the per-job deadline when one is set);
//! - a failed shard's unfinished jobs are bisected — split-on-crash — and
//!   the halves retried with exponential backoff, down to the single
//!   poison pair, which is quarantined as [`Verdict::Crash`] (or
//!   [`Verdict::Timeout`] when the watchdog fired) instead of failing the
//!   run;
//! - repeated child failures halve the effective worker count (the
//!   graceful-degradation remedy for machine-level memory pressure), and
//!   repeated *spawn* failures fall back to in-process execution, so the
//!   run always completes.
//!
//! Verdict parity is the correctness anchor: a `--procs N` run must
//! produce exactly the verdicts of `--procs 1` except for the quarantined
//! poison pairs, and with no faults injected the verdicts are identical.

use crate::engine::{Job, Outcome, ValidationEngine};
use crate::journal::{entry_line, parse_entry, Journal, ResumeLog};
use crate::validator::{ValidateStats, Verdict};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tag prefixed to every outcome line a worker streams over stdout. The
/// parent ignores untagged lines, so ordinary driver output (reports,
/// progress) passing through the child's stdout cannot corrupt the merge.
pub const OUTCOME_PREFIX: &str = "@alive2-outcome ";

// ---- worker-shard identity ------------------------------------------------

/// The hidden `--worker-shard RUN:START:END` assignment a child process
/// receives: run `RUN`'s jobs with global indices in `[START, END)`.
/// Holes in the range (jobs already journaled) are skipped via the
/// child's `--resume` snapshot of the parent's merged journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerShard {
    /// Ordinal of the `ValidationEngine::run` invocation being sharded.
    pub run: u32,
    /// First global job index (inclusive).
    pub start: usize,
    /// One past the last global job index (exclusive).
    pub end: usize,
}

impl WorkerShard {
    /// Parses the `RUN:START:END` flag syntax.
    pub fn parse(s: &str) -> Option<WorkerShard> {
        let mut it = s.split(':');
        let run = it.next()?.parse().ok()?;
        let start = it.next()?.parse().ok()?;
        let end = it.next()?.parse().ok()?;
        if it.next().is_some() || end < start {
            return None;
        }
        Some(WorkerShard { run, start, end })
    }

    /// Renders the `RUN:START:END` flag syntax.
    pub fn format(&self) -> String {
        format!("{}:{}:{}", self.run, self.start, self.end)
    }
}

// ---- supervision configuration --------------------------------------------

/// Configuration for the supervising parent (the `--procs N` side).
#[derive(Clone, Debug)]
pub struct SuperviseSpec {
    /// Worker process count (supervision engages when > 1).
    pub procs: usize,
    /// The binary to re-invoke (normally `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Arguments for child invocations: the parent's own argv with the
    /// supervision/journal/reporting flags stripped (the supervisor
    /// appends its own `--worker-shard`/`--journal`/`--resume`).
    pub child_args: Vec<String>,
    /// `--watchdog-ms`: per-child wall-clock budget override. Default:
    /// derived from the per-job deadline, or 300 s without one.
    pub watchdog_ms: Option<u64>,
    /// `--shard-size`: jobs per shard override. Default: enough shards
    /// for ~4 rounds per worker, capped at 32 jobs each.
    pub shard_size: Option<usize>,
    /// `--shard-retries`: extra attempts a *single* suspect pair gets
    /// before being quarantined (bisection narrows a failed multi-job
    /// shard first; this counts retries of the final singleton).
    pub shard_retries: u32,
}

impl SuperviseSpec {
    /// A spec with default watchdog/shard/retry tuning.
    pub fn new(procs: usize, exe: PathBuf, child_args: Vec<String>) -> SuperviseSpec {
        SuperviseSpec {
            procs,
            exe,
            child_args,
            watchdog_ms: None,
            shard_size: None,
            shard_retries: 1,
        }
    }
}

/// Run-level supervision counters, accumulated on the engine across runs
/// and drained into [`StatsTotals`](alive2_obs::StatsTotals) by
/// `run_counts` / `fold_supervision_into`. (The per-pair counters —
/// `pairs_quarantined`, `watchdog_kills` — travel inside each quarantined
/// outcome's [`ValidateStats`] instead, so they survive journal replay.)
#[derive(Debug, Default)]
pub struct SupervisionStats {
    /// Child processes that died abnormally and had their work requeued.
    pub worker_restarts: AtomicU64,
    /// Shard attempts requeued after a failure (each bisection and each
    /// singleton retry counts once).
    pub shards_retried: AtomicU64,
}

// ---- shard planning --------------------------------------------------------

/// Splits the pending job indices into shards of at most `shard_size`
/// jobs (default: enough shards for ~4 rounds per worker, 1..=32 jobs
/// each — small enough that losing a shard to a crash is cheap, large
/// enough that process spawn cost amortizes).
pub(crate) fn plan_shards(
    pending: &[usize],
    procs: usize,
    shard_size: Option<usize>,
) -> Vec<Vec<usize>> {
    if pending.is_empty() {
        return Vec::new();
    }
    let size = shard_size
        .unwrap_or_else(|| pending.len().div_ceil(procs.max(1) * 4).clamp(1, 32))
        .max(1);
    pending.chunks(size).map(|c| c.to_vec()).collect()
}

/// Exponential retry backoff: 25 ms doubling per try, capped at 1.6 s.
pub(crate) fn backoff(tries: u32) -> Duration {
    Duration::from_millis(25u64 << tries.min(6))
}

/// The per-child wall-clock budget: the explicit `--watchdog-ms` if set,
/// else 5 s of slack plus one per-job deadline per job (+1 for spawn and
/// parse overhead), else a flat 300 s.
pub(crate) fn watchdog_budget_ms(
    spec: &SuperviseSpec,
    deadline_ms: Option<u64>,
    njobs: usize,
) -> u64 {
    if let Some(ms) = spec.watchdog_ms {
        return ms.max(1);
    }
    match deadline_ms {
        Some(d) => 5_000 + d.saturating_mul(njobs as u64 + 1),
        None => 300_000,
    }
}

// ---- the worker (child) side ----------------------------------------------

/// Runs this process's shard assignment and exits. Called from
/// `ValidationEngine::run` when `--worker-shard` names the current run:
/// every pending job in `[start, end)` is validated with the normal
/// in-process firewall, journaled to the child's own journal (the
/// supervisor points `--journal` at a per-shard file), and streamed to
/// stdout as an [`OUTCOME_PREFIX`] line. Exits 0 without returning to the
/// driver — the parent owns aggregation and reporting.
pub(crate) fn run_worker_shard(
    engine: &ValidationEngine,
    run_id: u32,
    jobs: &[Job],
    shard: WorkerShard,
) -> ! {
    let run_started = Instant::now();
    let stdout = std::io::stdout();
    for idx in shard.start..shard.end.min(jobs.len()) {
        let job = &jobs[idx];
        if let Some(resume) = &engine.resume {
            if resume.lookup(run_id, idx, &job.name).is_some() {
                continue; // already merged by the parent
            }
        }
        let outcome = engine.run_one(job, run_id, idx, run_started);
        let line = entry_line(run_id, idx, &outcome);
        // Journal first (crash-safe source of truth), then stream (the
        // parent's low-latency merge path).
        if let Some(journal) = &engine.journal {
            let _sp = alive2_obs::span(alive2_obs::Phase::Journal);
            journal.record_line(&line);
        }
        let mut out = stdout.lock();
        let _ = writeln!(out, "{OUTCOME_PREFIX}{line}");
        let _ = out.flush();
    }
    std::process::exit(0);
}

// ---- the supervisor (parent) side -----------------------------------------

/// One queued unit of supervised work: the global job indices a child
/// must complete. `tries` counts prior attempts of this exact singleton
/// (bisected halves restart at 0); `not_before` implements backoff.
struct Attempt {
    indices: Vec<usize>,
    tries: u32,
    not_before: Instant,
}

/// A live child process and its bookkeeping.
struct Worker {
    child: std::process::Child,
    attempt: Attempt,
    shard_path: PathBuf,
    deadline: Instant,
    started: Instant,
    killed_by_watchdog: bool,
    reader: Option<std::thread::JoinHandle<()>>,
}

fn accept_outcome(
    slots: &mut [Option<Outcome>],
    merged: &Journal,
    run_id: u32,
    jobs: &[Job],
    run: u32,
    idx: usize,
    outcome: Outcome,
) {
    // Validate before trusting: right run, known index, first writer,
    // matching job name (a child built from mismatched argv cannot
    // corrupt the parent's slots — its work is simply re-run).
    if run != run_id || idx >= slots.len() || slots[idx].is_some() || jobs[idx].name != outcome.name
    {
        return;
    }
    merged.record_line(&entry_line(run_id, idx, &outcome));
    slots[idx] = Some(outcome);
}

fn quarantine_outcome(name: &str, watchdog_killed: bool, status: &str, millis: u64) -> Outcome {
    let verdict = if watchdog_killed {
        Verdict::Timeout
    } else {
        Verdict::Crash(format!(
            "worker process died ({status}) while validating `{name}`; pair quarantined"
        ))
    };
    Outcome {
        name: name.to_string(),
        verdict,
        stats: ValidateStats {
            millis,
            quarantined: 1,
            watchdog_kill: watchdog_killed as u32,
            ..ValidateStats::default()
        },
    }
}

fn spawn_worker(
    spec: &SuperviseSpec,
    engine: &ValidationEngine,
    run_id: u32,
    attempt: Attempt,
    merged: &Journal,
    seq: usize,
    tx: &Sender<(u32, usize, Outcome)>,
) -> Result<Worker, (std::io::Error, Attempt)> {
    let shard_path = PathBuf::from(format!("{}.shard-{run_id}-{seq}", merged.path().display()));
    let _ = std::fs::remove_file(&shard_path);
    let range = WorkerShard {
        run: run_id,
        start: *attempt.indices.first().expect("non-empty attempt"),
        end: attempt.indices.last().expect("non-empty attempt") + 1,
    };
    let mut cmd = Command::new(&spec.exe);
    cmd.args(&spec.child_args)
        .arg("--worker-shard")
        .arg(range.format())
        .arg("--journal")
        .arg(&shard_path)
        .arg("--resume")
        .arg(merged.path())
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if std::env::var_os("ALIVE2_SUPERVISE_VERBOSE").is_some() {
        cmd.stderr(Stdio::inherit());
    } else {
        cmd.stderr(Stdio::null());
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return Err((e, attempt)),
    };
    let stdout = child.stdout.take().expect("stdout piped");
    let tx = tx.clone();
    let reader = std::thread::spawn(move || {
        let mut r = BufReader::new(stdout);
        let mut line = String::new();
        while matches!(r.read_line(&mut line), Ok(n) if n > 0) {
            if let Some(rest) = line.trim_end().strip_prefix(OUTCOME_PREFIX) {
                if let Some((run, idx, outcome)) = parse_entry(rest) {
                    let _ = tx.send((run, idx, outcome));
                }
            }
            line.clear();
        }
    });
    let budget = watchdog_budget_ms(spec, engine.deadline_ms, attempt.indices.len());
    let started = Instant::now();
    Ok(Worker {
        child,
        attempt,
        shard_path,
        deadline: started + Duration::from_millis(budget),
        started,
        killed_by_watchdog: false,
        reader: Some(reader),
    })
}

/// Supervised execution of one run's job list: resolves the resume log,
/// shards the rest across child processes, and fills every slot — by
/// stream merge, shard-journal recovery, retry/bisection, quarantine, or
/// (if children cannot even spawn) in-process fallback.
pub(crate) fn run_supervised(
    engine: &ValidationEngine,
    spec: &SuperviseSpec,
    run_id: u32,
    jobs: &[Job],
) -> Vec<Outcome> {
    let run_started = Instant::now();
    let mut slots: Vec<Option<Outcome>> = vec![None; jobs.len()];
    let mut pending: Vec<usize> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match engine
            .resume
            .as_ref()
            .and_then(|r| r.lookup(run_id, i, &job.name))
        {
            Some(outcome) => slots[i] = Some(outcome),
            None => pending.push(i),
        }
    }
    // Resume resolved every job (or the run had none): return with an
    // empty merge — no merge journal, no shard plan, no workers. The
    // shard planner and worker spawner both assume non-empty input
    // (`max()`, `first().expect(..)`), so this early return is what keeps
    // `--procs N --resume full.jsonl` from panicking on an empty plan.
    if pending.is_empty() {
        return slots.into_iter().map(|s| s.expect("resolved")).collect();
    }

    // The merged journal children resume from. The engine's own journal
    // when one is attached (so user-visible `--journal`/`--resume` spans
    // the process boundary); otherwise a per-process temp file shared by
    // every run of this process, so multi-run drivers replay earlier runs
    // in each child for free.
    let merged: Arc<Journal> = match &engine.journal {
        Some(j) => j.clone(),
        None => {
            let path =
                std::env::temp_dir().join(format!("alive2-supervise-{}.jsonl", std::process::id()));
            match Journal::append(&path) {
                Ok(j) => Arc::new(j),
                Err(e) => {
                    eprintln!("warning: supervision disabled (cannot open merge journal: {e})");
                    return engine.run_local(run_id, jobs);
                }
            }
        }
    };
    // Re-record resume-resolved outcomes so children skip them. Harmless
    // duplicates when journal == resume file: the loader dedupes by
    // (run, idx, name) last-writer-wins.
    for (i, slot) in slots.iter().enumerate() {
        if let Some(o) = slot {
            merged.record_line(&entry_line(run_id, i, o));
        }
    }

    let (tx, rx) = channel::<(u32, usize, Outcome)>();
    let mut queue: VecDeque<Attempt> = plan_shards(&pending, spec.procs, spec.shard_size)
        .into_iter()
        .map(|indices| Attempt {
            indices,
            tries: 0,
            not_before: run_started,
        })
        .collect();
    let mut active: Vec<Worker> = Vec::new();
    let mut effective_procs = spec.procs.max(1);
    let mut consecutive_failures = 0u32;
    let mut spawn_failures = 0u32;
    let mut local_fallback = false;
    let mut spawn_seq = 0usize;
    let mut worker_restarts = 0u64;
    let mut shards_retried = 0u64;
    let mut quarantined = 0u64;
    let mut watchdog_kills = 0u64;

    loop {
        // 1. Merge streamed outcomes.
        while let Ok((run, idx, outcome)) = rx.try_recv() {
            accept_outcome(&mut slots, &merged, run_id, jobs, run, idx, outcome);
        }

        // 2. Reap exited children; fire the watchdog on hung ones.
        let mut i = 0;
        while i < active.len() {
            let w = &mut active[i];
            let status = match w.child.try_wait() {
                Ok(Some(status)) => Some((status.success(), format!("{status}"))),
                Ok(None) => {
                    if Instant::now() >= w.deadline {
                        // Hung (a non-cooperative loop the in-process
                        // deadline cannot cancel): SIGKILL and reap.
                        let _ = w.child.kill();
                        w.killed_by_watchdog = true;
                        Some((
                            false,
                            w.child
                                .wait()
                                .map(|s| format!("{s}"))
                                .unwrap_or_else(|e| format!("unreapable: {e}")),
                        ))
                    } else {
                        None
                    }
                }
                Err(_) => {
                    let _ = w.child.kill();
                    Some((
                        false,
                        w.child
                            .wait()
                            .map(|s| format!("{s}"))
                            .unwrap_or_else(|e| format!("unreapable: {e}")),
                    ))
                }
            };
            let Some((success, status)) = status else {
                i += 1;
                continue;
            };
            let mut w = active.remove(i);
            let clean = success && !w.killed_by_watchdog;
            if let Some(reader) = w.reader.take() {
                let _ = reader.join(); // EOF: the pipe closed with the child
            }
            // Late stream lines from this child may still sit in the
            // channel; merge them before computing what's missing.
            while let Ok((run, idx, outcome)) = rx.try_recv() {
                accept_outcome(&mut slots, &merged, run_id, jobs, run, idx, outcome);
            }
            // Recover stragglers from the shard journal (written and
            // flushed before streaming, so it can only be ahead).
            if let Ok(log) = ResumeLog::load(&w.shard_path) {
                for &idx in &w.attempt.indices {
                    if slots[idx].is_none() {
                        if let Some(o) = log.lookup(run_id, idx, &jobs[idx].name) {
                            merged.record_line(&entry_line(run_id, idx, &o));
                            slots[idx] = Some(o);
                        }
                    }
                }
            }
            let _ = std::fs::remove_file(&w.shard_path);

            let missing: Vec<usize> = w
                .attempt
                .indices
                .iter()
                .copied()
                .filter(|&idx| slots[idx].is_none())
                .collect();
            if missing.is_empty() {
                if clean {
                    consecutive_failures = 0;
                }
                continue;
            }
            // The child died (or was killed) before finishing its shard.
            consecutive_failures += 1;
            let now = Instant::now();
            if missing.len() > 1 {
                // Split-on-crash: bisect the unfinished jobs so the
                // poison pair is isolated in O(log n) respawns while its
                // innocent shard-mates finish in the other half.
                worker_restarts += 1;
                shards_retried += 1;
                let mid = missing.len() / 2;
                for half in [&missing[..mid], &missing[mid..]] {
                    queue.push_back(Attempt {
                        indices: half.to_vec(),
                        tries: 0,
                        not_before: now + backoff(0),
                    });
                }
            } else {
                let idx = missing[0];
                let was_singleton = w.attempt.indices.len() == 1;
                let tries = if was_singleton {
                    w.attempt.tries + 1
                } else {
                    0
                };
                if was_singleton && tries > spec.shard_retries {
                    // The poison pair: it alone killed a worker
                    // shard_retries+1 times. Quarantine instead of
                    // failing the run.
                    let millis = w.started.elapsed().as_millis() as u64;
                    let o =
                        quarantine_outcome(&jobs[idx].name, w.killed_by_watchdog, &status, millis);
                    quarantined += 1;
                    watchdog_kills += w.killed_by_watchdog as u64;
                    merged.record_line(&entry_line(run_id, idx, &o));
                    slots[idx] = Some(o);
                } else {
                    worker_restarts += 1;
                    shards_retried += 1;
                    queue.push_back(Attempt {
                        indices: vec![idx],
                        tries,
                        not_before: now + backoff(tries),
                    });
                }
            }
            if consecutive_failures >= 3 {
                // Children keep dying: likely machine-level pressure, not
                // per-pair poison. Halve the fleet and keep going.
                effective_procs = (effective_procs / 2).max(1);
                consecutive_failures = 0;
            }
        }

        // 3. Dispatch ready attempts.
        while active.len() < effective_procs {
            let now = Instant::now();
            let Some(pos) = queue.iter().position(|a| a.not_before <= now) else {
                break;
            };
            let attempt = queue.remove(pos).expect("position valid");
            if local_fallback {
                // Spawning is broken (fork limits, missing exe): finish
                // in-process. Weaker isolation, but the run completes.
                for &idx in &attempt.indices {
                    if slots[idx].is_none() {
                        let o = engine.run_one(&jobs[idx], run_id, idx, run_started);
                        merged.record_line(&entry_line(run_id, idx, &o));
                        slots[idx] = Some(o);
                    }
                }
                continue;
            }
            match spawn_worker(spec, engine, run_id, attempt, &merged, spawn_seq, &tx) {
                Ok(worker) => {
                    spawn_seq += 1;
                    spawn_failures = 0;
                    active.push(worker);
                }
                Err((e, mut attempt)) => {
                    spawn_failures += 1;
                    if spawn_failures >= 3 {
                        eprintln!(
                            "warning: worker spawn failed {spawn_failures}x ({e}); \
                             falling back to in-process execution"
                        );
                        local_fallback = true;
                    }
                    // Requeue with backoff; once fallback engages, the
                    // next dispatch runs it inline instead.
                    attempt.not_before = Instant::now() + backoff(spawn_failures);
                    queue.push_back(attempt);
                    break;
                }
            }
        }

        if active.is_empty() && queue.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Safety net: every pending index must be filled by now (merge,
    // recovery, quarantine, or fallback); if a logic gap ever leaves one,
    // finish it in-process rather than panic a completed run.
    for &idx in &pending {
        if slots[idx].is_none() {
            let o = engine.run_one(&jobs[idx], run_id, idx, run_started);
            merged.record_line(&entry_line(run_id, idx, &o));
            slots[idx] = Some(o);
        }
    }

    // Run-level supervision record: ignored by resume (no idx/name), but
    // makes restarts/retries reconstructible from the journal alone.
    merged.record_line(&format!(
        "{{\"run\":{run_id},\"supervision\":{{\"worker_restarts\":{worker_restarts},\
         \"shards_retried\":{shards_retried},\"pairs_quarantined\":{quarantined},\
         \"watchdog_kills\":{watchdog_kills}}}}}"
    ));
    engine
        .sup_stats
        .worker_restarts
        .fetch_add(worker_restarts, Ordering::Relaxed);
    engine
        .sup_stats
        .shards_retried
        .fetch_add(shards_retried, Ordering::Relaxed);

    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_shard_flag_round_trips() {
        let s = WorkerShard {
            run: 3,
            start: 10,
            end: 42,
        };
        assert_eq!(WorkerShard::parse(&s.format()), Some(s));
        assert_eq!(
            WorkerShard::parse("0:0:1"),
            Some(WorkerShard {
                run: 0,
                start: 0,
                end: 1
            })
        );
        assert!(WorkerShard::parse("1:2").is_none());
        assert!(WorkerShard::parse("1:2:3:4").is_none());
        assert!(WorkerShard::parse("1:5:2").is_none(), "end < start");
        assert!(WorkerShard::parse("x:0:1").is_none());
    }

    #[test]
    fn shard_planner_covers_every_index_in_order() {
        let pending: Vec<usize> = (0..100).filter(|i| i % 3 != 0).collect();
        let shards = plan_shards(&pending, 4, None);
        let flat: Vec<usize> = shards.iter().flatten().copied().collect();
        assert_eq!(flat, pending, "coverage and order preserved");
        // Default sizing: ~4 shards per worker.
        assert!(shards.len() >= 4, "got {} shards", shards.len());
        // `unwrap_or(0)`: an empty shard list (resume resolved everything)
        // must read as "max shard size 0", not a panic.
        let max = shards.iter().map(Vec::len).max().unwrap_or(0);
        assert!(max <= 32, "shard size capped at 32, got {max}");
    }

    #[test]
    fn shard_planner_respects_explicit_size_and_empty_input() {
        assert!(plan_shards(&[], 4, None).is_empty());
        let pending: Vec<usize> = (0..10).collect();
        let shards = plan_shards(&pending, 2, Some(3));
        assert_eq!(
            shards,
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8], vec![9]]
        );
        // A zero override clamps to 1 instead of spinning forever.
        assert_eq!(plan_shards(&pending, 2, Some(0)).len(), 10);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(0), Duration::from_millis(25));
        assert_eq!(backoff(1), Duration::from_millis(50));
        assert_eq!(backoff(6), Duration::from_millis(1600));
        assert_eq!(backoff(60), Duration::from_millis(1600), "capped");
    }

    #[test]
    fn watchdog_budget_prefers_override_then_deadline() {
        let mut spec = SuperviseSpec::new(2, PathBuf::from("x"), Vec::new());
        assert_eq!(watchdog_budget_ms(&spec, None, 8), 300_000);
        assert_eq!(watchdog_budget_ms(&spec, Some(100), 8), 5_000 + 100 * 9);
        spec.watchdog_ms = Some(1234);
        assert_eq!(watchdog_budget_ms(&spec, Some(100), 8), 1234);
    }

    #[test]
    fn resume_to_empty_replays_without_spawning_workers() {
        // `--procs N` with a `--resume` journal that already resolves
        // every job: the supervisor must return the replayed outcomes
        // with an empty merge instead of planning shards over an empty
        // pending list (the old `.max().unwrap()` panic site). The spec's
        // worker binary deliberately does not exist — any spawn attempt
        // would surface as quarantine verdicts, not replays.
        let src = alive2_ir::parser::parse_module(
            "define i8 @a(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}\n\
             define i8 @b(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}",
        )
        .unwrap();
        let tgt = alive2_ir::parser::parse_module(
            "define i8 @a(i8 %x) {\nentry:\n  %r = shl i8 %x, 1\n  ret i8 %r\n}\n\
             define i8 @b(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}",
        )
        .unwrap();
        let jobs: Vec<Job> = src
            .functions
            .iter()
            .map(|f| Job {
                name: f.name.clone(),
                module: &src,
                src: f,
                tgt: tgt.function(&f.name).unwrap(),
                cfg: Default::default(),
            })
            .collect();

        let path =
            std::env::temp_dir().join(format!("alive2-resume-empty-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let journal = Journal::append(&path).unwrap();
            journal.record(
                0,
                0,
                &Outcome {
                    name: "a".into(),
                    verdict: Verdict::Correct,
                    stats: ValidateStats::default(),
                },
            );
            journal.record(
                0,
                1,
                &Outcome {
                    name: "b".into(),
                    verdict: Verdict::Timeout,
                    stats: ValidateStats::default(),
                },
            );
        }
        let resume = Arc::new(ResumeLog::load(&path).unwrap());
        let spec = Arc::new(SuperviseSpec::new(
            4,
            PathBuf::from("/nonexistent/alive2-worker-binary"),
            Vec::new(),
        ));
        let engine = ValidationEngine::sequential()
            .with_resume(Some(resume))
            .with_supervise(Some(spec));
        let outcomes = engine.run(&jobs);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].verdict.is_correct());
        assert!(matches!(outcomes[1].verdict, Verdict::Timeout));
        // And the degenerate case: supervising an empty work list.
        let none = engine.run(&[]);
        assert!(none.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_maps_watchdog_to_timeout_and_crash_otherwise() {
        let t = quarantine_outcome("f", true, "signal: 9", 10);
        assert!(matches!(t.verdict, Verdict::Timeout));
        assert_eq!(t.stats.quarantined, 1);
        assert_eq!(t.stats.watchdog_kill, 1);
        let c = quarantine_outcome("f", false, "exit status: 134", 10);
        match &c.verdict {
            Verdict::Crash(msg) => {
                assert!(msg.contains("exit status: 134"), "{msg}");
                assert!(msg.contains("quarantined"), "{msg}");
            }
            other => panic!("expected Crash, got {other:?}"),
        }
        assert_eq!(c.stats.watchdog_kill, 0);
    }
}
