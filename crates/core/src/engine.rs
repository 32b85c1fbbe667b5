//! The parallel validation engine.
//!
//! Every evaluation workload in this repo — `alive-tv` over two modules,
//! the `opt -tv` pipeline driver, the figure harnesses — bottoms out in
//! the same shape: a list of independent `(name, src, tgt, config)`
//! validation jobs whose verdicts are aggregated into [`Counts`]. The
//! paper ran this loop sequentially and burned 2.5 hours on the LLVM unit
//! suite alone (§8.2); since each job is self-contained (its own term
//! context, solver, and seeds), the work list is embarrassingly parallel.
//!
//! [`ValidationEngine`] runs jobs on N worker threads using only the
//! standard library: `std::thread::scope` plus a shared atomic work index
//! as the queue. Results are returned in job order, so `--jobs 1` and
//! `--jobs N` produce identical output and identical [`Counts`] (modulo
//! wall-clock). A per-job deadline, plumbed down to the SAT solver's
//! [`Budget`](alive2_smt::sat::Budget), converts runaway jobs into
//! [`Verdict::Timeout`] instead of stalling the whole run.
//!
//! The engine is *fault-contained* (the paper's harness survives
//! crashing, timing-out, and memory-exhausting jobs and reports them as
//! Fig. 7 columns; so does this one):
//!
//! - every job runs under [`std::panic::catch_unwind`], so a panicking
//!   job becomes a [`Verdict::Crash`] outcome instead of killing the
//!   worker pool;
//! - a per-job term-DAG memory budget (`EncodeConfig::mem_budget_mb`)
//!   turns encoding explosions into [`Verdict::OutOfMemory`] before the
//!   box swaps;
//! - an optional [`Journal`] appends one JSON line per completed outcome
//!   (flushed before the verdict is counted), and a [`ResumeLog`] built
//!   from that file lets an interrupted run resume instead of restart.

use crate::journal::{Journal, ResumeLog};
use crate::supervisor::{SuperviseSpec, SupervisionStats, WorkerShard};
use crate::validator::{validate_pair_with_deadline, ValidateStats, Verdict};
use alive2_ir::function::Function;
use alive2_ir::module::Module;
use alive2_obs::{Phase, StatsTotals};
use alive2_sema::config::EncodeConfig;
use alive2_smt::cache::TermScope;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One unit of validation work: check that `tgt` refines `src`.
#[derive(Clone, Debug)]
pub struct Job<'a> {
    /// Display name (usually the function name, possibly qualified by the
    /// pass or app that produced the pair).
    pub name: String,
    /// The module providing globals and declarations for the pair.
    pub module: &'a Module,
    /// The source (pre-transformation) function.
    pub src: &'a Function,
    /// The target (post-transformation) function.
    pub tgt: &'a Function,
    /// Per-job encoding/solver configuration.
    pub cfg: EncodeConfig,
}

/// The result of one [`Job`].
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The job's name, copied through.
    pub name: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Query/time statistics for the job.
    pub stats: ValidateStats,
}

/// Outcome counts in the shape of the paper's Fig. 7 columns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Total (function, pass) pairs considered.
    pub pairs: u32,
    /// Pairs where the pass changed the function.
    pub diff: u32,
    /// Successfully validated.
    pub correct: u32,
    /// Refinement violations.
    pub incorrect: u32,
    /// Solver timeouts (including per-job deadline hits).
    pub timeout: u32,
    /// Solver memory exhaustion.
    pub oom: u32,
    /// Skipped: unsupported features or inconclusive over-approximations.
    pub unsupported: u32,
    /// Validator panics contained by the engine (one per crashed job).
    pub crash: u32,
    /// Wall-clock milliseconds for the run (not a per-thread sum).
    pub millis: u64,
    /// Aggregated per-job telemetry (SMT splits, CEGQI iterations,
    /// term/hash-cons meters, busy time) — the run's `stats` object.
    pub stats: StatsTotals,
}

impl Counts {
    /// Accumulates another `Counts`.
    pub fn add(&mut self, other: Counts) {
        self.pairs += other.pairs;
        self.diff += other.diff;
        self.correct += other.correct;
        self.incorrect += other.incorrect;
        self.timeout += other.timeout;
        self.oom += other.oom;
        self.unsupported += other.unsupported;
        self.crash += other.crash;
        self.millis += other.millis;
        self.stats.merge(&other.stats);
    }

    /// Records one verdict.
    pub fn record(&mut self, v: &Verdict) {
        match v {
            Verdict::Correct => self.correct += 1,
            Verdict::Incorrect(_) => self.incorrect += 1,
            Verdict::Timeout => self.timeout += 1,
            Verdict::OutOfMemory => self.oom += 1,
            Verdict::Crash(_) => self.crash += 1,
            Verdict::Unsupported(_) | Verdict::Inconclusive(_) | Verdict::PreconditionFalse => {
                self.unsupported += 1
            }
        }
    }

    /// Counts one validated pair: its verdict and its job statistics.
    pub fn add_outcome(&mut self, o: &Outcome) {
        self.pairs += 1;
        self.diff += 1;
        self.record(&o.verdict);
        self.stats.add_job(&o.stats);
    }

    /// True when every verdict column matches `other` — wall-clock time
    /// and pair bookkeeping excluded. This is the invariant `--jobs N`
    /// must preserve against `--jobs 1`, and a resumed run against an
    /// uninterrupted one.
    pub fn same_verdicts(&self, other: &Counts) -> bool {
        self.correct == other.correct
            && self.incorrect == other.incorrect
            && self.timeout == other.timeout
            && self.oom == other.oom
            && self.unsupported == other.unsupported
            && self.crash == other.crash
    }

    /// The verdict columns as a JSON fragment, `"correct":N,…,"crash":N`
    /// without braces: every summary and daemon line that reports them
    /// writes them through here, in this order.
    pub fn verdicts_json(&self) -> String {
        format!(
            "\"correct\":{},\"incorrect\":{},\"timeout\":{},\"oom\":{},\"unsupported\":{},\
             \"crash\":{}",
            self.correct, self.incorrect, self.timeout, self.oom, self.unsupported, self.crash
        )
    }
}

/// Source of engine identities in the query cache's term tier: every
/// engine built from scratch takes the next one, and its clones share it.
static NEXT_ENGINE: AtomicU64 = AtomicU64::new(0);

/// An engine's identity in the term tier plus its runs in flight. A run
/// reads only entries that runs finished before it began wrote (see
/// [`TermScope`]), so the horizon is fixed when the run starts.
#[derive(Debug)]
struct TermRuns {
    engine: u64,
    /// Run ordinal → the horizon it started with: every run below it had
    /// finished.
    inflight: Mutex<BTreeMap<u32, u32>>,
}

impl TermRuns {
    fn inflight(&self) -> std::sync::MutexGuard<'_, BTreeMap<u32, u32>> {
        // Every update is a single insert or remove: a panic elsewhere
        // leaves the map valid.
        self.inflight.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Ends a run's term-tier registration, on every exit from `run`.
struct RunGuard<'a> {
    runs: &'a TermRuns,
    run: u32,
}

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        self.runs.inflight().remove(&self.run);
    }
}

/// A fixed-size worker pool for validation jobs.
#[derive(Clone, Debug)]
pub struct ValidationEngine {
    /// Number of worker threads (`1` = run on the calling thread).
    pub workers: usize,
    /// Optional per-job wall-clock cap in milliseconds. Applies to each
    /// job individually, from the moment a worker picks it up.
    pub deadline_ms: Option<u64>,
    /// Fault-injection hook for testing containment: any job whose name
    /// contains this marker panics deliberately instead of validating.
    /// Wired to `--inject-panic` by the drivers.
    pub fault_marker: Option<String>,
    /// Fault-injection hook for the *process* firewall: any job whose
    /// name contains this marker calls `std::process::abort()` — which
    /// `catch_unwind` cannot contain, so only `--procs` supervision
    /// survives it. Wired to `--inject-abort`.
    pub abort_marker: Option<String>,
    /// Fault-injection hook for the watchdog: any job whose name contains
    /// this marker enters an uncancellable busy loop (no deadline checks,
    /// no unwinding), so only a supervising parent's SIGKILL ends it.
    /// Wired to `--inject-hang`.
    pub hang_marker: Option<String>,
    /// Optional outcome journal, appended to (and flushed) as each job
    /// completes — before its verdict is counted.
    pub(crate) journal: Option<Arc<Journal>>,
    /// Optional log of a previous run's outcomes: journaled jobs are
    /// skipped and their recorded verdicts returned instead.
    pub(crate) resume: Option<Arc<ResumeLog>>,
    /// Ordinal of the next [`ValidationEngine::run`] invocation — the
    /// `run` component of journal/resume keys. Shared across clones so a
    /// driver that copies the engine keeps a single key space.
    run_seq: Arc<AtomicU32>,
    /// `--procs N`: supervise runs across N child worker processes (see
    /// [`crate::supervisor`]). `None` or `procs <= 1` runs in-process.
    supervise: Option<Arc<SuperviseSpec>>,
    /// Set in child processes (`--worker-shard RUN:START:END`): when the
    /// current run matches, execute only that shard and exit; earlier
    /// runs fall through to the local path, replayed via `--resume`.
    worker_shard: Option<WorkerShard>,
    /// Run-level supervision counters (worker restarts, shard retries),
    /// shared across clones and drained by `run_counts` /
    /// [`ValidationEngine::fold_supervision_into`].
    pub(crate) sup_stats: Arc<SupervisionStats>,
    /// This engine's identity in the term tier of the query cache, shared
    /// across clones like `run_seq`.
    term_runs: Arc<TermRuns>,
}

impl Default for ValidationEngine {
    fn default() -> Self {
        ValidationEngine {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            deadline_ms: None,
            fault_marker: None,
            abort_marker: None,
            hang_marker: None,
            journal: None,
            resume: None,
            run_seq: Arc::new(AtomicU32::new(0)),
            supervise: None,
            worker_shard: None,
            sup_stats: Arc::new(SupervisionStats::default()),
            term_runs: Arc::new(TermRuns {
                engine: NEXT_ENGINE.fetch_add(1, Ordering::Relaxed),
                inflight: Mutex::new(BTreeMap::new()),
            }),
        }
    }
}

impl ValidationEngine {
    /// An engine with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        ValidationEngine {
            workers: workers.max(1),
            ..Default::default()
        }
    }

    /// A single-threaded engine (runs jobs on the calling thread).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Sets the worker count (clamped to at least 1), keeping everything
    /// else — deadline, journal, resume log, fault marker — as-is.
    pub fn with_workers(self, workers: usize) -> Self {
        ValidationEngine {
            workers: workers.max(1),
            ..self
        }
    }

    /// Sets the per-job deadline.
    pub fn with_deadline_ms(self, deadline_ms: Option<u64>) -> Self {
        ValidationEngine {
            deadline_ms,
            ..self
        }
    }

    /// Attaches an outcome journal: one JSON line per completed job,
    /// flushed before the verdict is counted.
    pub fn with_journal(self, journal: Option<Arc<Journal>>) -> Self {
        ValidationEngine { journal, ..self }
    }

    /// Attaches a resume log: jobs found in it are skipped and their
    /// journaled verdicts returned, seeding [`Counts`] on aggregation.
    pub fn with_resume(self, resume: Option<Arc<ResumeLog>>) -> Self {
        ValidationEngine { resume, ..self }
    }

    /// Sets the fault-injection marker (see [`ValidationEngine::fault_marker`]).
    pub fn with_fault_marker(self, fault_marker: Option<String>) -> Self {
        ValidationEngine {
            fault_marker,
            ..self
        }
    }

    /// Sets the abort-injection marker (see [`ValidationEngine::abort_marker`]).
    pub fn with_abort_marker(self, abort_marker: Option<String>) -> Self {
        ValidationEngine {
            abort_marker,
            ..self
        }
    }

    /// Sets the hang-injection marker (see [`ValidationEngine::hang_marker`]).
    pub fn with_hang_marker(self, hang_marker: Option<String>) -> Self {
        ValidationEngine {
            hang_marker,
            ..self
        }
    }

    /// Enables process-level supervision: jobs are sharded across child
    /// worker processes per `spec` (when `spec.procs > 1`). Ignored in
    /// worker children (`with_worker_shard` wins).
    pub fn with_supervise(self, supervise: Option<Arc<SuperviseSpec>>) -> Self {
        ValidationEngine { supervise, ..self }
    }

    /// Marks this engine as a worker child with the given shard
    /// assignment (the hidden `--worker-shard` mode).
    pub fn with_worker_shard(self, worker_shard: Option<WorkerShard>) -> Self {
        ValidationEngine {
            worker_shard,
            ..self
        }
    }

    /// Drains the run-level supervision counters (worker restarts, shard
    /// retries) accumulated since the last drain into `totals`.
    /// `run_counts` calls this automatically; drivers that aggregate
    /// outcomes manually call it once before reporting. Draining keeps
    /// multi-run drivers from double-counting.
    pub fn fold_supervision_into(&self, totals: &mut StatsTotals) {
        totals.worker_restarts += self.sup_stats.worker_restarts.swap(0, Ordering::Relaxed);
        totals.shards_retried += self.sup_stats.shards_retried.swap(0, Ordering::Relaxed);
    }

    /// Renders a `catch_unwind` payload for a [`Verdict::Crash`].
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    }

    /// Runs job `idx` of run `run_id` with the panic firewall: a panic
    /// anywhere inside the validation stack is contained to this job and
    /// reported as [`Verdict::Crash`] with the panic payload and job name
    /// captured. `run_started` anchors the job's queue-wait measurement.
    pub(crate) fn run_one(
        &self,
        job: &Job,
        run_id: u32,
        idx: usize,
        run_started: Instant,
    ) -> Outcome {
        let queue_ms = run_started.elapsed().as_millis() as u64;
        // The job's term-tier scope: it reads what earlier runs of this
        // engine stored and writes under its own run and index. A run not
        // registered by `run` reads nothing.
        let visible_below = self.term_runs.inflight().get(&run_id).copied().unwrap_or(0);
        alive2_smt::cache::set_term_scope(Some(TermScope {
            engine: self.term_runs.engine,
            run: run_id,
            visible_below,
            job: idx as u32,
        }));
        // Job phase starts at Queued; the validator advances it. If the
        // job panics, the unwound guards do NOT reset it, so the crash
        // record below still reports the furthest phase reached.
        alive2_obs::set_job_phase(Phase::Queued);
        let snap = alive2_obs::counters_snapshot();
        // Attribute every query profile recorded on this thread to this
        // job. The ring lives outside the unwound stack, so a crashed
        // job's profiles still flush below.
        alive2_obs::profile::set_job(&job.name);
        let picked = Instant::now();
        let _sp = alive2_obs::span_labeled(Phase::Job, &job.name);
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(marker) = self.fault_marker.as_deref() {
                if !marker.is_empty() && job.name.contains(marker) {
                    panic!(
                        "injected fault: job `{}` matches marker `{marker}`",
                        job.name
                    );
                }
            }
            // Process-level fault injections, beyond what catch_unwind
            // can contain: abort() takes the whole process down; the
            // busy loop never checks a deadline and never unwinds. Both
            // exist to exercise the supervisor deterministically.
            if let Some(marker) = self.abort_marker.as_deref() {
                if !marker.is_empty() && job.name.contains(marker) {
                    eprintln!(
                        "injected abort: job `{}` matches marker `{marker}`",
                        job.name
                    );
                    std::process::abort();
                }
            }
            if let Some(marker) = self.hang_marker.as_deref() {
                if !marker.is_empty() && job.name.contains(marker) {
                    loop {
                        std::hint::spin_loop();
                    }
                }
            }
            let deadline = self
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            validate_pair_with_deadline(job.module, job.src, job.tgt, &job.cfg, deadline)
        }));
        let (verdict, mut stats) = match result {
            Ok(vs) => vs,
            Err(payload) => {
                // Partial stats for the crashed job: the counter deltas
                // up to the panic plus the phase it died in — enough to
                // triage a crash from the journal alone.
                let mut stats = ValidateStats {
                    phase: alive2_obs::job_phase(),
                    millis: picked.elapsed().as_millis() as u64,
                    ..ValidateStats::default()
                };
                stats.absorb_since(&snap);
                (
                    Verdict::Crash(format!(
                        "job `{}`: {}",
                        job.name,
                        Self::panic_message(payload.as_ref())
                    )),
                    stats,
                )
            }
        };
        stats.queue_ms = queue_ms;
        alive2_smt::cache::set_term_scope(None);
        alive2_obs::profile::flush_job();
        alive2_obs::profile::clear_job();
        Outcome {
            name: job.name.clone(),
            verdict,
            stats,
        }
    }

    /// Runs every job and returns the outcomes in job order.
    ///
    /// Jobs are independent (each builds its own term context), so the
    /// verdicts do not depend on the worker count; only wall-clock time
    /// does. A panicking job yields a [`Verdict::Crash`] outcome and the
    /// pool moves on to the next job — `--jobs N` and `--jobs 1` still
    /// report identical verdicts.
    ///
    /// Three execution modes share this entry point:
    /// - worker child (`--worker-shard` naming the current run): execute
    ///   only the assigned shard, stream/journal it, and exit — see
    ///   [`crate::supervisor`]. A shard for a *later* run falls through
    ///   to the local path, where `--resume` replays earlier runs from
    ///   the parent's merged journal nearly for free;
    /// - supervising parent (`--procs N` with `N > 1`): shard across
    ///   child processes with watchdog/retry/quarantine;
    /// - plain local (everything else): the in-process thread pool.
    ///
    /// Answers of the query cache's term tier that one run stores are
    /// read only by later runs of this engine (or its clones), so a run's
    /// verdicts and deterministic counters do not depend on how its jobs
    /// were scheduled.
    pub fn run(&self, jobs: &[Job]) -> Vec<Outcome> {
        let run_id = {
            // Ordinals are handed out under the lock, so every run below
            // the smallest one in flight has finished.
            let mut inflight = self.term_runs.inflight();
            let run_id = self.run_seq.fetch_add(1, Ordering::Relaxed);
            let horizon = inflight.keys().next().copied().unwrap_or(run_id);
            inflight.insert(run_id, horizon);
            run_id
        };
        let _registered = RunGuard {
            runs: &self.term_runs,
            run: run_id,
        };
        if let Some(shard) = self.worker_shard {
            if shard.run == run_id {
                crate::supervisor::run_worker_shard(self, run_id, jobs, shard);
            }
        } else if let Some(spec) = &self.supervise {
            if spec.procs > 1 && !jobs.is_empty() {
                return crate::supervisor::run_supervised(self, spec, run_id, jobs);
            }
        }
        self.run_local(run_id, jobs)
    }

    /// The in-process execution path: resume resolution, the thread pool,
    /// journaling, and the dead-worker retry pass.
    pub(crate) fn run_local(&self, run_id: u32, jobs: &[Job]) -> Vec<Outcome> {
        let run_started = Instant::now();
        let mut slots: Vec<Option<Outcome>> = vec![None; jobs.len()];

        // Resolve already-journaled jobs from the resume log first.
        let mut pending: Vec<usize> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            match self
                .resume
                .as_ref()
                .and_then(|r| r.lookup(run_id, i, &job.name))
            {
                Some(outcome) => slots[i] = Some(outcome),
                None => pending.push(i),
            }
        }

        // Completed outcomes land in shared storage as they finish (not in
        // worker-local vectors), so a worker that dies abnormally cannot
        // take the work it already finished down with it.
        let done: Mutex<Vec<(usize, Outcome)>> = Mutex::new(Vec::new());
        let complete = |i: usize, outcome: Outcome| {
            // Journal before counting: once a verdict is observable in the
            // aggregate it must already be on disk.
            if let Some(journal) = &self.journal {
                let _sp = alive2_obs::span(Phase::Journal);
                journal.record(run_id, i, &outcome);
            }
            done.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((i, outcome));
        };

        let workers = self.workers.max(1).min(pending.len().max(1));
        if workers <= 1 {
            for &i in &pending {
                complete(i, self.run_one(&jobs[i], run_id, i, run_started));
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= pending.len() {
                                break;
                            }
                            let i = pending[k];
                            complete(i, self.run_one(&jobs[i], run_id, i, run_started));
                        })
                    })
                    .collect();
                for h in handles {
                    // run_one contains job panics, so a join error means
                    // the worker died in its own bookkeeping. The pool is
                    // not poisoned by it: the other workers keep draining
                    // the queue, and whatever job was in flight is
                    // finished by the retry pass below.
                    let _ = h.join();
                }
            });
        }

        for (i, outcome) in done.into_inner().unwrap_or_else(|e| e.into_inner()) {
            slots[i] = Some(outcome);
        }

        // Retry pass: any job still unfinished (its worker died between
        // claiming the index and storing the result) reruns on the calling
        // thread, where a repeatable panic becomes its Crash outcome.
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                let outcome = self.run_one(&jobs[i], run_id, i, run_started);
                if let Some(journal) = &self.journal {
                    let _sp = alive2_obs::span(Phase::Journal);
                    journal.record(run_id, i, &outcome);
                }
                *slot = Some(outcome);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    }

    /// Runs every job and aggregates the verdicts. `pairs` and `diff` are
    /// both set to the job count; drivers with a different notion of
    /// "considered pairs" (e.g. the pass pipeline) overwrite them.
    pub fn run_counts(&self, jobs: &[Job]) -> (Vec<Outcome>, Counts) {
        let start = Instant::now();
        let outcomes = self.run(jobs);
        let mut counts = Counts::default();
        for o in &outcomes {
            counts.add_outcome(o);
        }
        self.fold_supervision_into(&mut counts.stats);
        counts.millis = start.elapsed().as_millis() as u64;
        (outcomes, counts)
    }

    /// Validates every function of `src_mod` against its same-named
    /// counterpart in `tgt_mod` — the `alive-tv` workflow (§8.1) — and
    /// returns `(name, verdict)` in source order.
    ///
    /// Source functions with no same-named target are reported as
    /// `Unsupported("no matching target function")` rather than silently
    /// dropped: a pass that deletes a function is a (potential)
    /// miscompile the user must see.
    pub fn validate_modules(
        &self,
        src_mod: &Module,
        tgt_mod: &Module,
        cfg: &EncodeConfig,
    ) -> Vec<(String, Verdict)> {
        self.validate_modules_outcomes(src_mod, tgt_mod, cfg)
            .into_iter()
            .map(|o| (o.name, o.verdict))
            .collect()
    }

    /// Like [`ValidationEngine::validate_modules`] but returns the full
    /// [`Outcome`] per function, including per-job stats. Pairs resolved
    /// without running a job (missing target, global mismatch,
    /// byte-identical) carry default stats with phase `Done`.
    pub fn validate_modules_outcomes(
        &self,
        src_mod: &Module,
        tgt_mod: &Module,
        cfg: &EncodeConfig,
    ) -> Vec<Outcome> {
        let resolved = |name: &str, verdict: Verdict| Outcome {
            name: name.to_string(),
            verdict,
            stats: ValidateStats {
                phase: Phase::Done,
                ..ValidateStats::default()
            },
        };
        let mut slots: Vec<Option<Outcome>> = Vec::new();
        let mut jobs: Vec<Job> = Vec::new();
        let mut job_slots: Vec<usize> = Vec::new();
        for src in &src_mod.functions {
            let slot = slots.len();
            let Some(tgt) = tgt_mod.function(&src.name) else {
                slots.push(Some(resolved(
                    &src.name,
                    Verdict::Unsupported("no matching target function".into()),
                )));
                continue;
            };
            if src_mod.globals != tgt_mod.globals {
                slots.push(Some(resolved(
                    &src.name,
                    Verdict::Unsupported("source/target globals differ".into()),
                )));
                continue;
            }
            // Skip byte-identical pairs — the optimization the paper's
            // plugins apply when a pass makes no changes (§8.1).
            if src == tgt {
                slots.push(Some(resolved(&src.name, Verdict::Correct)));
                continue;
            }
            slots.push(None);
            job_slots.push(slot);
            jobs.push(Job {
                name: src.name.clone(),
                module: src_mod,
                src,
                tgt,
                cfg: *cfg,
            });
        }
        let outcomes = self.run(&jobs);
        for (slot, o) in job_slots.into_iter().zip(outcomes) {
            slots[slot] = Some(o);
        }
        slots.into_iter().map(|s| s.expect("slot filled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive2_ir::parser::parse_module;

    fn modules() -> (Module, Module) {
        let src = parse_module(
            "define i8 @a(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}\n\
             define i8 @b(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}\n\
             define i8 @c(i8 %x) {\nentry:\n  ret i8 %x\n}",
        )
        .unwrap();
        let tgt = parse_module(
            "define i8 @a(i8 %x) {\nentry:\n  %r = shl i8 %x, 1\n  ret i8 %r\n}\n\
             define i8 @b(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}\n\
             define i8 @c(i8 %x) {\nentry:\n  ret i8 %x\n}",
        )
        .unwrap();
        (src, tgt)
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (src, tgt) = modules();
        let cfg = EncodeConfig::default();
        let seq = ValidationEngine::sequential().validate_modules(&src, &tgt, &cfg);
        let par = ValidationEngine::new(4).validate_modules(&src, &tgt, &cfg);
        assert_eq!(seq.len(), par.len());
        for ((n1, v1), (n2, v2)) in seq.iter().zip(&par) {
            assert_eq!(n1, n2);
            assert_eq!(
                std::mem::discriminant(v1),
                std::mem::discriminant(v2),
                "{n1}: {v1:?} vs {v2:?}"
            );
        }
        assert!(seq[0].1.is_correct());
        assert!(seq[1].1.is_incorrect());
        assert!(seq[2].1.is_correct());
    }

    #[test]
    fn outcomes_preserve_job_order() {
        let (src, tgt) = modules();
        let cfg = EncodeConfig::default();
        let jobs: Vec<Job> = src
            .functions
            .iter()
            .map(|f| Job {
                name: f.name.clone(),
                module: &src,
                src: f,
                tgt: tgt.function(&f.name).unwrap(),
                cfg,
            })
            .collect();
        let outcomes = ValidationEngine::new(3).run(&jobs);
        let names: Vec<&str> = outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn missing_target_function_is_reported_not_dropped() {
        let src = parse_module(
            "define i8 @keep(i8 %x) {\nentry:\n  ret i8 %x\n}\n\
             define i8 @gone(i8 %x) {\nentry:\n  ret i8 %x\n}",
        )
        .unwrap();
        let tgt = parse_module("define i8 @keep(i8 %x) {\nentry:\n  ret i8 %x\n}").unwrap();
        let results =
            ValidationEngine::sequential().validate_modules(&src, &tgt, &EncodeConfig::default());
        assert_eq!(results.len(), 2);
        assert!(results[0].1.is_correct());
        match &results[1].1 {
            Verdict::Unsupported(why) => {
                assert_eq!(results[1].0, "gone");
                assert!(why.contains("no matching target function"), "{why}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_times_out_instead_of_hanging() {
        let (src, tgt) = modules();
        let cfg = EncodeConfig::default();
        let engine = ValidationEngine::new(2).with_deadline_ms(Some(0));
        for (name, v) in engine.validate_modules(&src, &tgt, &cfg) {
            // @c is byte-identical and resolved without running a job; the
            // others must hit the deadline before their first query.
            if name != "c" {
                assert!(matches!(v, Verdict::Timeout), "{name}: {v:?}");
            }
        }
    }

    fn jobs_of<'m>(src: &'m Module, tgt: &'m Module, cfg: EncodeConfig) -> Vec<Job<'m>> {
        src.functions
            .iter()
            .map(|f| Job {
                name: f.name.clone(),
                module: src,
                src: f,
                tgt: tgt.function(&f.name).unwrap(),
                cfg,
            })
            .collect()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "alive2-engine-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn injected_panic_is_contained_as_crash() {
        let (src, tgt) = modules();
        let jobs = jobs_of(&src, &tgt, EncodeConfig::default());
        let engine = ValidationEngine::new(4).with_fault_marker(Some("b".into()));
        let outcomes = engine.run(&jobs);
        assert_eq!(outcomes.len(), 3);
        match &outcomes[1].verdict {
            Verdict::Crash(msg) => {
                assert!(msg.contains("injected fault"), "{msg}");
                assert!(msg.contains("`b`"), "payload should name the job: {msg}");
            }
            other => panic!("expected Crash, got {other:?}"),
        }
        // The pool keeps draining: neighbors of the crashed job still ran.
        assert!(outcomes[0].verdict.is_correct());
        assert!(outcomes[2].verdict.is_correct());
    }

    #[test]
    fn crash_parity_across_worker_counts() {
        let (src, tgt) = modules();
        let jobs = jobs_of(&src, &tgt, EncodeConfig::default());
        let seq = ValidationEngine::sequential()
            .with_fault_marker(Some("a".into()))
            .run_counts(&jobs)
            .1;
        let par = ValidationEngine::new(4)
            .with_fault_marker(Some("a".into()))
            .run_counts(&jobs)
            .1;
        assert_eq!(seq.crash, 1);
        assert!(seq.same_verdicts(&par), "{seq:?} vs {par:?}");
    }

    #[test]
    fn journal_then_resume_replays_verdicts() {
        let (src, tgt) = modules();
        let jobs = jobs_of(&src, &tgt, EncodeConfig::default());
        let path = temp_path("resume");

        let journal = Arc::new(Journal::append(&path).unwrap());
        let first = ValidationEngine::new(2)
            .with_journal(Some(journal))
            .with_fault_marker(Some("c".into()));
        let (_, counts1) = first.run_counts(&jobs);
        assert_eq!(counts1.crash, 1);

        // Resume with a *different* fault marker: journaled verdicts (incl.
        // the Crash) are replayed instead of recomputed, so the counts are
        // identical even though no job actually reruns.
        let resume = Arc::new(ResumeLog::load(&path).unwrap());
        assert_eq!(resume.len(), 3);
        let second = ValidationEngine::sequential()
            .with_resume(Some(resume))
            .with_fault_marker(Some("a".into()));
        let (outcomes2, counts2) = second.run_counts(&jobs);
        assert!(
            counts1.same_verdicts(&counts2),
            "{counts1:?} vs {counts2:?}"
        );
        assert!(matches!(outcomes2[2].verdict, Verdict::Crash(_)));
        assert!(outcomes2[0].verdict.is_correct());

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_journal_resumes_partially() {
        let (src, tgt) = modules();
        let jobs = jobs_of(&src, &tgt, EncodeConfig::default());
        let path = temp_path("torn");

        let journal = Arc::new(Journal::append(&path).unwrap());
        let (_, full) = ValidationEngine::sequential()
            .with_journal(Some(journal))
            .run_counts(&jobs);

        // Simulate a crash mid-write: drop the last line and leave a torn
        // fragment behind. Resume must skip the fragment, replay the intact
        // prefix, and recompute the rest to the same aggregate counts.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        let torn = format!("{}\n{{\"run\":0,\"idx\":2,\"na", lines.join("\n"));
        std::fs::write(&path, torn).unwrap();

        let resume = Arc::new(ResumeLog::load(&path).unwrap());
        assert_eq!(resume.len(), 2);
        let (_, resumed) = ValidationEngine::new(4)
            .with_resume(Some(resume))
            .run_counts(&jobs);
        assert!(full.same_verdicts(&resumed), "{full:?} vs {resumed:?}");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_counts_aggregates() {
        let (src, tgt) = modules();
        let cfg = EncodeConfig::default();
        let jobs: Vec<Job> = src
            .functions
            .iter()
            .map(|f| Job {
                name: f.name.clone(),
                module: &src,
                src: f,
                tgt: tgt.function(&f.name).unwrap(),
                cfg,
            })
            .collect();
        let (_, counts) = ValidationEngine::new(2).run_counts(&jobs);
        assert_eq!(counts.pairs, 3);
        assert_eq!(counts.correct, 2);
        assert_eq!(counts.incorrect, 1);
        let (_, seq_counts) = ValidationEngine::sequential().run_counts(&jobs);
        assert!(counts.same_verdicts(&seq_counts));
    }

    #[test]
    fn counters_are_deterministic_across_worker_counts() {
        // Every deterministic counter (queries, smt splits, cegqi
        // iterations, instructions encoded, query-cache traffic) must be
        // identical at --jobs 1 and --jobs 4, and so must the verdicts.
        // No run reads its own cache entries, which is what makes the
        // cache counters hold too.
        let (src, tgt) = modules();
        let jobs = jobs_of(&src, &tgt, EncodeConfig::default());
        let (_, c1) = ValidationEngine::sequential().run_counts(&jobs);
        let (_, c4) = ValidationEngine::new(4).run_counts(&jobs);
        assert!(c1.same_verdicts(&c4), "{c1:?} vs {c4:?}");
        assert!(
            c1.stats.same_counters(&c4.stats),
            "{:?} vs {:?}",
            c1.stats,
            c4.stats
        );
    }

    #[test]
    fn term_tier_serves_later_runs_of_the_same_engine_only() {
        // `mul 2` → `add x, x` is wrong only for undef x: refuting it takes
        // a CEGQI loop over the undef choices.
        let src =
            parse_module("define i8 @f(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}")
                .unwrap();
        let tgt =
            parse_module("define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, %x\n  ret i8 %r\n}")
                .unwrap();
        let jobs = jobs_of(&src, &tgt, EncodeConfig::default());
        let engine = ValidationEngine::new(2);
        let (cold_out, cold) = engine.run_counts(&jobs);
        assert!(cold_out[0].verdict.is_incorrect());
        assert!(cold.stats.cegqi_iters > 0, "{:?}", cold.stats);
        // Within one run nothing is shared: the pair twice costs twice.
        let twice = [jobs[0].clone(), jobs[0].clone()];
        let (_, doubled) = ValidationEngine::sequential().run_counts(&twice);
        assert_eq!(doubled.stats.cegqi_iters, 2 * cold.stats.cegqi_iters);
        // Later runs of the engine, and of its clones, answer every
        // obligation from the tier: no loop, no live solve, and the very
        // counterexample the cold run printed.
        for e in [engine.clone(), engine.clone().with_workers(1)] {
            let (warm_out, warm) = e.run_counts(&jobs);
            assert_eq!(warm.stats.cegqi_iters, 0, "{:?}", warm.stats);
            assert_eq!(warm.stats.sat_solves + warm.stats.incremental_solves, 0);
            assert!(warm.stats.cache_hits > 0);
            assert_eq!(
                format!("{:?}", warm_out[0].verdict),
                format!("{:?}", cold_out[0].verdict)
            );
        }
        // An engine built later reads none of it, even where it reuses the
        // dropped one's memory: after an unrelated first run, its second
        // run still runs the pair's CEGQI loop.
        drop(engine);
        let fresh = ValidationEngine::new(2);
        let (osrc, otgt) = modules();
        fresh.run_counts(&jobs_of(&osrc, &otgt, EncodeConfig::default()));
        let (_, again) = fresh.run_counts(&jobs);
        assert_eq!(again.stats.cegqi_iters, cold.stats.cegqi_iters);
        assert_eq!(
            again.stats.incremental_solves,
            cold.stats.incremental_solves
        );
    }
}
