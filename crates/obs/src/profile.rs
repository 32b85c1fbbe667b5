//! Per-query solver profiles: the record of where one SMT check spent
//! its time and how hard the CDCL core worked.
//!
//! The solver layers fill a [`QueryProfile`] per dispatched check (both
//! the one-shot path and the live incremental solver) and hand it to
//! [`record_query`]. Records accumulate in a bounded
//! per-thread ring that the engine drains at job end via [`flush_job`],
//! so memory stays flat at corpus scale no matter how many queries one
//! job issues — a job past the ring cap keeps its newest records and
//! the drop is counted, never silent.
//!
//! Drained profiles feed three sinks:
//! - the per-job latency / CNF-size / conflict histograms (via
//!   [`crate::stats`], journaled with the job so they survive resume
//!   and supervisor shard-merge),
//! - a global top-K (slowest by wall time) kept for the `--stats`
//!   "slowest queries" report,
//! - an optional `--profile FILE` JSON-lines sink, streamed as jobs
//!   finish (never buffered whole).
//!
//! Job attribution rides a thread-local set by the engine around each
//! job ([`set_job`]); the CEGQI loop tags its iteration index the same
//! way ([`set_cegqi_iter`]). Under `--procs N` the profile ring lives in
//! each worker process: the parent's top-K/`--profile` report covers
//! queries solved in-process, while the histograms still aggregate
//! globally through the journaled per-job stats.

use crate::json::esc;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Mutex, OnceLock};

/// Per-job ring capacity: the newest `RING_CAP` query profiles of the
/// running job are retained; older ones are dropped (and counted).
pub const RING_CAP: usize = 1024;

/// How many slowest queries the global collector retains for the report.
pub const TOP_K: usize = 10;

/// How a check interacted with the query cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The path never consulted the cache (incremental solver, rewrite
    /// discharge, a pre-cache fast path, or a one-shot check outside an
    /// engine job, where there is no cache).
    #[default]
    None,
    /// Answered from the cache without solving.
    Hit,
    /// Missed the cache and solved live.
    Miss,
    /// A cached `Sat` model failed re-validation; solved live.
    Reval,
}

impl CacheOutcome {
    fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::None => "none",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Reval => "reval",
        }
    }
}

/// The profile of one SMT check.
#[derive(Clone, Debug, Default)]
pub struct QueryProfile {
    /// Owning job name (filled by [`record_query`] from the engine's
    /// thread-local; empty outside an engine job).
    pub job: String,
    /// Wall time of the whole check, µs.
    pub wall_us: u64,
    /// CNF size as bit-blasted.
    pub vars_pre: u64,
    pub clauses_pre: u64,
    /// The clauses the solver holds at dispatch: those resident after
    /// `add_clause`'s level-0 work (learned ones included on an
    /// incremental solver).
    pub clauses_post: u64,
    /// CDCL search effort of the live solve (zero when nothing solved).
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub restarts: u64,
    /// Learned clauses alive in the solver after the check.
    pub learnts_kept: u64,
    /// Rewrite rule firings while simplifying this check's formula.
    pub rewrite_steps: u64,
    /// The rewrite pass reduced the formula to a literal: no CNF was
    /// built and no solver ran.
    pub discharged: bool,
    /// Query-cache interaction.
    pub cache: CacheOutcome,
    /// Dispatched on a live incremental solver (vs. one-shot).
    pub incremental: bool,
    /// A live CDCL search actually ran (one-shot solve or incremental
    /// check). `sat_solves + incremental_solves` counts exactly these.
    pub solved: bool,
    /// A whole ∃∀ obligation answered without a solve: by the term-tier
    /// cache (`cache` is `hit`), or settled by seed instantiation before
    /// CEGQI (`discharged` is set too). No CNF was built, so the record
    /// adds no CNF-size histogram sample.
    pub obligation: bool,
    /// CEGQI iteration index when issued inside the refinement loop.
    pub cegqi_iter: Option<u64>,
    /// Outcome: "sat", "unsat", "timeout", "oom".
    pub result: &'static str,
}

impl QueryProfile {
    /// One JSON line for the `--profile` sink.
    pub fn to_json_line(&self) -> String {
        let iter = match self.cegqi_iter {
            Some(i) => format!(",\"cegqi_iter\":{i}"),
            None => String::new(),
        };
        let obligation = if self.obligation {
            ",\"obligation\":1"
        } else {
            ""
        };
        format!(
            "{{\"job\":\"{}\",\"wall_us\":{},\"vars_pre\":{},\"clauses_pre\":{},\
             \"clauses_post\":{},\"conflicts\":{},\"decisions\":{},\
             \"propagations\":{},\"restarts\":{},\"learnts_kept\":{},\
             \"rewrite_steps\":{},\"discharged\":{},\"cache\":\"{}\",\
             \"incremental\":{},\"solved\":{}{iter}{obligation},\"result\":\"{}\"}}",
            esc(&self.job),
            self.wall_us,
            self.vars_pre,
            self.clauses_pre,
            self.clauses_post,
            self.conflicts,
            self.decisions,
            self.propagations,
            self.restarts,
            self.learnts_kept,
            self.rewrite_steps,
            self.discharged as u32,
            self.cache.as_str(),
            self.incremental as u32,
            self.solved as u32,
            esc(self.result),
        )
    }
}

// ---- thread-local job context and ring -----------------------------------

thread_local! {
    static CURRENT_JOB: RefCell<String> = const { RefCell::new(String::new()) };
    static CEGQI_ITER: Cell<Option<u64>> = const { Cell::new(None) };
    static RING: RefCell<VecDeque<QueryProfile>> = const { RefCell::new(VecDeque::new()) };
    static RING_DROPPED: Cell<u64> = const { Cell::new(0) };
}

/// Names the job owning subsequent queries on this thread (engine hook).
pub fn set_job(name: &str) {
    CURRENT_JOB.with(|j| {
        let mut j = j.borrow_mut();
        j.clear();
        j.push_str(name);
    });
}

/// Clears the job attribution (engine hook, at job end).
pub fn clear_job() {
    CURRENT_JOB.with(|j| j.borrow_mut().clear());
}

/// Tags queries issued on this thread with a CEGQI iteration index
/// (`None` outside the refinement loop).
pub fn set_cegqi_iter(iter: Option<u64>) {
    CEGQI_ITER.with(|c| c.set(iter));
}

/// Records one finished check: stamps the job/CEGQI context, feeds the
/// per-job histograms, and pushes into the bounded per-job ring.
pub fn record_query(mut p: QueryProfile) {
    p.job = CURRENT_JOB.with(|j| j.borrow().clone());
    p.cegqi_iter = CEGQI_ITER.with(|c| c.get());
    crate::stats::record_query_latency_us(p.wall_us);
    if !p.discharged && !p.obligation {
        crate::stats::record_query_cnf_clauses(p.clauses_post);
    }
    if p.solved {
        crate::stats::record_query_conflicts(p.conflicts);
    }
    RING.with(|r| {
        let mut r = r.borrow_mut();
        if r.len() >= RING_CAP {
            r.pop_front();
            RING_DROPPED.with(|d| d.set(d.get() + 1));
        }
        r.push_back(p);
    });
}

// ---- global collector ----------------------------------------------------

#[derive(Default)]
struct Collector {
    /// Slowest queries seen, sorted descending by wall time, ≤ TOP_K.
    top: Vec<QueryProfile>,
    /// Profiles ingested / of those, live solves.
    total: u64,
    solved: u64,
    /// Profiles lost to per-job ring overflow.
    dropped: u64,
    /// The armed `--profile` sink, if any.
    sink: Option<std::io::BufWriter<std::fs::File>>,
    sink_path: Option<std::path::PathBuf>,
    sink_lines: u64,
}

fn collector() -> &'static Mutex<Collector> {
    static C: OnceLock<Mutex<Collector>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(Collector::default()))
}

/// A read-only snapshot of the collector for report rendering.
#[derive(Clone, Debug, Default)]
pub struct ProfileSummary {
    pub top: Vec<QueryProfile>,
    pub total: u64,
    pub solved: u64,
    pub dropped: u64,
}

/// Arms the `--profile FILE` JSON-lines sink (truncating the file) and
/// resets the collector, so one process can profile several runs.
pub fn arm_sink(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut c = collector().lock().unwrap_or_else(|e| e.into_inner());
    *c = Collector {
        sink: Some(std::io::BufWriter::new(file)),
        sink_path: Some(path.to_path_buf()),
        ..Collector::default()
    };
    Ok(())
}

/// Resets the collector (drops any armed sink). Test hook, and the
/// drivers' way to start a clean profiling window.
pub fn reset() {
    let mut c = collector().lock().unwrap_or_else(|e| e.into_inner());
    *c = Collector::default();
}

/// Drains this thread's per-job ring into the global collector: top-K
/// maintenance plus streaming to the `--profile` sink. Engine hook,
/// called once per finished job (crash paths included — the ring lives
/// outside the unwound stack).
pub fn flush_job() {
    let drained: Vec<QueryProfile> = RING.with(|r| r.borrow_mut().drain(..).collect());
    let ring_dropped = RING_DROPPED.with(|d| d.replace(0));
    if drained.is_empty() && ring_dropped == 0 {
        return;
    }
    let mut c = collector().lock().unwrap_or_else(|e| e.into_inner());
    c.dropped += ring_dropped;
    for p in drained {
        c.total += 1;
        if p.solved {
            c.solved += 1;
        }
        if let Some(sink) = c.sink.as_mut() {
            if writeln!(sink, "{}", p.to_json_line()).is_ok() {
                c.sink_lines += 1;
            }
        }
        // Insertion sort into the bounded top-K (descending wall time).
        let pos = c
            .top
            .iter()
            .position(|q| q.wall_us < p.wall_us)
            .unwrap_or(c.top.len());
        if pos < TOP_K {
            c.top.insert(pos, p);
            c.top.truncate(TOP_K);
        }
    }
}

/// Snapshots the collector for rendering.
pub fn summary() -> ProfileSummary {
    let c = collector().lock().unwrap_or_else(|e| e.into_inner());
    ProfileSummary {
        top: c.top.clone(),
        total: c.total,
        solved: c.solved,
        dropped: c.dropped,
    }
}

/// Flushes the `--profile` sink, appending one trailing metadata line
/// with the per-rule-family rewrite fire counts and the profile totals.
/// Returns the sink path and per-query line count when a sink was armed.
pub fn finish_sink(
    totals: &crate::stats::StatsTotals,
) -> std::io::Result<Option<(std::path::PathBuf, u64)>> {
    let mut c = collector().lock().unwrap_or_else(|e| e.into_inner());
    let lines = c.sink_lines;
    let dropped = c.dropped;
    let (total, solved) = (c.total, c.solved);
    let Some(mut sink) = c.sink.take() else {
        return Ok(None);
    };
    let path = c.sink_path.take().expect("sink path set with sink");
    drop(c);
    writeln!(
        sink,
        "{{\"rule_fires\":{{\"sum_normalize\":{},\"bitwise_absorb\":{},\
         \"shift_extract\":{},\"ite_cmp\":{},\"eq_cancel\":{},\"div_fold\":{},\
         \"total_steps\":{}}},\"profiles\":{total},\"solved\":{solved},\
         \"ring_dropped\":{dropped}}}",
        totals.rw_sum_normalize,
        totals.rw_bitwise_absorb,
        totals.rw_shift_extract,
        totals.rw_ite_cmp,
        totals.rw_eq_cancel,
        totals.rw_div_fold,
        totals.rewrite_steps,
    )?;
    sink.flush()?;
    Ok(Some((path, lines)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, MutexGuard};

    // The collector and ring are process/thread-global: serialize tests.
    static LOCK: TestMutex<()> = TestMutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        RING.with(|r| r.borrow_mut().clear());
        RING_DROPPED.with(|d| d.set(0));
        clear_job();
        set_cegqi_iter(None);
        g
    }

    fn probe(wall: u64) -> QueryProfile {
        QueryProfile {
            wall_us: wall,
            solved: true,
            result: "unsat",
            ..QueryProfile::default()
        }
    }

    #[test]
    fn record_stamps_job_and_iter_and_topk_ranks_by_wall() {
        let _g = guard();
        set_job("pair-a");
        set_cegqi_iter(Some(3));
        for w in [5u64, 900, 20, 700, 1] {
            record_query(probe(w));
        }
        set_cegqi_iter(None);
        flush_job();
        clear_job();
        let s = summary();
        assert_eq!(s.total, 5);
        assert_eq!(s.solved, 5);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.top[0].wall_us, 900);
        assert_eq!(s.top[1].wall_us, 700);
        assert_eq!(s.top[0].job, "pair-a");
        assert_eq!(s.top[0].cegqi_iter, Some(3));
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let _g = guard();
        set_job("hog");
        for w in 0..(RING_CAP as u64 + 10) {
            record_query(probe(w));
        }
        flush_job();
        let s = summary();
        assert_eq!(s.total, RING_CAP as u64);
        assert_eq!(s.dropped, 10);
        // The ring keeps the *newest* records: the slowest survive here.
        assert_eq!(s.top[0].wall_us, RING_CAP as u64 + 9);
    }

    #[test]
    fn sink_streams_json_lines_and_trailer() {
        let _g = guard();
        let path = std::env::temp_dir().join(format!("alive2-prof-{}.jsonl", std::process::id()));
        arm_sink(&path).unwrap();
        set_job("sinky");
        record_query(probe(42));
        record_query(QueryProfile {
            wall_us: 7,
            discharged: true,
            result: "unsat",
            ..QueryProfile::default()
        });
        flush_job();
        let totals = crate::stats::StatsTotals {
            rw_sum_normalize: 2,
            rewrite_steps: 5,
            ..crate::stats::StatsTotals::default()
        };
        let (got, lines) = finish_sink(&totals).unwrap().expect("sink armed");
        assert_eq!(got, path);
        assert_eq!(lines, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 3, "{text}");
        for row in &rows {
            crate::json::JsonValue::parse(row).expect("each profile line parses");
        }
        assert!(rows[0].contains("\"job\":\"sinky\""));
        assert!(rows[0].contains("\"solved\":1"));
        assert!(rows[1].contains("\"discharged\":1"));
        assert!(rows[2].contains("\"rule_fires\""));
        assert!(rows[2].contains("\"sum_normalize\":2"));
        assert!(finish_sink(&totals).unwrap().is_none(), "sink disarmed");
        let _ = std::fs::remove_file(&path);
    }
}
