//! Per-job counters and run-level totals.
//!
//! The instrumented layers bump plain thread-local counters — always on,
//! no gating, since a `Cell` increment is a few nanoseconds and the
//! journal needs per-job counters even in un-instrumented runs (crash
//! triage, `--resume` telemetry). A job's worth of activity is carved
//! out of the monotonic thread-locals with a snapshot/delta pair:
//! the engine snapshots before running a job and
//! [`JobStats::absorb_since`] takes the difference after, so nested
//! scopes and consecutive jobs on one worker thread never double count.
//!
//! [`JobStats`] is the per-job record (journaled, attached to every
//! [`Outcome`](../../alive2_core/engine/struct.Outcome.html));
//! [`StatsTotals`] is the run-level aggregate embedded in `Counts` and in
//! every driver's summary JSON.
//!
//! Every counter is declared once, as one row of the `counters!` table
//! below. The row generates its thread-local slot, its recorder, its
//! field in both records, its share of the snapshot delta, the
//! aggregation and the parity check, its JSON key in both encoders and
//! decoders, and its line in the `--stats` report. The fields a row
//! cannot express (the job header, the nested histograms, the memory
//! peak, and the supervision counters whose totals keys differ from
//! their job keys) are written by hand next to the table.

use crate::hist::Hist;
use crate::json::JsonValue;
use crate::span::Phase;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;

/// Whether a counter must agree between runs that differ only in
/// scheduling: `--jobs N` against `--jobs 1`, `--procs N` against
/// `--procs 1`, and a resumed run against an uninterrupted one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Deterministic per job; compared by [`StatsTotals::same_counters`].
    /// Query-cache traffic is too: no run reads its own entries.
    Det,
    /// Wall-clock and queue time.
    Time,
    /// Supervision events, fault-dependent by construction. The
    /// supervision counters are hand-written beside the table (their
    /// totals keys differ from their job keys), and like every
    /// non-`Det` counter they are left out of `same_counters`.
    Fault,
}

/// The `--stats` report line a counter is printed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    Smt,
    Cegqi,
    Cache,
    Incremental,
    Rewrite,
    RuleFires,
    Encode,
    Terms,
    Busy,
}

impl Group {
    /// Every group, in report order.
    pub const ALL: [Group; 9] = [
        Group::Smt,
        Group::Cegqi,
        Group::Cache,
        Group::Incremental,
        Group::Rewrite,
        Group::RuleFires,
        Group::Encode,
        Group::Terms,
        Group::Busy,
    ];

    /// The report line's title.
    pub fn title(self) -> &'static str {
        match self {
            Group::Smt => "smt checks",
            Group::Cegqi => "cegqi",
            Group::Cache => "query cache",
            Group::Incremental => "incremental solver",
            Group::Rewrite => "term rewriting",
            Group::RuleFires => "rule fires",
            Group::Encode => "encoding",
            Group::Terms => "term context",
            Group::Busy => "per-job busy",
        }
    }
}

/// One row of the counter table, as the report and the tests see it.
#[derive(Clone, Copy, Debug)]
pub struct Counter {
    /// Key in the journal and summary `stats` objects.
    pub key: &'static str,
    pub class: Class,
    pub group: Group,
    /// Name on the `--stats` report line.
    pub label: &'static str,
}

/// Where a row's per-job value comes from.
enum Source {
    /// A thread-local counter, bumped by the row's recorder (the rule
    /// families by [`record_rewrite_family`]).
    Thread,
    /// Nanoseconds that span close adds to a thread-local
    /// ([`add_phase_ns`]); the job keeps microseconds.
    Span,
    /// Set on the record by the validator or the engine.
    Job,
}

/// Declares the counter table. A row reads
///
/// ```text
/// /// doc
/// field: u32 = "json_key", Class, Group "report label", Source recorder(n);
/// ```
///
/// where the recorder is optional and takes `n: u64` when written with
/// an argument (else it counts one). Rows come in runs, `fn name { … }`:
/// the named method writes the run's keys to JSON, so the encoders can
/// place the hand-written keys between runs, in the order the journal
/// has always used.
macro_rules! counters {
    (@recorder $field:ident [$($doc:tt)*]) => {};
    (@recorder $field:ident [$($doc:tt)*] $rec:ident()) => {
        $($doc)*
        pub fn $rec() {
            bump(Row::$field, 1);
        }
    };
    (@recorder $field:ident [$($doc:tt)*] $rec:ident($n:ident)) => {
        $($doc)*
        pub fn $rec($n: u64) {
            bump(Row::$field, $n);
        }
    };
    ($(fn $run:ident {$(
        $(#[$doc:meta])*
        $field:ident: $ty:ident = $key:literal, $class:ident, $group:ident $label:literal,
            $src:ident $($rec:ident($($n:ident)?))?;
    )*})*) => {
        /// Row indices, which are also the thread-local slots.
        #[allow(non_camel_case_types)]
        enum Row {
            $($($field,)*)*
        }

        const ROWS: usize = [$($(Row::$field,)*)*].len();

        /// The table's rows, in row order (which is JSON order).
        pub const COUNTERS: [Counter; ROWS] = [$($(Counter {
            key: $key,
            class: Class::$class,
            group: Group::$group,
            label: $label,
        },)*)*];

        $($(counters!(@recorder $field [$(#[$doc])*] $($rec($($n)?))?);)*)*

        /// Statistics for one validation job. Journaled alongside the
        /// verdict (so `--resume` reconstructs run telemetry) and attached
        /// to crash outcomes as the partial record of how far the job got.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct JobStats {
            /// Refinement queries dispatched (§5.3 steps).
            pub queries: u32,
            /// Wall-clock milliseconds for the job.
            pub millis: u64,
            /// Furthest lifecycle phase reached; `Done` for conclusive
            /// verdicts, the firing phase for Timeout/OOM/Crash.
            pub phase: Phase,
            $($($(#[$doc])* pub $field: $ty,)*)*
            /// Query-metric histograms: wall latency per check (µs),
            /// resident CNF clauses per check, CDCL conflicts per live
            /// solve. Journaled with the job, so they survive `--resume`
            /// and shard merge. Only the CNF histogram is deterministic
            /// across parallelism (a cache hit replays the sample of the
            /// solve that wrote the entry), so only its buckets are
            /// compared by [`StatsTotals::same_counters`].
            pub h_latency_us: Hist,
            pub h_cnf_clauses: Hist,
            pub h_conflicts: Hist,
            /// Peak estimated term memory (the `Ctx` allocation meter).
            pub mem_bytes: u64,
            /// 1 when the process supervisor quarantined the pair (its
            /// worker process kept dying or hanging on it), else 0.
            /// Quarantined pairs carry a synthesized Crash/Timeout verdict.
            pub quarantined: u32,
            /// 1 when the quarantine was caused by the per-shard watchdog
            /// SIGKILLing a hung worker (the verdict is Timeout), else 0.
            pub watchdog_kill: u32,
        }

        /// Run-level aggregate of [`JobStats`], embedded in `Counts` and
        /// in the drivers' summary JSON.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct StatsTotals {
            /// Jobs aggregated (incl. synthesized outcomes for skipped pairs).
            pub jobs: u64,
            pub queries: u64,
            $($($(#[$doc])* pub $field: u64,)*)*
            /// Merged query histograms (bucket-wise sums of the per-job ones).
            pub h_latency_us: Hist,
            pub h_cnf_clauses: Hist,
            pub h_conflicts: Hist,
            /// Maximum per-job peak term memory seen.
            pub mem_peak_bytes: u64,
            /// Pairs quarantined by the supervisor (`--procs N`).
            pub pairs_quarantined: u64,
            /// Quarantined pairs whose worker the watchdog SIGKILLed.
            pub watchdog_kills: u64,
            /// Replacement worker processes spawned after an abnormal
            /// child exit (a run-level event the engine folds in).
            pub worker_restarts: u64,
            /// Shard retry events: backoff requeues and crash bisections.
            pub shards_retried: u64,
        }

        impl JobStats {
            fn absorb_rows(&mut self, now: &[u64; ROWS], snap: &[u64; ROWS]) {
                $($(
                    let d = now[Row::$field as usize].saturating_sub(snap[Row::$field as usize]);
                    match Source::$src {
                        Source::Thread => self.$field = d as $ty,
                        Source::Span => self.$field = (d / 1_000) as $ty,
                        Source::Job => {}
                    }
                )*)*
            }

            fn read_rows(&mut self, v: &JsonValue) {
                $($(self.$field = v.num($key) as $ty;)*)*
            }

            $(fn $run(&self, out: &mut String) {
                $(let _ = write!(out, concat!(",\"", $key, "\":{}"), self.$field);)*
            })*
        }

        impl StatsTotals {
            fn add_rows(&mut self, job: &JobStats) {
                $($(self.$field += u64::from(job.$field);)*)*
            }

            fn merge_rows(&mut self, other: &StatsTotals) {
                $($(self.$field += other.$field;)*)*
            }

            fn same_rows(&self, other: &StatsTotals) -> bool {
                true $($(&& (Class::$class != Class::Det || self.$field == other.$field))*)*
            }

            fn read_rows(&mut self, v: &JsonValue) {
                $($(self.$field = v.num($key);)*)*
            }

            /// The table's counters in row order, matching [`COUNTERS`].
            pub fn values(&self) -> [u64; ROWS] {
                [$($(self.$field,)*)*]
            }

            $(fn $run(&self, out: &mut String) {
                $(let _ = write!(out, concat!(",\"", $key, "\":{}"), self.$field);)*
            })*
        }
    };
}

counters! {
    fn write_solver_rows {
        /// SMT checks answered `Sat`.
        smt_sat: u32 = "sat", Det, Smt "sat", Thread record_smt_sat();
        /// SMT checks answered `Unsat`.
        smt_unsat: u32 = "unsat", Det, Smt "unsat", Thread record_smt_unsat();
        /// SMT checks with no answer (timeout or memory exhaustion).
        smt_unknown: u32 = "unknown", Det, Smt "unknown", Thread record_smt_unknown();
        /// CEGQI refinement-loop iterations, across all queries.
        cegqi_iters: u32 = "cegqi", Det, Cegqi "iterations", Thread record_cegqi_iter();
        /// IR instructions encoded (source + target).
        insts_encoded: u32 = "insts", Det, Encode "instructions",
            Thread record_insts_encoded(n);
        /// §3.8 over-approximations applied while encoding.
        approx: u32 = "approx", Det, Encode "approximations", Thread record_approx();
        /// Live one-shot SAT solves: every blasted one-shot check not
        /// answered from the query cache.
        sat_solves: u32 = "sat_solves", Det, Cache "live SAT solves",
            Thread record_sat_solve();
        /// SMT checks answered from the query cache.
        cache_hits: u32 = "cache_hits", Det, Cache "hits", Thread record_cache_hit();
        /// One-shot checks inside an engine job that missed the query
        /// cache and solved live.
        cache_misses: u32 = "cache_misses", Det, Cache "misses", Thread record_cache_miss();
        /// Cached `Sat` models that failed re-validation and fell back to a
        /// live solve (counted in addition to the miss-path live solve).
        cache_reval: u32 = "cache_reval", Det, Cache "revalidation misses",
            Thread record_cache_reval();
        /// Checks dispatched on a live incremental solver, which is private
        /// to its job (not counted as a live one-shot solve).
        incremental_solves: u32 = "incremental_solves", Det, Incremental "checks",
            Thread record_incremental_solve();
        /// Clauses already resident in a warm incremental solver that a
        /// check reused instead of re-blasting and re-loading them.
        clauses_reused: u64 = "clauses_reused", Det, Incremental "clauses reused",
            Thread record_clauses_reused(n);
        /// Learned clauses alive in a warm solver at the start of an
        /// incremental check (the warm-start payload).
        learnts_kept: u64 = "learnts_kept", Det, Incremental "learnts kept",
            Thread record_learnts_kept(n);
        /// Incremental checks that came back unsat under assumptions with a
        /// non-trivial failed-assumption core.
        assumption_cores: u32 = "assumption_cores", Det, Incremental "assumption cores",
            Thread record_assumption_core();
        /// CEGQI loops that gave up at their iteration cap (a timeout
        /// verdict, distinct from a wall-clock timeout).
        cegqi_iter_exhausted: u32 = "cegqi_iter_exhausted", Det, Cegqi "iteration cap exhausted",
            Thread record_cegqi_iter_exhausted();
        /// Obligations the term-rewrite pass reduced to a boolean literal:
        /// no CNF was built and no solver ran.
        rewrite_discharged: u32 = "rewrite_discharged", Det, Rewrite "discharged",
            Thread record_rewrite_discharged();
        /// Rewrite rules fired while simplifying obligations.
        rewrite_steps: u64 = "rewrite_steps", Det, Rewrite "rule steps",
            Thread record_rewrite_steps(n);
        /// Rewritten obligations that did not reach a literal and fell
        /// through to bit-blasting.
        rewrite_residue: u32 = "rewrite_residue", Det, Rewrite "residue",
            Thread record_rewrite_residue();
        /// Rule fires per [`RewriteFamily`]; the six partition the rule steps.
        rw_sum_normalize: u64 = "rw_sum", Det, RuleFires "sum-normalize", Thread;
        rw_bitwise_absorb: u64 = "rw_bitwise", Det, RuleFires "bitwise-absorb", Thread;
        rw_shift_extract: u64 = "rw_shift", Det, RuleFires "shift/extract", Thread;
        rw_ite_cmp: u64 = "rw_itecmp", Det, RuleFires "ite/cmp", Thread;
        rw_eq_cancel: u64 = "rw_eq", Det, RuleFires "eq-cancel", Thread;
        rw_div_fold: u64 = "rw_div", Det, RuleFires "div-fold", Thread;
    }
    // The nested `hist` object comes here.
    fn write_term_rows {
        /// Term-DAG nodes live in the job's context at completion.
        terms: u32 = "terms", Det, Terms "nodes", Job;
        /// Hash-cons lookups that hit an existing node.
        hc_hits: u64 = "hc_hits", Det, Terms "hash-cons hits", Job;
        /// Hash-cons lookups that allocated a new node.
        hc_misses: u64 = "hc_misses", Det, Terms "hash-cons misses", Job;
    }
    // The memory peak comes here.
    fn write_busy_rows {
        /// Busy time inside encode spans, µs (0 unless `--stats`/`--trace`).
        encode_us: u64 = "encode_us", Time, Busy "encode us", Span;
        /// Busy time inside solve spans, µs (0 unless `--stats`/`--trace`).
        solve_us: u64 = "solve_us", Time, Busy "solve us", Span;
        /// Milliseconds between run start and the job's pickup.
        queue_ms: u64 = "queue_ms", Time, Busy "queue wait ms", Job;
    }
    // The supervision counters come last.
}

// ---- thread-local monotonic counters -------------------------------------

/// The per-thread query histograms, updated in place: a histogram record
/// touches one bucket, not 1.5 KB of array.
#[derive(Clone, Copy, Debug, Default)]
struct HistBlock {
    latency_us: Hist,
    cnf_clauses: Hist,
    conflicts: Hist,
}

thread_local! {
    static COUNTS: [Cell<u64>; ROWS] = const { [const { Cell::new(0) }; ROWS] };
    static HISTS: RefCell<HistBlock> = RefCell::new(HistBlock::default());
}

fn bump(row: Row, n: u64) {
    COUNTS.with(|c| {
        let slot = &c[row as usize];
        slot.set(slot.get() + n);
    });
}

/// The current thread's monotonic rule-step total. The profiling
/// layer brackets a simplify call with two reads to attribute rule
/// firings to one query.
pub fn rewrite_steps_now() -> u64 {
    COUNTS.with(|c| c[Row::rewrite_steps as usize].get())
}

/// The rewrite rule families tracked per fire (satellite of the
/// profiling layer). The family sums partition the rule steps exactly:
/// every dispatch arm of `rewrite_node` maps to one family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RewriteFamily {
    /// `bvadd`/`bvsub`/`bvneg`/`bvmul` ring normalization.
    SumNormalize,
    /// Boolean and bit-vector chain flattening / complement / absorption.
    BitwiseAbsorb,
    /// Shift, extract, extend, and concat fusion.
    ShiftExtract,
    /// `ite` and comparison canonicalization.
    IteCmp,
    /// Equality cancellation.
    EqCancel,
    /// SMT-LIB-total division/remainder folds.
    DivFold,
}

/// `n` rewrite rules of one family fired (in addition to the aggregate
/// counted by [`record_rewrite_steps`], kept for journal back-compat).
pub fn record_rewrite_family(family: RewriteFamily, n: u64) {
    if n == 0 {
        return;
    }
    bump(
        match family {
            RewriteFamily::SumNormalize => Row::rw_sum_normalize,
            RewriteFamily::BitwiseAbsorb => Row::rw_bitwise_absorb,
            RewriteFamily::ShiftExtract => Row::rw_shift_extract,
            RewriteFamily::IteCmp => Row::rw_ite_cmp,
            RewriteFamily::EqCancel => Row::rw_eq_cancel,
            RewriteFamily::DivFold => Row::rw_div_fold,
        },
        n,
    );
}

/// One query took `us` µs of wall time (histogram sample).
pub fn record_query_latency_us(us: u64) {
    HISTS.with(|h| h.borrow_mut().latency_us.record(us));
}

/// One query's CNF had `n` clauses resident in the solver at dispatch
/// (histogram sample; a cache hit replays the sample of the solve that
/// wrote the entry, so the distribution is deterministic across
/// parallelism levels).
pub fn record_query_cnf_clauses(n: u64) {
    HISTS.with(|h| h.borrow_mut().cnf_clauses.record(n));
}

/// One live solve hit `n` conflicts (histogram sample).
pub fn record_query_conflicts(n: u64) {
    HISTS.with(|h| h.borrow_mut().conflicts.record(n));
}

/// Span-close hook: folds an accumulating span's duration into the
/// thread's per-job encode/solve time (only those two are job-attributed).
pub(crate) fn add_phase_ns(phase: Phase, ns: u64) {
    match phase {
        Phase::Encode => bump(Row::encode_us, ns),
        Phase::Solve => bump(Row::solve_us, ns),
        _ => {}
    }
}

/// An opaque snapshot of this thread's counters; see [`JobStats::absorb_since`].
#[derive(Clone, Copy, Debug)]
pub struct CounterSnapshot {
    counts: [u64; ROWS],
    hists: HistBlock,
}

fn counts_now() -> [u64; ROWS] {
    COUNTS.with(|c| std::array::from_fn(|i| c[i].get()))
}

/// Snapshots the current thread's monotonic counters and histograms.
pub fn counters_snapshot() -> CounterSnapshot {
    CounterSnapshot {
        counts: counts_now(),
        hists: HISTS.with(|h| *h.borrow()),
    }
}

// ---- JSON helpers --------------------------------------------------------

/// Writes the nested `hist` object (latency, CNF size, conflicts).
fn write_hists(out: &mut String, [latency, cnf, conflicts]: [&Hist; 3]) {
    let _ = write!(
        out,
        ",\"hist\":{{\"latency_us\":{},\"cnf_clauses\":{},\"conflicts\":{}}}",
        latency.to_json_obj(),
        cnf.to_json_obj(),
        conflicts.to_json_obj()
    );
}

/// Reads the nested `hist` object; a missing histogram is empty, so
/// pre-histogram journals stay loadable.
fn read_hists(v: &JsonValue) -> [Hist; 3] {
    ["latency_us", "cnf_clauses", "conflicts"].map(|name| {
        v.get("hist")
            .and_then(|h| h.get(name))
            .map(Hist::from_json)
            .unwrap_or_default()
    })
}

// ---- per-job stats -------------------------------------------------------

impl JobStats {
    /// Fills the counter fields from the difference between the current
    /// thread counters and `snap` (taken when the job started). The
    /// deltas *overwrite*; call once, at job end (or at the crash site).
    pub fn absorb_since(&mut self, snap: &CounterSnapshot) {
        self.absorb_rows(&counts_now(), &snap.counts);
        let hists = HISTS.with(|h| *h.borrow());
        self.h_latency_us = hists.latency_us.delta_since(&snap.hists.latency_us);
        self.h_cnf_clauses = hists.cnf_clauses.delta_since(&snap.hists.cnf_clauses);
        self.h_conflicts = hists.conflicts.delta_since(&snap.hists.conflicts);
    }

    /// Renders the journal/summary `stats` object.
    pub fn to_json_obj(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"phase\":\"{}\",\"queries\":{},\"millis\":{}",
            self.phase.as_str(),
            self.queries,
            self.millis
        );
        self.write_solver_rows(&mut out);
        write_hists(
            &mut out,
            [&self.h_latency_us, &self.h_cnf_clauses, &self.h_conflicts],
        );
        self.write_term_rows(&mut out);
        let _ = write!(out, ",\"mem_bytes\":{}", self.mem_bytes);
        self.write_busy_rows(&mut out);
        let _ = write!(
            out,
            ",\"quarantined\":{},\"watchdog_kill\":{}}}",
            self.quarantined, self.watchdog_kill
        );
        out
    }

    /// Rebuilds stats from a parsed `stats` object. Tolerant: absent
    /// fields default to zero so old journals stay loadable.
    pub fn from_json(v: &JsonValue) -> JobStats {
        let [h_latency_us, h_cnf_clauses, h_conflicts] = read_hists(v);
        let mut s = JobStats {
            queries: v.num("queries") as u32,
            millis: v.num("millis"),
            phase: v
                .get("phase")
                .and_then(JsonValue::as_str)
                .and_then(Phase::from_name)
                .unwrap_or_default(),
            h_latency_us,
            h_cnf_clauses,
            h_conflicts,
            mem_bytes: v.num("mem_bytes"),
            quarantined: v.num("quarantined") as u32,
            watchdog_kill: v.num("watchdog_kill") as u32,
            ..JobStats::default()
        };
        s.read_rows(v);
        s
    }
}

// ---- run-level totals ----------------------------------------------------

impl StatsTotals {
    /// Folds one job's stats in.
    pub fn add_job(&mut self, s: &JobStats) {
        self.jobs += 1;
        self.queries += u64::from(s.queries);
        self.add_rows(s);
        self.h_latency_us.merge(&s.h_latency_us);
        self.h_cnf_clauses.merge(&s.h_cnf_clauses);
        self.h_conflicts.merge(&s.h_conflicts);
        self.mem_peak_bytes = self.mem_peak_bytes.max(s.mem_bytes);
        self.pairs_quarantined += u64::from(s.quarantined);
        self.watchdog_kills += u64::from(s.watchdog_kill);
    }

    /// Merges another total (multi-run drivers).
    pub fn merge(&mut self, other: &StatsTotals) {
        self.jobs += other.jobs;
        self.queries += other.queries;
        self.merge_rows(other);
        self.h_latency_us.merge(&other.h_latency_us);
        self.h_cnf_clauses.merge(&other.h_cnf_clauses);
        self.h_conflicts.merge(&other.h_conflicts);
        self.mem_peak_bytes = self.mem_peak_bytes.max(other.mem_peak_bytes);
        self.pairs_quarantined += other.pairs_quarantined;
        self.watchdog_kills += other.watchdog_kills;
        self.worker_restarts += other.worker_restarts;
        self.shards_retried += other.shards_retried;
    }

    /// True when every deterministic counter matches `other`: the `Det`
    /// rows plus the job and query counts, the CNF-size buckets and the
    /// memory peak. This is the invariant `--jobs N` preserves against
    /// `--jobs 1`, `--procs N` against `--procs 1`, and a resumed run
    /// against an uninterrupted one.
    pub fn same_counters(&self, other: &StatsTotals) -> bool {
        self.jobs == other.jobs
            && self.queries == other.queries
            && self.same_rows(other)
            && self.h_cnf_clauses.buckets() == other.h_cnf_clauses.buckets()
            && self.mem_peak_bytes == other.mem_peak_bytes
    }

    /// Renders the summary-JSON `stats` object.
    pub fn to_json_obj(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(out, "{{\"jobs\":{},\"queries\":{}", self.jobs, self.queries);
        self.write_solver_rows(&mut out);
        write_hists(
            &mut out,
            [&self.h_latency_us, &self.h_cnf_clauses, &self.h_conflicts],
        );
        self.write_term_rows(&mut out);
        let _ = write!(out, ",\"mem_peak_bytes\":{}", self.mem_peak_bytes);
        self.write_busy_rows(&mut out);
        let _ = write!(
            out,
            ",\"pairs_quarantined\":{},\"watchdog_kills\":{},\"worker_restarts\":{},\
             \"shards_retried\":{}}}",
            self.pairs_quarantined, self.watchdog_kills, self.worker_restarts, self.shards_retried
        );
        out
    }

    /// Rebuilds totals from a parsed summary `stats` object (tolerant).
    pub fn from_json(v: &JsonValue) -> StatsTotals {
        let [h_latency_us, h_cnf_clauses, h_conflicts] = read_hists(v);
        let mut t = StatsTotals {
            jobs: v.num("jobs"),
            queries: v.num("queries"),
            h_latency_us,
            h_cnf_clauses,
            h_conflicts,
            mem_peak_bytes: v.num("mem_peak_bytes"),
            pairs_quarantined: v.num("pairs_quarantined"),
            watchdog_kills: v.num("watchdog_kills"),
            worker_restarts: v.num("worker_restarts"),
            shards_retried: v.num("shards_retried"),
            ..StatsTotals::default()
        };
        t.read_rows(v);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_isolates_a_scope() {
        let outer = counters_snapshot();
        record_smt_sat();
        let inner = counters_snapshot();
        record_smt_unsat();
        record_smt_unsat();
        record_cegqi_iter();

        let mut job = JobStats::default();
        job.absorb_since(&inner);
        assert_eq!(job.smt_sat, 0, "sat happened before the inner snapshot");
        assert_eq!(job.smt_unsat, 2);
        assert_eq!(job.cegqi_iters, 1);

        let mut whole = JobStats::default();
        whole.absorb_since(&outer);
        assert_eq!(whole.smt_sat, 1);
        assert_eq!(whole.smt_unsat, 2);
    }

    /// The hand-written keys of a job `stats` object, with distinct values.
    const JOB_KEYS: &str = "\"phase\":\"solve\",\"queries\":7,\"millis\":42,\
        \"hist\":{\"latency_us\":{\"n\":2,\"b\":[[7,1],[12,1]]},\
        \"cnf_clauses\":{\"n\":1,\"b\":[[9,1]]},\"conflicts\":{\"n\":0,\"b\":[]}},\
        \"mem_bytes\":65536,\"quarantined\":1,\"watchdog_kill\":1";

    /// The hand-written keys of a summary `stats` object.
    const TOTALS_KEYS: &str = "\"jobs\":3,\"queries\":9,\
        \"hist\":{\"latency_us\":{\"n\":1,\"b\":[[4,1]]},\
        \"cnf_clauses\":{\"n\":2,\"b\":[[3,2]]},\"conflicts\":{\"n\":1,\"b\":[[1,1]]}},\
        \"mem_peak_bytes\":4096,\"pairs_quarantined\":2,\"watchdog_kills\":1,\
        \"worker_restarts\":3,\"shards_retried\":5";

    /// A `stats` object holding `hand` plus every row, row `i` set to
    /// `value(i)`.
    fn object(hand: &str, value: impl Fn(usize) -> u64) -> JsonValue {
        let mut text = format!("{{{hand}");
        for (i, c) in COUNTERS.iter().enumerate() {
            let _ = write!(text, ",\"{}\":{}", c.key, value(i));
        }
        text.push('}');
        JsonValue::parse(&text).expect("valid JSON")
    }

    fn distinct(i: usize) -> u64 {
        1_000 + i as u64
    }

    /// Every key of `hand` and every row survives into `text` with its
    /// value, and decoding `text` re-encodes it byte for byte.
    fn assert_round_trip(hand: &str, text: &str, decode_encode: impl Fn(&JsonValue) -> String) {
        let v = JsonValue::parse(text).expect("valid JSON");
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(v.num(c.key), distinct(i), "row `{}` in {text}", c.key);
        }
        let want = JsonValue::parse(&format!("{{{hand}}}")).unwrap();
        let JsonValue::Obj(fields) = &want else {
            unreachable!()
        };
        for (key, value) in fields {
            assert_eq!(v.get(key), Some(value), "key `{key}` in {text}");
        }
        assert_eq!(decode_encode(&v), text);
    }

    #[test]
    fn every_row_round_trips_byte_for_byte() {
        let job = JobStats::from_json(&object(JOB_KEYS, distinct)).to_json_obj();
        assert_round_trip(JOB_KEYS, &job, |v| JobStats::from_json(v).to_json_obj());
        let totals = StatsTotals::from_json(&object(TOTALS_KEYS, distinct)).to_json_obj();
        assert_round_trip(TOTALS_KEYS, &totals, |v| {
            StatsTotals::from_json(v).to_json_obj()
        });
    }

    #[test]
    fn changing_a_row_breaks_parity_exactly_when_it_is_det() {
        let base = StatsTotals::from_json(&object(TOTALS_KEYS, distinct));
        for (i, c) in COUNTERS.iter().enumerate() {
            let changed =
                StatsTotals::from_json(&object(TOTALS_KEYS, |j| distinct(j) + u64::from(j == i)));
            assert_eq!(
                base.same_counters(&changed),
                c.class != Class::Det,
                "row `{}` ({:?})",
                c.key,
                c.class
            );
        }
    }

    #[test]
    fn add_job_and_merge_sum_every_row() {
        let job = JobStats::from_json(&object(JOB_KEYS, distinct));
        let mut added = StatsTotals::default();
        added.add_job(&job);
        added.add_job(&job);
        let mut merged = added;
        merged.merge(&added);
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(added.values()[i], 2 * distinct(i), "add_job `{}`", c.key);
            assert_eq!(merged.values()[i], 4 * distinct(i), "merge `{}`", c.key);
        }
        assert_eq!((added.jobs, added.queries), (2, 14));
        assert_eq!((merged.jobs, merged.queries), (4, 28));
        assert_eq!((merged.pairs_quarantined, merged.watchdog_kills), (4, 4));
        assert_eq!(merged.h_latency_us.count(), 8);
        // The memory peak is the one field that takes the maximum.
        assert_eq!(
            (added.mem_peak_bytes, merged.mem_peak_bytes),
            (65536, 65536)
        );
    }

    #[test]
    fn supervision_counters_aggregate_but_do_not_break_parity() {
        let mut a = StatsTotals::default();
        a.add_job(&JobStats {
            quarantined: 1,
            watchdog_kill: 1,
            ..JobStats::default()
        });
        a.add_job(&JobStats {
            quarantined: 1,
            ..JobStats::default()
        });
        assert_eq!(a.pairs_quarantined, 2);
        assert_eq!(a.watchdog_kills, 1);

        // A faultless procs-1 run has zero supervision counters; parity
        // against a supervised run with quarantines must still hold on
        // the deterministic counters.
        let clean = StatsTotals {
            jobs: a.jobs,
            ..StatsTotals::default()
        };
        let mut b = a;
        b.worker_restarts = 3;
        b.shards_retried = 5;
        assert!(clean.same_counters(&b));

        let v = JsonValue::parse(&b.to_json_obj()).unwrap();
        let back = StatsTotals::from_json(&v);
        assert_eq!(back.pairs_quarantined, 2);
        assert_eq!(back.watchdog_kills, 1);
        assert_eq!(back.worker_restarts, 3);
        assert_eq!(back.shards_retried, 5);
    }

    #[test]
    fn query_hists_and_families_carve_per_job() {
        record_query_latency_us(999); // before the snapshot: excluded
        let snap = counters_snapshot();
        record_query_latency_us(10);
        record_query_cnf_clauses(256);
        record_query_conflicts(3);
        record_rewrite_family(RewriteFamily::SumNormalize, 4);
        record_rewrite_family(RewriteFamily::DivFold, 1);
        record_rewrite_family(RewriteFamily::EqCancel, 0); // no-op
        let mut job = JobStats::default();
        job.absorb_since(&snap);
        assert_eq!(job.h_latency_us.count(), 1);
        assert_eq!(job.h_cnf_clauses.count(), 1);
        assert_eq!(job.h_conflicts.count(), 1);
        assert_eq!(job.rw_sum_normalize, 4);
        assert_eq!(job.rw_div_fold, 1);
        assert_eq!(job.rw_eq_cancel, 0);

        // Parity compares the deterministic CNF buckets only: latency
        // and conflicts may differ without breaking same_counters.
        let mut a = StatsTotals::default();
        a.add_job(&job);
        let mut b = StatsTotals::default();
        b.add_job(&job);
        b.h_latency_us.record(77);
        b.h_conflicts.record(9);
        assert!(a.same_counters(&b));
        let mut c = a;
        c.h_cnf_clauses.record(256);
        assert!(!a.same_counters(&c));
        let mut d = a;
        d.rw_div_fold += 1;
        assert!(!a.same_counters(&d));
    }

    #[test]
    fn totals_aggregate_and_compare() {
        let mut a = StatsTotals::default();
        let mut job = JobStats {
            queries: 3,
            mem_bytes: 10,
            ..JobStats::default()
        };
        a.add_job(&job);
        job.mem_bytes = 50;
        a.add_job(&job);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.queries, 6);
        assert_eq!(a.mem_peak_bytes, 50, "peak is a max, not a sum");

        let mut b = a;
        b.queue_ms = 777; // scheduling-dependent: ignored by same_counters
        assert!(a.same_counters(&b));
        // Cache traffic is not: no run reads its own entries, so a
        // changed cache counter breaks parity.
        for bump in [
            |t: &mut StatsTotals| t.cache_hits += 1,
            |t: &mut StatsTotals| t.cache_misses += 1,
            |t: &mut StatsTotals| t.sat_solves += 1,
            |t: &mut StatsTotals| t.cache_reval += 1,
        ] {
            let mut c = b;
            bump(&mut c);
            assert!(!a.same_counters(&c));
        }
        b.queries += 1;
        assert!(!a.same_counters(&b));

        let v = JsonValue::parse(&a.to_json_obj()).unwrap();
        assert!(StatsTotals::from_json(&v).same_counters(&a));
    }
}
