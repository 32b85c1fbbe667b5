//! Phase-timing spans.
//!
//! A [`SpanGuard`] brackets one unit of work with a named [`Phase`]; on
//! drop it (a) adds the elapsed time to the process-wide per-phase
//! accumulators that feed the `--stats` breakdown, and (b) emits a
//! begin/end event pair into the trace buffer that feeds `--trace`
//! (Chrome `chrome://tracing` JSON). Both sinks are gated on global
//! `AtomicBool`s, so a span in the disabled state costs two relaxed
//! loads and no clock reads — cheap enough to leave in the hot paths of
//! the parser, the pass runner, the encoder, and the solver.
//!
//! The span taxonomy splits two ways (see DESIGN.md "Observability"):
//!
//! - **Accumulating phases** — [`Phase::Parse`], [`Phase::Opt`],
//!   [`Phase::Encode`], [`Phase::Solve`], [`Phase::Journal`] — are
//!   mutually non-overlapping on a thread; their durations sum into the
//!   per-phase totals, so at `--jobs 1` the totals partition busy time.
//! - **Trace-only phases** — [`Phase::Job`], [`Phase::Cegqi`],
//!   [`Phase::Query`], [`Phase::Inst`] — nest *inside* accumulating
//!   phases (a query span lives inside the solve span). They appear in
//!   the trace but are excluded from the totals to avoid double counting.
//!
//! Each worker thread additionally tracks the **job phase** — the
//! furthest lifecycle point the job on this thread has reached. It is
//! set explicitly (never restored by guards) so that after a panic
//! unwinds through the span guards the engine can still read where the
//! job died; this is what makes `Verdict::Crash` stats triageable.

use crate::stats;
use crate::trace;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A point in the validation lifecycle; doubles as the span taxonomy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Waiting in the engine's work queue (job-phase only; no spans).
    #[default]
    Queued,
    /// IR text -> module (`ir::parser`).
    Parse,
    /// One optimization pass (`opt::pass`); labeled with the pass name.
    Opt,
    /// IR -> SMT encoding (`sema::encode`), incl. `Env` construction.
    Encode,
    /// Refinement checking (`core::validator::check_refinement`).
    Solve,
    /// Journal append + flush (`core::journal`).
    Journal,
    /// Term-context teardown after a job's verdict is sealed: dropping
    /// the hash-cons tables and term DAG scales with peak term count and
    /// is real per-job cost, so it gets its own breakdown row.
    Teardown,
    /// One engine job, pickup to outcome (trace-only; nests the above).
    Job,
    /// One CEGQI iteration (`smt::exists_forall`; trace-only).
    Cegqi,
    /// One SMT query (`smt::solver::check`; trace-only).
    Query,
    /// One instruction encode (trace-only, `--trace-detail`).
    Inst,
    /// Job ran to a conclusive verdict (job-phase only; no spans).
    Done,
}

/// The accumulating phases, in breakdown-table order.
pub const BREAKDOWN: [Phase; 6] = [
    Phase::Parse,
    Phase::Opt,
    Phase::Encode,
    Phase::Solve,
    Phase::Journal,
    Phase::Teardown,
];

impl Phase {
    const COUNT: usize = 12;

    fn index(self) -> usize {
        match self {
            Phase::Queued => 0,
            Phase::Parse => 1,
            Phase::Opt => 2,
            Phase::Encode => 3,
            Phase::Solve => 4,
            Phase::Journal => 5,
            Phase::Teardown => 6,
            Phase::Job => 7,
            Phase::Cegqi => 8,
            Phase::Query => 9,
            Phase::Inst => 10,
            Phase::Done => 11,
        }
    }

    /// Stable lower-case name (journal `stats.phase`, trace event names).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Parse => "parse",
            Phase::Opt => "opt",
            Phase::Encode => "encode",
            Phase::Solve => "solve",
            Phase::Journal => "journal",
            Phase::Teardown => "teardown",
            Phase::Job => "job",
            Phase::Cegqi => "cegqi",
            Phase::Query => "query",
            Phase::Inst => "inst",
            Phase::Done => "done",
        }
    }

    /// Inverse of [`Phase::as_str`].
    pub fn from_name(name: &str) -> Option<Phase> {
        let all = [
            Phase::Queued,
            Phase::Parse,
            Phase::Opt,
            Phase::Encode,
            Phase::Solve,
            Phase::Journal,
            Phase::Teardown,
            Phase::Job,
            Phase::Cegqi,
            Phase::Query,
            Phase::Inst,
            Phase::Done,
        ];
        all.into_iter().find(|p| p.as_str() == name)
    }

    /// True for phases whose span durations feed the `--stats` breakdown.
    fn accumulates(self) -> bool {
        matches!(
            self,
            Phase::Parse
                | Phase::Opt
                | Phase::Encode
                | Phase::Solve
                | Phase::Journal
                | Phase::Teardown
        )
    }
}

// ---- global gates and accumulators ---------------------------------------

/// Master switch for span *timing* (clock reads + phase accumulation).
/// Set by `--stats`; `--trace` implies it. Off by default: a disabled
/// span is two relaxed atomic loads.
static TIMING: AtomicBool = AtomicBool::new(false);

/// Process-wide per-phase busy time, nanoseconds.
static PHASE_NS: [AtomicU64; Phase::COUNT] = [const { AtomicU64::new(0) }; Phase::COUNT];

/// Enables (or disables) span timing.
pub fn set_timing(on: bool) {
    TIMING.store(on, Ordering::Relaxed);
}

/// True when span timing is on.
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// Total accumulated busy time for one phase.
pub fn phase_total_ns(phase: Phase) -> u64 {
    PHASE_NS[phase.index()].load(Ordering::Relaxed)
}

/// Resets every per-phase total (tests; drivers measuring one run).
pub fn reset_phase_totals() {
    for slot in &PHASE_NS {
        slot.store(0, Ordering::Relaxed);
    }
}

// ---- per-thread job phase ------------------------------------------------

thread_local! {
    static JOB_PHASE: Cell<Phase> = const { Cell::new(Phase::Queued) };
}

/// Records the lifecycle point the current thread's job has reached.
/// Deliberately *not* restored when spans close: after a panic unwinds,
/// [`job_phase`] still answers "how far did it get?".
pub fn set_job_phase(phase: Phase) {
    JOB_PHASE.with(|p| p.set(phase));
}

/// The furthest lifecycle point the current thread's job reached.
pub fn job_phase() -> Phase {
    JOB_PHASE.with(|p| p.get())
}

// ---- spans ---------------------------------------------------------------

/// An RAII span: created by [`span`]/[`span_labeled`], closed on drop.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard {
    phase: Phase,
    start: Option<Instant>,
    /// The label copy exists only when the begin event was traced: the
    /// end event must carry the same name for B/E pairing.
    traced_label: Option<String>,
}

/// Opens an unlabeled span.
pub fn span(phase: Phase) -> SpanGuard {
    span_labeled(phase, "")
}

/// Opens a span with a display label (pass name, function name, …). The
/// label reaches the trace only; phase accumulation ignores it.
pub fn span_labeled(phase: Phase, label: &str) -> SpanGuard {
    let traced = trace::enabled();
    if traced {
        trace::push(phase, label, trace::EventKind::Begin);
    }
    let timed = traced || (phase.accumulates() && TIMING.load(Ordering::Relaxed));
    SpanGuard {
        phase,
        start: timed.then(Instant::now),
        traced_label: traced.then(|| label.to_string()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            if self.phase.accumulates() {
                let ns = start.elapsed().as_nanos() as u64;
                PHASE_NS[self.phase.index()].fetch_add(ns, Ordering::Relaxed);
                stats::add_phase_ns(self.phase, ns);
            }
        }
        if let Some(label) = &self.traced_label {
            // Emit the end even if tracing was switched off mid-span so
            // every `B` has its `E` (the balance invariant tests rely on).
            trace::push(self.phase, label, trace::EventKind::End);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for p in [
            Phase::Queued,
            Phase::Parse,
            Phase::Opt,
            Phase::Encode,
            Phase::Solve,
            Phase::Journal,
            Phase::Teardown,
            Phase::Job,
            Phase::Cegqi,
            Phase::Query,
            Phase::Inst,
            Phase::Done,
        ] {
            assert_eq!(Phase::from_name(p.as_str()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn job_phase_survives_unwind() {
        set_job_phase(Phase::Queued);
        let _ = std::panic::catch_unwind(|| {
            set_job_phase(Phase::Encode);
            let _sp = span(Phase::Encode);
            panic!("boom");
        });
        assert_eq!(job_phase(), Phase::Encode);
        set_job_phase(Phase::Queued);
    }

    #[test]
    fn disabled_span_accumulates_nothing() {
        // Timing/tracing default off in this process unless another test
        // enabled them; only assert in the clean state.
        if !timing_enabled() && !trace::enabled() {
            let before = phase_total_ns(Phase::Parse);
            let sp = span(Phase::Parse);
            drop(sp);
            assert_eq!(phase_total_ns(Phase::Parse), before);
        }
    }
}
