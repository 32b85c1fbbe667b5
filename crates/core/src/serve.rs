//! Validation as a service: the daemon loop behind the `alive2-serve`
//! binary (see DESIGN.md, "Validation as a service").
//!
//! Every other driver in this workspace pays the full cold-start bill —
//! engine construction, cache population, term-context warm-up — once
//! per CLI invocation and throws the warm state away at exit, even
//! though BENCH_pr5 measured warm reruns at ~9× the cold rate. This
//! module keeps one process alive across an arbitrary stream of
//! validation requests instead:
//!
//! - **Protocol**: JSON-lines over stdin/stdout ([`serve_stdio`]), one
//!   request per line, one response per line. A `validate` request
//!   carries a batch of named (src, tgt) LLVM IR module pairs and is
//!   answered by one verdict line per matched function followed by a
//!   batch summary line; `stats`, `ping`, and `shutdown` are control
//!   requests answered inline. Behind `--listen`, the same payloads
//!   travel as length-prefixed frames over a Unix or TCP socket
//!   ([`serve_listen`]), one client per connection.
//! - **Warm state**: the process-wide sharded query cache and the
//!   engine's journal/run-ordinal state survive between batches. Term
//!   contexts stay per-job (they are not thread-safe), so the cache is
//!   the only unbounded cross-request growth — [`Daemon::maybe_gc`]
//!   watches its allocation meter and empties it when it crosses half of
//!   `--mem-budget-mb` (a GC degrades warmth, never correctness).
//! - **Admission control**: oversized batches and a full queue are
//!   rejected with an error response instead of being buffered without
//!   bound; the daemon backpressures rather than OOMs.
//! - **Fairness**: queued batches are dispatched round-robin across
//!   client ids (the request's `client` field, or the connection
//!   identity under `--listen`), so one chatty client cannot starve the
//!   rest.
//! - **Crash recovery**: with `--journal`, every admitted batch is
//!   re-encoded into the outcome journal *before* execution. A SIGKILLed
//!   daemon restarted with `--resume` replays the request log in order —
//!   completed pairs re-emit their journaled verdicts without solving,
//!   and only the genuinely in-flight tail computes live
//!   ([`Daemon::replay`]).

use crate::engine::{Counts, Outcome, ValidationEngine};
use crate::report::verdict_line;
use crate::validator::Verdict;
use alive2_ir::parser::parse_module;
use alive2_obs::json::{esc, JsonValue};
use alive2_sema::config::EncodeConfig;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Upper bound on a single socket frame (64 MiB): large enough for any
/// sane module batch, small enough that a corrupt length prefix cannot
/// ask the daemon to allocate the address space.
const MAX_FRAME_BYTES: usize = 64 << 20;

// ---------------------------------------------------------------------
// Response sinks
// ---------------------------------------------------------------------

/// Where a request's responses go. Stdio mode shares one newline-delimited
/// sink (stdout); each socket connection gets a length-prefixed one.
pub trait ResponseSink: Send + Sync {
    /// Delivers one response line (no trailing newline in `line`).
    fn send(&self, line: &str);
}

/// Newline-delimited responses over any writer.
pub struct LineSink<W: Write + Send>(Mutex<W>);

impl<W: Write + Send> LineSink<W> {
    pub fn new(w: W) -> Self {
        LineSink(Mutex::new(w))
    }
}

impl<W: Write + Send> ResponseSink for LineSink<W> {
    fn send(&self, line: &str) {
        let mut w = self.0.lock().unwrap_or_else(|e| e.into_inner());
        // A dead peer is the peer's problem; the daemon keeps serving.
        let _ = w
            .write_all(line.as_bytes())
            .and_then(|_| w.write_all(b"\n"))
            .and_then(|_| w.flush());
    }
}

/// Length-prefixed (u32 big-endian + payload) responses for `--listen`
/// connections.
pub struct FrameSink<W: Write + Send>(Mutex<W>);

impl<W: Write + Send> FrameSink<W> {
    pub fn new(w: W) -> Self {
        FrameSink(Mutex::new(w))
    }
}

impl<W: Write + Send> ResponseSink for FrameSink<W> {
    fn send(&self, line: &str) {
        let mut w = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let len = (line.len() as u32).to_be_bytes();
        let _ = w
            .write_all(&len)
            .and_then(|_| w.write_all(line.as_bytes()))
            .and_then(|_| w.flush());
    }
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len) {
        return if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Ok(None)
        } else {
            Err(e)
        };
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// One (src, tgt) module pair inside a `validate` batch.
#[derive(Clone, Debug, PartialEq)]
pub struct PairSpec {
    pub name: String,
    pub src: String,
    pub tgt: String,
}

/// A parsed request's operation.
#[derive(Clone, Debug, PartialEq)]
pub enum ReqOp {
    /// Validate a batch of module pairs.
    Validate(Vec<PairSpec>),
    /// Scrape the live daemon's counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop admitting, drain the queue, exit.
    Shutdown,
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub id: String,
    pub client: String,
    pub op: ReqOp,
}

/// Parses one request line. `default_client` is the fairness key used
/// when the request carries no `client` field (stdio mode passes a
/// constant; socket mode passes the connection identity). On failure,
/// returns whatever request id could be salvaged plus the reason — the
/// daemon answers with an error line and keeps serving.
pub fn parse_request(
    line: &str,
    default_client: &str,
) -> Result<Request, (Option<String>, String)> {
    let Some(v) = JsonValue::parse(line) else {
        return Err((None, "malformed request: not a JSON object".into()));
    };
    let id = v.get("id").and_then(JsonValue::as_str).map(str::to_string);
    let fail = |reason: &str| Err((id.clone(), reason.to_string()));
    let Some(id_val) = id.clone() else {
        return fail("malformed request: missing string field `id`");
    };
    let client = v
        .get("client")
        .and_then(JsonValue::as_str)
        .unwrap_or(default_client)
        .to_string();
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .unwrap_or("validate");
    let op = match op {
        "stats" => ReqOp::Stats,
        "ping" => ReqOp::Ping,
        "shutdown" => ReqOp::Shutdown,
        "validate" => {
            let Some(items) = v.get("pairs").and_then(JsonValue::as_arr) else {
                return fail("malformed request: `validate` needs a `pairs` array");
            };
            let mut pairs = Vec::with_capacity(items.len());
            for p in items {
                let field = |k: &str| p.get(k).and_then(JsonValue::as_str).map(str::to_string);
                match (field("name"), field("src"), field("tgt")) {
                    (Some(name), Some(src), Some(tgt)) => pairs.push(PairSpec { name, src, tgt }),
                    _ => {
                        return fail(
                            "malformed request: each pair needs string fields `name`/`src`/`tgt`",
                        )
                    }
                }
            }
            ReqOp::Validate(pairs)
        }
        other => return fail(&format!("malformed request: unknown op `{other}`")),
    };
    Ok(Request {
        id: id_val,
        client,
        op,
    })
}

// ---------------------------------------------------------------------
// The fair queue
// ---------------------------------------------------------------------

struct QueuedBatch {
    /// Request-log sequence number (stable across restarts).
    seq: u64,
    id: String,
    client: String,
    pairs: Vec<PairSpec>,
    sink: Arc<dyn ResponseSink>,
}

/// Round-robin-per-client batch queue: each client gets its own FIFO,
/// and dispatch rotates across clients in first-seen order, so a client
/// that floods the daemon only delays its own later batches.
#[derive(Default)]
struct FairQueue {
    order: Vec<String>,
    queues: HashMap<String, VecDeque<QueuedBatch>>,
    cursor: usize,
    queued_pairs: usize,
}

impl FairQueue {
    fn push(&mut self, b: QueuedBatch) {
        self.queued_pairs += b.pairs.len();
        if !self.queues.contains_key(&b.client) {
            self.order.push(b.client.clone());
        }
        self.queues
            .entry(b.client.clone())
            .or_default()
            .push_back(b);
    }

    fn pop(&mut self) -> Option<QueuedBatch> {
        let n = self.order.len();
        for off in 0..n {
            let i = (self.cursor + off) % n;
            if let Some(b) = self
                .queues
                .get_mut(&self.order[i])
                .and_then(VecDeque::pop_front)
            {
                self.cursor = (i + 1) % n;
                self.queued_pairs -= b.pairs.len();
                return Some(b);
            }
        }
        None
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.queues.values().all(VecDeque::is_empty)
    }
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

/// Admission-control and memory-budget knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Process memory budget in MiB. Doubles as the per-job term budget
    /// (via the driver's `EncodeConfig`) and the warm-cache GC threshold.
    pub mem_budget_mb: Option<u64>,
    /// Largest batch a single `validate` request may carry.
    pub max_batch_pairs: usize,
    /// Most pairs the fair queue may hold before new batches are
    /// rejected (backpressure instead of unbounded buffering).
    pub max_queued_pairs: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            mem_budget_mb: None,
            max_batch_pairs: 1024,
            max_queued_pairs: 4096,
        }
    }
}

struct ServeState {
    queue: FairQueue,
    /// Input exhausted (stdin EOF): drain and exit.
    closed: bool,
    /// `shutdown` request received: stop admitting, drain and exit.
    shutdown: bool,
}

/// The long-running validation service: one warm [`ValidationEngine`]
/// plus the fair queue, admission control, GC, and request log that turn
/// it into a daemon. Reader threads call [`Daemon::handle_line`]; one
/// executor thread calls [`Daemon::run_until_drained`].
pub struct Daemon {
    engine: ValidationEngine,
    cfg: EncodeConfig,
    opts: ServeOptions,
    state: Mutex<ServeState>,
    wake: Condvar,
    totals: Mutex<Counts>,
    started: Instant,
    /// Next request-log sequence number.
    seq: AtomicU64,
    batches: AtomicU64,
    pairs_done: AtomicU64,
    rejected: AtomicU64,
    malformed: AtomicU64,
    gc_resets: AtomicU64,
    shutdown_flag: AtomicBool,
}

impl Daemon {
    pub fn new(engine: ValidationEngine, cfg: EncodeConfig, opts: ServeOptions) -> Daemon {
        Daemon {
            engine,
            cfg,
            opts,
            state: Mutex::new(ServeState {
                queue: FairQueue::default(),
                closed: false,
                shutdown: false,
            }),
            wake: Condvar::new(),
            totals: Mutex::new(Counts::default()),
            started: Instant::now(),
            seq: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            pairs_done: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            gc_resets: AtomicU64::new(0),
            shutdown_flag: AtomicBool::new(false),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ServeState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Handles one request line from a reader thread. Control requests
    /// are answered inline (so `stats` scrapes a busy daemon without
    /// queueing behind its work); `validate` batches go through
    /// admission into the fair queue.
    pub fn handle_line(&self, line: &str, default_client: &str, sink: &Arc<dyn ResponseSink>) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        match parse_request(line, default_client) {
            Err((id, reason)) => {
                self.malformed.fetch_add(1, Ordering::Relaxed);
                let id_json = match id {
                    Some(id) => format!("\"{}\"", esc(&id)),
                    None => "null".into(),
                };
                sink.send(&format!(
                    "{{\"id\":{id_json},\"error\":\"{}\"}}",
                    esc(&reason)
                ));
            }
            Ok(req) => match req.op {
                ReqOp::Ping => {
                    sink.send(&format!("{{\"id\":\"{}\",\"op\":\"pong\"}}", esc(&req.id)))
                }
                ReqOp::Stats => sink.send(&self.stats_line(&req.id)),
                ReqOp::Shutdown => {
                    sink.send(&format!(
                        "{{\"id\":\"{}\",\"op\":\"shutdown\",\"draining\":true}}",
                        esc(&req.id)
                    ));
                    self.shutdown_flag.store(true, Ordering::SeqCst);
                    self.lock_state().shutdown = true;
                    self.wake.notify_all();
                }
                ReqOp::Validate(pairs) => self.admit(req.id, req.client, pairs, sink),
            },
        }
    }

    /// Admission control: bounded batch size, bounded queue, and a GC
    /// attempt (rather than a reject) when the warm cache is over the
    /// memory budget. A rejected batch gets an error response naming the
    /// limit; nothing is partially admitted.
    fn admit(
        &self,
        id: String,
        client: String,
        pairs: Vec<PairSpec>,
        sink: &Arc<dyn ResponseSink>,
    ) {
        let reject = |reason: String| {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            sink.send(&format!(
                "{{\"id\":\"{}\",\"error\":\"{}\",\"rejected\":true}}",
                esc(&id),
                esc(&reason)
            ));
        };
        if pairs.len() > self.opts.max_batch_pairs {
            return reject(format!(
                "batch too large: {} pairs (max {})",
                pairs.len(),
                self.opts.max_batch_pairs
            ));
        }
        // Over budget at admission: GC the warm tier first, and only
        // reject if that somehow cannot get back under (i.e. the budget
        // is smaller than the empty-cache floor).
        if let Some(budget) = self.budget_bytes() {
            if alive2_smt::cache::global().mem_bytes() > budget {
                self.gc();
                if alive2_smt::cache::global().mem_bytes() > budget {
                    return reject(format!(
                        "over memory budget ({budget} bytes) even after cache GC"
                    ));
                }
            }
        }
        let mut st = self.lock_state();
        if st.closed || st.shutdown {
            drop(st);
            return reject("daemon is draining (no new batches)".into());
        }
        if st.queue.queued_pairs + pairs.len() > self.opts.max_queued_pairs {
            let depth = st.queue.queued_pairs;
            drop(st);
            return reject(format!(
                "queue full: {depth} pairs queued (max {})",
                self.opts.max_queued_pairs
            ));
        }
        st.queue.push(QueuedBatch {
            seq: self.seq.fetch_add(1, Ordering::SeqCst),
            id,
            client,
            pairs,
            sink: sink.clone(),
        });
        drop(st);
        self.wake.notify_all();
    }

    /// Marks the input stream closed (EOF): the executor exits once the
    /// queue drains.
    pub fn close(&self) {
        self.lock_state().closed = true;
        self.wake.notify_all();
    }

    /// True once a `shutdown` request has been accepted.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown_flag.load(Ordering::SeqCst)
    }

    /// The executor loop: pops fair-queued batches and runs them until
    /// the input side is closed (EOF or `shutdown`) *and* the queue has
    /// drained — queued work is always finished, never dropped.
    pub fn run_until_drained(&self) {
        loop {
            let batch = {
                let mut st = self.lock_state();
                loop {
                    if let Some(b) = st.queue.pop() {
                        break Some(b);
                    }
                    if st.closed || st.shutdown {
                        break None;
                    }
                    st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            match batch {
                Some(b) => self.run_batch(&b),
                None => return,
            }
        }
    }

    /// Runs one batch: journals the request record (before execution, so
    /// a SIGKILL mid-batch leaves a replayable log), streams one verdict
    /// line per matched function, then the batch summary line, then
    /// checks the GC threshold.
    fn run_batch(&self, b: &QueuedBatch) {
        if let Some(j) = &self.engine.journal {
            j.record_line(&request_record(b.seq, &b.id, &b.client, &b.pairs));
        }
        let started = Instant::now();
        let mut counts = Counts::default();
        for p in &b.pairs {
            let src = parse_module(&p.src);
            let tgt = parse_module(&p.tgt);
            let (src, tgt) = match (src, tgt) {
                (Ok(s), Ok(t)) => (s, t),
                (Err(e), _) | (_, Err(e)) => {
                    // A pair that does not parse still occupies its slot
                    // in the summary (as unsupported) so batch accounting
                    // and replay stay aligned with the request.
                    counts.pairs += 1;
                    counts.record(&Verdict::Unsupported(format!("parse error: {e}")));
                    b.sink.send(&format!(
                        "{{\"id\":\"{}\",\"pair\":\"{}\",\"verdict\":\"unsupported\",\
                         \"detail\":\"parse error: {}\"}}",
                        esc(&b.id),
                        esc(&p.name),
                        esc(&e.to_string())
                    ));
                    continue;
                }
            };
            for o in self.engine.validate_modules_outcomes(&src, &tgt, &self.cfg) {
                counts.add_outcome(&o);
                b.sink.send(&pair_line(&b.id, &p.name, &o));
            }
        }
        self.engine.fold_supervision_into(&mut counts.stats);
        counts.millis = started.elapsed().as_millis() as u64;
        b.sink.send(&batch_done_line(&b.id, &b.client, &counts));
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.pairs_done
            .fetch_add(u64::from(counts.pairs), Ordering::Relaxed);
        self.totals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .add(counts);
        self.maybe_gc();
    }

    fn budget_bytes(&self) -> Option<usize> {
        self.opts
            .mem_budget_mb
            .map(|mb| (mb as usize).saturating_mul(1 << 20))
    }

    /// Post-batch GC check: once the warm cache's allocation meter
    /// crosses *half* the memory budget, empty the cache (later batches
    /// solve again — warmth degrades, correctness does not). Half, not
    /// all: the other half of the budget belongs to the per-job term
    /// contexts the next batch will allocate.
    fn maybe_gc(&self) {
        if let Some(budget) = self.budget_bytes() {
            let mem = alive2_smt::cache::global().mem_bytes();
            if mem * 2 > budget {
                self.gc();
            }
        }
    }

    fn gc(&self) {
        let mem = alive2_smt::cache::global().mem_bytes();
        let evicted = alive2_smt::cache::global().clear_memory();
        self.gc_resets.fetch_add(1, Ordering::Relaxed);
        eprintln!("serve: gc: evicted {evicted} warm cache entries ({mem} bytes)");
    }

    /// Renders the `stats` control response: daemon-level meters plus
    /// the cumulative per-job telemetry and phase timings — the same
    /// counters `--stats` prints at exit, scrapeable from a live daemon.
    pub fn stats_line(&self, id: &str) -> String {
        let totals = self.totals.lock().unwrap_or_else(|e| e.into_inner());
        let cache = alive2_smt::cache::global();
        let queued = self.lock_state().queue.queued_pairs;
        let uptime_us = self.started.elapsed().as_micros() as u64;
        format!(
            "{{\"id\":\"{}\",\"op\":\"stats\",\"uptime_ms\":{},\"batches\":{},\"pairs\":{},\
             \"queued_pairs\":{},\"rejected\":{},\"malformed\":{},\"gc_resets\":{},\
             \"cache_entries\":{},\"cache_mem_bytes\":{},\"mem_budget_mb\":{},{},\
             \"stats\":{},\"phases\":{}}}",
            esc(id),
            uptime_us / 1_000,
            self.batches.load(Ordering::Relaxed),
            self.pairs_done.load(Ordering::Relaxed),
            queued,
            self.rejected.load(Ordering::Relaxed),
            self.malformed.load(Ordering::Relaxed),
            self.gc_resets.load(Ordering::Relaxed),
            cache.len(),
            cache.mem_bytes(),
            self.opts.mem_budget_mb.unwrap_or(0),
            totals.verdicts_json(),
            totals.stats.to_json_obj(),
            alive2_obs::report::phases_json_obj(uptime_us),
        )
    }

    /// A snapshot of the cumulative verdict totals (for the exit
    /// summary).
    pub fn totals_snapshot(&self) -> Counts {
        self.totals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Replays a request log loaded by [`load_request_log`]: every
    /// journaled batch re-executes in admission order against `sink`.
    /// With the engine's `--resume` log attached, pairs whose outcomes
    /// were journaled before the crash re-emit them without solving
    /// (run ordinals re-align because replay preserves batch order);
    /// only the in-flight tail computes live. Returns the number of
    /// batches replayed.
    pub fn replay(&self, reqs: &[LoggedRequest], sink: &Arc<dyn ResponseSink>) -> usize {
        if let Some(max) = reqs.iter().map(|r| r.seq).max() {
            self.seq.store(max + 1, Ordering::SeqCst);
        }
        for r in reqs {
            self.run_batch(&QueuedBatch {
                seq: r.seq,
                id: r.id.clone(),
                client: r.client.clone(),
                pairs: r.pairs.clone(),
                sink: sink.clone(),
            });
        }
        reqs.len()
    }
}

// ---------------------------------------------------------------------
// Request log (journal reuse)
// ---------------------------------------------------------------------

/// A request record recovered from the journal by [`load_request_log`].
#[derive(Clone, Debug, PartialEq)]
pub struct LoggedRequest {
    pub seq: u64,
    pub id: String,
    pub client: String,
    pub pairs: Vec<PairSpec>,
}

/// Renders the journal record written before a batch executes. The
/// `serve_req` key keeps it disjoint from outcome entries (which the
/// [`crate::journal::ResumeLog`] parser keys on `run`/`idx`/`name`), so
/// both kinds share one file.
fn request_record(seq: u64, id: &str, client: &str, pairs: &[PairSpec]) -> String {
    let pairs: Vec<String> = pairs
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":\"{}\",\"src\":\"{}\",\"tgt\":\"{}\"}}",
                esc(&p.name),
                esc(&p.src),
                esc(&p.tgt)
            )
        })
        .collect();
    format!(
        "{{\"serve_req\":{seq},\"rid\":\"{}\",\"client\":\"{}\",\"pairs\":[{}]}}",
        esc(id),
        esc(client),
        pairs.join(",")
    )
}

/// Loads the request records out of a journal file, tolerating torn
/// lines and deduplicating by sequence number (a replayed batch
/// re-records itself), in first-appearance order.
pub fn load_request_log(path: &str) -> std::io::Result<Vec<LoggedRequest>> {
    let text = std::fs::read_to_string(path)?;
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(v) = JsonValue::parse(line) else {
            continue;
        };
        let Some(seq) = v.get("serve_req").and_then(JsonValue::as_num) else {
            continue;
        };
        if !seen.insert(seq) {
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string()
        };
        let pairs = v
            .get("pairs")
            .and_then(JsonValue::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|p| {
                        let s = |k: &str| p.get(k).and_then(JsonValue::as_str).map(str::to_string);
                        Some(PairSpec {
                            name: s("name")?,
                            src: s("src")?,
                            tgt: s("tgt")?,
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.push(LoggedRequest {
            seq,
            id: field("rid"),
            client: field("client"),
            pairs,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------

fn pair_line(id: &str, pair: &str, o: &Outcome) -> String {
    let detail = match &o.verdict {
        // First line of the counterexample report: enough to triage
        // without flooding the stream (the full report is one-shot CLI
        // territory).
        Verdict::Incorrect(cex) => cex
            .to_string()
            .lines()
            .next()
            .unwrap_or_default()
            .to_string(),
        v => verdict_line(v),
    };
    format!(
        "{{\"id\":\"{}\",\"pair\":\"{}\",\"fn\":\"{}\",\"verdict\":\"{}\",\"detail\":\"{}\"}}",
        esc(id),
        esc(pair),
        esc(&o.name),
        o.verdict.kind(),
        esc(&detail)
    )
}

fn batch_done_line(id: &str, client: &str, c: &Counts) -> String {
    format!(
        "{{\"id\":\"{}\",\"client\":\"{}\",\"done\":true,\"pairs\":{},{},\
         \"wall_ms\":{},\"stats\":{}}}",
        esc(id),
        esc(client),
        c.pairs,
        c.verdicts_json(),
        c.millis,
        c.stats.to_json_obj()
    )
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// Serves stdin/stdout until EOF or a `shutdown` request, then drains
/// and returns the cumulative totals. One reader thread feeds the
/// queue; the calling thread executes.
pub fn serve_stdio(daemon: &Arc<Daemon>) -> Counts {
    let sink: Arc<dyn ResponseSink> = Arc::new(LineSink::new(std::io::stdout()));
    let reader = {
        let daemon = Arc::clone(daemon);
        let sink = Arc::clone(&sink);
        std::thread::spawn(move || {
            use std::io::BufRead;
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                daemon.handle_line(&line, "stdio", &sink);
                if daemon.is_shutdown() {
                    return; // don't block on a stream nobody will close
                }
            }
            daemon.close();
        })
    };
    daemon.run_until_drained();
    if !daemon.is_shutdown() {
        let _ = reader.join();
    }
    daemon.totals_snapshot()
}

/// A parsed `--listen` spec: `unix:PATH` or a TCP `HOST:PORT`.
pub enum ListenAddr {
    Unix(String),
    Tcp(String),
}

/// Parses a `--listen` spec. `unix:` prefixes a socket path; anything
/// else is a TCP bind address.
pub fn parse_listen(spec: &str) -> ListenAddr {
    match spec.strip_prefix("unix:") {
        Some(path) => ListenAddr::Unix(path.to_string()),
        None => ListenAddr::Tcp(spec.to_string()),
    }
}

/// Serves a Unix or TCP socket until a `shutdown` request drains the
/// daemon. Each connection is its own fairness client (`conn-N` unless
/// requests carry an explicit `client` field) and exchanges
/// length-prefixed frames. The bound address is announced as the first
/// stdout line — `{"listening":"..."}` — so callers binding port 0 can
/// discover the port.
pub fn serve_listen(daemon: &Arc<Daemon>, spec: &str) -> std::io::Result<Counts> {
    match parse_listen(spec) {
        ListenAddr::Tcp(addr) => {
            let listener = std::net::TcpListener::bind(&addr)?;
            announce(&format!("{}", listener.local_addr()?));
            let accept = move || listener.accept().map(|(s, _)| s);
            spawn_accept_loop(daemon, accept, std::net::TcpStream::try_clone);
        }
        ListenAddr::Unix(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)?;
            announce(&format!("unix:{path}"));
            let accept = move || listener.accept().map(|(s, _)| s);
            spawn_accept_loop(daemon, accept, std::os::unix::net::UnixStream::try_clone);
        }
    }
    daemon.run_until_drained();
    Ok(daemon.totals_snapshot())
}

/// Accepts connections on a thread of its own until the daemon shuts
/// down, serving each on a new thread with the write half `split`
/// makes. Connection `n` is the `n`-th accept attempt, failed ones
/// included.
fn spawn_accept_loop<S: Read + Write + Send + Sync + 'static>(
    daemon: &Arc<Daemon>,
    mut accept: impl FnMut() -> std::io::Result<S> + Send + 'static,
    split: fn(&S) -> std::io::Result<S>,
) {
    let daemon = Arc::clone(daemon);
    std::thread::spawn(move || {
        for n in 0.. {
            let Ok(stream) = accept() else { continue };
            if daemon.is_shutdown() {
                break;
            }
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || {
                let Ok(write_half) = split(&stream) else {
                    return;
                };
                serve_conn(&daemon, stream, write_half, n);
            });
        }
    });
}

fn announce(addr: &str) {
    println!("{{\"listening\":\"{}\"}}", esc(addr));
    let _ = std::io::stdout().flush();
}

fn serve_conn<R: Read, W: Write + Send + Sync + 'static>(
    daemon: &Arc<Daemon>,
    mut read_half: R,
    write_half: W,
    conn: usize,
) {
    let sink: Arc<dyn ResponseSink> = Arc::new(FrameSink::new(write_half));
    let client = format!("conn-{conn}");
    loop {
        match read_frame(&mut read_half) {
            Ok(Some(line)) => {
                daemon.handle_line(&line, &client, &sink);
                if daemon.is_shutdown() {
                    return;
                }
            }
            Ok(None) => return, // connection EOF: the daemon stays up
            Err(e) => {
                sink.send(&format!(
                    "{{\"id\":null,\"error\":\"{}\"}}",
                    esc(&e.to_string())
                ));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records every response line for assertions.
    #[derive(Default)]
    struct TestSink(Mutex<Vec<String>>);

    impl ResponseSink for TestSink {
        fn send(&self, line: &str) {
            self.0.lock().unwrap().push(line.to_string());
        }
    }

    fn test_sink() -> (Arc<TestSink>, Arc<dyn ResponseSink>) {
        let s = Arc::new(TestSink::default());
        let dynamic: Arc<dyn ResponseSink> = s.clone();
        (s, dynamic)
    }

    fn daemon(opts: ServeOptions) -> Daemon {
        Daemon::new(
            ValidationEngine::sequential(),
            EncodeConfig::default(),
            opts,
        )
    }

    const MUL2: &str = "define i8 @f(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}";
    const SHL1: &str = "define i8 @f(i8 %x) {\nentry:\n  %r = shl i8 %x, 1\n  ret i8 %r\n}";
    const ADD2: &str = "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}";

    fn validate_line(id: &str, client: &str, pairs: &[(&str, &str, &str)]) -> String {
        let pairs: Vec<String> = pairs
            .iter()
            .map(|(n, s, t)| {
                format!(
                    "{{\"name\":\"{}\",\"src\":\"{}\",\"tgt\":\"{}\"}}",
                    esc(n),
                    esc(s),
                    esc(t)
                )
            })
            .collect();
        format!(
            "{{\"id\":\"{id}\",\"client\":\"{client}\",\"op\":\"validate\",\"pairs\":[{}]}}",
            pairs.join(",")
        )
    }

    #[test]
    fn parse_request_accepts_the_protocol_and_rejects_noise() {
        let r = parse_request(&validate_line("b1", "alice", &[("p", MUL2, SHL1)]), "d").unwrap();
        assert_eq!(r.id, "b1");
        assert_eq!(r.client, "alice");
        match r.op {
            ReqOp::Validate(pairs) => {
                assert_eq!(pairs.len(), 1);
                assert_eq!(pairs[0].name, "p");
                assert_eq!(pairs[0].src, MUL2);
            }
            other => panic!("expected validate, got {other:?}"),
        }
        // Default client and implicit op.
        let r = parse_request("{\"id\":\"x\",\"pairs\":[]}", "conn-7").unwrap();
        assert_eq!(r.client, "conn-7");
        assert_eq!(r.op, ReqOp::Validate(Vec::new()));
        // Control ops.
        for (op, want) in [
            ("stats", ReqOp::Stats),
            ("ping", ReqOp::Ping),
            ("shutdown", ReqOp::Shutdown),
        ] {
            let r = parse_request(&format!("{{\"id\":\"c\",\"op\":\"{op}\"}}"), "d").unwrap();
            assert_eq!(r.op, want);
        }
        // Malformed shapes: non-JSON, missing id, missing pairs, bad op,
        // bad pair fields — all errors, never panics.
        assert!(parse_request("not json at all", "d").is_err());
        assert!(parse_request("{\"op\":\"validate\",\"pairs\":[]}", "d").is_err());
        assert!(parse_request("{\"id\":\"x\",\"op\":\"validate\"}", "d").is_err());
        assert!(parse_request("{\"id\":\"x\",\"op\":\"explode\"}", "d").is_err());
        let (id, _) =
            parse_request("{\"id\":\"x\",\"pairs\":[{\"name\":\"p\"}]}", "d").unwrap_err();
        assert_eq!(id.as_deref(), Some("x"), "salvaged id for attribution");
    }

    #[test]
    fn fair_queue_round_robins_across_clients() {
        let (_, sink) = test_sink();
        let mut q = FairQueue::default();
        let batch = |id: &str, client: &str| QueuedBatch {
            seq: 0,
            id: id.into(),
            client: client.into(),
            pairs: Vec::new(),
            sink: sink.clone(),
        };
        // Client a floods three batches before b's first arrives.
        q.push(batch("a1", "a"));
        q.push(batch("a2", "a"));
        q.push(batch("a3", "a"));
        q.push(batch("b1", "b"));
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).map(|b| b.id).collect();
        assert_eq!(order, ["a1", "b1", "a2", "a3"], "b is not starved");
        assert!(q.is_empty());
    }

    #[test]
    fn oversized_batch_and_full_queue_are_rejected() {
        let d = daemon(ServeOptions {
            max_batch_pairs: 2,
            max_queued_pairs: 3,
            ..ServeOptions::default()
        });
        let (record, sink) = test_sink();
        let three = [("p1", MUL2, SHL1), ("p2", MUL2, SHL1), ("p3", MUL2, SHL1)];
        d.handle_line(&validate_line("big", "a", &three), "d", &sink);
        {
            let lines = record.0.lock().unwrap();
            assert_eq!(lines.len(), 1);
            assert!(lines[0].contains("\"rejected\":true"), "{}", lines[0]);
            assert!(lines[0].contains("batch too large"), "{}", lines[0]);
        }
        // Two 2-pair batches: the first fills the queue, the second trips
        // the depth limit.
        let two = [("p1", MUL2, SHL1), ("p2", MUL2, SHL1)];
        d.handle_line(&validate_line("q1", "a", &two), "d", &sink);
        d.handle_line(&validate_line("q2", "a", &two), "d", &sink);
        let lines = record.0.lock().unwrap();
        assert_eq!(lines.len(), 2, "q1 admitted silently, q2 rejected");
        assert!(lines[1].contains("queue full"), "{}", lines[1]);
        assert_eq!(d.rejected.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn batch_executes_and_streams_verdicts_then_summary() {
        let d = daemon(ServeOptions::default());
        let (record, sink) = test_sink();
        d.handle_line(
            &validate_line(
                "b1",
                "a",
                &[
                    ("good", MUL2, SHL1),
                    ("bad", MUL2, ADD2),
                    ("broken", "not llvm ir", SHL1),
                ],
            ),
            "d",
            &sink,
        );
        d.close();
        d.run_until_drained();
        let lines = record.0.lock().unwrap();
        assert_eq!(lines.len(), 4, "3 pair lines + 1 summary: {lines:?}");
        assert!(lines[0].contains("\"pair\":\"good\"") && lines[0].contains("\"correct\""));
        assert!(lines[1].contains("\"pair\":\"bad\"") && lines[1].contains("\"incorrect\""));
        assert!(lines[2].contains("\"pair\":\"broken\"") && lines[2].contains("parse error"));
        let done = &lines[3];
        assert!(done.contains("\"done\":true"), "{done}");
        assert!(done.contains("\"pairs\":3"), "{done}");
        assert!(done.contains("\"correct\":1"), "{done}");
        assert!(done.contains("\"incorrect\":1"), "{done}");
        assert!(done.contains("\"unsupported\":1"), "{done}");
        let totals = d.totals_snapshot();
        assert_eq!(totals.pairs, 3);
        assert_eq!(totals.incorrect, 1);
    }

    #[test]
    fn control_requests_answer_inline() {
        let d = daemon(ServeOptions {
            mem_budget_mb: Some(512),
            ..ServeOptions::default()
        });
        let (record, sink) = test_sink();
        d.handle_line("{\"id\":\"p1\",\"op\":\"ping\"}", "d", &sink);
        d.handle_line("{\"id\":\"s1\",\"op\":\"stats\"}", "d", &sink);
        d.handle_line("garbage", "d", &sink);
        let lines = record.0.lock().unwrap();
        assert!(lines[0].contains("\"op\":\"pong\""));
        let stats = JsonValue::parse(&lines[1]).expect("stats line is valid JSON");
        assert_eq!(stats.get("id").unwrap().as_str(), Some("s1"));
        assert_eq!(stats.num("mem_budget_mb"), 512);
        assert!(stats.get("stats").is_some(), "cumulative telemetry block");
        assert!(lines[2].contains("\"id\":null") && lines[2].contains("malformed"));
        assert_eq!(d.malformed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn request_log_round_trips_and_dedupes_by_seq() {
        let pairs = vec![PairSpec {
            name: "p".into(),
            src: MUL2.into(),
            tgt: SHL1.into(),
        }];
        let rec = request_record(7, "b1", "alice", &pairs);
        let path =
            std::env::temp_dir().join(format!("alive2-serve-reqlog-{}.jsonl", std::process::id()));
        // Outcome entries and torn lines interleave with request records
        // in a real journal; the loader must skip them. The duplicate
        // seq-7 record models a replayed batch re-recording itself.
        std::fs::write(
            &path,
            format!(
                "{{\"run\":0,\"idx\":0,\"name\":\"p\",\"verdict\":\"correct\"}}\n\
                 {rec}\n{{\"serve_req\":9,\"rid\":\"b2\",\"client\":\"bob\",\"pairs\":[]}}\n\
                 {rec}\n{{\"serve_req\":"
            ),
        )
        .unwrap();
        let log = load_request_log(path.to_str().unwrap()).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].seq, 7);
        assert_eq!(log[0].id, "b1");
        assert_eq!(log[0].client, "alice");
        assert_eq!(log[0].pairs, pairs);
        assert_eq!(log[1].seq, 9);
        assert!(log[1].pairs.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_reemits_batches_in_order() {
        let d = daemon(ServeOptions::default());
        let (record, sink) = test_sink();
        let reqs = vec![
            LoggedRequest {
                seq: 0,
                id: "b1".into(),
                client: "a".into(),
                pairs: vec![PairSpec {
                    name: "p".into(),
                    src: MUL2.into(),
                    tgt: SHL1.into(),
                }],
            },
            LoggedRequest {
                seq: 1,
                id: "b2".into(),
                client: "a".into(),
                pairs: vec![PairSpec {
                    name: "q".into(),
                    src: MUL2.into(),
                    tgt: ADD2.into(),
                }],
            },
        ];
        assert_eq!(d.replay(&reqs, &sink), 2);
        let lines = record.0.lock().unwrap();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"id\":\"b1\"") && lines[0].contains("correct"));
        assert!(lines[2].contains("\"id\":\"b2\"") && lines[2].contains("incorrect"));
        // New admissions continue the seq space past the replayed log.
        assert_eq!(d.seq.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        {
            let sink = FrameSink::new(&mut buf);
            sink.send("{\"id\":\"x\"}");
            sink.send("second");
        }
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"id\":\"x\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        // A hostile length prefix is an error, not an allocation.
        let huge = [(0xffu8), 0xff, 0xff, 0xff];
        assert!(read_frame(&mut &huge[..]).is_err());
    }
}
