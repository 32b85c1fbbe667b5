//! The closed-loop load generator: one client takes the next item of a
//! seed-shuffled list, calls the layer's public entry point, waits for
//! its verdicts and times the call itself.
//!
//! The list is walked in passes, each in its own order. A run takes
//! whole passes only, and starts another one while that brings its
//! length closer to `--seconds`, or while its slowest 5% of verdicts
//! would hold fewer than ten.
//!
//! There is one client, on the thread that runs the session. A second
//! one would share the machine's two vCPUs with the operating system and
//! the process that started the benchmark, and its memory traffic would
//! slow the first client's pairs by amounts that change from pass to
//! pass; one client leaves the other vCPU to them. It moves from one
//! vCPU to the next every quarter second (see `cpus`), and times the
//! reference loop there (see `speed`).

use crate::cpus::{self, Rotation};
use crate::report::beyond;
use crate::speed::{Probe, Speed};
use crate::trace::{read_profiles, Query, Recorder, Span};
use crate::workloads::{Inputs, Item, Kind};
use alive2_core::engine::{Job, ValidationEngine};
use alive2_core::serve::{Daemon, ResponseSink, ServeOptions};
use alive2_ir::parser::parse_module;
use alive2_obs::json::JsonValue;
use alive2_obs::{Phase, StatsTotals};
use alive2_opt::pass::PassManager;
use alive2_sema::config::EncodeConfig;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One verdict as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Submit to verdict.
    pub latency: Duration,
    /// The part of `latency` spent in engine calls that ran into the
    /// pair's limit.
    pub waited: Duration,
    /// `Verdict::kind()`, or `"rejected"` for a refused request.
    pub verdict: &'static str,
    /// Crashed, refused, or contradicts its known answer.
    pub failed: bool,
}

/// What one session (untraced or traced) measured.
#[derive(Default)]
pub struct Session {
    /// Verdicts of the timed passes (the warm rounds for `warm_serve`).
    pub samples: Vec<Sample>,
    /// Verdicts checked but not timed (`warm_serve`'s cold round 0).
    pub untimed: Vec<Sample>,
    /// From the start of the timed passes to the last verdict.
    pub wall: Duration,
    /// The part of `wall` spent in engine calls that ran into the limit.
    pub waited: Duration,
    /// How fast the reference loop ran during the session.
    pub speed: Speed,
    /// Wall time of `warm_serve`'s cold round 0.
    pub cold_round: Duration,
    pub passes: usize,
    /// Seeded bugs a pass failed to detect, summed over passes.
    pub missed_bugs: u64,
    /// Layer counters, filled only when traced.
    pub layers: Layers,
}

/// Raw per-layer measurements of the timed passes of a traced session.
#[derive(Default)]
pub struct Layers {
    pub spans: Vec<Span>,
    pub stats: StatsTotals,
    /// Busy time the program's own timers accumulated, by phase.
    pub parse_ns: u64,
    pub encode_ns: u64,
    pub solve_ns: u64,
    pub teardown_ns: u64,
    pub profiles: Vec<Query>,
    pub parse_bytes: u64,
    /// (function, pass) applications and how many changed the function.
    pub applications: u64,
    pub changed: u64,
    pub cache_mem_bytes: u64,
}

/// The client's log of a stream of passes.
struct ClientLog {
    samples: Vec<Sample>,
    /// Time in engine calls that ran into the limit.
    waited: Duration,
    rec: Recorder,
    stats: StatsTotals,
    parse_bytes: u64,
    applications: u64,
    changed: u64,
    /// Per pass, bit `k` set: seeded pipeline `k` was detected.
    detected: Vec<u64>,
}

impl ClientLog {
    fn new(epoch: Instant, traced: bool) -> ClientLog {
        ClientLog {
            samples: Vec::new(),
            waited: Duration::ZERO,
            rec: Recorder::new(traced, epoch),
            stats: StatsTotals::default(),
            parse_bytes: 0,
            applications: 0,
            changed: 0,
            detected: Vec::new(),
        }
    }

    /// Records a verdict; `waited` is the part of its latency spent in
    /// engine calls that ran into the limit.
    fn verdict(
        &mut self,
        item: &Item,
        pass: usize,
        submitted: Instant,
        waited: Duration,
        verdict: &'static str,
    ) {
        let (wrong, detection) = item.expect.check(verdict == "incorrect");
        if let Some(k) = detection {
            if self.detected.len() <= pass {
                self.detected.resize(pass + 1, 0);
            }
            self.detected[pass] |= 1 << k;
        }
        self.samples.push(Sample {
            latency: submitted.elapsed(),
            waited,
            verdict,
            failed: wrong || matches!(verdict, "crash" | "rejected"),
        });
    }
}

/// Successive passes over the list, each in its own order, handed out
/// one item at a time. A cold feed clears the query cache when a pass
/// starts, so no pass reads what an earlier one wrote.
struct Feed<I> {
    orders: I,
    /// Items of the current pass not handed out yet, last first.
    left: Vec<usize>,
    passes: usize,
    cold: bool,
    seconds: f64,
    max_passes: usize,
    started: Instant,
}

impl<I: Iterator<Item = Vec<usize>>> Feed<I> {
    fn new(orders: I, cold: bool, seconds: f64, max_passes: usize) -> Self {
        Feed {
            orders,
            left: Vec::new(),
            passes: 0,
            cold,
            seconds,
            max_passes,
            started: Instant::now(),
        }
    }

    /// The next `(pass, item)`, or `None` once the run has taken enough,
    /// with `verdicts` taken so far.
    fn take(&mut self, verdicts: usize) -> Option<(usize, usize)> {
        if self.left.is_empty() {
            let t = self.started.elapsed().as_secs_f64();
            let per_pass = t / self.passes.max(1) as f64;
            let long_enough = t + per_pass / 2.0 >= self.seconds && beyond(verdicts, 0.95) >= 10;
            if self.passes >= self.max_passes || (self.passes > 0 && long_enough) {
                return None;
            }
            self.left = self.orders.next()?;
            self.left.reverse();
            self.passes += 1;
            if self.cold {
                alive2_smt::cache::global().clear_memory();
            }
        }
        Some((self.passes - 1, self.left.pop()?))
    }
}

/// How often, in measured time, the client pauses between items.
const PAUSE_EVERY: Duration = Duration::from_millis(250);

/// What the client does between two items once every `PAUSE_EVERY`,
/// with the clock stopped: it moves its threads on to the next CPU,
/// times the reference loop there, and runs `work` if there is any.
struct Pause<'a> {
    cpus: Rotation,
    probe: Probe,
    work: Option<&'a mut dyn FnMut()>,
    last: Instant,
}

impl Pause<'_> {
    /// Pauses if a pause is due; returns how long it took.
    fn take(&mut self) -> Duration {
        if self.last.elapsed() < PAUSE_EVERY {
            return Duration::ZERO;
        }
        let stopped = Instant::now();
        self.cpus.step();
        self.probe.sample();
        if let Some(work) = self.work.as_mut() {
            work();
        }
        self.last = Instant::now();
        self.last - stopped
    }
}

/// Runs the feed through `step(pass, item, log)`, pausing between items;
/// returns the time to the last verdict and the client's log.
fn run_stream<I: Iterator<Item = Vec<usize>>>(
    feed: &mut Feed<I>,
    traced: bool,
    epoch: Instant,
    pause: &mut Pause,
    mut step: impl FnMut(usize, usize, &mut ClientLog),
) -> (Duration, ClientLog) {
    let mut log = ClientLog::new(epoch, traced);
    let mut wall = Duration::ZERO;
    while let Some((pass, idx)) = feed.take(log.samples.len()) {
        step(pass, idx, &mut log);
        wall = feed.started.elapsed();
        feed.started += pause.take();
    }
    (wall, log)
}

/// What the client calls: an engine, or (`warm_serve`) an in-process
/// daemon with the default engine. A session needs a fresh one, since a
/// daemon keeps its warm state until it is closed.
pub enum System {
    Engine(ValidationEngine),
    Daemon(Box<Daemon>),
}

impl System {
    pub fn new(kind: Kind) -> System {
        const BUDGET_MB: u64 = 512;
        let limit = Some(kind.limit_ms());
        match kind {
            Kind::WarmServe => {
                let opts = ServeOptions {
                    mem_budget_mb: Some(BUDGET_MB),
                    ..ServeOptions::default()
                };
                System::Daemon(Box::new(Daemon::new(
                    ValidationEngine::default().with_deadline_ms(limit),
                    EncodeConfig::with_mem_budget_mb(BUDGET_MB),
                    opts,
                )))
            }
            _ => System::Engine(ValidationEngine::new(1).with_deadline_ms(limit)),
        }
    }
}

/// Measures one session of the workload on a system fresh from set-up.
/// Once every `PAUSE_EVERY` the client stops the clock between items,
/// moves on to the next CPU, times the reference loop, and runs `work`
/// if given.
pub fn measure(
    inputs: &Inputs,
    system: &System,
    seconds: f64,
    traced: bool,
    work: Option<&mut dyn FnMut()>,
) -> Session {
    let mut session = Session::default();
    let epoch = Instant::now();
    let tracing = traced.then(Tracing::start);
    let mut pause = Pause {
        cpus: Rotation::new(),
        probe: Probe::new(),
        work,
        last: epoch,
    };
    pause.probe.sample();
    match system {
        System::Engine(engine) => direct_session(
            inputs,
            engine,
            seconds,
            epoch,
            tracing,
            &mut pause,
            &mut session,
        ),
        System::Daemon(daemon) => serve_session(
            inputs,
            daemon,
            seconds,
            epoch,
            tracing,
            &mut pause,
            &mut session,
        ),
    }
    session.speed = pause.probe.speed();
    session
}

/// Folds the log of a stream of `passes` passes into the session.
fn absorb(session: &mut Session, inputs: &Inputs, log: ClientLog, passes: usize, timed: bool) {
    for pass in 0..passes {
        let detected = log.detected.get(pass).copied().unwrap_or(0);
        let missing = inputs
            .must_detect
            .iter()
            .filter(|&&k| detected & (1 << k) == 0);
        session.missed_bugs += missing.count() as u64;
    }
    if timed {
        session.waited += log.waited;
        session.samples.extend(log.samples);
    } else {
        session.untimed.extend(log.samples);
    }
    let l = &mut session.layers;
    let offset = l.spans.len();
    l.spans.extend(log.rec.into_spans(offset));
    l.stats.merge(&log.stats);
    l.parse_bytes += log.parse_bytes;
    l.applications += log.applications;
    l.changed += log.changed;
}

/// The program's own counters, armed for a traced session: phase timers
/// and the per-query profile sink, which writes to a file under the
/// build directory.
struct Tracing {
    profiles: std::path::PathBuf,
}

impl Tracing {
    fn start() -> Tracing {
        let dir = std::path::PathBuf::from(
            std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
        );
        std::fs::create_dir_all(&dir).expect("create the profile directory");
        let profiles = dir.join(format!("bench-profile-{}.jsonl", std::process::id()));
        Tracing { profiles }.rearm()
    }

    /// Zeroes the phase timers and (re)opens the profile sink: the
    /// traced window starts here.
    fn rearm(self) -> Tracing {
        alive2_obs::reset_phase_totals();
        alive2_obs::set_timing(true);
        alive2_obs::profile::arm_sink(&self.profiles).expect("open the profile sink");
        self
    }

    fn finish(self, layers: &mut Layers) {
        alive2_obs::set_timing(false);
        layers.parse_ns = alive2_obs::phase_total_ns(Phase::Parse);
        layers.encode_ns = alive2_obs::phase_total_ns(Phase::Encode);
        layers.solve_ns = alive2_obs::phase_total_ns(Phase::Solve);
        layers.teardown_ns = alive2_obs::phase_total_ns(Phase::Teardown);
        alive2_obs::profile::finish_sink(&layers.stats).expect("flush the profile sink");
        layers.profiles = read_profiles(&self.profiles).expect("read the profile sink");
        let _ = std::fs::remove_file(&self.profiles);
        layers.cache_mem_bytes = alive2_smt::cache::global().mem_bytes() as u64;
    }
}

/// `known_bugs`, `unit_pipeline`, `apps`: the client calls the engine
/// directly, on its own thread; every pass starts with a cold cache.
fn direct_session(
    inputs: &Inputs,
    engine: &ValidationEngine,
    seconds: f64,
    epoch: Instant,
    tracing: Option<Tracing>,
    pause: &mut Pause,
    session: &mut Session,
) {
    let cfg = EncodeConfig::default();
    let mut feed = Feed::new(inputs.pass_orders(), true, seconds, usize::MAX);
    let traced = tracing.is_some();
    let (wall, log) = run_stream(&mut feed, traced, epoch, pause, |pass, idx, log| {
        direct_item(inputs, engine, &cfg, pass, idx, log)
    });
    session.wall = wall;
    session.passes = feed.passes;
    absorb(session, inputs, log, session.passes, true);
    if let Some(t) = tracing {
        t.finish(&mut session.layers);
    }
}

/// One item: parse, optimize unless the target is given, then validate
/// each changed pair with its own `engine.run` call.
fn direct_item(
    inputs: &Inputs,
    engine: &ValidationEngine,
    cfg: &EncodeConfig,
    pass: usize,
    idx: usize,
    log: &mut ClientLog,
) {
    let item = &inputs.items[idx];
    let submitted = Instant::now();
    let top = log.rec.open("bench.item", idx, None);
    let parse = |log: &mut ClientLog, text: &str| {
        let sp = log.rec.open("ir.parse_module", idx, top);
        let m = parse_module(text).expect("set-up checked that every input parses");
        log.rec.close(sp);
        log.parse_bytes += text.len() as u64;
        m
    };
    let src = parse(log, &item.src);
    let tgt = item.tgt.as_deref().map(|t| parse(log, t));
    let pairs = match &tgt {
        Some(tgt) => {
            let s = &src.functions[0];
            let t = tgt
                .function(&s.name)
                .expect("a known bug keeps its function");
            vec![(s.clone(), t.clone())]
        }
        None => {
            let pm = PassManager::default_pipeline(inputs.pipelines[item.pipeline].clone());
            let mut pairs = Vec::new();
            for f in &src.functions {
                let sp = log.rec.open("opt.run_with_snapshots", idx, top);
                let snaps = pm.run_with_snapshots(&mut f.clone());
                log.rec.close(sp);
                log.applications += pm.pass_names().len() as u64;
                log.changed += snaps.len() as u64;
                pairs.extend(snaps.into_iter().map(|(_, before, after)| (before, after)));
            }
            pairs
        }
    };
    let mut waited = Duration::ZERO;
    for (before, after) in &pairs {
        let job = Job {
            name: item.name.clone(),
            module: &src,
            src: before,
            tgt: after,
            cfg: *cfg,
        };
        let sp = log.rec.open("core.engine.run", idx, top);
        let called = Instant::now();
        let outcome = engine.run(std::slice::from_ref(&job)).remove(0);
        let kind = outcome.verdict.kind();
        if kind == "timeout" {
            let call = called.elapsed();
            waited += call;
            log.waited += call;
        }
        log.rec.close(sp);
        log.verdict(item, pass, submitted, waited, kind);
        if log.rec.enabled() {
            log.stats.add_job(&outcome.stats);
        }
    }
    log.rec.close(top);
}

/// Delivers the daemon's responses for one request to the client.
struct ChannelSink(mpsc::Sender<String>);

impl ResponseSink for ChannelSink {
    fn send(&self, line: &str) {
        // The client stops listening only after the batch's done line.
        let _ = self.0.send(line.to_string());
    }
}

/// `warm_serve`: one in-process daemon with its single executor thread;
/// the client sends one-pair `validate` requests through `handle_line`.
/// Round 0 starts from a cold cache and is checked but not timed; the
/// warm rounds after it are the timed passes.
fn serve_session(
    inputs: &Inputs,
    daemon: &Daemon,
    seconds: f64,
    epoch: Instant,
    tracing: Option<Tracing>,
    pause: &mut Pause,
    session: &mut Session,
) {
    let mut orders = inputs.pass_orders();
    alive2_smt::cache::global().clear_memory();
    let tracing = std::thread::scope(|s| {
        let (tid_tx, tid_rx) = mpsc::channel();
        let executor = s.spawn(move || {
            let _ = tid_tx.send(cpus::thread_id());
            daemon.run_until_drained()
        });
        // Closed on every exit from this scope, a panic included, so the
        // executor drains and the scope can join it.
        let closer = CloseOnDrop(daemon);
        // The executor does the client's work, so it moves with it.
        pause
            .cpus
            .follow(tid_rx.recv().expect("the executor thread starts"));
        let step = |pass, idx, log: &mut ClientLog| serve_item(daemon, inputs, pass, idx, log);
        let mut cold = Feed::new(&mut orders, false, 0.0, 1);
        let (round0, log) = run_stream(&mut cold, false, epoch, pause, step);
        session.cold_round = round0;
        absorb(session, inputs, log, 1, false);
        // The traced window covers the warm rounds only.
        let tracing = tracing.map(Tracing::rearm);
        let mut warm = Feed::new(&mut orders, false, seconds, usize::MAX);
        let (wall, log) = run_stream(&mut warm, tracing.is_some(), epoch, pause, step);
        session.wall = wall;
        session.passes = warm.passes;
        absorb(session, inputs, log, session.passes, true);
        drop(closer);
        executor.join().expect("the executor thread panicked");
        tracing
    });
    if let Some(t) = tracing {
        t.finish(&mut session.layers);
    }
}

struct CloseOnDrop<'a>(&'a Daemon);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One request, from submitting its line to the batch's done line. The
/// executor runs one batch at a time and this is the only client, so the
/// whole request is the executor's batch.
fn serve_item(daemon: &Daemon, inputs: &Inputs, pass: usize, idx: usize, log: &mut ClientLog) {
    let item = &inputs.items[idx];
    let (tx, rx) = mpsc::channel();
    let sink: Arc<dyn ResponseSink> = Arc::new(ChannelSink(tx));
    log.parse_bytes += (item.src.len() + item.tgt.as_ref().map_or(0, String::len)) as u64;
    let submitted = Instant::now();
    let top = log.rec.open("core.serve.request", idx, None);
    let sp = log.rec.open("core.serve.handle_line", idx, top);
    daemon.handle_line(&item.request, "client", &sink);
    log.rec.close(sp);
    drop(sink);
    let mut answered = false;
    for line in rx.iter() {
        if line.contains("\"done\":true") {
            if log.rec.enabled() {
                // The workspace codec reads no booleans, so parse only the
                // batch's stats object, the line's last field.
                let stats = line
                    .split_once("\"stats\":")
                    .and_then(|(_, rest)| JsonValue::parse(rest.strip_suffix('}')?))
                    .expect("a done line ends with its stats object");
                log.stats.merge(&StatsTotals::from_json(&stats));
            }
            break;
        }
        let verdict = JsonValue::parse(&line)
            .and_then(|v| {
                v.get("verdict")
                    .and_then(JsonValue::as_str)
                    .map(verdict_kind)
            })
            .unwrap_or("rejected");
        answered = true;
        // One pair per request: a timeout took the whole request.
        let waited = if verdict == "timeout" {
            submitted.elapsed()
        } else {
            Duration::ZERO
        };
        log.waited += waited;
        log.verdict(item, pass, submitted, waited, verdict);
        if verdict == "rejected" {
            break;
        }
    }
    if !answered {
        log.verdict(item, pass, submitted, Duration::ZERO, "rejected");
    }
    log.rec.close(top);
}

/// Maps a response's verdict string back to `Verdict::kind()`'s names.
fn verdict_kind(s: &str) -> &'static str {
    const KINDS: [&str; 8] = [
        "correct",
        "incorrect",
        "inconclusive",
        "precondition_false",
        "timeout",
        "oom",
        "unsupported",
        "crash",
    ];
    KINDS.into_iter().find(|k| *k == s).unwrap_or("rejected")
}
