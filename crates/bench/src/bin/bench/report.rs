//! Turning sessions into named metrics: the tail rule, failure
//! accounting, the end-to-end and per-layer metric sets, and the result
//! line (written here, read back by `--repeat`).

use crate::load::{Layers, Sample, Session};
use crate::speed::at_reference;
use crate::trace::total_ns;
use std::fmt::Write;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// 1-based nearest rank of the `q` quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q` quantile. A reported
/// tail needs at least ten.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// The `q` quantile of `xs`, smoothed: a Gaussian-weighted average of
/// the order statistics around rank `q·n`, with the binomial standard
/// error of that rank as bandwidth, so that it does not jump between two
/// clusters of equal samples. 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let bandwidth = (q * (1.0 - q) / (n + 2.0)).sqrt().max(0.5 / n);
    let (mut sum, mut weights) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate() {
        let z = ((i as f64 + 0.5) / n - q) / bandwidth;
        let w = (-0.5 * z * z).exp();
        sum += w * x;
        weights += w;
    }
    ratio(sum, weights)
}

/// The mean of the slowest `share` of `xs`, the last sample inside it
/// counted by the fraction of it that fits; 0 for no samples. Unlike a
/// percentile it does not jump when the rank falls between two clusters
/// of equal samples, as the verdicts of a workload whose pairs repeat
/// once per pass do.
pub fn tail_mean(xs: &[f64], share: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let k = share * v.len() as f64;
    let (mut sum, mut left) = (0.0, k);
    for x in v {
        if left <= 0.0 {
            break;
        }
        sum += x * left.min(1.0);
        left -= 1.0;
    }
    ratio(sum, k)
}

/// Quartiles the way Python's `statistics.quantiles(xs, n=4)` computes
/// them (the default exclusive method); one sample is all three.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..=3i64).zip(&mut out) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0;
    }
    out
}

/// Median and the quartile distance as a share of it.
pub fn spread(xs: &[f64]) -> (f64, f64) {
    let [q1, med, q3] = quartiles(xs);
    (med, ratio(q3 - q1, med.abs()))
}

/// Verdict accounting over everything a session checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub decided: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts samples; `missed_bugs` adds one failure per seeded bug a
    /// pass did not detect.
    pub fn of(samples: &[Sample], missed_bugs: u64) -> Tally {
        let mut t = Tally {
            failed: missed_bugs,
            ..Tally::default()
        };
        for s in samples {
            t.attempted += 1;
            t.decided += u64::from(matches!(s.verdict, "correct" | "incorrect"));
            t.failed += u64::from(s.failed);
        }
        t
    }

    pub fn decided_share(&self) -> f64 {
        ratio(self.decided as f64, self.attempted as f64)
    }

    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The tally of sessions: timed and untimed verdicts alike.
pub fn tally(sessions: &[&Session]) -> Tally {
    let all: Vec<Sample> = sessions
        .iter()
        .flat_map(|s| s.samples.iter().chain(&s.untimed))
        .copied()
        .collect();
    Tally::of(&all, sessions.iter().map(|s| s.missed_bugs).sum())
}

/// Count and summed latency per verdict class, e.g. `timeout 17 (34.1s)`.
pub fn verdict_mix(samples: &[Sample]) -> String {
    let mut classes: Vec<(&str, usize, f64)> = Vec::new();
    for s in samples {
        let secs = s.latency.as_secs_f64();
        match classes.iter_mut().find(|c| c.0 == s.verdict) {
            Some(c) => (c.1, c.2) = (c.1 + 1, c.2 + secs),
            None => classes.push((s.verdict, 1, secs)),
        }
    }
    classes.sort_by(|a, b| a.0.cmp(b.0));
    let parts: Vec<String> = classes
        .iter()
        .map(|(v, n, secs)| format!("{v} {n} ({secs:.1}s)"))
        .collect();
    parts.join(", ")
}

/// Verdicts per second of the timed passes, their time scaled to the
/// reference speed by `factor` (see `speed`).
fn pairs_per_s(s: &Session, factor: f64) -> f64 {
    let wall = at_reference(s.wall.as_secs_f64(), s.waited.as_secs_f64(), factor);
    ratio(s.samples.len() as f64, wall)
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// The end-to-end metrics of an untraced session, its times scaled to
/// the reference speed by `factor` (see `speed`); 1 leaves them as
/// measured.
pub fn end_to_end(s: &Session, setup_s: f64, factor: f64) -> Vec<Metric> {
    let lat: Vec<f64> = (s.samples.iter())
        .map(|x| {
            let (secs, waited) = (x.latency.as_secs_f64(), x.waited.as_secs_f64());
            at_reference(secs, waited, factor) * 1e3
        })
        .collect();
    let t = tally(&[s]);
    vec![
        metric("pairs_per_s", pairs_per_s(s, factor), "1/s"),
        metric("verdict_tail_ms", tail_mean(&lat, 0.05), "ms"),
        metric("decided_share", t.decided_share(), "share"),
        metric("setup_s", setup_s * factor, "s"),
    ]
}

/// The per-layer metrics of a traced session. Times and counts are per
/// timed verdict; `untraced` gives the tracing overhead.
pub fn per_layer(s: &Session, untraced: &Session) -> Vec<Metric> {
    let l: &Layers = &s.layers;
    let pairs = s.samples.len() as f64;
    let per = |x: f64| ratio(x, pairs);
    let ms = |ns: u64| per(ns as f64 / 1e6);
    let serve = l.spans.iter().any(|x| x.name == "core.serve.request");
    // Direct workloads: the bench's own spans around parse and the engine.
    // `warm_serve`: parse runs inside the daemon, so the program's parse
    // timer counts it, and the whole request is the engine call.
    let (parse_ns, validate_ns) = if serve {
        (l.parse_ns, total_ns(&l.spans, "core.serve.request"))
    } else {
        (
            total_ns(&l.spans, "ir.parse_module"),
            total_ns(&l.spans, "core.engine.run"),
        )
    };
    let opt_ns = total_ns(&l.spans, "opt.run_with_snapshots");
    let inner = l.encode_ns + l.solve_ns + l.teardown_ns + if serve { l.parse_ns } else { 0 };
    let engine_self_ns = validate_ns as f64 - inner as f64;
    let busy_ns = total_ns(
        &l.spans,
        if serve {
            "core.serve.request"
        } else {
            "bench.item"
        },
    );
    let covered =
        (parse_ns + opt_ns + l.encode_ns + l.solve_ns + l.teardown_ns) as f64 + engine_self_ns;

    let st = &l.stats;
    let q = &l.profiles;
    let sum_wall = |f: &dyn Fn(&crate::trace::Query) -> bool| -> u64 {
        q.iter().filter(|x| f(x)).map(|x| x.wall_us * 1_000).sum()
    };
    let blasted: Vec<f64> = q
        .iter()
        .filter(|x| !x.discharged && x.clauses_pre > 0)
        .map(|x| x.clauses_pre as f64)
        .collect();
    let solved_us: Vec<f64> = q
        .iter()
        .filter(|x| x.solved)
        .map(|x| x.wall_us as f64)
        .collect();
    let query_ns = sum_wall(&|_| true);
    let hits = st.cache_hits as f64;
    let looked_up = hits + st.cache_misses as f64;
    let rewritten = (st.rewrite_discharged + st.rewrite_residue) as f64;

    vec![
        metric("ir.parse_ms", ms(parse_ns), "ms/pair"),
        metric(
            "ir.parse_mb_per_s",
            ratio(l.parse_bytes as f64 / 1e6, parse_ns as f64 / 1e9),
            "MB/s",
        ),
        metric("opt.pipeline_ms", ms(opt_ns), "ms/pair"),
        metric(
            "opt.changed_share",
            ratio(l.changed as f64, l.applications as f64),
            "share",
        ),
        metric("core.engine.validate_ms", ms(validate_ns), "ms/pair"),
        metric("core.engine.self_ms", per(engine_self_ns / 1e6), "ms/pair"),
        metric("sema.encode_ms", ms(l.encode_ns), "ms/pair"),
        metric(
            "sema.insts_encoded",
            per(st.insts_encoded as f64),
            "count/pair",
        ),
        metric("sema.terms", per(st.terms as f64), "count/pair"),
        metric(
            "sema.hc_hit_ratio",
            ratio(st.hc_hits as f64, (st.hc_hits + st.hc_misses) as f64),
            "share",
        ),
        metric("sema.approx", per(st.approx as f64), "count/pair"),
        metric("core.validator.solve_ms", ms(l.solve_ns), "ms/pair"),
        metric("core.validator.teardown_ms", ms(l.teardown_ns), "ms/pair"),
        metric(
            "core.validator.queries",
            per(st.queries as f64),
            "count/pair",
        ),
        metric(
            "smt.rewrite.discharged",
            per(st.rewrite_discharged as f64),
            "count/pair",
        ),
        metric(
            "smt.rewrite.discharge_ratio",
            ratio(st.rewrite_discharged as f64, rewritten),
            "share",
        ),
        metric(
            "smt.rewrite.steps",
            per(st.rewrite_steps as f64),
            "count/pair",
        ),
        metric(
            "smt.rewrite.discharged_query_ms",
            ms(sum_wall(&|x| x.discharged)),
            "ms/pair",
        ),
        metric(
            "smt.bitblast.cnf_clauses_p50",
            percentile(&blasted, 0.50),
            "count",
        ),
        metric(
            "smt.bitblast.cnf_clauses_p95",
            percentile(&blasted, 0.95),
            "count",
        ),
        metric("smt.cache.hits", per(hits), "count/pair"),
        metric(
            "smt.cache.misses",
            per(st.cache_misses as f64),
            "count/pair",
        ),
        metric("smt.cache.hit_ratio", ratio(hits, looked_up), "share"),
        metric(
            "smt.cache.bypassed",
            per(q.iter().filter(|x| x.bypassed).count() as f64),
            "count/pair",
        ),
        metric(
            "smt.cache.hit_query_ms",
            ms(sum_wall(&|x| x.cache_hit)),
            "ms/pair",
        ),
        metric("smt.cache.mem_kb", l.cache_mem_bytes as f64 / 1024.0, "KiB"),
        metric(
            "smt.sat.oneshot_solves",
            per(st.sat_solves as f64),
            "count/pair",
        ),
        metric(
            "smt.sat.incremental_solves",
            per(st.incremental_solves as f64),
            "count/pair",
        ),
        metric(
            "smt.sat.conflicts",
            per(q.iter().map(|x| x.conflicts).sum::<u64>() as f64),
            "count/pair",
        ),
        metric(
            "smt.sat.solved_query_ms",
            ms(sum_wall(&|x| x.solved)),
            "ms/pair",
        ),
        metric("smt.sat.query_p50_us", percentile(&solved_us, 0.50), "us"),
        metric("smt.sat.query_p95_us", percentile(&solved_us, 0.95), "us"),
        metric(
            "smt.exists_forall.cegqi_iters",
            per(st.cegqi_iters as f64),
            "count/pair",
        ),
        metric(
            "smt.exists_forall.iter_exhausted",
            per(st.cegqi_iter_exhausted as f64),
            "count/pair",
        ),
        metric(
            "smt.exists_forall.self_ms",
            per((l.solve_ns as f64 - query_ns as f64) / 1e6),
            "ms/pair",
        ),
        metric(
            "core.serve.handle_line_ms",
            ms(total_ns(&l.spans, "core.serve.handle_line")),
            "ms/pair",
        ),
        metric(
            "bench.trace_overhead_share",
            1.0 - ratio(
                pairs_per_s(s, s.speed.factor()),
                pairs_per_s(untraced, untraced.speed.factor()),
            ),
            "share",
        ),
        metric(
            "bench.busy_coverage_share",
            ratio(covered, busy_ns as f64),
            "share",
        ),
    ]
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(t: &Tally, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            body,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            finite(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed
    )
}

/// JSON has no NaN or infinity; no metric should produce one, but a
/// result line must stay parseable if one does.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// A result line read back: `(correct, attempted, failed, metrics)`.
pub type Parsed = (bool, u64, u64, Vec<Metric>);

/// Reads a result line. The workspace's JSON codec has no floats or
/// booleans, so this small reader covers the line's exact shape.
pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let mut r = Reader(line.trim().as_bytes(), 0);
    let (mut correct, mut attempted, mut failed, mut metrics) = (None, None, None, None);
    r.object(|r, key| {
        match key {
            "correct" => correct = Some(r.boolean()?),
            "attempted" => attempted = Some(r.number()? as u64),
            "failed" => failed = Some(r.number()? as u64),
            "metrics" => {
                let mut ms = Vec::new();
                r.object(|r, name| {
                    let (mut value, mut unit) = (None, None);
                    r.object(|r, k| {
                        match k {
                            "value" => value = Some(r.number()?),
                            "unit" => unit = Some(r.string()?),
                            _ => return None,
                        }
                        Some(())
                    })?;
                    ms.push(Metric {
                        name: name.to_string(),
                        value: value?,
                        unit: unit?,
                    });
                    Some(())
                })?;
                metrics = Some(ms);
            }
            _ => return None,
        }
        Some(())
    })?;
    (r.1 == r.0.len()).then_some(())?;
    Some((correct?, attempted?, failed?, metrics?))
}

struct Reader<'a>(&'a [u8], usize);

impl Reader<'_> {
    fn eat(&mut self, b: u8) -> Option<()> {
        (self.0.get(self.1) == Some(&b)).then(|| self.1 += 1)
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let start = self.1;
        while *self.0.get(self.1)? != b'"' {
            self.1 += 1;
        }
        self.1 += 1;
        String::from_utf8(self.0[start..self.1 - 1].to_vec()).ok()
    }

    fn number(&mut self) -> Option<f64> {
        let start = self.1;
        while self
            .0
            .get(self.1)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.1 += 1;
        }
        std::str::from_utf8(&self.0[start..self.1])
            .ok()?
            .parse()
            .ok()
    }

    fn boolean(&mut self) -> Option<bool> {
        for (word, v) in [(&b"true"[..], true), (&b"false"[..], false)] {
            if self.0[self.1..].starts_with(word) {
                self.1 += word.len();
                return Some(v);
            }
        }
        None
    }

    /// Reads `{"key":value,…}`, handing each key to `field`, which must
    /// consume its value.
    fn object(&mut self, mut field: impl FnMut(&mut Self, &str) -> Option<()>) -> Option<()> {
        self.eat(b'{')?;
        if self.eat(b'}').is_some() {
            return Some(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            field(self, &key)?;
            if self.eat(b'}').is_some() {
                return Some(());
            }
            self.eat(b',')?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample(verdict: &'static str, failed: bool) -> Sample {
        Sample {
            latency: Duration::from_millis(1),
            waited: Duration::ZERO,
            verdict,
            failed,
        }
    }

    #[test]
    fn percentile_rule_leaves_ten_samples_beyond() {
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        assert_eq!(beyond(432, 0.95), 21);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!((percentile(&xs, 0.50) - 100.5).abs() < 0.01);
        assert!((percentile(&xs, 0.95) - 190.5).abs() < 0.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn smoothed_median_is_steady_between_clusters() {
        // Two equal clusters: the sample median is the low cluster's
        // largest value and moves with it one for one; the smoothed one
        // sits between the clusters and moves less than a tenth as much.
        let mut xs: Vec<f64> = (0..100).map(|i| 1.0 + f64::from(i) * 1e-3).collect();
        xs.extend((0..100).map(|i| 2.0 + f64::from(i) * 1e-3));
        let m = percentile(&xs, 0.5);
        assert!((m - 1.55).abs() < 0.1, "{m}");
        xs[99] += 0.8;
        assert!((percentile(&xs, 0.5) - m).abs() < 0.8 / 10.0);
    }

    #[test]
    fn tail_mean_counts_the_boundary_sample_in_part() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // The slowest 5% of 200: 191 to 200.
        assert!((tail_mean(&xs, 0.05) - 195.5).abs() < 1e-9);
        // 5% of 30 is 1.5 samples: all of 30 and half of 29.
        let ys: Vec<f64> = (1..=30).map(f64::from).collect();
        assert!((tail_mean(&ys, 0.05) - (30.0 + 14.5) / 1.5).abs() < 1e-9);
        assert_eq!(tail_mean(&[], 0.05), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        let (med, sp) = spread(&xs);
        assert_eq!(med, 5.5);
        assert!((sp - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failures_count_against_attempts() {
        let samples = [
            sample("correct", false),
            sample("incorrect", false),
            sample("incorrect", true),
            sample("timeout", false),
            sample("crash", true),
            sample("rejected", true),
        ];
        let t = Tally::of(&samples, 1);
        assert_eq!(
            t,
            Tally {
                attempted: 6,
                decided: 3,
                failed: 4
            }
        );
        assert_eq!(t.decided_share(), 0.5);
        assert!((t.failed_share() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(Tally::of(&[], 0).failed_share(), 0.0);
    }

    #[test]
    fn end_to_end_times_scale_except_what_was_waited_out() {
        let samples: Vec<Sample> = (1..=40u64)
            .map(|i| Sample {
                latency: Duration::from_millis(100 * i),
                // The slowest pair ran into its limit after 2 s of 4 s.
                waited: Duration::from_millis(if i == 40 { 2_000 } else { 0 }),
                verdict: if i == 40 { "timeout" } else { "correct" },
                failed: false,
            })
            .collect();
        let s = Session {
            samples,
            wall: Duration::from_secs(10),
            waited: Duration::from_secs(2),
            ..Session::default()
        };
        let get = |ms: &[Metric], name: &str| ms.iter().find(|m| m.name == name).unwrap().value;
        let measured = end_to_end(&s, 0.004, 1.0);
        let halved = end_to_end(&s, 0.004, 0.5);
        assert_eq!(get(&measured, "pairs_per_s"), 4.0);
        assert_eq!(get(&halved, "pairs_per_s"), 40.0 / (8.0 * 0.5 + 2.0));
        // The slowest 5% of 40 are the two slowest: 4 s with 2 s waited
        // out, and 3.9 s.
        assert!((get(&measured, "verdict_tail_ms") - 3950.0).abs() < 1e-9);
        assert!((get(&halved, "verdict_tail_ms") - (3000.0 + 1950.0) / 2.0).abs() < 1e-9);
        assert_eq!(get(&halved, "setup_s"), 0.002);
        assert_eq!(get(&halved, "decided_share"), 39.0 / 40.0);
    }

    #[test]
    fn result_line_round_trips() {
        let t = Tally {
            attempted: 432,
            decided: 400,
            failed: 0,
        };
        let ms = vec![
            metric("pairs_per_s", 27.5, "1/s"),
            metric("setup_s", 0.000123, "s"),
            metric("bench.trace_overhead_share", -0.02, "share"),
            metric("nan", f64::NAN, "ms"),
        ];
        let line = result_line(&t, &ms);
        let (correct, attempted, failed, back) = parse_result_line(&line).expect("parses");
        assert!(correct);
        assert_eq!((attempted, failed), (432, 0));
        assert_eq!(back[..3], ms[..3]);
        assert_eq!(back[3].value, 0.0);
        assert!(parse_result_line(&format!("{line}x")).is_none());
        assert!(parse_result_line("{\"correct\":true}").is_none());
    }
}
