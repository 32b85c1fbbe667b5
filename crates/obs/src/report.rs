//! Human-readable `--stats` rendering and the summary-JSON `phases`
//! fragment shared by every driver.

use crate::profile::ProfileSummary;
use crate::span::{phase_total_ns, Phase, BREAKDOWN};
use crate::stats::{Group, StatsTotals, COUNTERS};

/// Renders the summary-JSON `phases` object: per-phase busy time plus
/// the run's wall time, all in microseconds. At `--jobs 1` the phase
/// values partition busy time, so their sum tracks `wall_us` closely
/// (the residue is driver overhead: I/O, job dispatch, reporting).
pub fn phases_json_obj(wall_us: u64) -> String {
    let mut parts: Vec<String> = BREAKDOWN
        .iter()
        .map(|p| format!("\"{}_us\":{}", p.as_str(), phase_total_ns(*p) / 1_000))
        .collect();
    parts.push(format!("\"wall_us\":{wall_us}"));
    format!("{{{}}}", parts.join(","))
}

fn pct(us: u64, wall_us: u64) -> f64 {
    if wall_us == 0 {
        0.0
    } else {
        100.0 * us as f64 / wall_us as f64
    }
}

/// Renders the `--stats` per-phase time breakdown table.
pub fn render_phase_table(wall_us: u64) -> String {
    let mut out = String::new();
    out.push_str("-- phase breakdown ------------------------------\n");
    let mut busy_us = 0u64;
    for p in BREAKDOWN {
        let us = phase_total_ns(p) / 1_000;
        busy_us += us;
        out.push_str(&format!(
            "  {:10} {:>10.1} ms {:>6.1}%\n",
            p.as_str(),
            us as f64 / 1_000.0,
            pct(us, wall_us)
        ));
    }
    out.push_str(&format!(
        "  {:10} {:>10.1} ms {:>6.1}% of wall\n",
        "busy total",
        busy_us as f64 / 1_000.0,
        pct(busy_us, wall_us)
    ));
    out.push_str(&format!(
        "  {:10} {:>10.1} ms\n",
        "wall",
        wall_us as f64 / 1_000.0
    ));
    out
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Renders the `--stats` counter-totals block: one line per counter
/// group, walking the table's rows, plus the derived figures (the SMT
/// check total, hit rates, the memory peak) and the hand-written fields.
pub fn render_counters(t: &StatsTotals) -> String {
    let mut out = String::new();
    out.push_str("-- counters -------------------------------------\n");
    out.push_str(&format!(
        "  jobs {}, refinement queries {}\n",
        t.jobs, t.queries
    ));
    let values = t.values();
    for group in Group::ALL {
        let rows: Vec<String> = COUNTERS
            .iter()
            .zip(values)
            .filter(|(c, _)| c.group == group)
            .map(|(c, v)| format!("{} {v}", c.label))
            .collect();
        let derived = match group {
            Group::Smt => format!(" ({} in total)", t.smt_sat + t.smt_unsat + t.smt_unknown),
            Group::Cache => format!(
                " ({:.1}% hits)",
                pct(t.cache_hits, t.cache_hits + t.cache_misses)
            ),
            Group::Terms => format!(
                " ({:.1}% hits), peak term mem {:.2} MiB",
                pct(t.hc_hits, t.hc_hits + t.hc_misses),
                mib(t.mem_peak_bytes)
            ),
            _ => String::new(),
        };
        out.push_str(&format!(
            "  {}: {}{derived}\n",
            group.title(),
            rows.join(", ")
        ));
    }
    out.push_str(&format!(
        "  supervision: pairs quarantined {} (watchdog kills {}), worker restarts {}, shards retried {}\n",
        t.pairs_quarantined, t.watchdog_kills, t.worker_restarts, t.shards_retried
    ));
    out.push_str(&format!(
        "  trace dropped {} events (buffer cap {})\n",
        crate::trace::dropped(),
        crate::trace::MAX_EVENTS
    ));
    out.push_str("-- query histograms -----------------------------\n");
    out.push_str(&format!("  latency      {}\n", t.h_latency_us.render("us")));
    out.push_str(&format!(
        "  cnf size     {}\n",
        t.h_cnf_clauses.render("clauses")
    ));
    out.push_str(&format!(
        "  conflicts    {}\n",
        t.h_conflicts.render("conflicts")
    ));
    out
}

/// Renders the `--stats` "slowest queries" section from the profile
/// collector's top-K snapshot.
pub fn render_top_queries(s: &ProfileSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "-- top {} slowest queries -----------------------\n",
        crate::profile::TOP_K
    ));
    if s.top.is_empty() {
        out.push_str("  (no queries profiled)\n");
    }
    for (rank, q) in s.top.iter().enumerate() {
        let kind = if q.discharged {
            "discharged"
        } else if q.incremental {
            "incremental"
        } else {
            "one-shot"
        };
        let iter = match q.cegqi_iter {
            Some(i) => format!(" cegqi#{i}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "  #{:<2} {:>9} us  {:<8} {:<11} job {}{iter}  cnf {}v/{}c  conflicts {}  decisions {}  propagations {}  cache {:?}\n",
            rank + 1,
            q.wall_us,
            q.result,
            kind,
            if q.job.is_empty() { "?" } else { &q.job },
            q.vars_pre,
            q.clauses_post,
            q.conflicts,
            q.decisions,
            q.propagations,
            q.cache
        ));
    }
    out.push_str(&format!(
        "  profiles {} ({} live solves), ring-dropped {}\n",
        s.total, s.solved, s.dropped
    ));
    out
}

/// One `Phase` busy total in microseconds (convenience for drivers).
pub fn phase_us(p: Phase) -> u64 {
    phase_total_ns(p) / 1_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn phases_json_has_every_breakdown_phase_and_wall() {
        let v = JsonValue::parse(&phases_json_obj(123_456)).expect("valid JSON");
        for p in BREAKDOWN {
            assert!(
                v.get(&format!("{}_us", p.as_str())).is_some(),
                "missing {}",
                p.as_str()
            );
        }
        assert_eq!(v.num("wall_us"), 123_456);
    }

    #[test]
    fn render_is_nonempty_and_mentions_phases() {
        let table = render_phase_table(1_000);
        assert!(table.contains("encode"));
        assert!(table.contains("solve"));
        assert!(table.contains("wall"));
        let counters = render_counters(&StatsTotals::default());
        assert!(counters.contains("smt checks"));
        assert!(counters.contains("hash-cons"));
        assert!(counters.contains("query cache"));
        assert!(counters.contains("live SAT solves"));
        assert!(counters.contains("pairs quarantined"));
        assert!(counters.contains("worker restarts"));
        assert!(counters.contains("term rewriting"));
        assert!(counters.contains("rule fires"));
        assert!(counters.contains("trace dropped"));
        assert!(counters.contains("query histograms"));
        assert!(counters.contains("latency"));
    }

    #[test]
    fn top_queries_section_lists_ranked_profiles() {
        use crate::profile::QueryProfile;
        let empty = render_top_queries(&ProfileSummary::default());
        assert!(empty.contains("top 10 slowest queries"));
        assert!(empty.contains("no queries profiled"));

        let s = ProfileSummary {
            top: vec![QueryProfile {
                job: "pair-x".into(),
                wall_us: 1234,
                vars_pre: 8,
                clauses_post: 21,
                conflicts: 3,
                decisions: 4_096,
                propagations: 65_537,
                solved: true,
                cegqi_iter: Some(2),
                result: "unsat",
                ..QueryProfile::default()
            }],
            total: 7,
            solved: 4,
            dropped: 1,
        };
        let text = render_top_queries(&s);
        assert!(text.contains("#1"));
        assert!(text.contains("1234"));
        assert!(text.contains("job pair-x"));
        assert!(text.contains("cegqi#2"));
        assert!(text.contains("cnf 8v/21c"));
        assert!(text.contains("conflicts 3  decisions 4096  propagations 65537"));
        assert!(text.contains("profiles 7 (4 live solves), ring-dropped 1"));
    }
}
