//! `bench` — the in-process performance benchmark: time to a verdict,
//! verdicts per second and the share of pairs decided within a limit, on
//! four closed-loop workloads, plus a traced per-layer split (see
//! `README.md` beside this file).
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!       [--trace-out FILE] [--repeat N]
//! ```
//!
//! Each run is one process: set-up builds the inputs from the seed, then
//! the timed passes run until `--seconds` have been measured. The last
//! line of standard output is one JSON object holding the verdict
//! accounting and every metric with its unit: the end-to-end metrics, or
//! with `--trace 1` the per-layer ones. The exit code is 1 when any
//! verdict contradicts its known answer.
//!
//! `--repeat N` runs the workload in N fresh processes, with seeds
//! `--seed` to `--seed`+N-1, and prints each metric's median and
//! quartile spread.

mod cpus;
mod load;
mod report;
mod speed;
mod trace;
mod workloads;

use load::System;
use report::Metric;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Inputs, Kind};

/// How long set-up repeats back to back each time the untraced session
/// steps aside. The first set-up after an item finds the caches full of
/// the item's data; the ones after it time the set-up alone.
const SETUP_BURST: Duration = Duration::from_millis(20);

/// One set-up: everything the run builds before its first timed pass,
/// the inputs from the seed and the engine or daemon the client calls.
/// Adds its time to `times`.
fn set_up(kind: Kind, seed: u64, times: &mut Vec<f64>) -> Result<(Inputs, System), String> {
    let t = Instant::now();
    let built = (Inputs::build(kind, seed)?, System::new(kind));
    times.push(t.elapsed().as_secs_f64());
    Ok(built)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
    repeat: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 15,
        trace: false,
        trace_out: None,
        repeat: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| bad(flag))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| bad(flag))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.clone()),
            "--repeat" => match value()?.parse() {
                Ok(n) if n > 0 => args.repeat = Some(n),
                _ => return Err(bad(flag)),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if Kind::from_name(&args.workload).is_none() {
        return Err(format!(
            "--workload must be known_bugs, unit_pipeline, apps or warm_serve (got `{}`)",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.repeat {
        Some(n) => repeat(&args, n),
        None => run(&args),
    }
}

fn run(args: &Args) -> ExitCode {
    let kind = Kind::from_name(&args.workload).expect("checked by parse_args");
    let mut setups = Vec::new();
    let (inputs, system) = match set_up(kind, args.seed, &mut setups) {
        Ok(built) => built,
        Err(e) => {
            eprintln!("bench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;

    // Between items, every quarter second, the untraced session stops its
    // clock and sets up again for `SETUP_BURST`. A shared machine runs
    // set-up, milliseconds of allocation, up to 1.7 times slower for
    // seconds at a time, so set-ups taken back to back in one place would
    // time that phase, not the set-up. `setup_s` is the median of all.
    let mut again = || {
        let burst = Instant::now();
        while burst.elapsed() < SETUP_BURST {
            drop(set_up(kind, args.seed, &mut setups).expect("it set up before"));
        }
    };
    // A traced run splits its time: untraced for the overhead baseline,
    // then traced, with a system of its own, for the per-layer split.
    let share = if args.trace { 0.5 } else { 1.0 };
    let base = load::measure(&inputs, &system, seconds * share, false, Some(&mut again));
    let setup_s = report::quartiles(&setups)[1];
    let traced = args
        .trace
        .then(|| load::measure(&inputs, &System::new(kind), seconds * share, true, None));
    let (session, metrics, tally) = match &traced {
        Some(t) => (t, report::per_layer(t, &base), report::tally(&[&base, t])),
        None => (
            &base,
            report::end_to_end(&base, setup_s, base.speed.factor()),
            report::tally(&[&base]),
        ),
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = trace::write_spans(path.as_ref(), &session.layers.spans) {
            eprintln!("bench: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "bench {} seed={} passes={} verdicts={} wall={:.2}s",
        args.workload,
        args.seed,
        session.passes,
        session.samples.len(),
        session.wall.as_secs_f64()
    );
    println!(
        "  attempted={} failed={} failed_share={} seeded_bugs_checked={} missed={}",
        tally.attempted,
        tally.failed,
        tally.failed_share(),
        inputs.must_detect.len(),
        session.missed_bugs
    );
    let (fastest, slowest) = setups
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    println!(
        "  set-up: {} runs, median {:.3} ms, {:.3} to {:.3} ms",
        setups.len(),
        setup_s * 1e3,
        fastest * 1e3,
        slowest * 1e3
    );
    println!(
        "  verdicts of the timed passes: {}",
        report::verdict_mix(&session.samples)
    );
    if !session.untimed.is_empty() {
        println!("  cold round 0: {:.3}s", session.cold_round.as_secs_f64());
    }
    println!("  peak RSS: {:.1} MiB", report::peak_rss_mb());
    println!(
        "  reference loop: {} runs, median {:.3} ms; end-to-end times scaled by {:.4}",
        base.speed.loops,
        base.speed.median_s * 1e3,
        base.speed.factor()
    );
    if traced.is_none() {
        for m in report::end_to_end(&base, setup_s, 1.0) {
            println!("  as measured: {:21} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
    for m in &metrics {
        println!("  {:36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report::result_line(&tally, &metrics));
    // The traced split must account for the clients' busy time; a gap
    // means a layer the spans and timers do not see.
    let uncovered = metrics
        .iter()
        .any(|m| m.name == "bench.busy_coverage_share" && m.value < 0.95);
    if uncovered {
        eprintln!("bench: the per-layer split covers less than 95% of client busy time");
    }
    if tally.failed == 0 && !uncovered {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the workload in `n` fresh processes with seeds `seed..seed+n`
/// and reports each metric's median, quartile spread and every value.
fn repeat(args: &Args, n: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("locate the bench executable");
    let mut runs: Vec<Vec<Metric>> = Vec::new();
    for i in 0..n as u64 {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("run the bench executable");
        let text = String::from_utf8_lossy(&out.stdout);
        let parsed = text.lines().last().and_then(report::parse_result_line);
        match parsed {
            Some((true, _, _, metrics)) if out.status.success() => runs.push(metrics),
            _ => {
                eprintln!("bench: run with seed {seed} failed:\n{text}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("bench: run {}/{n} done", i + 1);
    }
    println!(
        "{} x{n}, seeds {}..{}: median and (Q3-Q1)/median",
        args.workload,
        args.seed,
        args.seed + n as u64 - 1
    );
    for (k, m) in runs[0].iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| r[k].value).collect();
        let (median, spread) = if n >= 2 {
            report::spread(&values)
        } else {
            (values[0], 0.0)
        };
        let flag = if spread > 0.10 { " >10%" } else { "" };
        let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "  {:36} {:>12.4} {:>10} {:>6.2}%{flag}  [{}]",
            m.name,
            median,
            m.unit,
            spread * 100.0,
            each.join(" ")
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn benchmark_arguments_parse() {
        let a = parse_args(&argv("--workload apps --seed 3 --seconds 15 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("apps", 3, 15, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload apps --trace 2")).is_err());
        assert!(parse_args(&argv("--workload apps --seed")).is_err());
        assert!(parse_args(&argv("--workload apps --repeat 0")).is_err());
        assert!(parse_args(&argv("--workload apps --frobnicate 1")).is_err());
    }
}
