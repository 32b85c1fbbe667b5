//! End-to-end process-supervision tests (the robustness PR's acceptance
//! scenario), driving the real `alive2_tv` binary: a corpus run where one
//! job aborts the worker process and one job hangs it must complete, exit
//! 0, and quarantine exactly the poisoned pairs — everything else keeps
//! its single-process verdict. Also covered: an externally SIGKILLed
//! worker, a SIGKILLed *parent* resumed via `--journal`/`--resume`, and
//! clean-run verdict parity between `--procs N` and plain execution.
//!
//! These tests spawn processes and scan `/proc`, so they are Linux-only
//! (as is the supervisor's target environment).
#![cfg(target_os = "linux")]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// Six function pairs, all refinement-correct so every run exits 0, and
/// all textually differing (byte-identical pairs are resolved without
/// running an engine job, which would bypass the fault injections): four
/// genuine transforms plus the two no-op-elimination pairs the fault
/// flags target by name (`--inject-abort aborted`, `--inject-hang hung`).
/// `hung` is deliberately LAST so its global job index (5) — and with
/// `--shard-size 1` its worker's `--worker-shard 0:5:6` argv — is known.
const SRC: &str = r#"
define i8 @f0(i8 %x) {
entry:
  %r = mul i8 %x, 2
  ret i8 %r
}
define i16 @f1(i16 %x) {
entry:
  %r = add i16 %x, %x
  ret i16 %r
}
define i32 @f2(i32 %x) {
entry:
  %c = icmp slt i32 %x, 0
  %r = select i1 %c, i32 0, i32 %x
  ret i32 %r
}
define i8 @f3(i8 %x) {
entry:
  %r = xor i8 %x, 0
  ret i8 %r
}
define i8 @aborted(i8 %x) {
entry:
  %r = add i8 %x, 0
  ret i8 %r
}
define i8 @hung(i8 %x) {
entry:
  %r = or i8 %x, 0
  ret i8 %r
}
"#;

const TGT: &str = r#"
define i8 @f0(i8 %x) {
entry:
  %r = shl i8 %x, 1
  ret i8 %r
}
define i16 @f1(i16 %x) {
entry:
  %r = shl i16 %x, 1
  ret i16 %r
}
define i32 @f2(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  %r = select i1 %c, i32 %x, i32 0
  ret i32 %r
}
define i8 @f3(i8 %x) {
entry:
  ret i8 %x
}
define i8 @aborted(i8 %x) {
entry:
  ret i8 %x
}
define i8 @hung(i8 %x) {
entry:
  ret i8 %x
}
"#;

const PAIRS: u64 = 6;
const HUNG_SHARD: &str = "0:5:6"; // `hung` is job 5 of run 0 at --shard-size 1

/// Writes the corpus under a per-test temp dir and returns
/// (src_path, tgt_path). The unique path doubles as the `/proc` cmdline
/// fingerprint that keeps concurrent tests from killing each other's
/// workers.
fn fixture(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("alive2-supervise-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("src.ll");
    let tgt = dir.join("tgt.ll");
    std::fs::write(&src, SRC).unwrap();
    std::fs::write(&tgt, TGT).unwrap();
    (src, tgt)
}

fn tv(src: &Path, tgt: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_alive2_tv"))
        .arg(src)
        .arg(tgt)
        .args(extra)
        .output()
        .expect("spawn alive2_tv")
}

/// The machine-readable summary: the last stdout line.
fn summary(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().last().unwrap_or_default().to_string()
}

/// Extracts an integer field from the summary JSON by name.
fn field(summary: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = summary
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {summary}"));
    summary[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// The deterministic verdict columns, for parity comparisons (stats and
/// phase timings legitimately vary run to run).
fn verdicts(summary: &str) -> String {
    match summary.find(",\"stats\":") {
        Some(at) => format!("{}}}", &summary[..at]),
        None => summary.to_string(),
    }
}

/// Extracts a balanced `"name":{...}` JSON object from the summary by
/// brace counting (the histogram sub-objects nest inside `stats`).
fn obj_field(summary: &str, name: &str) -> String {
    let key = format!("\"{name}\":{{");
    let at = summary
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {summary}"));
    let start = at + key.len() - 1;
    let mut depth = 0usize;
    for (i, c) in summary[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return summary[start..=start + i].to_string();
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced object for {name} in {summary}");
}

/// Finds a live worker process whose argv contains `--worker-shard`, the
/// given shard range, and `fingerprint` (the test's unique fixture path).
fn find_worker(shard: &str, fingerprint: &str) -> Option<u32> {
    for entry in std::fs::read_dir("/proc").ok()?.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(raw) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        let cmdline = String::from_utf8_lossy(&raw).replace('\0', " ");
        if cmdline.contains("--worker-shard")
            && cmdline.contains(shard)
            && cmdline.contains(fingerprint)
        {
            return Some(pid);
        }
    }
    None
}

fn sigkill(pid: u32) {
    let _ = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -9 {pid}"))
        .status();
}

/// Polls until `f` returns Some, or panics after `secs` seconds.
fn wait_for<T>(secs: u64, what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn worker_shard_invocation_streams_tagged_outcome_lines() {
    let (src, tgt) = fixture("shard");
    let out = tv(&src, &tgt, &["--worker-shard", "0:0:2"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let tagged: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("@alive2-outcome "))
        .collect();
    assert_eq!(tagged.len(), 2, "one line per shard job:\n{text}");
    assert!(tagged[0].contains("\"name\":\"f0\""), "{}", tagged[0]);
    assert!(tagged[1].contains("\"name\":\"f1\""), "{}", tagged[1]);
    // A worker exits inside the engine: no parent-side summary JSON.
    assert!(!text.contains("\"name\":\"alive_tv\""), "{text}");
}

#[test]
fn missing_input_file_is_an_error_not_a_panic() {
    let (src, _) = fixture("missing");
    let out = tv(&src.with_file_name("absent.ll"), &src, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: cannot read "), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn clean_supervised_run_matches_single_process_verdicts() {
    let (src, tgt) = fixture("parity");
    let base = tv(&src, &tgt, &[]);
    let sup = tv(&src, &tgt, &["--procs", "3", "--shard-size", "2"]);
    assert!(base.status.success(), "{base:?}");
    assert!(sup.status.success(), "{sup:?}");
    let (b, s) = (summary(&base), summary(&sup));
    assert_eq!(verdicts(&b), verdicts(&s));
    assert_eq!(field(&b, "pairs"), PAIRS);
    assert_eq!(field(&b, "correct"), PAIRS);
    for counter in [
        "pairs_quarantined",
        "watchdog_kills",
        "worker_restarts",
        "shards_retried",
    ] {
        assert_eq!(field(&s, counter), 0, "{counter} in {s}");
    }
}

#[test]
fn histograms_identical_procs_1_vs_3() {
    let (src, tgt) = fixture("hist-parity");
    let one = tv(&src, &tgt, &["--procs", "1", "--shard-size", "2"]);
    let three = tv(&src, &tgt, &["--procs", "3", "--shard-size", "2"]);
    assert!(one.status.success(), "{one:?}");
    assert!(three.status.success(), "{three:?}");
    let (a, b) = (summary(&one), summary(&three));
    assert_eq!(verdicts(&a), verdicts(&b));
    // Per-job histograms ride the journaled stats through the shard
    // merge, so the deterministic CNF-size buckets must be bit-identical
    // regardless of how many worker processes the run sharded across.
    assert_eq!(
        obj_field(&a, "cnf_clauses"),
        obj_field(&b, "cnf_clauses"),
        "cnf histogram differs between --procs 1 and --procs 3"
    );
    // Rule-family fire counts are deterministic too, and so is the
    // query-cache traffic: no run reads its own cache entries.
    for counter in [
        "sat_solves",
        "cache_hits",
        "cache_misses",
        "rewrite_steps",
        "rw_sum",
        "rw_bitwise",
        "rw_shift",
        "rw_itecmp",
        "rw_eq",
        "rw_div",
    ] {
        assert_eq!(field(&a, counter), field(&b, counter), "{counter}: {a}");
    }
    // Latency buckets carry timing (shapes may differ), but both runs
    // profile the same number of queries.
    let (la, lb) = (obj_field(&a, "latency_us"), obj_field(&b, "latency_us"));
    assert_eq!(field(&la, "n"), field(&lb, "n"));
    assert!(field(&la, "n") > 0, "no queries profiled: {a}");
}

#[test]
fn injected_abort_is_quarantined_as_crash() {
    let (src, tgt) = fixture("abort");
    let out = tv(
        &src,
        &tgt,
        &[
            "--procs",
            "2",
            "--shard-size",
            "1",
            "--shard-retries",
            "0",
            "--inject-abort",
            "aborted",
        ],
    );
    // The abort happens in a worker; the parent completes and exits 0.
    assert!(out.status.success(), "{out:?}");
    let s = summary(&out);
    assert_eq!(field(&s, "pairs"), PAIRS);
    assert_eq!(field(&s, "crash"), 1, "{s}");
    assert_eq!(field(&s, "correct"), PAIRS - 1, "{s}");
    assert_eq!(field(&s, "pairs_quarantined"), 1, "{s}");
    assert_eq!(field(&s, "watchdog_kills"), 0, "{s}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pair quarantined"), "{text}");
}

#[test]
fn injected_hang_is_watchdog_killed_and_quarantined_as_timeout() {
    let (src, tgt) = fixture("hang");
    let out = tv(
        &src,
        &tgt,
        &[
            // The watchdog is generous vs. the ~100 ms jobs: a tight
            // budget on a loaded box quarantines innocent bystanders.
            "--procs",
            "2",
            "--shard-size",
            "1",
            "--shard-retries",
            "0",
            "--watchdog-ms",
            "4000",
            "--inject-hang",
            "hung",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let s = summary(&out);
    assert_eq!(field(&s, "pairs"), PAIRS);
    assert_eq!(field(&s, "timeout"), 1, "{s}");
    assert_eq!(field(&s, "correct"), PAIRS - 1, "{s}");
    assert_eq!(field(&s, "pairs_quarantined"), 1, "{s}");
    assert_eq!(field(&s, "watchdog_kills"), 1, "{s}");
}

#[test]
fn sigkilled_worker_mid_shard_is_quarantined_and_run_completes() {
    let (src, tgt) = fixture("sigkill");
    // The hang pins its worker alive (the 600 s watchdog never fires), so
    // this test — not a timer — delivers the SIGKILL mid-shard.
    let parent = Command::new(env!("CARGO_BIN_EXE_alive2_tv"))
        .arg(&src)
        .arg(&tgt)
        .args([
            "--procs",
            "2",
            "--shard-size",
            "1",
            "--shard-retries",
            "0",
            "--watchdog-ms",
            "600000",
            "--inject-hang",
            "hung",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let fp = src.to_string_lossy().into_owned();
    let pid = wait_for(60, "hung worker process", || find_worker(HUNG_SHARD, &fp));
    sigkill(pid);
    let out = parent.wait_with_output().unwrap();
    // Killed externally (not by the watchdog): quarantined as Crash.
    assert!(out.status.success(), "{out:?}");
    let s = summary(&out);
    assert_eq!(field(&s, "pairs"), PAIRS);
    assert_eq!(field(&s, "crash"), 1, "{s}");
    assert_eq!(field(&s, "correct"), PAIRS - 1, "{s}");
    assert_eq!(field(&s, "pairs_quarantined"), 1, "{s}");
    assert_eq!(field(&s, "watchdog_kills"), 0, "{s}");
}

#[test]
fn sigkilled_parent_resumes_from_merged_journal_to_identical_summary() {
    let (src, tgt) = fixture("resume");
    let journal = src.with_file_name("journal.jsonl");
    let base = tv(&src, &tgt, &[]);
    assert!(base.status.success(), "{base:?}");

    // First attempt: the hang parks the run after the five innocent pairs
    // have streamed into the merged journal; SIGKILL the parent there.
    let mut parent = Command::new(env!("CARGO_BIN_EXE_alive2_tv"))
        .arg(&src)
        .arg(&tgt)
        .args([
            "--procs",
            "2",
            "--shard-size",
            "1",
            "--shard-retries",
            "0",
            "--watchdog-ms",
            "600000",
            "--inject-hang",
            "hung",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    wait_for(60, "5 journaled outcomes", || {
        let text = std::fs::read_to_string(&journal).ok()?;
        (text.lines().filter(|l| l.contains("\"name\"")).count() >= 5).then_some(())
    });
    parent.kill().unwrap();
    let _ = parent.wait();
    // Reap the orphaned hung worker too (its 600 s watchdog died with the
    // parent).
    let fp = src.to_string_lossy().into_owned();
    if let Some(pid) = find_worker(HUNG_SHARD, &fp) {
        sigkill(pid);
    }

    // Resume without the fault: only the missing pair recomputes, and the
    // summary matches the clean single-process baseline exactly.
    let out = tv(
        &src,
        &tgt,
        &["--procs", "2", "--resume", journal.to_str().unwrap()],
    );
    assert!(out.status.success(), "{out:?}");
    assert_eq!(verdicts(&summary(&base)), verdicts(&summary(&out)));
}
