//! End-to-end protocol tests for the `alive2-serve` daemon: malformed
//! request lines must not kill the process, admission control must
//! reject oversized batches with an error response (not a buffer or a
//! crash), a SIGKILLed daemon must replay its journaled request log on
//! restart to the exact verdicts the one-shot `alive2_tv` CLI produces
//! on the same pairs, the `--listen` socket must speak the
//! length-prefixed frame protocol, and a warm batch in the default
//! configuration must be answered from the query cache alone.
//!
//! These tests spawn and SIGKILL processes, so they are Linux-only
//! (matching `tests/supervise.rs`).
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Four textually-differing pairs: three refinement-correct transforms
/// and one genuine miscompile (`bad`: `mul 2` is not `add 2`), so the
/// parity anchor covers both verdict columns.
const CORPUS: &[(&str, &str, &str)] = &[
    (
        "f0",
        "define i8 @f0(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}",
        "define i8 @f0(i8 %x) {\nentry:\n  %r = shl i8 %x, 1\n  ret i8 %r\n}",
    ),
    (
        "f1",
        "define i16 @f1(i16 %x) {\nentry:\n  %r = add i16 %x, %x\n  ret i16 %r\n}",
        "define i16 @f1(i16 %x) {\nentry:\n  %r = shl i16 %x, 1\n  ret i16 %r\n}",
    ),
    (
        "f2",
        "define i32 @f2(i32 %x) {\nentry:\n  %c = icmp slt i32 %x, 0\n  %r = select i1 %c, i32 0, i32 %x\n  ret i32 %r\n}",
        "define i32 @f2(i32 %x) {\nentry:\n  %c = icmp sgt i32 %x, 0\n  %r = select i1 %c, i32 %x, i32 0\n  ret i32 %r\n}",
    ),
    (
        "bad",
        "define i8 @bad(i8 %x) {\nentry:\n  %r = mul i8 %x, 2\n  ret i8 %r\n}",
        "define i8 @bad(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}",
    ),
];

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders a `validate` request line over a slice of corpus entries.
fn validate_req(id: &str, pairs: &[(&str, &str, &str)]) -> String {
    let body: Vec<String> = pairs
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
        "{{\"id\":\"{id}\",\"op\":\"validate\",\"pairs\":[{}]}}",
        body.join(",")
    )
}

/// Runs the daemon over stdio: writes `input`, closes stdin (EOF drains
/// the queue and exits cleanly), returns the full output.
fn serve_stdio(args: &[&str], input: &str) -> Output {
    let mut child = spawn_serve(args);
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

fn spawn_serve(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_alive2-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn alive2-serve")
}

fn stdout_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

/// The machine-readable summary: the last stdout line.
fn summary(out: &Output) -> String {
    stdout_lines(out).last().cloned().unwrap_or_default()
}

/// Extracts an integer field from a summary JSON line by name.
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

/// Polls until `f` returns Some, or panics after `secs` seconds.
fn wait_for<T>(secs: u64, what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("alive2-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn malformed_lines_get_error_responses_and_the_daemon_keeps_serving() {
    let input = format!(
        "this is not json\n{{\"op\":\"validate\"}}\n{{\"id\":\"p\",\"op\":\"ping\"}}\n{}\n",
        validate_req("v", &CORPUS[..1])
    );
    let out = serve_stdio(&[], &input);
    assert!(out.status.success(), "{out:?}");
    let lines = stdout_lines(&out);
    // Both bad lines get attributed error responses (the second one has
    // no salvageable id).
    let errors: Vec<&String> = lines.iter().filter(|l| l.contains("\"error\":")).collect();
    assert_eq!(errors.len(), 2, "{lines:#?}");
    assert!(
        errors.iter().any(|l| l.contains("\"id\":null")),
        "{errors:?}"
    );
    // And the daemon kept serving: the ping and the batch both answered.
    assert!(
        lines.iter().any(|l| l.contains("\"op\":\"pong\"")),
        "{lines:#?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"pair\":\"f0\"") && l.contains("\"verdict\":\"correct\"")),
        "{lines:#?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"id\":\"v\"") && l.contains("\"done\":true")),
        "{lines:#?}"
    );
}

#[test]
fn oversized_batch_is_rejected_by_admission_control() {
    let input = format!(
        "{}\n{}\n",
        validate_req("big", CORPUS),
        validate_req("ok", &CORPUS[..1])
    );
    let out = serve_stdio(&["--max-batch-pairs", "2"], &input);
    assert!(out.status.success(), "{out:?}");
    let lines = stdout_lines(&out);
    assert!(
        lines.iter().any(|l| l.contains("\"id\":\"big\"")
            && l.contains("\"rejected\":true")
            && l.contains("batch too large")),
        "{lines:#?}"
    );
    // Nothing from the rejected batch ran; the in-limit batch did.
    assert!(
        !lines.iter().any(|l| l.contains("\"pair\":\"bad\"")),
        "{lines:#?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"id\":\"ok\"") && l.contains("\"done\":true")),
        "{lines:#?}"
    );
    let s = summary(&out);
    assert_eq!(field(&s, "pairs"), 1, "{s}");
}

#[test]
fn warm_known_bugs_batch_replays_every_pair_without_a_live_solve() {
    let bugs = alive2_testgen::known_bugs::known_bugs();
    let corpus: Vec<(&str, &str, &str)> = bugs.iter().map(|b| (b.name, b.src, b.tgt)).collect();
    let input = format!(
        "{}\n{}\n",
        validate_req("batch-1", &corpus),
        validate_req("batch-2", &corpus)
    );
    // The default configuration: incremental CEGQI candidates included.
    let out = serve_stdio(&["--jobs", "1"], &input);
    assert!(out.status.success(), "{out:?}");
    let lines = stdout_lines(&out);
    let batch = |id: &str| {
        let tag = format!("{{\"id\":\"{id}\",");
        let mine = lines.iter().filter(|l| l.starts_with(&tag));
        let (done, pairs): (Vec<&String>, Vec<&String>) =
            mine.partition(|l| l.contains("\"done\":true"));
        let pairs: Vec<String> = pairs.iter().map(|l| l[tag.len()..].to_string()).collect();
        (done[0].clone(), pairs)
    };
    let (done1, pairs1) = batch("batch-1");
    let (done2, pairs2) = batch("batch-2");
    assert_eq!(pairs1.len(), corpus.len(), "{lines:?}");
    // 29 detected / 7 missed, and the warm batch repeats every verdict
    // and counterexample byte for byte.
    assert_eq!(field(&done1, "incorrect"), 29, "{done1}");
    assert_eq!(pairs1, pairs2);
    let live = |d: &str| field(d, "sat_solves") + field(d, "incremental_solves");
    assert!(live(&done1) > 0, "{done1}");
    assert_eq!(live(&done2), 0, "warm batch solved live: {done2}");
    assert!(field(&done2, "cache_hits") > 0, "{done2}");
}

#[test]
fn sigkilled_daemon_replays_journal_to_cli_verdict_parity() {
    let dir = tmpdir("replay");
    let journal = dir.join("journal.jsonl");
    let journal_s = journal.to_str().unwrap();

    // One-shot CLI baseline on the same pairs: the parity anchor.
    let src_ll = dir.join("src.ll");
    let tgt_ll = dir.join("tgt.ll");
    let join = |ix: usize| {
        CORPUS
            .iter()
            .map(|p| if ix == 0 { p.1 } else { p.2 })
            .collect::<Vec<_>>()
            .join("\n")
    };
    std::fs::write(&src_ll, join(0)).unwrap();
    std::fs::write(&tgt_ll, join(1)).unwrap();
    let base = Command::new(env!("CARGO_BIN_EXE_alive2_tv"))
        .arg(&src_ll)
        .arg(&tgt_ll)
        .output()
        .expect("spawn alive2_tv");
    let b = summary(&base);
    assert_eq!(field(&b, "pairs"), 4, "{b}");
    assert_eq!(field(&b, "incorrect"), 1, "{b}");

    // First daemon: journal the batch, then SIGKILL as soon as the
    // request record lands (stdin stays open so the daemon cannot drain
    // and exit on its own first).
    let mut victim = spawn_serve(&["--journal", journal_s]);
    let mut stdin = victim.stdin.take().unwrap();
    stdin
        .write_all(format!("{}\n", validate_req("batch-1", CORPUS)).as_bytes())
        .unwrap();
    stdin.flush().unwrap();
    wait_for(30, "request record in the journal", || {
        std::fs::read_to_string(&journal)
            .ok()
            .filter(|t| t.contains("\"serve_req\""))
    });
    victim.kill().unwrap();
    let _ = victim.wait();
    drop(stdin);

    // Restart pointing --journal and --resume at the same log: the
    // request record replays the batch, the outcome records answer the
    // already-finished pairs without re-solving, and EOF exits cleanly.
    let out = serve_stdio(&["--journal", journal_s, "--resume", journal_s], "");
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("replayed 1 journaled batches"),
        "{out:?}"
    );
    let lines = stdout_lines(&out);
    for (name, verdict) in [
        ("f0", "correct"),
        ("f1", "correct"),
        ("f2", "correct"),
        ("bad", "incorrect"),
    ] {
        assert!(
            lines.iter().any(|l| l.contains("\"id\":\"batch-1\"")
                && l.contains(&format!("\"pair\":\"{name}\""))
                && l.contains(&format!("\"verdict\":\"{verdict}\""))),
            "missing {name}:{verdict} in {lines:#?}"
        );
    }
    // Verdict columns match the one-shot CLI exactly.
    let s = summary(&out);
    for col in [
        "pairs",
        "correct",
        "incorrect",
        "timeout",
        "oom",
        "unsupported",
        "crash",
    ] {
        assert_eq!(field(&b, col), field(&s, col), "{col}: cli={b} serve={s}");
    }
}

#[test]
fn listen_socket_speaks_length_prefixed_frames() {
    let mut child = spawn_serve(&["--listen", "127.0.0.1:0"]);
    // First stdout line announces the bound address (port 0 resolved).
    let mut stdout = child.stdout.take().unwrap();
    let addr = wait_for(30, "listening announcement", || {
        let mut buf = [0u8; 1];
        let mut line = String::new();
        loop {
            match stdout.read(&mut buf) {
                Ok(1) if buf[0] != b'\n' => line.push(buf[0] as char),
                _ => break,
            }
        }
        let at = line.find("\"listening\":\"")?;
        let rest = &line[at + 13..];
        Some(rest[..rest.find('"')?].to_string())
    });

    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    let write_frame = |conn: &mut std::net::TcpStream, line: &str| {
        conn.write_all(&(line.len() as u32).to_be_bytes()).unwrap();
        conn.write_all(line.as_bytes()).unwrap();
    };
    let read_frame = |conn: &mut std::net::TcpStream| -> Option<String> {
        let mut len = [0u8; 4];
        conn.read_exact(&mut len).ok()?;
        let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
        conn.read_exact(&mut body).ok()?;
        Some(String::from_utf8_lossy(&body).into_owned())
    };
    write_frame(&mut conn, &validate_req("t1", &CORPUS[..1]));
    write_frame(&mut conn, "{\"id\":\"bye\",\"op\":\"shutdown\"}");
    // Collect every frame until the daemon drains and closes the
    // connection (the shutdown ack may interleave ahead of the batch).
    let mut frames = Vec::new();
    while let Some(f) = read_frame(&mut conn) {
        frames.push(f);
    }
    assert!(
        frames
            .iter()
            .any(|f| f.contains("\"pair\":\"f0\"") && f.contains("\"verdict\":\"correct\"")),
        "{frames:#?}"
    );
    assert!(
        frames
            .iter()
            .any(|f| f.contains("\"id\":\"t1\"") && f.contains("\"done\":true")),
        "{frames:#?}"
    );
    assert!(
        frames
            .iter()
            .any(|f| f.contains("\"id\":\"bye\"") && f.contains("\"draining\":true")),
        "{frames:#?}"
    );
    let status = child.wait().unwrap();
    assert!(status.success(), "{status:?}");
}
