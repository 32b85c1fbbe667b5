//! Flag parsing through the real binaries: a flag with a malformed or
//! missing value is rejected before any work runs, with a message that
//! names the flag and exit status 2, instead of running without it.

use std::process::{Command, Output, Stdio};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn the binary")
}

#[test]
fn malformed_or_missing_flag_values_exit_2() {
    let tv = env!("CARGO_BIN_EXE_alive2_tv");
    let serve = env!("CARGO_BIN_EXE_alive2-serve");
    let cases: [(&str, &[&str], &str); 6] = [
        (
            tv,
            &["--deadline-ms", "2s"],
            "bad value `2s` for --deadline-ms",
        ),
        (
            tv,
            &["--mem-budget-mb", "1G"],
            "bad value `1G` for --mem-budget-mb",
        ),
        (tv, &["--jobs", "four"], "bad value `four` for --jobs"),
        (tv, &["--unroll", "-1"], "bad value `-1` for --unroll"),
        (tv, &["--deadline-ms"], "--deadline-ms needs a value"),
        (
            serve,
            &["--max-batch-pairs", "many"],
            "bad value `many` for --max-batch-pairs",
        ),
    ];
    for (bin, args, message) in cases {
        let out = run(bin, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
