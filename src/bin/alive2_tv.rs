//! `alive2_tv`: the installable `alive-tv` binary (§8.1).
//!
//! The driver lives in [`alive2::cli`]; as a real `[[bin]]` it gives the
//! supervision integration tests a `CARGO_BIN_EXE_alive2_tv` path to
//! spawn as parent and worker child.

use std::process::ExitCode;

fn main() -> ExitCode {
    alive2::cli::alive_tv_main()
}
