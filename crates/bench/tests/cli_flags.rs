//! Flags fail closed: a numeric value that does not parse, a zero thread
//! count, or an unknown flag is a usage error (exit 2), never a silent
//! fallback to the default.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn binary")
        .status
        .code()
}

#[test]
fn sweep_rejects_malformed_numbers() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    for flag in [
        "--threads",
        "--seeds",
        "--horizon",
        "--f2",
        "--n",
        "--tp",
        "--tc",
        "--tr",
    ] {
        assert_eq!(exit_code(sweep, &[flag, "abc"]), Some(2), "{flag} abc");
    }
    assert_eq!(
        exit_code(sweep, &["--threads", "0"]),
        Some(2),
        "--threads 0"
    );
}

#[test]
fn experiments_rejects_malformed_threads() {
    let experiments = env!("CARGO_BIN_EXE_experiments");
    for bad in ["--threads=abc", "--threads=0", "--threads="] {
        assert_eq!(exit_code(experiments, &[bad, "fig4"]), Some(2), "{bad}");
    }
}

#[test]
fn sweep_has_no_engine_flag() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    assert_eq!(exit_code(sweep, &["--engine", "scalar"]), Some(2));
}
