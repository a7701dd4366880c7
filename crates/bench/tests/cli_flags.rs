//! Flags fail closed: a numeric value that does not parse, a zero thread
//! count, or an unknown flag is a usage error (exit 2), never a silent
//! fallback to the default or a run with the flag ignored.

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
fn experiments_rejects_malformed_seed() {
    let experiments = env!("CARGO_BIN_EXE_experiments");
    for bad in ["--seed=abc", "--seed="] {
        assert_eq!(exit_code(experiments, &[bad, "fig4"]), Some(2), "{bad}");
    }
}

/// A misspelt flag must not start the full benchmark, which would
/// overwrite `BENCH_core.json` in the working directory.
#[test]
fn bench_rejects_unknown_flags() {
    let bench = env!("CARGO_BIN_EXE_bench");
    let dir = std::env::temp_dir().join(format!("bench-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create working directory");
    for bad in [
        &["--fats"][..],
        &["--fast", "extra"],
        &["-f"],
        &["--compare=x"],
    ] {
        let out = Command::new(bench)
            .args(bad)
            .current_dir(&dir)
            .output()
            .expect("spawn binary");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: bench"));
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
    std::fs::remove_dir_all(&dir).expect("remove working directory");
    assert!(left.is_empty(), "bench wrote files: {left:?}");
}

#[test]
fn sweep_has_no_engine_flag() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    assert_eq!(exit_code(sweep, &["--engine", "scalar"]), Some(2));
}
