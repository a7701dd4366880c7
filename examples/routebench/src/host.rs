//! Host probes: process CPU time, peak memory, and the `build` block that
//! says which binary produced a result on which machine.

use std::process::Command;
use std::time::{Duration, Instant};

use serde_json::Value;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("routebench reads /proc and clock_gettime(2) as laid out on 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by the whole process so far, in seconds: every
/// thread, including worker threads that have already exited, at
/// nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, enforced by the compile_error above), and
    // clock_gettime writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .expect("/proc/self/status has a VmHWM line")
}

/// How many CPUs `threads` busy threads actually get: process CPU time
/// divided by wall time while each spins for a short, fixed interval. On
/// a shared or throttled host this is below the CPU count the kernel
/// reports.
pub fn effective_cores(threads: usize) -> f64 {
    const SPIN: Duration = Duration::from_millis(200);
    let (wall0, cpu0) = (Instant::now(), cpu_seconds());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let t = Instant::now();
                let mut x = 0u64;
                while t.elapsed() < SPIN {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
            });
        }
    });
    (cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64()
}

fn command_stdout(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The build and host description attached to every result.
///
/// `threads` is the most worker threads the workload runs at once;
/// `scaling_verified` is false when that exceeds the cores the host
/// really delivers, so no parallel-speedup claim can rest on the result.
/// (A spin over `k` truly parallel cores reads a little under `k`, hence
/// the 0.9.)
pub fn build_block(threads: usize) -> Value {
    let rustflags = env!("ROUTEBENCH_RUSTFLAGS");
    let target_cpu = rustflags
        .split_whitespace()
        .find_map(|flag| flag.strip_prefix("target-cpu="))
        .unwrap_or("default");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let effective = effective_cores(nproc);
    // Only the repository the benchmark runs from: an export of it has no
    // `.git`, and git must not report some enclosing repository instead.
    let git_rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_stdout("git", &["rev-parse", "HEAD"]))
        .flatten();
    let git_dirty = git_rev
        .as_ref()
        .and_then(|_| command_stdout("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map(|status| !status.is_empty());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let s = |v: &str| Value::Str(v.to_string());
    Value::Object(vec![
        ("profile".into(), s(env!("ROUTEBENCH_PROFILE"))),
        ("rustflags".into(), s(rustflags)),
        ("target_cpu".into(), s(target_cpu)),
        (
            "target_features".into(),
            s(env!("ROUTEBENCH_TARGET_FEATURES")),
        ),
        ("rustc".into(), s(env!("ROUTEBENCH_RUSTC"))),
        ("git_rev".into(), git_rev.map_or(Value::Null, Value::Str)),
        (
            "git_dirty".into(),
            git_dirty.map_or(Value::Null, Value::Bool),
        ),
        ("kernel".into(), s(&kernel)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("effective_cores".into(), Value::F64(effective)),
        ("threads".into(), Value::U64(threads as u64)),
        (
            "scaling_verified".into(),
            Value::Bool(effective >= 0.9 * threads as f64),
        ),
    ])
}
