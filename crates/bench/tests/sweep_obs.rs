//! A sweep's obs snapshot is a function of its arguments, not of
//! `--threads`: the `sync-time` cells share one `core.sync` detector, and
//! concurrent cells must not feed it in a racy order.

use std::process::Command;

use serde::Value;

/// Run the CI smoke sweep at `threads` and return its `--obs` snapshot.
fn snapshot(dir: &std::path::Path, threads: usize) -> Value {
    let path = dir.join(format!("obs-t{threads}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--param", "tr", "--steps", "4", "--metric", "sync-time"])
        .args(["--seeds", "2", "--horizon", "1e5"])
        .args(["--threads", &threads.to_string()])
        .arg("--obs")
        .arg(&path)
        .output()
        .expect("spawn sweep");
    assert!(out.status.success(), "sweep --threads {threads}: {out:?}");
    let text = std::fs::read_to_string(&path).expect("snapshot written");
    serde_json::from_str(&text).expect("snapshot parses")
}

#[test]
fn sweep_snapshot_does_not_depend_on_the_thread_count() {
    let dir = std::env::temp_dir().join(format!("routesync-sweep-obs-{}", std::process::id()));
    let one = snapshot(&dir, 1);
    let windows = one
        .get("detectors")
        .and_then(|d| d.get("core.sync"))
        .and_then(|d| d.get("windows"));
    assert!(
        matches!(windows, Some(Value::U64(w)) if *w > 0),
        "the detector heard no sends: {windows:?}"
    );
    for threads in [2, 4] {
        let many = snapshot(&dir, threads);
        // Wall-time spans and `_ns` counters differ run to run; these do not.
        for section in ["detectors", "gauges", "series"] {
            assert_eq!(
                one.get(section),
                many.get(section),
                "{section} differ between --threads 1 and --threads {threads}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
