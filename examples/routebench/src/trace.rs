//! Spans around the benchmark's calls into each layer.
//!
//! [`timed`] always measures its closure; while a traced run has
//! recording on ([`start`], [`record`]), it also records a span — name,
//! start, end and the enclosing span — in memory. [`write`] turns the spans into
//! `<workload>.trace.json` (every span plus self time per name) and
//! `<workload>.trace.folded` (self time per stack, for flame graphs),
//! where a span's self time is its duration minus its children's.
//!
//! Spans are recorded on the calling thread only: the benchmark calls each
//! layer from its main thread, and work a layer fans out to its own
//! workers is inside the caller's span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::Value;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

struct Recorder {
    epoch: Instant,
    /// Spans are kept only while this is on (see [`record`]).
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Set up span recording on this thread, switched off until [`record`].
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Switch recording on or off (between spans, not inside one).
pub fn record(on: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.on = on;
        }
    });
}

/// Run `f`, returning its result and its wall time in seconds; while
/// recording, the call is also a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let opened = RECORDER.with(|r| {
        r.borrow_mut().as_mut().filter(|rec| rec.on).map(|rec| {
            let idx = rec.spans.len();
            rec.spans.push(Span {
                name,
                start_ns: rec.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: rec.open.last().copied(),
            });
            rec.open.push(idx);
            idx
        })
    });
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard.as_mut().expect("recorder outlives its open spans");
            rec.spans[idx].end_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.open.pop();
        });
    }
    (out, secs)
}

/// Write the recorded spans for `workload` into `dir`; returns the two
/// file paths. Does nothing (and returns `None`) when not recording.
pub fn write(dir: &Path, workload: &str) -> std::io::Result<Option<[PathBuf; 2]>> {
    let Some(rec) = RECORDER.with(|r| r.borrow_mut().take()) else {
        return Ok(None);
    };
    let spans = rec.spans;
    let mut child_ns = vec![0u64; spans.len()];
    for s in &spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let self_ns: Vec<u64> = spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect();

    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    let mut by_stack: BTreeMap<String, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *by_name.entry(s.name).or_default() += self_ns[i];
        let mut stack = vec![s.name];
        let mut up = s.parent;
        while let Some(p) = up {
            stack.push(spans[p].name);
            up = spans[p].parent;
        }
        stack.reverse();
        *by_stack.entry(stack.join(";")).or_default() += self_ns[i];
    }

    let json = Value::Object(vec![
        (
            "spans".into(),
            Value::Array(
                spans
                    .iter()
                    .map(|s| {
                        Value::Object(vec![
                            ("name".into(), Value::Str(s.name.into())),
                            ("start_ns".into(), Value::U64(s.start_ns)),
                            ("end_ns".into(), Value::U64(s.end_ns)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "self_ns".into(),
            Value::Object(
                by_name
                    .iter()
                    .map(|(name, ns)| (name.to_string(), Value::U64(*ns)))
                    .collect(),
            ),
        ),
    ]);
    let folded: String = by_stack
        .iter()
        .map(|(stack, ns)| format!("{stack} {ns}\n"))
        .collect();
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{workload}.trace.json"));
    let folded_path = dir.join(format!("{workload}.trace.folded"));
    std::fs::write(
        &json_path,
        serde_json::to_string(&json).expect("Value serializes"),
    )?;
    std::fs::write(&folded_path, folded)?;
    Ok(Some([json_path, folded_path]))
}
