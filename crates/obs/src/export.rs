//! Zero-dependency exporters: Prometheus text, NDJSON streaming, the
//! series document, and folded-stack span profiles. These render bodies;
//! `routesync-exec`'s telemetry session writes them to files.
//!
//! Everything here is plain `std`: the HTTP server is a hand-rolled
//! `std::net::TcpListener` loop (ROADMAP item 3 — streaming snapshots
//! from a long-running process without pulling in an async stack), and
//! the text formats are written with `fmt::Write`. Endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition (counters, gauges,
//!   histograms with cumulative buckets, spans as `_count`/`_total_ns`).
//! * `GET /snapshot` — one pretty-printed JSON [`Snapshot`].
//! * `GET /stream` — NDJSON: one compact snapshot per line at a fixed
//!   wall cadence until the client disconnects or the server stops
//!   (SSE-style infinite response).
//!
//! The exporter only *reads* snapshots; serving can never perturb a
//! simulation (the PR 2 invariant), and the integration suite runs full
//! ensembles with a live server attached to prove it.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::online::DetectorSnapshot;
use crate::snapshot::Snapshot;
use crate::timeseries::SeriesSnapshot;
use crate::Collector;

/// How often `/stream` emits a snapshot line (wall time — streaming is a
/// host-side view; the *content* is still simulated-time stamped).
pub const STREAM_INTERVAL: Duration = Duration::from_millis(250);

/// Upper bound on buffered-but-unwritten bytes per `/stream` client. The
/// serve loop is single-threaded; a client that stops reading used to
/// park the whole server in a blocking `write_all`. Now unwritten lines
/// accumulate up to this bound, after which the connection is dropped
/// and `obs.server.slow_client_drops` is incremented.
pub const STREAM_MAX_PENDING: usize = 64 * 1024;

/// Render a snapshot in the Prometheus text exposition format.
///
/// Metric names are prefixed `routesync_` with dots mapped to
/// underscores. Histograms use cumulative `_bucket{le="..."}` plus
/// `_sum`/`_count`; spans export as `<name>_count` and `<name>_total_ns`
/// counters. Detector gauges (`*.r`, `*.entropy`) are fixed-point ×1e9
/// (see [`crate::online::GAUGE_FIXED_POINT`]).
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# routesync obs schema_version {}",
        snap.schema_version
    );
    for (name, value) in &snap.counters {
        let m = metric_name(name, "");
        let _ = writeln!(out, "# TYPE {m} counter\n{m} {value}");
    }
    for (name, value) in &snap.gauges {
        let m = metric_name(name, "");
        let _ = writeln!(out, "# TYPE {m} gauge\n{m} {value}");
    }
    for (name, h) in &snap.histograms {
        let m = metric_name(name, "");
        let _ = writeln!(out, "# TYPE {m} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.counts) {
            cumulative += count;
            let _ = writeln!(out, "{m}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{m}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{m}_sum {}\n{m}_count {}", h.sum, h.count);
    }
    for (name, s) in &snap.spans {
        let m = metric_name(name, "_span");
        let _ = writeln!(out, "# TYPE {m}_count counter\n{m}_count {}", s.count);
        let _ = writeln!(
            out,
            "# TYPE {m}_total_ns counter\n{m}_total_ns {}",
            s.total_ns
        );
    }
    out
}

fn metric_name(name: &str, suffix: &str) -> String {
    let sanitized: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("routesync_{sanitized}{suffix}")
}

/// One compact-JSON snapshot line (no interior newlines), NDJSON-ready.
pub fn ndjson_line(snap: &Snapshot) -> String {
    let mut line = serde_json::to_string(snap).expect("snapshot serializes");
    line.push('\n');
    line
}

/// Render span totals as folded stacks (`frame;frame value`), one line
/// per span label with dots as frame separators — the input format of
/// flamegraph renderers. Values are accumulated nanoseconds.
pub fn folded_stacks(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, s) in &snap.spans {
        let _ = writeln!(out, "{} {}", name.replace('.', ";"), s.total_ns);
    }
    out
}

/// The `--obs-series` document for `snap`: long-format CSV when `csv`,
/// pretty JSON otherwise.
///
/// The CSV has one row per changed value:
/// `t_ns,kind,name,value` with kinds `counter` (delta since previous
/// sample; `base`/`tail` rows bracket the ring so the column sums to the
/// final totals), `gauge`, and `detector` (`<name>.r`, `.clusters`,
/// `.entropy` per completed window).
pub fn series_document(snap: &Snapshot, csv: bool) -> String {
    if csv {
        return series_csv(snap);
    }
    serde_json::to_string_pretty(&SeriesDump {
        schema_version: snap.schema_version,
        series: snap.series.clone(),
        detectors: snap.detectors.clone(),
    })
    .expect("series serializes")
}

/// The `--obs-series` JSON document: the registry series plus every
/// detector's point ring.
#[derive(Serialize, Deserialize)]
struct SeriesDump {
    schema_version: u32,
    series: SeriesSnapshot,
    detectors: BTreeMap<String, DetectorSnapshot>,
}

fn series_csv(snap: &Snapshot) -> String {
    let mut out = String::from("t_ns,kind,name,value\n");
    for (name, v) in &snap.series.base {
        let _ = writeln!(out, "0,base,{name},{v}");
    }
    for sample in snap
        .series
        .samples
        .iter()
        .chain(std::iter::once(&snap.series.tail))
    {
        for (name, v) in &sample.counters {
            let _ = writeln!(out, "{},counter,{name},{v}", sample.t_ns);
        }
        for (name, v) in &sample.gauges {
            let _ = writeln!(out, "{},gauge,{name},{v}", sample.t_ns);
        }
    }
    for (det, d) in &snap.detectors {
        for p in &d.points {
            let _ = writeln!(out, "{},detector,{det}.r,{}", p.t_ns, p.r);
            let _ = writeln!(out, "{},detector,{det}.clusters,{}", p.t_ns, p.clusters);
            let _ = writeln!(out, "{},detector,{det}.entropy,{}", p.t_ns, p.entropy);
        }
    }
    out
}

/// A background observability server bound to a local address.
///
/// Dropping the handle without calling [`ObsServer::shutdown`] leaves
/// the serving thread running detached (it stops with the process).
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// `collector` snapshots until [`ObsServer::shutdown`].
    pub fn serve(addr: &str, collector: Collector) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_worker = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obs-server".into())
            .spawn(move || serve_loop(listener, collector, stop_worker))
            .expect("spawn obs server thread");
        Ok(ObsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, finish in-flight responses, and join the thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve_loop(listener: TcpListener, collector: Collector, stop: Arc<AtomicBool>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: one client at a time keeps the loop
                // bounded and is plenty for scrapes and smoke tests.
                let _ = handle_client(stream, &collector, &stop);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

fn handle_client(
    mut stream: TcpStream,
    collector: &Collector,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    // A stalled reader must never park the single-threaded serve loop:
    // one-shot responses give up after the write timeout, `/stream`
    // switches to a nonblocking bounded-buffer writer below.
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() >= 8192 {
            break;
        }
    }
    let request_line = String::from_utf8_lossy(&req);
    let path = request_line
        .split_whitespace()
        .nth(1)
        .unwrap_or("/")
        .to_string();
    match path.as_str() {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &prometheus_text(&collector.snapshot()),
        ),
        "/snapshot" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            &collector.snapshot().to_json(),
        ),
        "/stream" => stream_ndjson(&mut stream, collector, stop),
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "unknown path; try /metrics, /snapshot, /stream\n",
        ),
    }
}

fn respond(stream: &mut TcpStream, status: &str, ctype: &str, body: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn stream_ndjson(
    stream: &mut TcpStream,
    collector: &Collector,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    let drops = collector.counter("obs.server.slow_client_drops");
    let mut pending: std::collections::VecDeque<u8> =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
            .iter()
            .copied()
            .collect();
    loop {
        if pending.len() <= STREAM_MAX_PENDING {
            pending.extend(ndjson_line(&collector.snapshot()).into_bytes());
        }
        loop {
            let (head, _) = pending.as_slices();
            if head.is_empty() {
                break;
            }
            match stream.write(head) {
                Ok(0) => return Ok(()), // peer hung up
                Ok(n) => {
                    pending.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Ok(()), // reset/refused: the client is gone
            }
        }
        if pending.len() > STREAM_MAX_PENDING {
            // The client has not drained a full buffer's worth: drop it
            // rather than let it wedge every other scrape.
            drops.add(1);
            return Ok(());
        }
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        std::thread::sleep(STREAM_INTERVAL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead as _;

    fn sample_collector() -> Collector {
        let c = Collector::enabled();
        c.counter("core.fast.bursts").add(7);
        c.gauge("core.cluster.largest").set(3);
        c.histogram("core.cluster.size", &[1, 2, 4]).record(2);
        c.span("core.experiment.run_many").record_ns(1_500);
        c
    }

    #[test]
    fn prometheus_text_covers_every_kind_with_cumulative_buckets() {
        let text = prometheus_text(&sample_collector().snapshot());
        assert!(text.contains("# TYPE routesync_core_fast_bursts counter"));
        assert!(text.contains("routesync_core_fast_bursts 7"));
        assert!(text.contains("routesync_core_cluster_largest 3"));
        assert!(text.contains("routesync_core_cluster_size_bucket{le=\"2\"} 1"));
        assert!(text.contains("routesync_core_cluster_size_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("routesync_core_cluster_size_count 1"));
        assert!(text.contains("routesync_core_experiment_run_many_span_total_ns 1500"));
    }

    #[test]
    fn ndjson_line_is_one_parseable_line() {
        let line = ndjson_line(&sample_collector().snapshot());
        assert!(line.ends_with('\n'));
        assert_eq!(line.trim_end().lines().count(), 1);
        let back = Snapshot::from_json(line.trim_end()).expect("parses");
        assert_eq!(back.counters["core.fast.bursts"], 7);
    }

    #[test]
    fn folded_stacks_split_dotted_labels() {
        let folded = folded_stacks(&sample_collector().snapshot());
        assert_eq!(folded.trim_end(), "core;experiment;run_many 1500");
    }

    #[test]
    fn server_serves_metrics_snapshot_stream_and_404() {
        let c = sample_collector();
        let server = ObsServer::serve("127.0.0.1:0", c.clone()).expect("bind");
        let addr = server.local_addr();

        let metrics = fetch(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"));
        assert!(metrics.contains("routesync_core_fast_bursts 7"));

        let snap = fetch(addr, "/snapshot");
        let body = snap.split("\r\n\r\n").nth(1).expect("has body");
        let parsed = Snapshot::from_json(body).expect("parses");
        assert_eq!(parsed.counters["core.fast.bursts"], 7);

        // One NDJSON line, then hang up.
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            write!(s, "GET /stream HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut reader = std::io::BufReader::new(s);
            let mut line = String::new();
            loop {
                line.clear();
                reader.read_line(&mut line).expect("read");
                if line == "\r\n" {
                    break; // end of headers
                }
            }
            line.clear();
            reader.read_line(&mut line).expect("first ndjson line");
            let parsed = Snapshot::from_json(line.trim_end()).expect("ndjson parses");
            assert_eq!(parsed.counters["core.fast.bursts"], 7);
        }

        let missing = fetch(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        server.shutdown();
    }

    /// A `/stream` client that never reads must be disconnected once its
    /// pending buffer exceeds [`STREAM_MAX_PENDING`] — counted in
    /// `obs.server.slow_client_drops` — instead of wedging the
    /// single-threaded serve loop for every other scrape.
    #[test]
    fn slow_stream_client_is_dropped_and_counted() {
        let c = Collector::enabled();
        // Inflate every NDJSON line far past the pending bound so a
        // non-reading client overflows within a few stream intervals.
        for i in 0..3000u64 {
            c.counter(&format!("slow.client.test.padding.counter.{i:05}"))
                .add(i);
        }
        let server = ObsServer::serve("127.0.0.1:0", c.clone()).expect("bind");
        let addr = server.local_addr();

        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET /stream HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        // Never read from `s`; the server must give up on it.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let drops = c
                .snapshot()
                .counters
                .get("obs.server.slow_client_drops")
                .copied()
                .unwrap_or(0);
            if drops >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never dropped the slow client"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        // The serve loop is free again: a well-behaved scrape succeeds.
        let metrics = fetch(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        drop(s);
        server.shutdown();
    }

    fn fetch(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        out
    }
}
