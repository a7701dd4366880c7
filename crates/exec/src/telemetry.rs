//! One telemetry session per run: the outputs a binary asks for, as a
//! [`routesync_obs::scoped`] collector that [`crate::Ensemble`] workers
//! inherit, an exporter, and atomically written files.

use std::path::{Path, PathBuf};

use routesync_obs::{Collector, ObsServer, ScopeGuard, SeriesConfig};

use crate::{atomic_write, interrupt};

/// The telemetry outputs a run asks for; `None` leaves one out.
#[derive(Clone, Debug, Default)]
pub struct Outputs {
    /// `--obs PATH`: the registry snapshot as pretty JSON.
    pub snapshot: Option<PathBuf>,
    /// `--serve-obs ADDR`: serve over HTTP during the run, then until SIGINT.
    pub serve: Option<String>,
    /// `--obs-series PATH`: the series and detector dump (CSV if `.csv`).
    pub series: Option<PathBuf>,
    /// `--obs-folded PATH`: span totals as folded stacks.
    pub folded: Option<PathBuf>,
}

/// A run's telemetry, from its start to its written files.
pub struct Session {
    cmd: &'static str,
    outputs: Outputs,
    collector: Collector,
    server: Option<ObsServer>,
    _scope: Option<ScopeGuard>,
}

impl Session {
    /// Start the session `cmd` (the name its stderr lines carry). With
    /// any output set, a fresh enabled collector is this thread's scoped
    /// collector until the session drops, its series armed when `series`
    /// or `serve` is set. With none, nothing is recorded.
    pub fn start(cmd: &'static str, outputs: Outputs) -> Result<Session, String> {
        let sampled = outputs.series.is_some() || outputs.serve.is_some();
        let any = sampled || outputs.snapshot.is_some() || outputs.folded.is_some();
        let collector = any.then(Collector::enabled).unwrap_or_default();
        if sampled {
            collector.configure_series(SeriesConfig::default());
        }
        let scope = any.then(|| routesync_obs::scoped(collector.clone()));
        Ok(Session {
            _scope: scope,
            ..Session::export(cmd, outputs, collector)?
        })
    }

    /// Export `collector` as it is, without entering it or arming its
    /// series: for a caller that hands the collector to exactly what it
    /// wants observed (the live daemon), or has already recorded into it.
    /// `serve` installs the SIGINT handler and starts the exporter.
    pub fn export(
        cmd: &'static str,
        outputs: Outputs,
        collector: Collector,
    ) -> Result<Session, String> {
        let server = match &outputs.serve {
            Some(addr) => {
                interrupt::install();
                let server = ObsServer::serve(addr, collector.clone())
                    .map_err(|e| format!("--serve-obs {addr}: {e}"))?;
                eprintln!("{cmd}: obs exporter listening on {}", server.local_addr());
                Some(server)
            }
            None => None,
        };
        Ok(Session {
            cmd,
            outputs,
            collector,
            server,
            _scope: None,
        })
    }

    /// Write the requested files from one snapshot, each through
    /// [`atomic_write`] (which creates a missing parent directory).
    pub fn write(&self) -> Result<(), String> {
        let snap = self.collector.snapshot();
        let Outputs {
            snapshot,
            series,
            folded,
            ..
        } = &self.outputs;
        write_file("obs", snapshot, |_| snap.to_json())?;
        write_file("obs-series", series, |path| {
            let csv = path.extension().is_some_and(|e| e == "csv");
            routesync_obs::series_document(&snap, csv)
        })?;
        write_file("obs-folded", folded, |_| {
            routesync_obs::folded_stacks(&snap)
        })
    }

    /// With an exporter running, keep serving the finished run until
    /// SIGINT, then stop it. Without one, return at once.
    pub fn serve_until_interrupted(self) {
        if let Some(server) = self.server {
            eprintln!(
                "{}: done; serving obs until interrupted (Ctrl-C to exit)",
                self.cmd
            );
            while !interrupt::interrupted() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            server.shutdown();
        }
    }
}

/// Write `body(path)` to `path` if the `--flag` output was asked for.
fn write_file(
    flag: &str,
    path: &Option<PathBuf>,
    body: impl FnOnce(&Path) -> String,
) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    atomic_write(path, body(path).as_bytes())
        .map_err(|e| format!("failed to write --{flag} to {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("routesync-telemetry-{}-{name}", std::process::id()))
    }

    fn counters(path: &Path) -> std::collections::BTreeMap<String, u64> {
        let body = std::fs::read_to_string(path).expect("snapshot written");
        routesync_obs::Snapshot::from_json(&body)
            .expect("snapshot parses")
            .counters
    }

    #[test]
    fn sessions_in_sequence_each_snapshot_only_their_own_counts() {
        let dir = scratch("sequence");
        for (i, adds) in [3u64, 5].into_iter().enumerate() {
            let path = dir.join(format!("run{i}/obs.json"));
            let session = Session::start(
                "test",
                Outputs {
                    snapshot: Some(path.clone()),
                    ..Outputs::default()
                },
            )
            .expect("no exporter to bind");
            let items: Vec<u64> = (0..adds).collect();
            crate::Ensemble::new(&items)
                .threads(2)
                .run(
                    || (),
                    |(), _ctx, _i, _x| routesync_obs::global().counter("t.adds").inc(),
                )
                .into_values();
            session.write().expect("parent directory is created");
            session.serve_until_interrupted();
            assert!(!routesync_obs::global().is_enabled(), "scope left behind");
            let got = counters(&path);
            assert_eq!(got["t.adds"], adds);
            assert_eq!(got["exec.supervisor.cells"], adds);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn no_outputs_records_nothing() {
        let session = Session::start("test", Outputs::default()).expect("nothing to bind");
        assert!(!routesync_obs::global().is_enabled());
        session.write().expect("nothing to write");
    }

    #[test]
    fn series_and_folded_files_render_the_session() {
        let dir = scratch("files");
        let outputs = Outputs {
            series: Some(dir.join("series.csv")),
            folded: Some(dir.join("spans.folded")),
            ..Outputs::default()
        };
        let session = Session::start("test", outputs.clone()).expect("nothing to bind");
        routesync_obs::global().span("t.a.b").record_ns(7);
        session.write().expect("files written");
        drop(session);
        let series = std::fs::read_to_string(outputs.series.unwrap()).expect("series");
        assert!(series.starts_with("t_ns,kind,name,value\n"), "{series}");
        let folded = std::fs::read_to_string(outputs.folded.unwrap()).expect("folded");
        assert_eq!(folded, "t;a;b 7\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
