//! Shared harness plumbing: configuration, CSV output, shape checks.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Master seed.
    pub seed: u64,
    /// Shrink horizons/repetitions for smoke runs (CI and `cargo test`).
    pub fast: bool,
    /// Worker threads for every ensemble a figure fans out. Results are
    /// identical at any count.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            out_dir: PathBuf::from("results"),
            seed: 1993,
            fast: false,
            threads: routesync_exec::resolve_threads(None),
        }
    }
}

impl Config {
    /// A fast configuration writing into a temp-ish subdirectory.
    pub fn fast() -> Self {
        Config {
            fast: true,
            ..Default::default()
        }
    }
}

/// One shape check: the paper's qualitative claim and whether the measured
/// data reproduces it.
#[derive(Debug, Clone)]
pub struct Check {
    /// What the paper reports.
    pub claim: String,
    /// What this run measured.
    pub measured: String,
    /// Whether the shape holds.
    pub pass: bool,
}

/// The result of one experiment.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Experiment id (`fig1` …).
    pub id: String,
    /// One-line description.
    pub title: String,
    /// Paths of CSV files written.
    pub files: Vec<PathBuf>,
    /// ASCII rendering(s) for the terminal.
    pub rendering: String,
    /// Shape checks against the paper.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// Whether every shape check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Human-readable report.
    pub fn report(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "=== {} — {} ===", self.id, self.title);
        s.push_str(&self.rendering);
        if !self.rendering.ends_with('\n') {
            s.push('\n');
        }
        for c in &self.checks {
            let _ = writeln!(
                s,
                "[{}] paper: {} | measured: {}",
                if c.pass { "PASS" } else { "FAIL" },
                c.claim,
                c.measured
            );
        }
        for f in &self.files {
            let _ = writeln!(s, "csv: {}", f.display());
        }
        s
    }
}

/// Write a CSV file with a header row and formatted rows.
///
/// The write is atomic (tmp sibling + rename): a crash or kill mid-run
/// never leaves a truncated CSV in `results/`, only the previous file or
/// the complete new one.
pub fn write_csv(
    cfg: &Config,
    name: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> PathBuf {
    std::fs::create_dir_all(&cfg.out_dir).expect("create results dir");
    let path = cfg.out_dir.join(name);
    let mut body = String::from(header);
    if !body.ends_with('\n') {
        body.push('\n');
    }
    for row in rows {
        body.push_str(&row);
        body.push('\n');
    }
    routesync_exec::atomic_write(&path, body.as_bytes()).expect("write csv");
    path
}

/// Format an `Option<f64>` for CSV (`NA` when absent).
pub fn opt(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v}"),
        None => "NA".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_report_includes_checks_and_files() {
        let o = Outcome {
            id: "figX".into(),
            title: "demo".into(),
            files: vec![PathBuf::from("results/x.csv")],
            rendering: "plot".into(),
            checks: vec![Check {
                claim: "goes up".into(),
                measured: "went up".into(),
                pass: true,
            }],
        };
        let r = o.report();
        assert!(r.contains("figX"));
        assert!(r.contains("[PASS]"));
        assert!(r.contains("results/x.csv"));
        assert!(o.passed());
    }

    #[test]
    fn write_csv_creates_file() {
        let cfg = Config {
            out_dir: std::env::temp_dir().join("routesync-bench-test"),
            seed: 1,
            fast: true,
            threads: 1,
        };
        let p = write_csv(&cfg, "t.csv", "a,b", vec!["1,2".to_string()]);
        let s = std::fs::read_to_string(&p).expect("read back");
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    fn opt_formats_na() {
        assert_eq!(opt(None), "NA");
        assert_eq!(opt(Some(2.5)), "2.5");
    }
}
