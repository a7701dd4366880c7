//! The timed loop every workload shares, and the statistics over its
//! samples.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::host::{cpu_seconds, peak_rss_kib};

/// End-to-end samples from one phase of a run: one `setup_s`, `run_s`
/// and `cpu_s` per unit of work.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// The process's peak RSS once the run's first unit (always an
    /// untraced one) has run: what one set-up and one run of the workload
    /// cost. Later units only add allocator noise (memory one unit frees
    /// is not always returned to the system before the next allocates).
    pub peak_rss_kib: f64,
}

/// One phase's samples plus each unit's result, in unit order
/// (`results[i]` took `run_s[i]`).
pub struct Phase<R> {
    pub samples: Samples,
    pub results: Vec<R>,
}

impl<R> Phase<R> {
    fn new() -> Phase<R> {
        Phase {
            samples: Samples::default(),
            results: Vec::new(),
        }
    }
}

/// Repeat one fixed-size unit of work — set up, then run — until `budget`
/// of wall time has passed, and at least once. Set-up is timed apart
/// from the run; the run is timed in wall and in process CPU time.
///
/// With `tracing`, units alternate between untraced and traced
/// (`tracing(on)` switches before each, starting untraced), so the two
/// phases see the same host conditions; the second phase holds the
/// traced units, and tracing is left on for the probes that follow.
pub fn measure<S, R>(
    budget: Duration,
    tracing: Option<&dyn Fn(bool)>,
    mut setup: impl FnMut() -> Result<S, String>,
    mut run: impl FnMut(S) -> Result<R, String>,
) -> Result<(Phase<R>, Option<Phase<R>>), String> {
    let started = Instant::now();
    let mut phases = [Phase::new(), Phase::new()];
    for k in 0.. {
        let traced = tracing.is_some() && k % 2 == 1;
        if let Some(switch) = tracing {
            switch(traced);
        }
        let phase = &mut phases[usize::from(traced)];
        let t = Instant::now();
        let state = setup()?;
        phase.samples.setup_s.push(t.elapsed().as_secs_f64());
        let (t, cpu) = (Instant::now(), cpu_seconds());
        phase.results.push(run(state)?);
        phase.samples.run_s.push(t.elapsed().as_secs_f64());
        phase.samples.cpu_s.push(cpu_seconds() - cpu);
        if k == 0 {
            phase.samples.peak_rss_kib = peak_rss_kib();
        }
        let both_ran = tracing.is_none() || k >= 1;
        if both_ran && started.elapsed() >= budget {
            break;
        }
    }
    if let Some(switch) = tracing {
        switch(true);
    }
    let [untraced, traced] = phases;
    Ok((untraced, tracing.map(|_| traced)))
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let [_, m, _] = quartiles(xs);
    m
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len == 1 {
        return [v[0]; 3];
    }
    let m = len + 1;
    let mut q = [0.0; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    q
}

/// Pass/fail bookkeeping: `attempted` operations of which `failed`
/// failed, plus any aggregate check that did not hold.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    /// Record `what` as an error unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Measured metrics: name → (value, unit).
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// `num / den`, or 0 when nothing was measured (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Work counted inside spans, over the spans' wall time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rate {
    work: f64,
    secs: f64,
}

impl Rate {
    pub fn add(&mut self, work: u64, secs: f64) {
        self.work += work as f64;
        self.secs += secs;
    }

    /// Work per second; 0 when no span ran.
    pub fn per_s(self) -> f64 {
        ratio(self.work, self.secs)
    }
}

/// The nearest-rank `q` quantile (0 < q <= 1) of a non-empty sample.
pub fn nearest_rank(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from Python 3.11:
    /// `statistics.quantiles([...], n=4)`.
    #[test]
    fn quartiles_match_python_statistics() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }
}
