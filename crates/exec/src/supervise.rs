//! The ensemble runner: [`Ensemble`], its panic boundary, guards and
//! drain.
//!
//! Each **cell** (one item of ensemble work: a seed, a block of seeds, a
//! sweep grid point, a figure) runs inside a panic boundary with
//! optional resource guards. A failing cell is *quarantined*: recorded
//! with a [`RunFailure`] taxonomy and a caller-supplied reproducer
//! string, while the rest of the ensemble completes. Downstream
//! statistics see the censoring explicitly instead of dying. Callers
//! that configure no limits read the values back with
//! [`Outcome::into_values`], which re-raises a failed cell as a panic.
//!
//! Guards, all opt-in via [`SuperviseConfig`]:
//!
//! * **Watchdog** — a *deterministic simulated-step* budget. Cells call
//!   [`RunCtx::tick`] as they make simulated progress (one call per
//!   model event, chunk, case…); a cell that exceeds
//!   `watchdog_steps` trips at exactly the same step count on every
//!   machine and thread count, so a watchdog quarantine is reproducible.
//! * **Deadline** — a wall-clock limit per cell, checked at tick sites
//!   (every 1024 steps, to keep clock reads off the hot path). Inherently
//!   machine-dependent; off by default.
//!
//! Interruption: when [`SuperviseConfig::heed_interrupt`] is set
//! (as by [`SuperviseConfig::new`]) workers stop claiming new cells once
//! [`crate::interrupt::interrupted`] reports a pending Ctrl-C; in-flight
//! cells finish and reach the caller's sink, so a checkpointing driver
//! drains gracefully. [`SuperviseConfig::drain_after`] is the
//! deterministic test hook for the same path.
//!
//! Everything is instrumented under `exec.worker.*` and
//! `exec.supervisor.*` (see `docs/OBSERVABILITY.md`); with no collector
//! installed the overhead is one `catch_unwind` frame and a few branches
//! per cell — measured at well under 2% on the ensemble hot path by the
//! `bench` binary.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

/// Why a cell was quarantined.
#[derive(Debug, Clone, PartialEq)]
pub enum RunFailure {
    /// The cell panicked; `message` is the rendered panic payload.
    Panic {
        /// Rendered panic message (`&str`/`String` payloads verbatim).
        message: String,
    },
    /// The deterministic simulated-step watchdog tripped.
    Watchdog {
        /// Step count at the trip (== the configured budget + 1).
        steps: u64,
    },
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured limit, in seconds.
        limit_secs: f64,
    },
}

impl RunFailure {
    /// Stable one-word tag for reports and quarantine files.
    pub fn kind(&self) -> &'static str {
        match self {
            RunFailure::Panic { .. } => "panic",
            RunFailure::Watchdog { .. } => "watchdog",
            RunFailure::Deadline { .. } => "deadline",
        }
    }

    /// Human-readable detail line.
    pub fn detail(&self) -> String {
        match self {
            RunFailure::Panic { message } => message.clone(),
            RunFailure::Watchdog { steps } => {
                format!("simulated-step watchdog tripped at step {steps}")
            }
            RunFailure::Deadline { limit_secs } => {
                format!("wall-clock deadline of {limit_secs}s exceeded")
            }
        }
    }
}

/// One quarantined cell: which, why, and how to reproduce it.
#[derive(Debug, Clone)]
pub struct Quarantine {
    /// Index of the cell in the input slice.
    pub index: usize,
    /// The failure taxonomy entry.
    pub failure: RunFailure,
    /// Caller-supplied `(seed, spec)` reproducer (one line, typically
    /// JSON) — enough to re-run exactly this cell in isolation.
    pub reproducer: String,
}

impl Quarantine {
    /// Render as a one-line JSON object for quarantine files.
    pub fn to_line(&self) -> String {
        format!(
            "{{\"failure\":\"{}\",\"detail\":\"{}\",\"reproducer\":{}}}",
            self.kind_escaped(),
            escape_json(&self.failure.detail()),
            // The reproducer is already a JSON value (or treated as one
            // by quoting it if it does not look like an object).
            if self.reproducer.starts_with('{') {
                self.reproducer.clone()
            } else {
                format!("\"{}\"", escape_json(&self.reproducer))
            }
        )
    }

    fn kind_escaped(&self) -> &'static str {
        self.failure.kind()
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Limits for one ensemble. Everything defaults to off: with
/// `SuperviseConfig::default()` (what an [`Ensemble`] uses unless given
/// [`Ensemble::limits`]) a cell only gets the panic boundary.
#[derive(Debug, Clone, Default)]
pub struct SuperviseConfig {
    /// Deterministic simulated-step budget per cell (see [`RunCtx::tick`]).
    pub watchdog_steps: Option<u64>,
    /// Wall-clock limit per cell, checked at tick sites.
    pub deadline: Option<Duration>,
    /// Stop claiming new cells once a SIGINT drain is pending
    /// ([`crate::interrupt`]). Defaults **on** via [`SuperviseConfig::new`].
    pub heed_interrupt: bool,
    /// Deterministic drain trigger: stop claiming new cells once this
    /// many have completed. The test hook for the SIGINT path.
    pub drain_after: Option<usize>,
}

impl SuperviseConfig {
    /// The default policy: panic boundary only, interrupt-drain enabled.
    pub fn new() -> Self {
        SuperviseConfig {
            heed_interrupt: true,
            ..Default::default()
        }
    }

    /// Set the simulated-step watchdog budget.
    pub fn with_watchdog_steps(mut self, steps: u64) -> Self {
        self.watchdog_steps = Some(steps);
        self
    }

    /// Set the per-cell wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

// Typed panic payloads used by `RunCtx` guards so the boundary can
// classify trips without string matching.
struct WatchdogTrip {
    steps: u64,
}
struct DeadlineTrip {
    limit_secs: f64,
}

/// Per-cell execution context: the cell's channel to its guards.
///
/// Cells receive a fresh `RunCtx` per run and are expected to call
/// [`tick`](RunCtx::tick) (or [`ticks`](RunCtx::ticks)) as they make
/// simulated progress — per model event, per simulated chunk, per fuzz
/// case. A cell that never ticks still gets the panic boundary, but the
/// watchdog and deadline cannot observe it mid-run.
pub struct RunCtx {
    steps: u64,
    step_budget: u64,
    deadline: Option<Instant>,
    limit_secs: f64,
}

/// Check the wall clock every this many steps.
const DEADLINE_CHECK_MASK: u64 = 1024 - 1;

impl RunCtx {
    fn new(cfg: &SuperviseConfig) -> Self {
        RunCtx {
            steps: 0,
            step_budget: cfg.watchdog_steps.unwrap_or(u64::MAX),
            deadline: cfg.deadline.map(|d| Instant::now() + d),
            limit_secs: cfg.deadline.map(|d| d.as_secs_f64()).unwrap_or(0.0),
        }
    }

    /// Record one unit of simulated progress; trips the watchdog (and, at
    /// a 1024-step cadence, the wall-clock deadline) by unwinding with a
    /// typed payload the supervisor classifies.
    #[inline]
    pub fn tick(&mut self) {
        self.ticks(1)
    }

    /// Record `n` units of simulated progress at once.
    #[inline]
    pub fn ticks(&mut self, n: u64) {
        self.steps += n;
        if self.steps > self.step_budget {
            panic::panic_any(WatchdogTrip { steps: self.steps });
        }
        if self.deadline.is_some() && (self.steps & DEADLINE_CHECK_MASK) < n {
            self.check_deadline();
        }
    }

    #[cold]
    fn check_deadline(&self) {
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                panic::panic_any(DeadlineTrip {
                    limit_secs: self.limit_secs,
                });
            }
        }
    }

    /// Simulated steps recorded so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

/// Outcome slot for one input cell.
#[derive(Debug)]
pub enum CellResult<R> {
    /// The cell completed; its result.
    Done(R),
    /// The cell was quarantined (details in [`Outcome::quarantined`]).
    Quarantined,
    /// The cell was never attempted (drain requested first).
    NotRun,
}

impl<R> CellResult<R> {
    /// The completed value, if any.
    pub fn done(&self) -> Option<&R> {
        match self {
            CellResult::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// What a supervised ensemble produced: per-cell outcomes aligned with
/// the input slice, quarantine records, and whether a drain cut the run
/// short.
#[derive(Debug)]
pub struct Outcome<R> {
    /// One slot per input cell, in input order.
    pub results: Vec<CellResult<R>>,
    /// Quarantined cells in input order.
    pub quarantined: Vec<Quarantine>,
    /// True when a drain (SIGINT or [`SuperviseConfig::drain_after`])
    /// stopped the run before every cell was attempted.
    pub interrupted: bool,
}

impl<R> Outcome<R> {
    /// Every cell's value in input order, or the first quarantined cell
    /// (lowest index).
    ///
    /// # Panics
    ///
    /// If a drain left a cell unattempted.
    pub fn into_result(self) -> Result<Vec<R>, Quarantine> {
        if let Some(q) = self.quarantined.into_iter().next() {
            return Err(q);
        }
        Ok(self
            .results
            .into_iter()
            .enumerate()
            .map(|(i, cell)| match cell {
                CellResult::Done(r) => r,
                _ => panic!("ensemble drained before cell {i} ran"),
            })
            .collect())
    }

    /// Every cell's value in input order, for callers that set no limits
    /// and expect every cell to complete.
    ///
    /// # Panics
    ///
    /// Re-raises a failed cell (the lowest-index one) as a panic naming
    /// its index, failure kind and message; also panics if a drain left
    /// a cell unattempted.
    pub fn into_values(self) -> Vec<R> {
        self.into_result().unwrap_or_else(|q| {
            panic!(
                "ensemble cell {} failed ({}): {}",
                q.index,
                q.failure.kind(),
                q.failure.detail()
            )
        })
    }

    /// Cells that completed.
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r, CellResult::Done(_)))
            .count()
    }

    /// Cells never attempted (only nonzero after a drain).
    pub fn not_run(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r, CellResult::NotRun))
            .count()
    }
}

thread_local! {
    static IN_SUPERVISED_CELL: Cell<bool> = const { Cell::new(false) };
}

/// Install (once) a panic hook that stays silent for panics unwinding
/// out of a supervised cell — they are expected, classified, and
/// reported through the quarantine channel — while delegating every
/// other panic to the previously installed hook.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_SUPERVISED_CELL.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
}

fn classify(payload: Box<dyn Any + Send>) -> RunFailure {
    let payload = match payload.downcast::<WatchdogTrip>() {
        Ok(trip) => return RunFailure::Watchdog { steps: trip.steps },
        Err(p) => p,
    };
    let payload = match payload.downcast::<DeadlineTrip>() {
        Ok(trip) => {
            return RunFailure::Deadline {
                limit_secs: trip.limit_secs,
            }
        }
        Err(p) => p,
    };
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    };
    RunFailure::Panic { message }
}

/// Observability handles for one ensemble run, resolved once up front
/// from the global `routesync-obs` registry. With no collector installed
/// every handle is a no-op and `timed` is false, so workers never read
/// the wall clock for it.
struct Obs {
    workers: routesync_obs::Counter,
    jobs: routesync_obs::Counter,
    busy_ns: routesync_obs::Counter,
    idle_ns: routesync_obs::Counter,
    cells: routesync_obs::Counter,
    completed: routesync_obs::Counter,
    quarantined: routesync_obs::Counter,
    panics: routesync_obs::Counter,
    watchdog_trips: routesync_obs::Counter,
    deadline_trips: routesync_obs::Counter,
    drains: routesync_obs::Counter,
    timed: bool,
}

impl Obs {
    fn resolve() -> Self {
        let c = routesync_obs::global();
        Obs {
            workers: c.counter("exec.workers"),
            jobs: c.counter("exec.worker.jobs"),
            busy_ns: c.counter("exec.worker.busy_ns"),
            idle_ns: c.counter("exec.worker.idle_ns"),
            cells: c.counter("exec.supervisor.cells"),
            completed: c.counter("exec.supervisor.completed"),
            quarantined: c.counter("exec.supervisor.quarantined"),
            panics: c.counter("exec.supervisor.panics"),
            watchdog_trips: c.counter("exec.supervisor.watchdog_trips"),
            deadline_trips: c.counter("exec.supervisor.deadline_trips"),
            drains: c.counter("exec.supervisor.drains"),
            timed: routesync_obs::enabled(),
        }
    }

    fn record_failure(&self, failure: &RunFailure) {
        self.quarantined.inc();
        match failure {
            RunFailure::Panic { .. } => self.panics.inc(),
            RunFailure::Watchdog { .. } => self.watchdog_trips.inc(),
            RunFailure::Deadline { .. } => self.deadline_trips.inc(),
        }
    }
}

type Describe<'a, T> = Box<dyn Fn(usize, &T) -> String + Sync + 'a>;
type Sink<'a, R> = Box<dyn Fn(usize, Result<&R, &Quarantine>) + Sync + 'a>;

/// The one ensemble runner: map a function over `items` on worker
/// threads, each item a supervised cell, results in input order.
///
/// ```
/// use routesync_exec::Ensemble;
/// let seeds: Vec<u64> = (0..100).collect();
/// let squares = Ensemble::new(&seeds)
///     .threads(4)
///     .run(|| (), |_scratch, _ctx, _i, &s| s * s)
///     .into_values();
/// assert_eq!(squares[9], 81);
/// ```
///
/// Workers claim one item at a time from a shared atomic counter, so
/// threads never idle while work remains. Each completed value is tagged
/// with its input index and placed back in input order, so the
/// [`Outcome`] is identical at any thread count as long as a cell's
/// value depends only on `(index, item)`. With one thread (or one item)
/// the cells run inline on the calling thread.
///
/// Builder knobs, all optional:
///
/// * [`threads`](Ensemble::threads) — worker count; unset means
///   [`crate::resolve_threads`]`(None)`.
/// * [`limits`](Ensemble::limits) — watchdog, deadline, allocation
///   guard and drain policy; unset means none of them.
/// * [`describe`](Ensemble::describe) — renders a quarantined cell's
///   reproducer; unset means `{"index":N}`.
/// * [`sink`](Ensemble::sink) — observes every *finished* cell
///   (completed or quarantined) as it happens, from worker threads: the
///   checkpoint streaming hook. Calls are serialized per cell but
///   unordered across cells.
pub struct Ensemble<'a, T, R> {
    items: &'a [T],
    threads: Option<usize>,
    limits: SuperviseConfig,
    describe: Describe<'a, T>,
    sink: Sink<'a, R>,
}

impl<'a, T, R> Ensemble<'a, T, R> {
    /// An ensemble with one cell per item.
    pub fn new(items: &'a [T]) -> Self {
        Ensemble {
            items,
            threads: None,
            limits: SuperviseConfig::default(),
            describe: Box::new(|i, _| format!("{{\"index\":{i}}}")),
            sink: Box::new(|_, _| {}),
        }
    }

    /// Run on `n` worker threads (at least 1, at most one per item).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Apply these per-cell limits and drain policy.
    pub fn limits(mut self, limits: SuperviseConfig) -> Self {
        self.limits = limits;
        self
    }

    /// Render the `(seed, spec)` reproducer of a quarantined cell.
    pub fn describe(mut self, f: impl Fn(usize, &T) -> String + Sync + 'a) -> Self {
        self.describe = Box::new(f);
        self
    }

    /// Observe every finished cell as it finishes.
    pub fn sink(mut self, f: impl Fn(usize, Result<&R, &Quarantine>) + Sync + 'a) -> Self {
        self.sink = Box::new(f);
        self
    }

    /// Run every cell and collect the outcome.
    ///
    /// * `init` builds per-worker scratch (a reusable model, or `|| ()`),
    ///   rebuilt after any quarantined cell since a panic may leave it
    ///   mid-mutation.
    /// * `run` executes one cell from `(scratch, ctx, index, item)`. Its
    ///   value must not depend on what the scratch held before, which
    ///   `reset`-style APIs enforce.
    pub fn run<S, I, F>(self, init: I, run: F) -> Outcome<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &mut RunCtx, usize, &T) -> R + Sync,
    {
        let _span = routesync_obs::span!("exec.ensemble");
        install_quiet_hook();
        let Ensemble {
            items,
            threads,
            limits: cfg,
            describe,
            sink,
        } = self;
        let obs = Obs::resolve();
        let threads = crate::resolve_threads(threads).min(items.len().max(1));
        obs.workers.add(threads as u64);
        let cursor = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let drained = AtomicUsize::new(0);
        // Workers record into the caller's scoped collector, if any.
        let scope = routesync_obs::current_scope();

        // One worker body shared by the serial and parallel paths.
        let worker = || {
            let _scope = scope.clone().map(routesync_obs::scoped);
            let worker_start = obs.timed.then(Instant::now);
            let mut busy_ns = 0u64;
            let mut state = init();
            let mut local: Vec<(usize, Result<R, Quarantine>)> = Vec::new();
            loop {
                if cfg.heed_interrupt && crate::interrupt::interrupted() {
                    drained.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                if let Some(limit) = cfg.drain_after {
                    if finished.load(Ordering::SeqCst) >= limit {
                        drained.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                obs.jobs.inc();
                obs.cells.inc();
                let cell_start = obs.timed.then(Instant::now);
                let mut ctx = RunCtx::new(&cfg);
                let outer = IN_SUPERVISED_CELL.with(|c| c.replace(true));
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    run(&mut state, &mut ctx, i, &items[i])
                }));
                IN_SUPERVISED_CELL.with(|c| c.set(outer));
                let entry = match outcome {
                    Ok(r) => {
                        obs.completed.inc();
                        sink(i, Ok(&r));
                        Ok(r)
                    }
                    Err(payload) => {
                        let failure = classify(payload);
                        obs.record_failure(&failure);
                        let q = Quarantine {
                            index: i,
                            failure,
                            reproducer: describe(i, &items[i]),
                        };
                        sink(i, Err(&q));
                        // Scratch may be mid-mutation; rebuild it.
                        state = init();
                        Err(q)
                    }
                };
                if let Some(t0) = cell_start {
                    busy_ns += t0.elapsed().as_nanos() as u64;
                }
                local.push((i, entry));
                finished.fetch_add(1, Ordering::SeqCst);
            }
            if let Some(t0) = worker_start {
                let lifetime_ns = t0.elapsed().as_nanos() as u64;
                obs.busy_ns.add(busy_ns);
                obs.idle_ns.add(lifetime_ns.saturating_sub(busy_ns));
            }
            local
        };

        let mut collected: Vec<(usize, Result<R, Quarantine>)> = Vec::with_capacity(items.len());
        if threads == 1 {
            collected = worker();
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
                for handle in handles {
                    match handle.join() {
                        Ok(local) => collected.extend(local),
                        // Only `init`, `describe` or `sink` can panic here
                        // (cells are caught); that is a caller bug, propagate.
                        Err(payload) => panic::resume_unwind(payload),
                    }
                }
            });
        }

        let interrupted = drained.load(Ordering::Relaxed) > 0;
        if interrupted {
            obs.drains.inc();
        }
        let mut results: Vec<CellResult<R>> = items.iter().map(|_| CellResult::NotRun).collect();
        let mut quarantined = Vec::new();
        for (i, entry) in collected {
            match entry {
                Ok(r) => results[i] = CellResult::Done(r),
                Err(q) => {
                    results[i] = CellResult::Quarantined;
                    quarantined.push(q);
                }
            }
        }
        quarantined.sort_by_key(|q| q.index);
        Outcome {
            results,
            quarantined,
            interrupted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Test policy with interrupt-heeding off. The drain flag is
    /// process-global, because the SIGINT handler can reach nothing else
    /// (see `crate::interrupt`), and `interrupt`'s own test raises it on
    /// another thread of this binary: a cell loop that heeded it could
    /// drain early and fail a test that never asked for a drain.
    fn quiet() -> SuperviseConfig {
        SuperviseConfig {
            heed_interrupt: false,
            ..SuperviseConfig::new()
        }
    }

    #[test]
    fn matches_serial_map_in_order() {
        let items: Vec<u64> = (0..503).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let parallel = Ensemble::new(&items)
                .threads(threads)
                .run(|| (), |(), _ctx, i, &x| x * 3 + i as u64)
                .into_values();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        let none = Ensemble::new(&empty)
            .threads(4)
            .run(|| (), |(), _ctx, _i, &x| x)
            .into_values();
        assert_eq!(none, Vec::<u32>::new());
        let one = Ensemble::new(&[7u32])
            .threads(4)
            .run(|| (), |(), _ctx, i, &x| x + i as u32)
            .into_values();
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn uses_all_requested_threads_for_large_inputs() {
        let items: Vec<u32> = (0..1024).collect();
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        Ensemble::new(&items).threads(4).run(
            || (),
            |(), _ctx, _i, &x| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(50));
                live.fetch_sub(1, Ordering::SeqCst);
                x
            },
        );
        assert!(peak.load(Ordering::SeqCst) >= 2, "never ran concurrently");
    }

    #[test]
    fn worker_state_is_reused_within_a_thread() {
        let items: Vec<u64> = (0..256).collect();
        let inits = AtomicUsize::new(0);
        let out = Ensemble::new(&items)
            .threads(4)
            .run(
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    Vec::<u64>::new()
                },
                |scratch, _ctx, i, &x| {
                    scratch.clear();
                    scratch.extend([x, x + 1]);
                    scratch.iter().sum::<u64>() + i as u64
                },
            )
            .into_values();
        assert_eq!(out[10], 10 + 11 + 10);
        let n = inits.load(Ordering::SeqCst);
        assert!(n <= 4, "one init per worker at most, got {n}");
    }

    /// `into_values` re-raises a failed cell on the caller as a panic
    /// that names the cell's index and carries its message.
    #[test]
    fn into_values_reraises_the_failed_cell() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                Ensemble::new(&items)
                    .threads(threads)
                    .run(
                        || (),
                        |(), _ctx, _i, &x| {
                            assert!(x != 37, "injected failure at {x}");
                            x
                        },
                    )
                    .into_values()
            })
            .expect_err("the failed cell must reach the caller");
            let message = caught
                .downcast_ref::<String>()
                .expect("re-raised with a formatted message");
            assert!(message.contains("cell 37"), "{message}");
            assert!(message.contains("injected failure at 37"), "{message}");
        }
    }

    /// One run emits both the worker timings and the supervisor cell
    /// accounting, exactly: the collector is this test's scope.
    #[test]
    fn one_run_emits_worker_and_supervisor_counters() {
        let live = routesync_obs::Collector::enabled();
        let scope = routesync_obs::scoped(live.clone());
        let items: Vec<u64> = (0..16).collect();
        let out = Ensemble::new(&items)
            .threads(2)
            .run(
                || (),
                |(), _ctx, _i, &x| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    x
                },
            )
            .into_values();
        drop(scope);
        let snap = live.snapshot();
        assert_eq!(out, items);
        let counter = |name: &str| snap.counters.get(name).copied();
        assert!(counter("exec.worker.busy_ns").unwrap_or(0) >= 16 * 1_000_000);
        assert!(counter("exec.worker.idle_ns").is_some(), "idle_ns missing");
        assert_eq!(counter("exec.supervisor.cells"), Some(16));
        assert_eq!(counter("exec.supervisor.completed"), Some(16));
    }

    #[test]
    fn completes_and_matches_serial_without_failures() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) ^ 5).collect();
        for threads in [1, 2, 4] {
            let out = Ensemble::new(&items)
                .threads(threads)
                .limits(quiet())
                .describe(|i, _| format!("{i}"))
                .run(|| (), |(), _ctx, _i, &x| x.wrapping_mul(31) ^ 5);
            assert!(!out.interrupted);
            assert!(out.quarantined.is_empty());
            let got: Vec<u64> = out
                .results
                .iter()
                .map(|r| *r.done().expect("all done"))
                .collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn panicking_cell_is_quarantined_and_rest_complete() {
        let items: Vec<u64> = (0..100).collect();
        let out = Ensemble::new(&items)
            .threads(4)
            .limits(quiet())
            .describe(|_i, &x| format!("{{\"seed\":{x}}}"))
            .run(
                || (),
                |(), _ctx, _i, &x| {
                    assert!(x != 37, "injected failure at {x}");
                    x
                },
            );
        assert_eq!(out.completed(), 99);
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!(q.index, 37);
        assert_eq!(q.failure.kind(), "panic");
        assert!(q.failure.detail().contains("injected failure at 37"));
        assert_eq!(q.reproducer, "{\"seed\":37}");
        assert!(matches!(out.results[37], CellResult::Quarantined));
    }

    #[test]
    fn watchdog_trips_deterministically() {
        let items: Vec<u64> = (0..8).collect();
        let cfg = quiet().with_watchdog_steps(100);
        for threads in [1, 4] {
            let out = Ensemble::new(&items)
                .threads(threads)
                .limits(cfg.clone())
                .describe(|_i, &x| format!("{x}"))
                .run(
                    || (),
                    |(), ctx, _i, &x| {
                        // Cell 3 claims to simulate forever.
                        let steps = if x == 3 { 1_000 } else { 10 };
                        for _ in 0..steps {
                            ctx.tick();
                        }
                        x
                    },
                );
            assert_eq!(out.quarantined.len(), 1, "threads={threads}");
            assert_eq!(
                out.quarantined[0].failure,
                RunFailure::Watchdog { steps: 101 },
                "trips at exactly budget+1 regardless of threads"
            );
        }
    }

    #[test]
    fn drain_after_stops_claiming_but_keeps_finished_work() {
        let items: Vec<u64> = (0..64).collect();
        let cfg = SuperviseConfig {
            drain_after: Some(10),
            ..quiet()
        };
        let out = Ensemble::new(&items)
            .threads(2)
            .limits(cfg)
            .describe(|_i, _| String::new())
            .run(|| (), |(), _ctx, _i, &x| x);
        assert!(out.interrupted);
        assert!(out.completed() >= 10, "at least the drain threshold");
        assert!(out.not_run() > 0, "drain left work unattempted");
    }

    #[test]
    fn sink_sees_every_finished_cell() {
        use std::sync::Mutex;
        let items: Vec<u64> = (0..50).collect();
        let seen = Mutex::new(Vec::new());
        let out = Ensemble::new(&items)
            .threads(4)
            .limits(quiet())
            .describe(|_i, &x| format!("{x}"))
            .sink(|i, result| {
                seen.lock().unwrap().push((i, result.is_ok()));
            })
            .run(
                || (),
                |(), _ctx, _i, &x| {
                    assert!(x != 7, "boom");
                    x * 2
                },
            );
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(seen.len(), 50);
        assert_eq!(seen[7], (7, false));
        assert_eq!(out.completed(), 49);
    }

    #[test]
    fn single_cell_classifies_and_passes_through() {
        let ok = Ensemble::new(&[()])
            .limits(quiet())
            .run(|| (), |(), _ctx, _i, _| 42u32)
            .into_result();
        assert_eq!(ok.expect("completes"), vec![42]);
        let err = Ensemble::new(&[()])
            .limits(quiet())
            .describe(|_i, _| "{\"id\":\"x\"}".to_string())
            .run(|| (), |(), _ctx, _i, _| -> u32 { panic!("unit blew up") })
            .into_result()
            .expect_err("quarantined");
        assert_eq!(err.failure.kind(), "panic");
        assert!(err.to_line().contains("unit blew up"));
        assert!(err.to_line().contains("{\"id\":\"x\"}"));
    }
}
