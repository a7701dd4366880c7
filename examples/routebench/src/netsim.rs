//! `netsim-scale` and `netsim-churn`: the packet-level simulator and the
//! desim scheduler under it, loaded two opposite ways.
//!
//! * `netsim-scale` — `ScenarioSpec::hierarchical_for(100_000)`: about
//!   100k pending timers in the scheduler, small tables, no traffic. The
//!   per-event rate falls from slice to slice as the run proceeds.
//! * `netsim-churn` — a 300-router ring with 150 chords, unsynchronized
//!   start, link flaps, lossy links and Poisson data traffic: 300-entry
//!   table writes, triggered updates and forwarding over a small pending
//!   set.
//!
//! A unit builds the scenario and runs it to the horizon in 120 s slices
//! (one DECnet period each). Every unit of a run must end in the same
//! counters, event count and routing tables; for the seeds in
//! `goldens.json` they must equal the recorded goldens.

use routesync_desim::{CalendarQueue, Duration, Engine, Scheduler, SimTime};
use routesync_netsim::{FaultPlan, NetSim, NodeKind, Scenario, ScenarioSpec, TimerStart};
use routesync_rng::UniformDuration;
use serde_json::Value;

use crate::measure::{median, ratio, Checks, Metrics, Rate};
use crate::trace::timed;
use crate::{as_f64, field, Ctx, Outcome};

const GOLDENS_JSON: &str = include_str!("../goldens.json");
/// One DECnet update period: the slice length, and the hold model's
/// mean reschedule interval.
const SLICE_S: u64 = 120;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Scale,
    Churn,
}

struct Config {
    kind: Kind,
    name: &'static str,
    routers: usize,
    horizon_s: u64,
    /// Jitter half-width of the scenario's update timers.
    tr: Duration,
    /// Pops in each scheduler hold-model probe.
    holds: u64,
}

impl Config {
    fn new(ctx: &Ctx, kind: Kind) -> Config {
        // netsim-scale runs two busy periods after the synchronized start:
        // its first burst sets the peak memory whatever the seed, while
        // longer runs reach peaks that differ from seed to seed by up to
        // a third.
        let (name, horizon_s, tr) = match kind {
            Kind::Scale => ("netsim-scale", 360, Duration::from_millis(1)),
            Kind::Churn => ("netsim-churn", 1_800, Duration::from_millis(100)),
        };
        let routers = match (kind, ctx.smoke) {
            (Kind::Scale, false) => 100_000,
            (Kind::Scale, true) => 2_000,
            (Kind::Churn, false) => 300,
            (Kind::Churn, true) => 30,
        };
        Config {
            kind,
            name,
            routers,
            horizon_s,
            tr,
            holds: if ctx.smoke { 100_000 } else { 2_000_000 },
        }
    }

    fn spec(&self) -> ScenarioSpec {
        match self.kind {
            Kind::Scale => ScenarioSpec::hierarchical_for(self.routers),
            Kind::Churn => {
                let n = self.routers;
                // Link ids 0..n are the ring edges.
                let mut plan = FaultPlan::new();
                for link in (0..n).step_by(4) {
                    plan = plan.flap_link(link, Duration::from_secs(600), Duration::from_secs(60));
                }
                for link in (0..n).step_by(8) {
                    plan = plan.lossy_link(link, 0.02);
                }
                ScenarioSpec::random_mesh(n, n / 2, self.tr)
                    .with_start(TimerStart::Unsynchronized)
                    .with_timeline(false)
                    .with_faults(plan)
            }
        }
    }

    /// Set-up: the scenario built from its spec, with traffic attached.
    fn build(&self, seed: u64) -> Scenario {
        let (mut scen, _) = timed("netsim.ScenarioSpec::build", || self.spec().build(seed));
        if self.kind == Kind::Churn {
            let n = self.routers;
            for src in (0..n).step_by(10) {
                scen.sim.add_poisson(
                    src,
                    (src + n / 2) % n,
                    Duration::from_millis(50),
                    SimTime::from_secs(self.horizon_s),
                    SimTime::from_secs(1),
                );
            }
        }
        scen
    }
}

struct UnitOut {
    /// `(events, wall seconds)` per slice.
    slices: Vec<(u64, f64)>,
    /// Counters, event count and table digest: what must repeat exactly.
    record: Value,
    updates_processed: u64,
    /// Wall time of the unit's spans: the slices, the record, and
    /// dropping the simulator.
    spanned_s: f64,
}

/// FNV-1a over every router's table, in router order: destination,
/// metric and next hop of each entry.
fn table_digest(sim: &NetSim) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let topo = sim.topology();
    for node in (0..topo.node_count()).filter(|&v| topo.kind(v) == NodeKind::Router) {
        for (dst, route) in sim.table(node).iter() {
            eat(dst as u64);
            eat(u64::from(route.metric));
            eat(route.next_hop as u64);
        }
    }
    h
}

fn unit(cfg: &Config, mut scen: Scenario) -> UnitOut {
    let mut slices = Vec::new();
    for at in (SLICE_S..=cfg.horizon_s).step_by(SLICE_S as usize) {
        let before = scen.sim.events_processed();
        let (_, secs) = timed("netsim.NetSim::run_until", || {
            scen.sim.run_until(SimTime::from_secs(at))
        });
        slices.push((scen.sim.events_processed() - before, secs));
    }
    let (record, record_s) = timed("netsim.record", || {
        Value::Object(vec![
            ("events".into(), Value::U64(scen.sim.events_processed())),
            (
                "tables".into(),
                Value::Str(format!("{:016x}", table_digest(&scen.sim))),
            ),
            (
                "counters".into(),
                serde_json::to_value(scen.sim.counters()).expect("counters serialize"),
            ),
        ])
    });
    let updates_processed = scen.sim.counters().updates_processed;
    let ((), drop_s) = timed("netsim.drop", || drop(scen));
    let slice_s: f64 = slices.iter().map(|&(_, s)| s).sum();
    UnitOut {
        slices,
        record,
        updates_processed,
        spanned_s: slice_s + record_s + drop_s,
    }
}

/// The golden record for this workload, size and seed, if one is kept.
fn golden(cfg: &Config, ctx: &Ctx) -> Result<Option<Value>, String> {
    let doc: Value =
        serde_json::from_str(GOLDENS_JSON).map_err(|e| format!("goldens.json: {e}"))?;
    Ok(doc
        .get(cfg.name)
        .and_then(|w| w.get(ctx.size()))
        .and_then(|s| s.get(&ctx.seed.to_string()))
        .cloned())
}

fn check_units(reference: &Value, golden: Option<&Value>, units: &[UnitOut], checks: &mut Checks) {
    if let Some(g) = golden {
        checks.require(reference == g, || {
            format!(
                "run differs from the golden record: got {}, want {}",
                serde_json::to_string(reference).expect("Value serializes"),
                serde_json::to_string(g).expect("Value serializes")
            )
        });
    }
    for (k, u) in units.iter().enumerate() {
        checks.attempted += 1;
        if u.record != *reference {
            checks.failed += 1;
            checks.errors.push(format!(
                "unit {k} differs from the first unit: {}",
                serde_json::to_string(&u.record).expect("Value serializes")
            ));
        }
    }
}

/// The classic hold model: `pending` timers, each pop rescheduled one
/// jittered period later — the scheduler's share of a netsim event.
fn holds_per_s<S: Scheduler<u32>>(
    name: &'static str,
    mut engine: Engine<u32, S>,
    pending: usize,
    holds: u64,
    tr: Duration,
    seed: u64,
) -> f64 {
    let tp = Duration::from_secs(SLICE_S);
    let mut rng = routesync_rng::stream(seed, 0x401D);
    let first = UniformDuration::new(Duration::ZERO, tp);
    for id in 0..pending {
        engine.schedule(SimTime::ZERO + first.sample(&mut rng), id as u32);
    }
    let period = UniformDuration::centered(tp, tr);
    let (_, secs) = timed(name, || {
        for _ in 0..holds {
            let (t, id) = engine.pop().expect("the hold model never drains");
            engine.schedule(t + period.sample(&mut rng), id);
        }
    });
    ratio(holds as f64, secs)
}

pub fn run(ctx: &Ctx, kind: Kind) -> Result<Outcome, String> {
    let cfg = Config::new(ctx, kind);
    let golden = golden(&cfg, ctx)?;
    let mut checks = Checks::default();
    let mut layers = Metrics::default();

    let set_up = || Ok(cfg.build(ctx.seed));
    let run_unit = |scen| Ok(unit(&cfg, scen));

    let (untraced, traced) = ctx.measure(set_up, run_unit)?;
    let reference = untraced.results[0].record.clone();
    check_units(&reference, golden.as_ref(), &untraced.results, &mut checks);

    if let Some(traced) = &traced {
        check_units(&reference, None, &traced.results, &mut checks);

        let mut all = Rate::default();
        let (mut first, mut last, mut updates, mut coverage) = (vec![], vec![], vec![], vec![]);
        for (u, &run_s) in traced.results.iter().zip(&traced.samples.run_s) {
            let busy: Vec<&(u64, f64)> = u.slices.iter().filter(|(ev, _)| *ev > 0).collect();
            let rate = |&&(ev, secs): &&(u64, f64)| ratio(ev as f64, secs);
            first.push(busy.first().map_or(0.0, rate));
            last.push(busy.last().map_or(0.0, rate));
            let slice_s: f64 = u.slices.iter().map(|&(_, s)| s).sum();
            for &(ev, secs) in &u.slices {
                all.add(ev, secs);
            }
            updates.push(ratio(u.updates_processed as f64, slice_s));
            coverage.push(ratio(u.spanned_s, run_s));
        }
        layers.set("netsim.events_per_s", "1/s", all.per_s());
        layers.set("netsim.events_per_s.first", "1/s", median(&first));
        layers.set("netsim.events_per_s.last", "1/s", median(&last));
        layers.set(
            "netsim.slowdown",
            "ratio",
            ratio(median(&first), median(&last)),
        );
        layers.set("netsim.updates_per_s", "1/s", median(&updates));
        layers.set("obs.span_coverage", "ratio", median(&coverage));
        layers.set(
            "netsim.rss_kib_per_router",
            "KiB",
            untraced.samples.peak_rss_kib / cfg.routers as f64,
        );

        let counters = field(&reference, "counters")?;
        let num = |v: &Value, key: &str| {
            v.get(key)
                .and_then(as_f64)
                .ok_or_else(|| format!("netsim record lacks {key}"))
        };
        let count = |key: &str| num(counters, key);
        layers.set("netsim.events", "count", num(&reference, "events")?);
        for key in [
            "updates_processed",
            "updates_sent",
            "updates_triggered",
            "forwarded",
            "delivered",
            "faults_injected",
        ] {
            layers.set(format!("netsim.{key}"), "count", count(key)?);
        }
        let mut drops = 0.0;
        for key in [
            "drop_no_route",
            "drop_queue",
            "drop_cpu",
            "drop_link_down",
            "drop_ttl",
            "drop_link_loss",
            "drop_router_down",
        ] {
            drops += count(key)?;
        }
        layers.set("netsim.drops", "count", drops);
        layers.set(
            "netsim.delivery_ratio",
            "ratio",
            ratio(count("delivered")?, count("sent")?),
        );

        let pending = cfg.routers;
        layers.set(
            "desim.heap.holds_per_s",
            "1/s",
            holds_per_s(
                "desim.heap.hold",
                Engine::new(),
                pending,
                cfg.holds,
                cfg.tr,
                ctx.seed,
            ),
        );
        layers.set(
            "desim.calendar.holds_per_s",
            "1/s",
            holds_per_s(
                "desim.calendar.hold",
                Engine::with_scheduler(CalendarQueue::new()),
                pending,
                cfg.holds,
                cfg.tr,
                ctx.seed,
            ),
        );
    }

    Ok(Outcome {
        untraced: untraced.samples,
        traced: traced.map(|t| t.samples),
        checks,
        layers,
        details: vec![
            ("routers".into(), Value::U64(cfg.routers as u64)),
            ("horizon_s".into(), Value::U64(cfg.horizon_s)),
            ("golden_checked".into(), Value::Bool(golden.is_some())),
            ("record".into(), reference),
        ],
        threads: 1,
    })
}
