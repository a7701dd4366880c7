//! Throughput of the Periodic Messages simulation: simulated rounds per
//! wall-clock second, across network sizes and both reset policies, and
//! the burst kernel's two burst shapes under the sweep's recorder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use routesync_core::{
    FastModel, FirstPassageUp, NullRecorder, PeriodicModel, PeriodicParams, Recorder, StartState,
};
use routesync_desim::{Duration, SimTime};
use routesync_rng::TimerResetPolicy;

fn params(n: usize) -> PeriodicParams {
    params_tr(n, 100)
}

fn params_tr(n: usize, tr_ms: u64) -> PeriodicParams {
    PeriodicParams::new(
        n,
        Duration::from_secs(121),
        Duration::from_millis(110),
        Duration::from_millis(tr_ms),
    )
}

fn bench_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("periodic_model");
    // 100 rounds of simulated time per iteration.
    let horizon = SimTime::from_secs(121 * 100);
    for &n in &[10usize, 20, 40] {
        group.bench_with_input(BenchmarkId::new("after_processing", n), &n, |b, &n| {
            b.iter(|| {
                let mut m = PeriodicModel::new(params(n), StartState::Unsynchronized, 7);
                m.run(horizon, &mut NullRecorder);
                m.sends()
            });
        });
    }
    for &n in &[10usize, 20, 40] {
        group.bench_with_input(BenchmarkId::new("fast_burst_engine", n), &n, |b, &n| {
            b.iter(|| {
                let mut m =
                    routesync_core::FastModel::new(params(n), StartState::Unsynchronized, 7);
                m.run(horizon, &mut NullRecorder);
                m.sends()
            });
        });
    }
    group.bench_function("on_expiry_n20", |b| {
        let p = params(20).with_reset_policy(TimerResetPolicy::OnExpiry);
        b.iter(|| {
            let mut m = PeriodicModel::new(p, StartState::Unsynchronized, 7);
            m.run(horizon, &mut NullRecorder);
            m.sends()
        });
    });
    group.finish();
}

/// `FastModel` under `FirstPassageUp`, as in a time-to-sync sweep cell,
/// at N = 20 on both sides of the phase transition. Each iteration resets
/// one model to seed 7 and runs 2·10⁵ simulated seconds (about 33k
/// sends); the sends per iteration are printed once, so ns per send is
/// the per-iteration time divided by them. Each iteration takes about a
/// millisecond, so the median is over 50 samples.
///
/// * `lone`: Tr = 0.3 s from an unsynchronized start. Nearly every burst
///   has one member, and the cell never synchronizes.
/// * `clusters`: Tr = 0.02 s from a synchronized start. The 20 routers
///   stay in one cluster, so every burst has many members. The target is
///   N + 1, a size no group reaches, so the run goes to the horizon.
fn bench_burst_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fast_first_passage");
    group.sample_size(50);
    let horizon = SimTime::from_secs(200_000);
    let n = 20;
    let cases = [
        ("lone_tr300", 300, StartState::Unsynchronized, n),
        ("clusters_tr20_sync", 20, StartState::Synchronized, n + 1),
    ];
    for (name, tr_ms, start, target) in cases {
        let p = params_tr(n, tr_ms);
        let mut model = FastModel::new(p, start.clone(), 7);
        let mut fp = FirstPassageUp::new(target);
        let mut run = move || {
            model.reset(&start, 7);
            fp.reset();
            model.run(horizon, &mut fp);
            model.sends()
        };
        println!("fast_first_passage/{name}: {} sends per iteration", run());
        group.bench_function(name, |b| b.iter(&mut run));
    }
    group.finish();
}

criterion_group!(benches, bench_model, bench_burst_shapes);
criterion_main!(benches);
