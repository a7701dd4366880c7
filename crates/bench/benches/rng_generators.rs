//! Carta's claim, re-measured: the generator's fold against the naive
//! 64-bit remainder it replaces.

use criterion::{criterion_group, criterion_main, Criterion};
use routesync_rng::minstd::{MODULUS, MULTIPLIER};
use routesync_rng::MinStd;

fn bench_minstd(c: &mut Criterion) {
    let mut group = c.benchmark_group("minstd");
    group.bench_function("draw_1e5/CartaFold", |b| {
        b.iter(|| {
            let mut g = MinStd::new(1);
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(g.next() as u64);
            }
            acc
        });
    });
    group.bench_function("draw_1e5/Reference", |b| {
        b.iter(|| {
            let mut x = 1u32;
            let mut acc = 0u64;
            for _ in 0..100_000 {
                x = ((x as u64 * MULTIPLIER as u64) % MODULUS as u64) as u32;
                acc = acc.wrapping_add(x as u64);
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(benches, bench_minstd);
criterion_main!(benches);
