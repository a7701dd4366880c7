//! Packet-level simulator throughput: the NEARnet scenario and a bare
//! forwarding chain, in simulated seconds per wall-clock second; and the
//! routing-table kernels that dominate a full-table update, per entry.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use routesync_desim::{Duration, SimTime};
use routesync_netsim::{
    DvConfig, NetSim, RouteEntry, RouterConfig, RoutingTable, ScenarioSpec, Topology,
};
use routesync_rng::dist::below;

fn bench_netsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim");
    group.sample_size(20);
    group.bench_function("nearnet_200s_with_pings", |b| {
        b.iter(|| {
            let mut n = ScenarioSpec::nearnet().build(7);
            let (berkeley, mit) = (n.hosts[0], n.hosts[1]);
            n.sim.add_ping(
                berkeley,
                mit,
                Duration::from_secs_f64(1.01),
                180,
                SimTime::from_secs(5),
            );
            n.sim.run_until(SimTime::from_secs(200));
            n.sim.counters().delivered
        });
    });
    group.bench_function("forwarding_chain_cbr", |b| {
        b.iter(|| {
            let mut t = Topology::new();
            let a = t.add_host("a");
            let z = t.add_host("z");
            let mut prev = t.add_router("r0");
            t.add_link(a, prev, Duration::from_millis(1), 10_000_000, 50);
            for i in 1..5 {
                let r = t.add_router(format!("r{i}"));
                t.add_link(prev, r, Duration::from_millis(2), 10_000_000, 50);
                prev = r;
            }
            t.add_link(prev, z, Duration::from_millis(1), 10_000_000, 50);
            let mut sim = NetSim::new(t, RouterConfig::new(DvConfig::rip()), 3);
            sim.add_cbr(
                a,
                z,
                Duration::from_millis(20),
                5_000,
                SimTime::from_secs(1),
            );
            sim.run_until(SimTime::from_secs(120));
            sim.counters().delivered
        });
    });
    group.finish();
}

/// The two table kernels of netsim-churn on converged 300-row tables of
/// router 0 in a mesh of degree 3: neighbours 1, 2 and 3 are direct, and
/// every other destination goes through one of them drawn at random (a
/// fixed seed), so about a third of the rows have neighbour 1 as next hop,
/// in no order a branch predictor could learn. Each iteration runs a
/// kernel once on each of 16 such tables, drawn independently (about
/// 200 KiB, as a busy router sees many peers' tables between two visits
/// to one), and the entries per iteration are printed once, so ns per
/// entry is the per-iteration time divided by them.
///
/// * `merge_refresh_300`: neighbour 1's periodic update, sorted and
///   changing nothing. It refreshes the rows through 1 and offers the
///   rest at no better than they cost now, as a converged neighbour does.
/// * `advertise_p2p_300`: the full-table advertisement onto the
///   point-to-point link to neighbour 1, split horizon on.
fn bench_dv_kernels(c: &mut Criterion) {
    const ROWS: usize = 300;
    const TABLES: usize = 16;
    const INF: u32 = 16;
    let sender = 1;
    let now = SimTime::from_secs(30);
    let mut rng = routesync_rng::stream(7, 0);
    let mut tables: Vec<(RoutingTable, Vec<RouteEntry>)> = (0..TABLES)
        .map(|_| {
            let mut table = RoutingTable::new(0);
            for dst in 1..ROWS {
                match dst {
                    1..=3 => table.install_direct(dst),
                    _ => {
                        let metric = 2 + below(&mut rng, 5) as u32;
                        table.install(dst, metric, 1 + below(&mut rng, 3) as usize);
                    }
                }
            }
            let refresh: Vec<RouteEntry> = table
                .iter()
                .map(|(dst, route)| RouteEntry {
                    dst,
                    metric: match dst {
                        0 => INF,
                        _ if dst == sender => 0,
                        _ if route.next_hop == sender => route.metric - 1,
                        _ => route.metric,
                    },
                })
                .collect();
            let merged = table.process_update_with(sender, &refresh, now, INF, None);
            assert!(!merged.changed);
            (table, refresh)
        })
        .collect();
    let mut group = c.benchmark_group("dv_kernels");
    group.sample_size(50);

    let entries: usize = tables.iter().map(|(_, refresh)| refresh.len()).sum();
    println!("dv_kernels/merge_refresh_{ROWS}: {entries} entries per iteration");
    group.bench_function(format!("merge_refresh_{ROWS}"), |b| {
        b.iter(|| {
            let mut probes = 0;
            for (table, refresh) in &mut tables {
                let merged = table.process_update_with(sender, black_box(refresh), now, INF, None);
                probes += merged.probes;
            }
            probes
        })
    });

    let entries: usize = tables.iter().map(|(table, _)| table.len()).sum();
    println!("dv_kernels/advertise_p2p_{ROWS}: {entries} entries per iteration");
    let mut out = Vec::with_capacity(ROWS);
    group.bench_function(format!("advertise_p2p_{ROWS}"), |b| {
        b.iter(|| {
            let mut entries = 0;
            for (table, _) in &tables {
                out.clear();
                table.advertisement_into(black_box(&[sender]), true, INF, &mut out);
                entries += black_box(&out).len();
            }
            entries
        })
    });
    group.finish();
}

criterion_group!(benches, bench_netsim, bench_dv_kernels);
criterion_main!(benches);
