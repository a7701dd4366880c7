//! Wire-codec throughput: encode/decode of live-daemon advertisement
//! frames, plus the rejection paths (CRC mismatch, truncation) that run
//! on every malformed datagram a live socket receives, and the CRC-32
//! kernel on its own.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use routesync_exec::checkpoint::crc32;
use routesync_netsim::{Advertisement, RouteEntry};

fn advertisement(entries: usize) -> Advertisement {
    Advertisement {
        sender: 3,
        seq: 42,
        delta: false,
        entries: (0..entries)
            .map(|i| RouteEntry {
                dst: i,
                metric: (i % 16) as u32,
            })
            .collect(),
    }
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    // 256 routes is the live-mesh frame (2066 bytes).
    for &entries in &[8usize, 64, 256, 512] {
        let adv = advertisement(entries);
        let frame = adv.encode();
        group.bench_function(format!("encode_{entries}_routes"), |b| {
            b.iter(|| adv.encode().len());
        });
        group.bench_function(format!("decode_{entries}_routes"), |b| {
            b.iter(|| {
                Advertisement::decode(&frame)
                    .expect("valid frame decodes")
                    .entries
                    .len()
            });
        });
    }
    // Rejection is the hot path under attack or corruption: a flipped
    // byte must be refused after at most one CRC pass over the frame.
    let adv = advertisement(64);
    let mut corrupt = adv.encode();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    group.bench_function("reject_corrupt_64_routes", |b| {
        b.iter(|| Advertisement::decode(&corrupt).is_err());
    });
    let frame = adv.encode();
    group.bench_function("reject_truncated_64_routes", |b| {
        b.iter(|| Advertisement::decode(&frame[..frame.len() / 2]).is_err());
    });
    // The checksum alone, over a 4 KiB buffer: the kernel shared by the
    // wire codec and checkpoint frames.
    let block: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    group.bench_function("crc32_4KiB", |b| b.iter(|| crc32(black_box(&block))));
    group.finish();
}

criterion_group!(benches, bench_wire_codec);
criterion_main!(benches);
