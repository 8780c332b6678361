//! E21: the admission batch-size sweep on the zero-copy frame path
//! (writes `BENCH_batch.json`, shared sweep schema — the `shards` field
//! of each point carries the batch size; topology is one shard per
//! stage).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use garnet_bench::e03_pipeline::shard_workload;
use garnet_bench::e18_dispatch_shards::run_dispatch_point_batched;
use garnet_bench::e21_batch::{batch_sweep_json, graph_batch_sweep, BATCH_SIZES};

fn bench(c: &mut Criterion) {
    let frames = 20_000u32;
    let workload = shard_workload(frames, 64);
    let mut group = c.benchmark_group("e21_batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(frames)));
    for batch in BATCH_SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &size| {
            b.iter(|| std::hint::black_box(run_dispatch_point_batched(&workload, 1, size)));
        });
    }
    group.finish();

    let points = graph_batch_sweep(frames, 64, &BATCH_SIZES);
    // The acceptance shape: per-frame cost falls monotonically from
    // batch size 1 to 64 (256 may flatten; it only has to hold 64's
    // gain, with 10% measurement slack).
    for pair in points.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if b.batch <= 64 {
            assert!(
                b.point.throughput_fps > a.point.throughput_fps,
                "batch {} ({:.0} fps) not faster than batch {} ({:.0} fps)",
                b.batch,
                b.point.throughput_fps,
                a.batch,
                a.point.throughput_fps
            );
        } else {
            assert!(
                b.point.throughput_fps > a.point.throughput_fps * 0.9,
                "batch {} ({:.0} fps) regressed below batch {} ({:.0} fps)",
                b.batch,
                b.point.throughput_fps,
                a.batch,
                a.point.throughput_fps
            );
        }
    }
    let json = batch_sweep_json("e21_batch", "ThreadedRouter", &points);
    if let Err(e) = std::fs::write("BENCH_batch.json", &json) {
        eprintln!("could not write BENCH_batch.json: {e}");
    }
    println!("{json}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
