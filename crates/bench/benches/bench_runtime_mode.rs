//! E20: the deployment-mode sweep — the facade with its filtering
//! shards on worker threads against the same facade filtering inline
//! (writes `BENCH_runtime_mode.json` next to the bench's working
//! directory; `sweep_json` schema, where point 0 is the inline
//! baseline).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use garnet_bench::e03_pipeline::{expected_min_speedup, host_cores, shard_workload, sweep_json};
use garnet_bench::e20_runtime_mode::{run_mode_point, run_mode_sweep, THREADED_SHARDS};
use garnet_core::DriverKind;

fn bench(c: &mut Criterion) {
    let frames = 20_000u32;
    let workload = shard_workload(frames, 64);
    let mut group = c.benchmark_group("e20_runtime_mode");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(frames)));
    group.bench_function(BenchmarkId::from_parameter("fifo"), |b| {
        b.iter(|| std::hint::black_box(run_mode_point(&workload, DriverKind::Fifo, 1)));
    });
    for shards in THREADED_SHARDS {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threaded-{shards}")),
            &shards,
            |b, &s| {
                b.iter(|| std::hint::black_box(run_mode_point(&workload, DriverKind::Threaded, s)));
            },
        );
    }
    group.finish();

    let cores = host_cores();
    let points = run_mode_sweep(&workload);
    let base = points[0].throughput_fps;
    for p in &points[1..] {
        // Speedup over the FIFO engine is only claimed where the host
        // can deliver one; a single-core runner records the sweep
        // without the gate.
        if let Some(min) = expected_min_speedup(p.shards, cores) {
            let speedup = p.throughput_fps / base;
            assert!(
                speedup >= min,
                "threaded {} shards on {} cores: speedup {:.3} over fifo below expected {:.2}",
                p.shards,
                cores,
                speedup,
                min
            );
        }
    }
    let json = sweep_json("e20_runtime_mode", "Garnet(Fifo|Threaded)", cores, &points);
    if let Err(e) = std::fs::write("BENCH_runtime_mode.json", &json) {
        eprintln!("could not write BENCH_runtime_mode.json: {e}");
    }
    println!("{json}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
