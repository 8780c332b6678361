//! E3: the full Fig. 1 pipeline at one operating point.
use criterion::{criterion_group, criterion_main, Criterion};
use garnet_bench::e03_pipeline::run_point;
use garnet_simkit::{SimDuration, SimTime};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e03_pipeline");
    group.sample_size(10);
    group.bench_function("habitat_6x6_60s", |b| {
        b.iter(|| {
            let p = run_point(6, SimDuration::from_secs(5), SimTime::from_secs(60));
            assert!(p.delivered > 0);
            std::hint::black_box(p)
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
