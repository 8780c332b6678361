//! E23: the dispatch match-cache sweep (writes `BENCH_match_cache.json`
//! next to the bench's working directory — the sweep_json envelope with
//! per-point `engine` / `fanout` / `population` / `cache` / `hit_rate`
//! fields).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use garnet_bench::e03_pipeline::host_cores;
use garnet_bench::e23_match_cache::{cache_sweep_json, run_fifo_point, run_matrix};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e23_match_cache");
    group.sample_size(10);
    for fanout in [1usize, 16, 256] {
        for cache_on in [true, false] {
            let label = format!("{}sub/{}", fanout, if cache_on { "on" } else { "off" });
            group.bench_with_input(
                BenchmarkId::from_parameter(&label),
                &(fanout, cache_on),
                |b, &(f, on)| {
                    b.iter(|| std::hint::black_box(run_fifo_point(f, 1_000, on, 2_000)));
                },
            );
        }
    }
    group.finish();

    let fifo = run_matrix(20_000);
    // The acceptance gate, re-checked where the numbers are recorded:
    // at fan-out ≥16 the cached steady state must be ≥2× cheaper.
    for on in fifo.iter().filter(|p| p.cache_on && p.fanout >= 16) {
        let off = fifo
            .iter()
            .find(|q| !q.cache_on && q.fanout == on.fanout && q.population == on.population)
            .expect("matrix carries both cache settings per cell");
        assert!(
            off.ns_per_dispatch >= on.ns_per_dispatch * 2.0,
            "fanout {} population {}: cache on {:.1}ns vs off {:.1}ns is below 2x",
            on.fanout,
            on.population,
            on.ns_per_dispatch,
            off.ns_per_dispatch
        );
    }
    let json = cache_sweep_json(&fifo, host_cores());
    if let Err(e) = std::fs::write("BENCH_match_cache.json", &json) {
        eprintln!("could not write BENCH_match_cache.json: {e}");
    }
    println!("{json}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
