//! E18 — dispatch shard sweep on the threaded service graph.
//!
//! E3's shard sweep parallelises the *filtering* stage; this one drives
//! the full `ThreadedRouter` (filtering → dispatch → control) and sweeps
//! the **dispatch** shard count while holding ingest at one shard, so
//! any scaling comes from partitioning subscription matching by sensor
//! id. Fan-out is the dispatch stage's work multiplier: every message
//! matches all subscribers, so dispatch does `subscribers ×` the per-
//! message routing work of the ingest stage in front of it.
//!
//! Emits `BENCH_dispatch_shards.json` with the same schema as
//! `BENCH_pipeline_shards.json` (see [`crate::e03_pipeline::sweep_json`]),
//! `host_cores` included — on a single-core host the sweep records
//! throughput without making a speedup claim.

use garnet_core::router::ThreadedRouter;
use garnet_core::{ControlGraph, FilterConfig, ServiceOutput};
use garnet_net::{SubscriberId, SubscriptionTable, TopicFilter};
use garnet_radio::ReceiverId;
use garnet_simkit::SimTime;

use crate::e03_pipeline::{host_cores, shard_workload, sweep_json, ShardPoint};
use crate::table::{f2, n, Table};

/// Subscribers matching every stream (the dispatch fan-out).
const SUBSCRIBERS: u32 = 8;

fn subscriptions() -> SubscriptionTable {
    let mut table = SubscriptionTable::new();
    for id in 0..SUBSCRIBERS {
        table.subscribe(SubscriberId::new(id), TopicFilter::All);
    }
    table
}

/// Pushes `workload` through a [`ThreadedRouter`] with one ingest shard
/// and `shards` dispatch shards, returning the wall-clock sample.
/// Panics if any delivery is lost: the workload is duplicate- and
/// gap-free, so every frame must fan out to every subscriber.
pub fn run_dispatch_point(workload: &[garnet_wire::FrameBytes], shards: usize) -> ShardPoint {
    run_dispatch_point_batched(workload, shards, 1)
}

/// [`run_dispatch_point`] with an admission batch size: frames enter the
/// graph in bursts of `batch` through [`ThreadedRouter::push_frames`],
/// amortising the filtering-edge hand-off over each consecutive
/// same-shard run. `batch == 1` is the per-frame baseline.
pub fn run_dispatch_point_batched(
    workload: &[garnet_wire::FrameBytes],
    shards: usize,
    batch: usize,
) -> ShardPoint {
    let table = subscriptions();
    let started = std::time::Instant::now();
    let mut router =
        ThreadedRouter::new(FilterConfig::default(), 1, shards, &table, ControlGraph::default);
    let mut delivered = 0u64;
    let mut count = |roots: Vec<garnet_core::RootOutput>| {
        for root in roots {
            for out in root.outputs {
                // One `Deliver` per routed message: a delivery is one
                // (message, recipient) pair.
                if let ServiceOutput::Deliver { recipients, .. } = out {
                    delivered += recipients.len() as u64;
                }
            }
        }
    };
    let mut at_base = 0u64;
    for chunk in workload.chunks(batch.max(1)) {
        let at = SimTime::from_micros(at_base);
        at_base += chunk.len() as u64;
        let staged = chunk.iter().map(|frame| (ReceiverId::new(0), -40.0, frame.clone()));
        count(router.push_frames(staged, at));
    }
    count(router.push_flush(SimTime::from_secs(3_600)));
    let report = router.finish();
    count(report.outputs);
    let elapsed = started.elapsed();
    assert!(report.failures.is_empty(), "dispatch sweep lost work: {:?}", report.failures);
    let frames = workload.len() as u64;
    assert_eq!(delivered, frames * u64::from(SUBSCRIBERS), "dispatch lost deliveries");
    ShardPoint {
        shards,
        frames,
        elapsed_us: elapsed.as_micros() as u64,
        throughput_fps: frames as f64 / elapsed.as_secs_f64(),
    }
}

/// Runs the dispatch shard sweep and renders the JSON document for
/// `BENCH_dispatch_shards.json`.
pub fn dispatch_sweep_json(frames: u32, sensors: u32, shard_counts: &[usize]) -> String {
    let workload = shard_workload(frames, sensors);
    let points: Vec<ShardPoint> =
        shard_counts.iter().map(|&s| run_dispatch_point(&workload, s)).collect();
    sweep_json("e18_dispatch_shards", "ThreadedRouter", host_cores(), &points)
}

/// Runs the sweep for the experiments binary.
pub fn run() -> (Vec<ShardPoint>, Table) {
    let workload = shard_workload(20_000, 64);
    let mut points = Vec::new();
    let mut table = Table::new(
        "E18 — dispatch shard sweep: ThreadedRouter throughput vs dispatch shards",
        &["dispatch shards", "frames", "elapsed µs", "frames/s", "speedup vs 1"],
    );
    for shards in [1usize, 2, 4, 8] {
        let p = run_dispatch_point(&workload, shards);
        points.push(p);
    }
    let base = points[0].throughput_fps;
    for p in &points {
        table.row(&[
            n(p.shards as u64),
            n(p.frames),
            n(p.elapsed_us),
            f2(p.throughput_fps),
            f2(p.throughput_fps / base),
        ]);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_sweep_is_lossless_and_serialisable() {
        let json = dispatch_sweep_json(1_000, 16, &[1, 2]);
        assert!(json.contains("\"bench\": \"e18_dispatch_shards\""));
        assert!(json.contains("\"driver\": \"ThreadedRouter\""));
        assert!(json.contains("\"host_cores\""));
        assert!(json.contains("\"shards\": 1"));
        assert!(json.contains("\"shards\": 2"));
        assert!(json.contains("\"frames\": 1000"));
    }
}
