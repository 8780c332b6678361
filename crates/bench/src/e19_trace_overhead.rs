//! E19 — flight-recorder overhead on the full service graph.
//!
//! The `trace` cargo feature compiles a per-hop flight recorder into the
//! router (see `garnet-simkit`'s `trace` module); with the feature off
//! the tracer is a zero-sized no-op. This sweep measures what turning it
//! on costs: the **same** workload is pushed through a
//! `DriverKind::Threaded` facade (filtering shards on worker threads)
//! and the resulting throughput is recorded under a driver string that
//! names the build (`trace=on` / `trace=off`), so running the bench once
//! per feature configuration yields two `BENCH_trace_overhead.json`
//! documents whose point-for-point throughput delta *is* the recorder's
//! overhead. The acceptance bar is a ≤ 2% delta with the feature off
//! (the no-op build must be indistinguishable from the seed).
//!
//! Emits `BENCH_trace_overhead.json` with the same schema as
//! `BENCH_pipeline_shards.json` (see [`crate::e03_pipeline::sweep_json`]),
//! `host_cores` included.

use garnet_core::middleware::{Garnet, GarnetConfig};
use garnet_core::pipeline::SharedCountConsumer;
use garnet_core::router::{Router, Services, ShardedDispatch, ShardedIngest};
use garnet_core::service::ServiceEvent;
use garnet_core::{ControlGraph, DriverKind, FilterConfig, ServiceOutput};
use garnet_net::{SubscriberId, TopicFilter};
use garnet_radio::ReceiverId;
use garnet_simkit::SimTime;

use crate::e03_pipeline::{host_cores, shard_workload, sweep_json, ShardPoint};
use crate::table::{f2, n, Table};

/// Subscribers matching every stream (the dispatch fan-out).
const SUBSCRIBERS: u32 = 4;

/// The driver string naming this build's feature configuration, so the
/// two JSON documents are distinguishable after the fact.
pub fn driver() -> &'static str {
    if cfg!(feature = "trace") {
        "Garnet(Threaded, trace=on)"
    } else {
        "Garnet(Threaded, trace=off)"
    }
}

/// Pushes `workload`, in bursts of 64 (so the per-burst hand-off does
/// not drown the per-hop cost being priced), through a
/// [`DriverKind::Threaded`] facade with `shards` ingest and dispatch
/// shards, returning the wall-clock sample. With the `trace` feature on,
/// every hop also lands in the flight recorder, so the sample prices
/// recording; with it off the tracer calls are inlined no-ops. Panics if
/// any delivery is lost.
pub fn run_trace_point(workload: &[garnet_wire::FrameBytes], shards: usize) -> ShardPoint {
    let started = std::time::Instant::now();
    let mut garnet = Garnet::new(GarnetConfig {
        driver: DriverKind::Threaded,
        ingest_shards: shards,
        dispatch_shards: shards,
        ..GarnetConfig::default()
    });
    let token = garnet.issue_default_token("bench");
    let mut counts = Vec::new();
    for _ in 0..SUBSCRIBERS {
        let (consumer, delivered) = SharedCountConsumer::new("bench");
        let id = garnet.register_consumer(Box::new(consumer), &token, 0).unwrap();
        garnet.subscribe(id, TopicFilter::All, &token).unwrap();
        counts.push(delivered);
    }
    for (i, burst) in workload.chunks(64).enumerate() {
        let frames = burst.iter().map(|f| (ReceiverId::new(0), -40.0, f.clone())).collect();
        garnet.on_frames(frames, SimTime::from_micros(i as u64));
    }
    let end = SimTime::from_secs(3_600);
    let flushed = garnet.on_tick(end);
    let traced = !garnet.trace_snapshot().records.is_empty();
    garnet.shutdown(end).expect("no archive configured");
    let elapsed = started.elapsed();
    assert!(flushed.shard_failures.is_empty(), "trace sweep lost work");
    let frames = workload.len() as u64;
    let delivered: u64 = counts.iter().map(|c| c.load(std::sync::atomic::Ordering::Relaxed)).sum();
    assert_eq!(delivered, frames * u64::from(SUBSCRIBERS), "trace sweep lost deliveries");
    // Guard that the sweep measures what it claims to: records exist
    // exactly when the recorder is compiled in.
    assert_eq!(
        traced,
        cfg!(feature = "trace"),
        "flight recorder state disagrees with the build's feature set"
    );
    ShardPoint {
        shards,
        frames,
        elapsed_us: elapsed.as_micros() as u64,
        throughput_fps: frames as f64 / elapsed.as_secs_f64(),
    }
}

/// Pushes `workload` through a bare FIFO [`Router`] with inline
/// filtering (the per-hop trace call sits directly in [`Router::step`])
/// and returns the wall-clock sample, with `shards` fixed at 1. The
/// criterion bench runs this alongside the facade points so the
/// recorder's cost is also priced without the facade around it.
pub fn run_fifo_point(workload: &[garnet_wire::FrameBytes]) -> ShardPoint {
    let mut dispatch = ShardedDispatch::new(1);
    for id in 0..SUBSCRIBERS {
        dispatch.register_subscriber();
        dispatch.subscribe(SubscriberId::new(id), TopicFilter::All);
    }
    let started = std::time::Instant::now();
    let mut router = Router::new(Services {
        ingest: ShardedIngest::new(FilterConfig::default(), 1),
        dispatch,
        control: ControlGraph::default(),
    });
    let mut delivered = 0u64;
    let mut pump = |router: &mut Router, now: SimTime| {
        let mut outs = Vec::new();
        while router.step(now, &mut outs) {
            for out in outs.drain(..) {
                if let ServiceOutput::Deliver { recipients, .. } = out {
                    delivered += recipients.len() as u64;
                }
            }
        }
    };
    for (i, frame) in workload.iter().enumerate() {
        let at = SimTime::from_micros(i as u64);
        router.admit_frame(ReceiverId::new(0), -40.0, frame.clone());
        pump(&mut router, at);
    }
    let end = SimTime::from_secs(3_600);
    router.enqueue(ServiceEvent::FlushReorder);
    pump(&mut router, end);
    let elapsed = started.elapsed();
    let frames = workload.len() as u64;
    assert_eq!(delivered, frames * u64::from(SUBSCRIBERS), "FIFO pump lost deliveries");
    ShardPoint {
        shards: 1,
        frames,
        elapsed_us: elapsed.as_micros() as u64,
        throughput_fps: frames as f64 / elapsed.as_secs_f64(),
    }
}

/// Runs the trace-overhead sweep and renders the JSON document for
/// `BENCH_trace_overhead.json`.
pub fn trace_sweep_json(frames: u32, sensors: u32, shard_counts: &[usize]) -> String {
    let workload = shard_workload(frames, sensors);
    let points: Vec<ShardPoint> =
        shard_counts.iter().map(|&s| run_trace_point(&workload, s)).collect();
    sweep_json("e19_trace_overhead", driver(), host_cores(), &points)
}

/// Runs the sweep for the experiments binary.
pub fn run() -> (Vec<ShardPoint>, Table) {
    let workload = shard_workload(20_000, 64);
    let mut points = Vec::new();
    let mut table = Table::new(
        format!("E19 — flight-recorder overhead: {} throughput vs shards", driver()),
        &["shards", "frames", "elapsed µs", "frames/s", "speedup vs 1"],
    );
    for shards in [1usize, 2, 4] {
        points.push(run_trace_point(&workload, shards));
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
    fn trace_sweep_is_lossless_and_names_the_build() {
        let json = trace_sweep_json(1_000, 16, &[1, 2]);
        assert!(json.contains("\"bench\": \"e19_trace_overhead\""));
        assert!(json.contains(&format!("\"driver\": \"{}\"", driver())));
        assert!(json.contains("\"host_cores\""));
        assert!(json.contains("\"shards\": 1"));
        assert!(json.contains("\"shards\": 2"));
        assert!(json.contains("\"frames\": 1000"));
    }

    #[test]
    fn fifo_point_is_lossless() {
        let workload = shard_workload(500, 8);
        let p = run_fifo_point(&workload);
        assert_eq!(p.frames, 500);
        assert_eq!(p.shards, 1);
    }
}
