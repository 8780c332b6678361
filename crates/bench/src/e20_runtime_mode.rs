//! E20 — runtime mode: filtering shards on worker threads vs inline,
//! measured through the *facade*.
//!
//! This experiment prices the deployment decision the facade offers:
//! [`garnet_core::DriverKind::Fifo`] (filtering on the facade's thread)
//! against [`garnet_core::DriverKind::Threaded`] (one supervised worker
//! per ingest shard), with the full `Garnet` API — consumer callbacks,
//! orphanage, metrics — in the loop. Both modes process the identical
//! pre-encoded workload and must deliver every frame; they are
//! bit-identical in outcome, so the only thing this sweep can show is
//! wall-clock.
//!
//! Emits `BENCH_runtime_mode.json` via
//! [`crate::e03_pipeline::sweep_json`]: point 0 is the FIFO driver
//! (recorded as one "shard"), the remaining points are the threaded
//! driver at increasing shard counts, so `speedup_vs_1` reads as
//! "threaded deployment speedup over the simulation engine".
//! `host_cores` is included so consumers of the document can apply the
//! same gate the bench harness does: no speedup is claimed unless the
//! host has at least two cores.

use garnet_core::middleware::{Garnet, GarnetConfig};
use garnet_core::pipeline::SharedCountConsumer;
use garnet_core::DriverKind;
use garnet_net::TopicFilter;
use garnet_radio::ReceiverId;
use garnet_simkit::SimTime;

use crate::e03_pipeline::{host_cores, shard_workload, sweep_json, ShardPoint};
use crate::table::{f2, n, Table};

/// Shard counts the threaded points sweep (the FIFO point is always 1).
pub const THREADED_SHARDS: [usize; 3] = [1, 2, 4];

/// Pushes `workload` through a facade in `driver` mode with `shards`
/// ingest and dispatch shards, returning the wall-clock sample. Panics
/// if any delivery is lost: the workload is duplicate- and gap-free and
/// one consumer subscribes to everything, so delivered must equal
/// offered in both modes.
pub fn run_mode_point(
    workload: &[garnet_wire::FrameBytes],
    driver: DriverKind,
    shards: usize,
) -> ShardPoint {
    let started = std::time::Instant::now();
    let mut garnet = Garnet::new(GarnetConfig {
        driver,
        ingest_shards: shards,
        dispatch_shards: shards,
        ..GarnetConfig::default()
    });
    let token = garnet.issue_default_token("bench");
    let (consumer, delivered) = SharedCountConsumer::new("bench");
    let id = garnet.register_consumer(Box::new(consumer), &token, 0).unwrap();
    garnet.subscribe(id, TopicFilter::All, &token).unwrap();
    let frames: Vec<_> = workload
        .iter()
        .enumerate()
        .map(|(i, f)| (ReceiverId::new((i % 4) as u32), -40.0, f.clone()))
        .collect();
    let last = SimTime::from_micros(workload.len() as u64);
    garnet.on_frames(frames, last);
    garnet.on_tick(SimTime::from_secs(3_600));
    garnet.shutdown(SimTime::from_secs(3_600)).expect("no archive configured");
    let elapsed = started.elapsed();
    let count = delivered.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(count, workload.len() as u64, "{driver:?} lost deliveries");
    ShardPoint {
        shards,
        frames: count,
        elapsed_us: elapsed.as_micros() as u64,
        throughput_fps: count as f64 / elapsed.as_secs_f64(),
    }
}

/// Runs the mode sweep: the FIFO baseline first, then the threaded
/// driver across [`THREADED_SHARDS`].
pub fn run_mode_sweep(workload: &[garnet_wire::FrameBytes]) -> Vec<ShardPoint> {
    let mut points = vec![run_mode_point(workload, DriverKind::Fifo, 1)];
    for &shards in &THREADED_SHARDS {
        points.push(run_mode_point(workload, DriverKind::Threaded, shards));
    }
    points
}

/// Runs the sweep and renders the JSON document for
/// `BENCH_runtime_mode.json`.
pub fn runtime_mode_json(frames: u32, sensors: u32) -> String {
    let workload = shard_workload(frames, sensors);
    let points = run_mode_sweep(&workload);
    sweep_json("e20_runtime_mode", "Garnet(Fifo|Threaded)", host_cores(), &points)
}

/// Runs the sweep for the experiments binary.
pub fn run() -> (Vec<ShardPoint>, Table) {
    let workload = shard_workload(20_000, 64);
    let points = run_mode_sweep(&workload);
    let mut table = Table::new(
        "E20 — runtime mode: pooled vs inline filtering through the facade",
        &["mode", "shards", "frames", "elapsed µs", "frames/s", "speedup vs fifo"],
    );
    let base = points[0].throughput_fps;
    for (i, p) in points.iter().enumerate() {
        table.row(&[
            if i == 0 { "fifo".into() } else { "threaded".into() },
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
    fn runtime_mode_sweep_is_lossless_and_serialisable() {
        let json = runtime_mode_json(1_000, 16);
        assert!(json.contains("\"bench\": \"e20_runtime_mode\""));
        assert!(json.contains("\"driver\": \"Garnet(Fifo|Threaded)\""));
        assert!(json.contains("\"host_cores\""));
        assert!(json.contains("\"speedup_vs_1\""));
        assert!(json.contains("\"frames\": 1000"));
        // One FIFO point plus every threaded shard count.
        assert_eq!(json.matches("{\"shards\":").count(), 1 + THREADED_SHARDS.len());
    }
}
