//! E21 — admission batch-size sweep on the zero-copy frame path.
//!
//! E18 sweeps worker *shards*; this sweep holds the topology at one
//! shard per stage and varies the **admission batch size** instead: how many
//! frames enter the stage per `push_frames` call. Each consecutive
//! same-shard run costs one channel hand-off and one sequencer merge
//! however many frames it carries, so per-frame overhead (enqueue,
//! wake-up, root bookkeeping) amortises across the batch. The shape to
//! reproduce: per-frame cost falls monotonically from batch size 1 to
//! 64, flattening once the fixed edge cost is fully amortised.
//!
//! Emits `BENCH_batch.json` via the shared sweep schema
//! ([`crate::e03_pipeline::sweep_json`], `host_cores` recorded). One
//! schema caveat: the `shards` field of each point carries the **batch
//! size** — the sweep variable — not a worker count; the topology is
//! fixed at one shard per stage.

use crate::e03_pipeline::{host_cores, shard_workload, ShardPoint};
use crate::e18_dispatch_shards::run_dispatch_point_batched;
use crate::table::{f2, n, Table};

/// The batch sizes the sweep visits.
pub const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

/// One batch-size sample: the sweep variable plus the wall-clock point.
/// `point.shards` is repurposed to carry `batch` when serialised.
#[derive(Clone, Copy, Debug)]
pub struct BatchPoint {
    /// Frames per `push_frames` call.
    pub batch: usize,
    /// The wall-clock sample at that batch size.
    pub point: ShardPoint,
}

/// Sweeps the full graph (E18's `ThreadedRouter`, 1×1 shards) over the
/// admission batch sizes.
pub fn graph_batch_sweep(frames: u32, sensors: u32, batches: &[usize]) -> Vec<BatchPoint> {
    let workload = shard_workload(frames, sensors);
    batches
        .iter()
        .map(|&batch| {
            let mut point = run_dispatch_point_batched(&workload, 1, batch);
            point.shards = batch;
            BatchPoint { batch, point }
        })
        .collect()
}

/// Renders a batch sweep as the shared sweep JSON document (the
/// `shards` field of each point carries the batch size).
pub fn batch_sweep_json(bench: &str, driver: &str, points: &[BatchPoint]) -> String {
    let shard_points: Vec<ShardPoint> = points.iter().map(|p| p.point).collect();
    crate::e03_pipeline::sweep_json(bench, driver, host_cores(), &shard_points)
}

/// Runs the sweep for the experiments binary.
pub fn run() -> (Vec<BatchPoint>, Table) {
    let mut table = Table::new(
        "E21 — admission batch-size sweep: full-graph throughput vs frames per push",
        &["batch", "frames", "elapsed µs", "frames/s", "speedup vs batch 1"],
    );
    let points = graph_batch_sweep(20_000, 64, &BATCH_SIZES);
    let base = points[0].point.throughput_fps;
    for p in &points {
        table.row(&[
            n(p.batch as u64),
            n(p.point.frames),
            n(p.point.elapsed_us),
            f2(p.point.throughput_fps),
            f2(p.point.throughput_fps / base),
        ]);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_sweep_survives_batched_admission() {
        let points = graph_batch_sweep(1_000, 16, &[1, 64]);
        for p in &points {
            assert_eq!(p.point.frames, 1_000, "batch {} lost frames", p.batch);
        }
        let json = batch_sweep_json("e21_batch", "ThreadedRouter", &points);
        assert!(json.contains("\"bench\": \"e21_batch\""));
        assert!(json.contains("\"host_cores\""));
        // `shards` carries the batch size in this sweep.
        assert!(json.contains("\"shards\": 1"));
        assert!(json.contains("\"shards\": 64"));
    }
}
