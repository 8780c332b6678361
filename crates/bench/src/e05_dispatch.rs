//! E5 — dispatch fan-out scalability.
//!
//! Mutually-unaware consumers mean the Dispatching Service is the only
//! fan-out point in the system (§4.2, §6). The property to demonstrate:
//! per-message dispatch cost scales with the *matching* subscriber count
//! (fan-out), not with the total subscriber population — a message on a
//! quiet stream stays cheap no matter how many consumers watch other
//! streams.
//!
//! The sweep runs with the match cache **disabled** so it prices the
//! match-set *construction* path (the cost model above is about the
//! sorted-merge, not the memo). With the cache on, steady-state cost is
//! flat in fan-out — one hash lookup plus an `Arc` refcount bump —
//! which `perfbench`'s `churn-fanout` workload prices
//! (`net.pubsub.cache_hit_share`).

use std::time::Instant;

use garnet_core::dispatching::DispatchingService;
use garnet_net::{DispatchCacheConfig, TopicFilter};
use garnet_wire::{SensorId, StreamId, StreamIndex};

use crate::table::{f3, n, Table};

/// One sweep point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DispatchPoint {
    /// Subscribers matching the hot stream.
    pub fanout: usize,
    /// Subscribers on *other* streams (background population).
    pub bystanders: usize,
    /// Mean wall-clock nanoseconds per route() call.
    pub ns_per_dispatch: f64,
    /// Deliveries produced per message.
    pub deliveries_per_msg: u64,
}

fn hot_stream() -> StreamId {
    StreamId::new(SensorId::new(42).unwrap(), StreamIndex::new(0))
}

/// Builds a dispatch table with `fanout` subscribers on the hot stream
/// and `bystanders` on other streams. The match cache is disabled:
/// E5 prices match-set construction, `perfbench`'s `churn-fanout` the
/// cache.
pub fn build_service(fanout: usize, bystanders: usize) -> DispatchingService {
    let mut d = DispatchingService::with_cache(DispatchCacheConfig::disabled());
    for _ in 0..fanout {
        let id = d.register_subscriber();
        d.subscribe(id, TopicFilter::Stream(hot_stream()));
    }
    for i in 0..bystanders {
        let id = d.register_subscriber();
        let other =
            StreamId::new(SensorId::new(1000 + i as u32 % 4000).unwrap(), StreamIndex::new(0));
        d.subscribe(id, TopicFilter::Stream(other));
    }
    d
}

/// Times `iters` routes of the hot stream.
pub fn run_point(fanout: usize, bystanders: usize, iters: u32) -> DispatchPoint {
    let mut d = build_service(fanout, bystanders);
    let stream = hot_stream();
    // Warm-up.
    let deliveries = d.route(stream).recipients.len() as u64;
    let start = Instant::now();
    for _ in 0..iters {
        let out = d.route(stream);
        std::hint::black_box(out.recipients.len());
    }
    let elapsed = start.elapsed();
    DispatchPoint {
        fanout,
        bystanders,
        ns_per_dispatch: elapsed.as_nanos() as f64 / f64::from(iters),
        deliveries_per_msg: deliveries,
    }
}

/// Runs the fan-out and population sweeps.
pub fn run() -> (Vec<DispatchPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E5 — dispatch fan-out: cost vs matching subscribers (and vs bystanders)",
        &["fanout", "bystanders", "ns/dispatch", "deliveries/msg"],
    );
    for &fanout in &[1usize, 16, 256, 4096] {
        let p = run_point(fanout, 0, 2_000);
        table.row(&[
            n(p.fanout as u64),
            n(p.bystanders as u64),
            f3(p.ns_per_dispatch),
            n(p.deliveries_per_msg),
        ]);
        points.push(p);
    }
    // Population ablation: same fan-out, many bystanders.
    for &bystanders in &[0usize, 10_000, 100_000] {
        let p = run_point(16, bystanders, 2_000);
        table.row(&[
            n(p.fanout as u64),
            n(p.bystanders as u64),
            f3(p.ns_per_dispatch),
            n(p.deliveries_per_msg),
        ]);
        points.push(p);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deliveries_match_fanout() {
        for fanout in [1usize, 10, 100] {
            let p = run_point(fanout, 50, 10);
            assert_eq!(p.deliveries_per_msg, fanout as u64);
        }
    }

    #[test]
    fn bystanders_do_not_add_deliveries() {
        let p = run_point(5, 10_000, 10);
        assert_eq!(p.deliveries_per_msg, 5);
    }

    #[test]
    fn cost_scales_with_fanout_not_population() {
        // Wall-clock comparisons are noisy; use generous factors.
        let small = run_point(1, 0, 5_000);
        let big_fanout = run_point(4096, 0, 200);
        assert!(
            big_fanout.ns_per_dispatch > small.ns_per_dispatch * 5.0,
            "fanout 4096 should cost clearly more: {} vs {}",
            big_fanout.ns_per_dispatch,
            small.ns_per_dispatch
        );
        let crowd = run_point(1, 100_000, 5_000);
        assert!(
            crowd.ns_per_dispatch < small.ns_per_dispatch * 50.0 + 10_000.0,
            "bystanders must not dominate: {} vs {}",
            crowd.ns_per_dispatch,
            small.ns_per_dispatch
        );
    }
}
