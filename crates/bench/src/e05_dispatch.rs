//! E5 — dispatch fan-out scalability.
//!
//! Mutually-unaware consumers mean the Dispatching Service is the only
//! fan-out point in the system (§4.2, §6). The property to demonstrate:
//! the work a message causes — its deliveries — scales with the
//! *matching* subscriber count (fan-out), not with the total subscriber
//! population: a message on a quiet stream stays cheap no matter how
//! many consumers watch other streams.
//!
//! The table counts; it does not time. What a route costs in
//! nanoseconds is `perfbench`'s to say — the `churn-fanout` workload,
//! `core.dispatching.route_ns_per_frame` and
//! `net.pubsub.cache_hit_share` — so two runs of this table are
//! identical. The sweep runs with the match cache **disabled**, so each
//! row's match set is constructed, not remembered.

use garnet_core::dispatching::DispatchingService;
use garnet_net::{DispatchCacheConfig, TopicFilter};
use garnet_wire::{SensorId, StreamId, StreamIndex};

use crate::table::{n, Table};

/// One sweep point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchPoint {
    /// Subscribers matching the hot stream.
    pub fanout: usize,
    /// Subscribers on *other* streams (background population).
    pub bystanders: usize,
    /// Deliveries produced per message.
    pub deliveries_per_msg: u64,
}

fn hot_stream() -> StreamId {
    StreamId::new(SensorId::new(42).unwrap(), StreamIndex::new(0))
}

/// Builds a dispatch table with `fanout` subscribers on the hot stream
/// and `bystanders` on other streams, match cache disabled.
pub(crate) fn build_service(fanout: usize, bystanders: usize) -> DispatchingService {
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

/// Routes one message on the hot stream.
pub(crate) fn run_point(fanout: usize, bystanders: usize) -> DispatchPoint {
    let mut d = build_service(fanout, bystanders);
    let deliveries_per_msg = d.route(hot_stream()).recipients.len() as u64;
    DispatchPoint { fanout, bystanders, deliveries_per_msg }
}

/// Runs the fan-out and population sweeps.
pub fn run() -> (Vec<DispatchPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E5 — dispatch fan-out: deliveries vs matching subscribers (and vs bystanders)",
        &["fanout", "bystanders", "deliveries/msg"],
    );
    for &fanout in &[1usize, 16, 256, 4096] {
        let p = run_point(fanout, 0);
        table.row(&[n(p.fanout as u64), n(p.bystanders as u64), n(p.deliveries_per_msg)]);
        points.push(p);
    }
    // Population ablation: same fan-out, many bystanders.
    for &bystanders in &[0usize, 10_000, 100_000] {
        let p = run_point(16, bystanders);
        table.row(&[n(p.fanout as u64), n(p.bystanders as u64), n(p.deliveries_per_msg)]);
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
            let p = run_point(fanout, 50);
            assert_eq!(p.deliveries_per_msg, fanout as u64);
        }
    }

    #[test]
    fn bystanders_do_not_add_deliveries() {
        let p = run_point(5, 10_000);
        assert_eq!(p.deliveries_per_msg, 5);
    }
}
