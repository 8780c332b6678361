//! E12 — the Orphanage: plug-and-play streams, bounded retention and
//! late-subscriber replay.
//!
//! "The Orphanage is a default consumer process which receives
//! un-configured data" (§4.2). A freshly deployed sensor transmits into
//! the void; when a consumer eventually subscribes it receives the
//! retained backlog. The sweep measures replay completeness against the
//! subscription delay and shows retention memory stays bounded no matter
//! how many unclaimed streams appear.

use std::sync::atomic::Ordering;

use garnet_core::middleware::{Garnet, GarnetConfig};
use garnet_core::orphanage::OrphanageConfig;
use garnet_core::TopicFilter;
use garnet_radio::ReceiverId;
use garnet_simkit::SimTime;
use garnet_wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};
use garnet_workloads::pipeline::SharedCountConsumer;

use crate::table::{n, Table};

/// One delay point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrphanagePoint {
    /// Messages sent before anyone subscribed.
    pub sent_before_subscribe: u64,
    /// Retention cap per stream.
    pub retain_cap: usize,
    /// Messages replayed at subscription.
    pub replayed: u64,
    /// Messages the consumer received in total (replay + live).
    pub total_received: u64,
}

fn frame(sensor: u32, seq: u16) -> Vec<u8> {
    DataMessage::builder(StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0)))
        .seq(SequenceNumber::new(seq))
        .payload(vec![seq as u8])
        .build()
        .unwrap()
        .encode_to_vec()
}

/// Runs one point: `before` unclaimed messages, a subscription, then
/// `after` live messages.
pub(crate) fn run_point(before: u16, after: u16, retain_cap: usize) -> OrphanagePoint {
    let mut g = Garnet::new(GarnetConfig {
        orphanage: OrphanageConfig { retain_per_stream: retain_cap, max_streams: 1024 },
        ..GarnetConfig::default()
    });
    for seq in 0..before {
        g.on_frame(ReceiverId::new(0), -50.0, &frame(1, seq), SimTime::from_millis(u64::from(seq)));
    }
    let token = g.issue_default_token("late");
    let (consumer, count) = SharedCountConsumer::new("late");
    let id = g.register_consumer(Box::new(consumer), &token, 0).unwrap();
    let stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
    let (replayed, _) =
        g.subscribe_at(id, TopicFilter::Stream(stream), &token, SimTime::from_secs(10)).unwrap();
    for seq in before..before + after {
        g.on_frame(
            ReceiverId::new(0),
            -50.0,
            &frame(1, seq),
            SimTime::from_millis(10_000 + u64::from(seq)),
        );
    }
    OrphanagePoint {
        sent_before_subscribe: u64::from(before),
        retain_cap,
        replayed: replayed as u64,
        total_received: count.load(Ordering::Relaxed),
    }
}

/// Memory-bound check: `streams` unclaimed streams under a
/// `max_streams` cap; returns (tracked, evicted).
pub fn memory_bound(streams: u32, max_streams: usize) -> (usize, u64) {
    let mut g = Garnet::new(GarnetConfig {
        orphanage: OrphanageConfig { retain_per_stream: 8, max_streams },
        ..GarnetConfig::default()
    });
    for s in 1..=streams {
        g.on_frame(ReceiverId::new(0), -50.0, &frame(s, 0), SimTime::from_millis(u64::from(s)));
    }
    (g.orphanage().stream_count(), g.orphanage().total_evicted())
}

/// Runs the sweep.
pub fn run() -> (Vec<OrphanagePoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E12 — orphanage: late-subscriber replay vs retention cap",
        &["sent before", "cap", "replayed", "total received"],
    );
    for &(before, cap) in &[(10u16, 128usize), (100, 128), (500, 128), (500, 64), (500, 1024)] {
        let p = run_point(before, 20, cap);
        table.row(&[
            n(p.sent_before_subscribe),
            n(p.retain_cap as u64),
            n(p.replayed),
            n(p.total_received),
        ]);
        points.push(p);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_complete_within_cap() {
        let p = run_point(50, 20, 128);
        assert_eq!(p.replayed, 50);
        assert_eq!(p.total_received, 70);
    }

    #[test]
    fn replay_truncates_to_cap() {
        let p = run_point(500, 0, 64);
        assert_eq!(p.replayed, 64, "only the newest cap-many retained");
    }

    #[test]
    fn memory_stays_bounded() {
        let (tracked, evicted) = memory_bound(5_000, 256);
        assert_eq!(tracked, 256);
        assert_eq!(evicted, 5_000 - 256);
    }
}
