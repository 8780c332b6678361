//! E13 — multi-level consumers: chains of derived streams.
//!
//! "By supporting multi-level data consumption where each layer offers
//! increasingly enhanced services to successive levels, an arbitrarily
//! rich application infrastructure can be assembled" (§4.2). The sweep
//! builds a chain of relay consumers of increasing depth and measures
//! that (a) data traverses the whole chain, (b) per-level cost is flat
//! (depth d costs d dispatches, no superlinear blow-up), and (c) the
//! depth guard still catches runaway graphs.

use std::sync::atomic::Ordering;

use garnet_core::consumer::{Consumer, ConsumerCtx};
use garnet_core::filtering::Delivery;
use garnet_core::middleware::{Garnet, GarnetConfig};
use garnet_net::TopicFilter;
use garnet_radio::ReceiverId;
use garnet_simkit::SimTime;
use garnet_wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};
use garnet_workloads::pipeline::SharedCountConsumer;

use crate::table::{n, Table};

/// A consumer that republishes every payload on its derived stream 0.
struct Relay {
    name: String,
}

impl Consumer for Relay {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_data(&mut self, d: &Delivery, ctx: &mut ConsumerCtx) {
        ctx.publish_derived(StreamIndex::new(0), d.msg.payload().to_vec());
    }
}

/// One depth point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultilevelPoint {
    /// Chain depth (number of relay levels).
    pub depth: usize,
    /// Raw messages injected.
    pub injected: u64,
    /// Messages received by the terminal consumer.
    pub terminal_received: u64,
    /// Total dispatches the middleware performed.
    pub total_dispatches: u64,
    /// Publications dropped by the depth guard.
    pub depth_drops: u64,
}

/// Builds a relay chain of `depth` levels terminated by a counter, then
/// injects `msgs` raw messages.
pub(crate) fn run_point(depth: usize, msgs: u16, max_depth: u32) -> MultilevelPoint {
    let mut g =
        Garnet::new(GarnetConfig { max_derived_depth: max_depth, ..GarnetConfig::default() });
    let token = g.issue_default_token("chain");
    let raw_stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));

    let mut upstream = raw_stream;
    for level in 0..depth {
        let relay = Relay { name: format!("relay-{level}") };
        let id = g.register_consumer(Box::new(relay), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::Stream(upstream), &token).unwrap();
        upstream = StreamId::new(g.virtual_sensor(id).unwrap(), StreamIndex::new(0));
    }
    let (terminal, count) = SharedCountConsumer::new("terminal");
    let tid = g.register_consumer(Box::new(terminal), &token, 0).unwrap();
    g.subscribe(tid, TopicFilter::Stream(upstream), &token).unwrap();

    for seq in 0..msgs {
        let frame = DataMessage::builder(raw_stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![7u8; 16])
            .build()
            .unwrap()
            .encode_to_vec();
        g.on_frame(ReceiverId::new(0), -50.0, &frame, SimTime::from_millis(u64::from(seq)));
    }
    MultilevelPoint {
        depth,
        injected: u64::from(msgs),
        terminal_received: count.load(Ordering::Relaxed),
        total_dispatches: g.dispatching().dispatched_count(),
        depth_drops: g.depth_drop_count(),
    }
}

/// Runs the depth sweep.
pub fn run() -> (Vec<MultilevelPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E13 — multi-level consumers: relay chain depth",
        &["depth", "injected", "terminal received", "dispatches", "depth drops"],
    );
    for &depth in &[1usize, 2, 4, 8] {
        let p = run_point(depth, 200, 16);
        table.row(&[
            n(p.depth as u64),
            n(p.injected),
            n(p.terminal_received),
            n(p.total_dispatches),
            n(p.depth_drops),
        ]);
        points.push(p);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_traverses_full_chain() {
        for depth in [1usize, 4, 8] {
            let p = run_point(depth, 50, 16);
            assert_eq!(p.terminal_received, 50, "depth {depth}");
            assert_eq!(p.depth_drops, 0);
        }
    }

    #[test]
    fn dispatch_cost_is_linear_in_depth() {
        let d1 = run_point(1, 100, 16);
        let d8 = run_point(8, 100, 16);
        // depth+1 dispatched streams per injected message.
        assert_eq!(d1.total_dispatches, 200);
        assert_eq!(d8.total_dispatches, 900);
    }

    #[test]
    fn guard_truncates_overdeep_chains() {
        // Chain of 8 but the guard allows only 4 levels of derivation.
        let p = run_point(8, 20, 4);
        assert_eq!(p.terminal_received, 0, "data must not reach beyond the guard");
        assert!(p.depth_drops > 0);
    }
}
