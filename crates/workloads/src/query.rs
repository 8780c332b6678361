//! Continuous queries as a Garnet consumer: the Fjords sensor proxy
//! realised on the middleware.
//!
//! §7 observes that Fjords' sensor proxies and Garnet's resource manager
//! play the same role: one acquisition stream serves many queries. The
//! [`ContinuousQueryConsumer`] closes the loop as running code — it
//! subscribes to a physical stream once, runs any number of registered
//! continuous queries over the deliveries, and publishes each query's
//! results on its own **derived stream** (`StreamIndex` = query id), so
//! downstream consumers subscribe to query results exactly like any
//! other Garnet stream. Experiment E7 verifies that MergeMax mediation
//! acquires at the same rate a Fjords proxy would; this module is what a
//! deployment would actually run.

use garnet_baselines::querydb::{Query, QueryEngine};
use garnet_core::consumer::{Consumer, ConsumerCtx};
use garnet_core::filtering::Delivery;
use garnet_radio::Reading;
use garnet_wire::StreamIndex;

/// A consumer hosting up to 256 continuous queries over the streams it
/// subscribes to, publishing results as derived streams.
#[derive(Debug)]
pub struct ContinuousQueryConsumer {
    name: String,
    engine: QueryEngine,
    results_published: u64,
}

impl ContinuousQueryConsumer {
    /// Creates an empty query host.
    pub fn new(name: impl Into<String>) -> ContinuousQueryConsumer {
        ContinuousQueryConsumer {
            name: name.into(),
            engine: QueryEngine::new(),
            results_published: 0,
        }
    }

    /// Registers a continuous query. Its results publish on the derived
    /// stream whose index equals the returned id.
    ///
    /// # Panics
    ///
    /// Panics beyond 256 queries — a consumer has only 256 derived
    /// stream indices (the Fig. 2 format); shard across consumers
    /// instead.
    pub fn register(&mut self, query: Query) -> u8 {
        let id = self.engine.register(query);
        assert!(id < 256, "one consumer hosts at most 256 queries");
        id as u8
    }

    /// The shared acquisition interval the hosted queries need (what the
    /// consumer should request from the Resource Manager).
    pub fn acquisition_interval(&self) -> Option<garnet_simkit::SimDuration> {
        self.engine.shared_acquisition_interval()
    }

    /// Results published so far.
    #[cfg(test)]
    pub(crate) fn results_published(&self) -> u64 {
        self.results_published
    }

    /// Samples ingested so far.
    #[cfg(test)]
    pub(crate) fn samples_ingested(&self) -> u64 {
        self.engine.samples_ingested()
    }
}

impl Consumer for ContinuousQueryConsumer {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_data(&mut self, delivery: &Delivery, ctx: &mut ConsumerCtx) {
        let Some(reading) = Reading::decode(delivery.msg.payload()) else {
            return;
        };
        self.engine.ingest(reading.sensed_at(), reading.value);
        for (query_id, report_at, value) in self.engine.drain_results() {
            self.results_published += 1;
            ctx.publish_derived(
                StreamIndex::new(query_id as u8),
                Reading::new(value, report_at).encode(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SharedCountConsumer;
    use garnet_baselines::querydb::Aggregate;
    use garnet_core::middleware::{Garnet, GarnetConfig};
    use garnet_net::TopicFilter;
    use garnet_radio::ReceiverId;
    use garnet_simkit::{SimDuration, SimTime};
    use garnet_wire::{DataMessage, SensorId, SequenceNumber, StreamId};
    use std::sync::atomic::Ordering;

    fn frame(seq: u16, at: SimTime, value: f64) -> Vec<u8> {
        let stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(Reading::new(value, at).encode())
            .build()
            .unwrap()
            .encode_to_vec()
    }

    #[test]
    fn queries_publish_derived_result_streams() {
        let mut host = ContinuousQueryConsumer::new("queries");
        let fast = host.register(Query::latest_every(SimDuration::from_secs(2)));
        let slow = host
            .register(Query { interval: SimDuration::from_secs(10), aggregate: Aggregate::Avg });
        assert_eq!(host.acquisition_interval(), Some(SimDuration::from_secs(2)));

        let mut g = Garnet::new(GarnetConfig::default());
        let token = g.issue_default_token("t");
        let host_id = g.register_consumer(Box::new(host), &token, 0).unwrap();
        let physical = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        g.subscribe(host_id, TopicFilter::Stream(physical), &token).unwrap();

        // Two downstream dashboards subscribe to the two result streams.
        let virtual_sensor = g.virtual_sensor(host_id).unwrap();
        let (fast_dash, fast_n) = SharedCountConsumer::new("fast-dash");
        let (slow_dash, slow_n) = SharedCountConsumer::new("slow-dash");
        let fid = g.register_consumer(Box::new(fast_dash), &token, 0).unwrap();
        let sid = g.register_consumer(Box::new(slow_dash), &token, 0).unwrap();
        g.subscribe(
            fid,
            TopicFilter::Stream(StreamId::new(virtual_sensor, StreamIndex::new(fast))),
            &token,
        )
        .unwrap();
        g.subscribe(
            sid,
            TopicFilter::Stream(StreamId::new(virtual_sensor, StreamIndex::new(slow))),
            &token,
        )
        .unwrap();

        // One sample per second for 40 s.
        for s in 0..40u16 {
            let at = SimTime::from_secs(u64::from(s));
            g.on_frame(ReceiverId::new(0), -50.0, &frame(s, at, f64::from(s)), at);
        }

        // 2 s windows → ~19 reports; 10 s windows → 3 full reports.
        let fast_results = fast_n.load(Ordering::Relaxed);
        let slow_results = slow_n.load(Ordering::Relaxed);
        assert!((18..=20).contains(&fast_results), "fast={fast_results}");
        assert_eq!(slow_results, 3, "slow={slow_results}");
    }

    #[test]
    fn avg_results_are_correct_through_the_stack() {
        use garnet_core::consumer::Consumer as _;
        let mut host = ContinuousQueryConsumer::new("q");
        host.register(Query { interval: SimDuration::from_secs(4), aggregate: Aggregate::Avg });
        let mut ctx = ConsumerCtx::new(SimTime::ZERO);
        // Samples 1,2,3,4 in the first window (0,4].
        for s in 1..=4u16 {
            let at = SimTime::from_secs(u64::from(s) - 1);
            let d = Delivery {
                msg: DataMessage::decode(&frame(s, at, f64::from(s))).unwrap().0,
                first_received_at: at,
                delivered_at: at,
            };
            host.on_data(&d, &mut ctx);
        }
        // Push one sample past the window edge to close it.
        let at = SimTime::from_secs(4);
        let d = Delivery {
            msg: DataMessage::decode(&frame(9, at, 0.0)).unwrap().0,
            first_received_at: at,
            delivered_at: at,
        };
        host.on_data(&d, &mut ctx);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 1);
        let garnet_core::consumer::ConsumerAction::PublishDerived { payload, .. } = &actions[0]
        else {
            panic!("expected a derived publication");
        };
        let r = Reading::decode(payload).unwrap();
        assert!((r.value - 2.5).abs() < 1e-9, "avg of 1..=4 is 2.5, got {}", r.value);
        assert_eq!(host.results_published(), 1);
        assert_eq!(host.samples_ingested(), 5);
    }

    #[test]
    #[should_panic]
    fn query_256_overflows_derived_space() {
        let mut host = ContinuousQueryConsumer::new("q");
        for _ in 0..257 {
            host.register(Query::latest_every(SimDuration::from_secs(1)));
        }
    }
}
