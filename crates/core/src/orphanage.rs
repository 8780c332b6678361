//! The Orphanage: default consumer for unclaimed data.
//!
//! "The Orphanage is a default consumer process which receives
//! un-configured data. There, data messages are analysed and potentially
//! stored" (§4.2). Sensors are plug-and-play (§5): a freshly deployed
//! node starts transmitting before anyone has subscribed, and its data
//! must neither vanish nor crash the pipeline. The orphanage keeps a
//! bounded ring of recent messages per unclaimed stream plus running
//! statistics, and when a consumer later claims the stream it receives
//! the retained backlog (experiment E12).

use std::collections::{HashMap, VecDeque};

use garnet_simkit::{SimDuration, SimTime};
use garnet_wire::{DataMessage, SensorId, StreamId};

use crate::filtering::Delivery;

/// Orphanage tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrphanageConfig {
    /// Messages retained per unclaimed stream.
    pub retain_per_stream: usize,
    /// Streams tracked before the least-recently-active is evicted.
    pub max_streams: usize,
}

impl Default for OrphanageConfig {
    fn default() -> Self {
        OrphanageConfig { retain_per_stream: 128, max_streams: 4096 }
    }
}

/// Summary of one unclaimed stream — what an operator console would show
/// when asking "what is transmitting that nobody listens to?".
#[derive(Clone, Debug, PartialEq)]
pub struct OrphanStats {
    /// The stream.
    pub stream: StreamId,
    /// Messages seen since tracking began.
    pub messages_seen: u64,
    /// Messages currently retained.
    pub retained: usize,
    /// First and most recent arrival.
    pub first_seen: SimTime,
    /// Most recent arrival.
    pub last_seen: SimTime,
    /// Mean payload size (bytes).
    pub mean_payload_len: f64,
    /// Estimated message interval, if at least two messages arrived.
    pub estimated_interval: Option<SimDuration>,
}

#[derive(Debug)]
struct OrphanStream {
    ring: VecDeque<DataMessage>,
    messages_seen: u64,
    payload_total: u64,
    first_seen: SimTime,
    last_seen: SimTime,
}

/// The Orphanage service.
///
/// # Example
///
/// ```
/// use garnet_core::orphanage::Orphanage;
/// use garnet_core::filtering::Delivery;
/// use garnet_simkit::SimTime;
/// use garnet_wire::{DataMessage, StreamId};
///
/// let mut orphanage = Orphanage::new(Default::default());
/// let msg = DataMessage::builder(StreamId::from_raw(0x0500)).build()?;
/// orphanage.take_in(&Delivery {
///     msg: msg.clone(),
///     first_received_at: SimTime::ZERO,
///     delivered_at: SimTime::ZERO,
/// });
/// // A consumer subscribes later and claims the backlog:
/// let backlog = orphanage.claim(msg.stream());
/// assert_eq!(backlog.len(), 1);
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct Orphanage {
    config: OrphanageConfig,
    streams: HashMap<u32, OrphanStream>,
    total_taken: u64,
    total_evicted: u64,
}

impl Orphanage {
    /// Creates an orphanage.
    pub fn new(config: OrphanageConfig) -> Self {
        Orphanage { config, streams: HashMap::new(), total_taken: 0, total_evicted: 0 }
    }

    /// Stores an unclaimed delivery.
    pub fn take_in(&mut self, delivery: &Delivery) {
        let raw = delivery.msg.stream().to_raw();
        if !self.streams.contains_key(&raw) && self.streams.len() >= self.config.max_streams {
            self.evict_stalest();
        }
        let entry = self.streams.entry(raw).or_insert_with(|| OrphanStream {
            ring: VecDeque::with_capacity(self.config.retain_per_stream.min(64)),
            messages_seen: 0,
            payload_total: 0,
            first_seen: delivery.delivered_at,
            last_seen: delivery.delivered_at,
        });
        entry.messages_seen += 1;
        entry.payload_total += delivery.msg.payload().len() as u64;
        entry.last_seen = delivery.delivered_at;
        if entry.ring.len() == self.config.retain_per_stream {
            entry.ring.pop_front();
        }
        entry.ring.push_back(delivery.msg.clone());
        self.total_taken += 1;
    }

    fn evict_stalest(&mut self) {
        if let Some((&raw, _)) =
            self.streams.iter().min_by_key(|(_, s)| (s.last_seen, s.first_seen))
        {
            self.streams.remove(&raw);
            self.total_evicted += 1;
        }
    }

    /// A consumer has claimed `stream`: returns and forgets the retained
    /// backlog (oldest first).
    pub fn claim(&mut self, stream: StreamId) -> Vec<DataMessage> {
        self.streams
            .remove(&stream.to_raw())
            .map(|s| s.ring.into_iter().collect())
            .unwrap_or_default()
    }

    /// Statistics for one unclaimed stream.
    pub fn stats(&self, stream: StreamId) -> Option<OrphanStats> {
        self.streams.get(&stream.to_raw()).map(|s| OrphanStats {
            stream,
            messages_seen: s.messages_seen,
            retained: s.ring.len(),
            first_seen: s.first_seen,
            last_seen: s.last_seen,
            mean_payload_len: if s.messages_seen == 0 {
                0.0
            } else {
                s.payload_total as f64 / s.messages_seen as f64
            },
            estimated_interval: (s.messages_seen >= 2)
                .then(|| s.last_seen.saturating_since(s.first_seen) / (s.messages_seen - 1)),
        })
    }

    /// Every unclaimed stream, ordered by raw id (deterministic).
    #[cfg(test)]
    pub(crate) fn unclaimed_streams(&self) -> Vec<StreamId> {
        let mut raws: Vec<u32> = self.streams.keys().copied().collect();
        raws.sort_unstable();
        raws.into_iter().map(StreamId::from_raw).collect()
    }

    /// The unclaimed streams of `sensor`, ordered by raw id; allocates
    /// nothing when the sensor has none.
    pub(crate) fn unclaimed_streams_of(&self, sensor: SensorId) -> Vec<StreamId> {
        let mut streams: Vec<StreamId> = self
            .streams
            .keys()
            .map(|&raw| StreamId::from_raw(raw))
            .filter(|s| s.sensor() == sensor)
            .collect();
        streams.sort_unstable_by_key(|s| s.to_raw());
        streams
    }

    /// Total messages ever taken in.
    pub fn total_taken(&self) -> u64 {
        self.total_taken
    }

    /// Streams evicted under memory pressure.
    pub fn total_evicted(&self) -> u64 {
        self.total_evicted
    }

    /// Number of streams currently tracked.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_wire::{SensorId, SequenceNumber, StreamIndex};

    fn delivery(sensor: u32, idx: u8, seq: u16, at_ms: u64, payload: usize) -> Delivery {
        let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(idx));
        Delivery {
            msg: DataMessage::builder(stream)
                .seq(SequenceNumber::new(seq))
                .payload(vec![0u8; payload])
                .build()
                .unwrap(),
            first_received_at: SimTime::from_millis(at_ms),
            delivered_at: SimTime::from_millis(at_ms),
        }
    }

    #[test]
    fn take_in_and_claim_replays_in_order() {
        let mut o = Orphanage::new(OrphanageConfig::default());
        for seq in 0..5u16 {
            o.take_in(&delivery(1, 0, seq, seq as u64, 4));
        }
        let stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        let backlog = o.claim(stream);
        let seqs: Vec<u16> = backlog.iter().map(|m| m.seq().as_u16()).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(o.stream_count(), 0, "claimed stream is forgotten");
        assert!(o.claim(stream).is_empty(), "second claim yields nothing");
    }

    #[test]
    fn ring_bounds_retention() {
        let mut o = Orphanage::new(OrphanageConfig { retain_per_stream: 3, max_streams: 10 });
        for seq in 0..10u16 {
            o.take_in(&delivery(1, 0, seq, seq as u64, 4));
        }
        let stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        let stats = o.stats(stream).unwrap();
        assert_eq!(stats.messages_seen, 10);
        assert_eq!(stats.retained, 3);
        let backlog = o.claim(stream);
        let seqs: Vec<u16> = backlog.iter().map(|m| m.seq().as_u16()).collect();
        assert_eq!(seqs, vec![7, 8, 9], "oldest dropped first");
    }

    #[test]
    fn stats_estimate_rate_and_payload() {
        let mut o = Orphanage::new(OrphanageConfig::default());
        for i in 0..5u16 {
            o.take_in(&delivery(2, 1, i, i as u64 * 1000, 10 + i as usize));
        }
        let stream = StreamId::new(SensorId::new(2).unwrap(), StreamIndex::new(1));
        let s = o.stats(stream).unwrap();
        assert_eq!(s.first_seen, SimTime::ZERO);
        assert_eq!(s.last_seen, SimTime::from_secs(4));
        assert_eq!(s.estimated_interval, Some(SimDuration::from_secs(1)));
        assert!((s.mean_payload_len - 12.0).abs() < 1e-9);
    }

    #[test]
    fn stats_absent_for_unknown_stream() {
        let o = Orphanage::new(OrphanageConfig::default());
        assert!(o.stats(StreamId::from_raw(1)).is_none());
    }

    #[test]
    fn single_message_has_no_interval_estimate() {
        let mut o = Orphanage::new(OrphanageConfig::default());
        o.take_in(&delivery(1, 0, 0, 0, 4));
        let stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        assert_eq!(o.stats(stream).unwrap().estimated_interval, None);
    }

    #[test]
    fn stream_cap_evicts_stalest() {
        let mut o = Orphanage::new(OrphanageConfig { retain_per_stream: 4, max_streams: 2 });
        o.take_in(&delivery(1, 0, 0, 0, 4)); // stalest
        o.take_in(&delivery(2, 0, 0, 10, 4));
        o.take_in(&delivery(3, 0, 0, 20, 4)); // triggers eviction of sensor 1
        assert_eq!(o.stream_count(), 2);
        assert_eq!(o.total_evicted(), 1);
        let remaining = o.unclaimed_streams();
        let sensors: Vec<u32> = remaining.iter().map(|s| s.sensor().as_u32()).collect();
        assert_eq!(sensors, vec![2, 3]);
    }

    #[test]
    fn unclaimed_streams_sorted() {
        let mut o = Orphanage::new(OrphanageConfig::default());
        o.take_in(&delivery(9, 1, 0, 0, 1));
        o.take_in(&delivery(2, 0, 0, 0, 1));
        o.take_in(&delivery(9, 0, 0, 0, 1));
        let raws: Vec<u32> = o.unclaimed_streams().iter().map(|s| s.to_raw()).collect();
        let mut sorted = raws.clone();
        sorted.sort_unstable();
        assert_eq!(raws, sorted);
        assert_eq!(o.total_taken(), 3);
        let of_9: Vec<u32> =
            o.unclaimed_streams_of(SensorId::new(9).unwrap()).iter().map(|s| s.to_raw()).collect();
        assert_eq!(of_9, vec![9 << 8, (9 << 8) | 1]);
        assert!(o.unclaimed_streams_of(SensorId::new(3).unwrap()).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use garnet_wire::{SensorId, SequenceNumber, StreamIndex};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn retention_bounds_always_hold(
            events in proptest::collection::vec((0u32..40, 0u8..3, any::<u16>()), 0..400),
            retain in 1usize..16,
            max_streams in 1usize..12,
        ) {
            let mut o = Orphanage::new(OrphanageConfig {
                retain_per_stream: retain,
                max_streams,
            });
            let mut at = 0u64;
            for (sensor, idx, seq) in events {
                at += 1;
                let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(idx));
                let msg = garnet_wire::DataMessage::builder(stream)
                    .seq(SequenceNumber::new(seq))
                    .build()
                    .unwrap();
                o.take_in(&Delivery {
                    msg,
                    first_received_at: SimTime::from_millis(at),
                    delivered_at: SimTime::from_millis(at),
                });
                // Invariants after every insertion:
                prop_assert!(o.stream_count() <= max_streams);
                for s in o.unclaimed_streams() {
                    let stats = o.stats(s).unwrap();
                    prop_assert!(stats.retained <= retain);
                    prop_assert!(stats.retained as u64 <= stats.messages_seen);
                }
            }
            // Claims drain completely.
            for s in o.unclaimed_streams() {
                let backlog = o.claim(s);
                prop_assert!(backlog.len() <= retain);
            }
            prop_assert_eq!(o.stream_count(), 0);
        }
    }
}
