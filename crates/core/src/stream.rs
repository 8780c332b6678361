//! The stream registry: discovery metadata for every live stream.
//!
//! The pub/sub mechanism "permits un-configured data streams to be
//! detected" (§4.2). The registry records, for every StreamID that has
//! ever flowed through the middleware, when it appeared, how fast it
//! runs and whether anyone currently claims it — the catalogue a new
//! consumer browses before subscribing.

use std::collections::HashMap;

use garnet_simkit::{SimDuration, SimTime};
use garnet_wire::StreamId;

/// Spreads a 24-bit sensor id across `shards` buckets (Fibonacci
/// hashing: dense sensor ids from grid deployments stay balanced).
///
/// The ingest stage's partition function: all of a sensor's streams
/// land on one filtering shard.
pub fn shard_of_sensor(sensor: u32, shards: usize) -> usize {
    (sensor.wrapping_mul(0x9E37_79B1) >> 16) as usize % shards.max(1)
}

/// Discovery metadata for one stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamInfo {
    /// The stream.
    pub stream: StreamId,
    /// First message observed.
    pub first_seen: SimTime,
    /// Most recent message observed.
    pub last_seen: SimTime,
    /// Messages observed.
    pub messages: u64,
    /// Bytes of payload observed.
    pub payload_bytes: u64,
    /// Whether a subscriber currently claims it.
    pub claimed: bool,
    /// Whether this is a consumer-derived (virtual) stream.
    pub derived: bool,
}

impl StreamInfo {
    /// Mean inter-message interval, if at least two messages arrived.
    pub fn estimated_interval(&self) -> Option<SimDuration> {
        (self.messages >= 2)
            .then(|| self.last_seen.saturating_since(self.first_seen) / (self.messages - 1))
    }
}

/// The registry.
///
/// # Example
///
/// ```
/// use garnet_core::stream::StreamRegistry;
/// use garnet_simkit::SimTime;
/// use garnet_wire::StreamId;
///
/// let mut reg = StreamRegistry::new();
/// reg.note_message(StreamId::from_raw(7), 16, SimTime::ZERO, false);
/// assert_eq!(reg.discover().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct StreamRegistry {
    streams: HashMap<u32, StreamInfo>,
}

impl StreamRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message on `stream`.
    pub fn note_message(
        &mut self,
        stream: StreamId,
        payload_len: usize,
        at: SimTime,
        derived: bool,
    ) {
        self.touch(stream, payload_len, at, derived);
    }

    /// Records one routed message on `stream` and whether any subscriber
    /// matched it — [`StreamRegistry::note_message`] plus
    /// [`StreamRegistry::set_claimed`] in one lookup, which is what the
    /// dispatch stage owes the catalogue per message. Keeping the
    /// claimed flag in step with each route makes a subscription made
    /// before the stream's first message visible to the quiescence
    /// sweep.
    pub fn note_routed(
        &mut self,
        stream: StreamId,
        payload_len: usize,
        at: SimTime,
        derived: bool,
        claimed: bool,
    ) {
        self.touch(stream, payload_len, at, derived).claimed = claimed;
    }

    fn touch(
        &mut self,
        stream: StreamId,
        payload_len: usize,
        at: SimTime,
        derived: bool,
    ) -> &mut StreamInfo {
        let info = self.streams.entry(stream.to_raw()).or_insert_with(|| StreamInfo {
            stream,
            first_seen: at,
            last_seen: at,
            messages: 0,
            payload_bytes: 0,
            claimed: false,
            derived,
        });
        info.messages += 1;
        info.payload_bytes += payload_len as u64;
        info.last_seen = at;
        info
    }

    /// Marks a stream claimed/unclaimed as subscriptions come and go.
    pub fn set_claimed(&mut self, stream: StreamId, claimed: bool) {
        if let Some(info) = self.streams.get_mut(&stream.to_raw()) {
            info.claimed = claimed;
        }
    }

    /// Metadata for one stream.
    pub fn info(&self, stream: StreamId) -> Option<&StreamInfo> {
        self.streams.get(&stream.to_raw())
    }

    /// Every known stream, in no particular order and without
    /// materialising the catalogue — for folds (a minimum, a count)
    /// that do not care about order.
    pub fn iter(&self) -> impl Iterator<Item = &StreamInfo> {
        self.streams.values()
    }

    /// Every known stream, ordered by raw id.
    pub fn discover(&self) -> Vec<&StreamInfo> {
        let mut out: Vec<&StreamInfo> = self.streams.values().collect();
        out.sort_by_key(|i| i.stream.to_raw());
        out
    }

    /// Every stream nobody claims (candidates for the Orphanage view).
    pub fn discover_unclaimed(&self) -> Vec<&StreamInfo> {
        self.discover().into_iter().filter(|i| !i.claimed).collect()
    }

    /// Number of known streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True if no stream has been seen.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_accumulates() {
        let mut r = StreamRegistry::new();
        let s = StreamId::from_raw(0x0100);
        r.note_message(s, 10, SimTime::ZERO, false);
        r.note_message(s, 20, SimTime::from_secs(2), false);
        let info = r.info(s).unwrap();
        assert_eq!(info.messages, 2);
        assert_eq!(info.payload_bytes, 30);
        assert_eq!(info.estimated_interval(), Some(SimDuration::from_secs(2)));
        assert!(!info.claimed);
        assert!(!info.derived);
    }

    #[test]
    fn single_message_no_interval() {
        let mut r = StreamRegistry::new();
        r.note_message(StreamId::from_raw(1), 1, SimTime::ZERO, false);
        assert_eq!(r.info(StreamId::from_raw(1)).unwrap().estimated_interval(), None);
    }

    #[test]
    fn claimed_flag_toggles() {
        let mut r = StreamRegistry::new();
        let s = StreamId::from_raw(5);
        r.note_message(s, 1, SimTime::ZERO, false);
        r.set_claimed(s, true);
        assert!(r.info(s).unwrap().claimed);
        assert!(r.discover_unclaimed().is_empty());
        r.set_claimed(s, false);
        assert_eq!(r.discover_unclaimed().len(), 1);
    }

    #[test]
    fn note_routed_is_note_message_plus_set_claimed() {
        let s = StreamId::from_raw(5);
        let mut one = StreamRegistry::new();
        let mut two = StreamRegistry::new();
        for (i, claimed) in [true, false, true].into_iter().enumerate() {
            let at = SimTime::from_millis(i as u64);
            one.note_routed(s, 4, at, false, claimed);
            two.note_message(s, 4, at, false);
            two.set_claimed(s, claimed);
            assert_eq!(one.info(s), two.info(s));
        }
        assert_eq!(one.iter().count(), 1);
    }

    #[test]
    fn set_claimed_on_unknown_stream_is_noop() {
        let mut r = StreamRegistry::new();
        r.set_claimed(StreamId::from_raw(9), true);
        assert!(r.is_empty());
    }

    #[test]
    fn discover_is_sorted() {
        let mut r = StreamRegistry::new();
        for raw in [30u32, 10, 20] {
            r.note_message(StreamId::from_raw(raw), 1, SimTime::ZERO, false);
        }
        let raws: Vec<u32> = r.discover().iter().map(|i| i.stream.to_raw()).collect();
        assert_eq!(raws, vec![10, 20, 30]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn derived_flag_sticks() {
        let mut r = StreamRegistry::new();
        let s = StreamId::from_raw(0x00FF_0000);
        r.note_message(s, 1, SimTime::ZERO, true);
        assert!(r.info(s).unwrap().derived);
    }

    #[test]
    fn shard_of_sensor_is_stable_and_in_range() {
        for sensor in 0..500u32 {
            for shards in [1usize, 2, 4, 8] {
                let a = shard_of_sensor(sensor, shards);
                assert!(a < shards);
                assert_eq!(a, shard_of_sensor(sensor, shards), "deterministic");
            }
        }
        assert_eq!(shard_of_sensor(7, 0), 0, "0 shards treated as 1");
    }
}
