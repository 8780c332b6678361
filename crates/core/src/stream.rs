//! The stream registry: discovery metadata for every live stream.
//!
//! The pub/sub mechanism "permits un-configured data streams to be
//! detected" (§4.2). The registry records, for every StreamID that has
//! ever flowed through the middleware, when it appeared, how fast it
//! runs and whether anyone currently claims it — the catalogue a new
//! consumer browses before subscribing.
//!
//! The Dispatching Service owns the registry and keeps one row per
//! stream in it: the stream's catalogue entry beside its match-cache
//! slot. Rows sit in a `Vec` in first-seen order and a keyed index maps
//! a stream id to its [`RowId`], so routing and cataloguing a message
//! cost one keyed lookup — or none, when the caller already holds the
//! stream's `RowId` (the Filtering Service remembers it per stream).
//! A second index lists each sensor's rows, so a subscription write on
//! a sensor can stale exactly that sensor's match-cache slots. Stream
//! and sensor ids come off the radio, so both indexes keep std's keyed
//! hasher.

use std::collections::HashMap;
use std::num::NonZeroU32;

use garnet_simkit::SimTime;
use garnet_wire::{SensorId, StreamId};

use crate::dispatching::pubsub::MatchSlot;

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
    /// Counts one message; the first one fixes when the stream was
    /// first seen and whether it is derived.
    pub(crate) fn note(&mut self, payload_len: usize, at: SimTime, derived: bool) {
        if self.messages == 0 {
            self.first_seen = at;
            self.derived = derived;
        }
        self.messages += 1;
        self.payload_bytes += payload_len as u64;
        self.last_seen = at;
    }
}

/// One stream's row: its catalogue entry and the dispatch stage's
/// match-cache slot for it.
#[derive(Debug)]
pub(crate) struct StreamRow {
    pub(crate) info: StreamInfo,
    pub(crate) matched: MatchSlot,
}

/// Names one row of a [`StreamRegistry`]: its position in first-seen
/// order. Only the registry makes one, and a row is never moved or
/// removed, so a `RowId` keeps naming the same stream in the registry
/// that issued it. A `RowId` from another registry may name another
/// stream's row or none; [`StreamRegistry`] checks before trusting one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowId(NonZeroU32);

impl RowId {
    #[expect(
        clippy::expect_used,
        reason = "one row per distinct 32-bit stream id, and 2^32 - 1 rows do not fit in memory"
    )]
    fn at(index: usize) -> Self {
        RowId(
            u32::try_from(index + 1)
                .ok()
                .and_then(NonZeroU32::new)
                .expect("a registry holds fewer than 2^32 - 1 streams"),
        )
    }

    fn index(self) -> usize {
        self.0.get() as usize - 1
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
    /// One row per stream, in first-seen order; a [`RowId`] indexes it.
    rows: Vec<StreamRow>,
    /// Raw stream id → its row.
    index: HashMap<u32, RowId>,
    /// Raw sensor id → its streams' rows, in first-seen order.
    by_sensor: HashMap<u32, Vec<RowId>>,
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
        self.row(stream).info.note(payload_len, at, derived);
    }

    /// `stream`'s row, created empty (no message counted yet) on first
    /// sight.
    pub(crate) fn row(&mut self, stream: StreamId) -> &mut StreamRow {
        self.row_at(stream, None).0
    }

    /// `stream`'s row, found without hashing when `hint` names it;
    /// otherwise found by key (created empty on first sight), and its
    /// `RowId` handed back for the caller to remember.
    #[inline]
    pub(crate) fn row_at(
        &mut self,
        stream: StreamId,
        hint: Option<RowId>,
    ) -> (&mut StreamRow, Option<RowId>) {
        if let Some(id) = hint {
            if self.rows.get(id.index()).is_some_and(|row| row.info.stream == stream) {
                return (&mut self.rows[id.index()], None);
            }
        }
        let (rows, by_sensor) = (&mut self.rows, &mut self.by_sensor);
        let id = *self.index.entry(stream.to_raw()).or_insert_with(|| {
            rows.push(StreamRow {
                info: StreamInfo {
                    stream,
                    first_seen: SimTime::ZERO,
                    last_seen: SimTime::ZERO,
                    messages: 0,
                    payload_bytes: 0,
                    claimed: false,
                    derived: false,
                },
                matched: MatchSlot::default(),
            });
            let id = RowId::at(rows.len() - 1);
            by_sensor.entry(stream.sensor().as_u32()).or_default().push(id);
            id
        });
        (&mut self.rows[id.index()], Some(id))
    }

    /// Marks stale the match-cache slot of `stream`'s row, if it has one.
    pub(crate) fn stale_stream(&mut self, stream: StreamId) {
        if let Some(&id) = self.index.get(&stream.to_raw()) {
            self.rows[id.index()].matched.mark_stale();
        }
    }

    /// Marks stale the match-cache slot of every row of `sensor`.
    pub(crate) fn stale_sensor(&mut self, sensor: SensorId) {
        for &id in self.by_sensor.get(&sensor.as_u32()).into_iter().flatten() {
            self.rows[id.index()].matched.mark_stale();
        }
    }

    /// Marks a stream claimed/unclaimed as subscriptions come and go.
    pub(crate) fn set_claimed(&mut self, stream: StreamId, claimed: bool) {
        if let Some(&id) = self.index.get(&stream.to_raw()) {
            self.rows[id.index()].info.claimed = claimed;
        }
    }

    /// Metadata for one stream.
    pub fn info(&self, stream: StreamId) -> Option<&StreamInfo> {
        self.index.get(&stream.to_raw()).map(|&id| &self.rows[id.index()].info)
    }

    /// Every known stream, in first-seen order and without
    /// materialising the catalogue — for folds (a minimum, a count).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &StreamInfo> {
        self.rows.iter().map(|row| &row.info)
    }

    /// Every known stream, ordered by raw id.
    pub fn discover(&self) -> Vec<&StreamInfo> {
        let mut out: Vec<&StreamInfo> = self.iter().collect();
        out.sort_by_key(|i| i.stream.to_raw());
        out
    }

    /// Every stream nobody claims (candidates for the Orphanage view).
    pub(crate) fn discover_unclaimed(&self) -> Vec<&StreamInfo> {
        self.discover().into_iter().filter(|i| !i.claimed).collect()
    }

    /// Number of known streams.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no stream has been seen.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
        assert!(!info.claimed);
        assert!(!info.derived);
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
    fn a_row_made_before_its_first_message_takes_that_message_s_time() {
        // Routing makes a stream's row before the dispatch stage counts
        // the message in it: the first count, not the row, fixes
        // `first_seen` and `derived`.
        let s = StreamId::from_raw(5);
        let mut routed = StreamRegistry::new();
        let mut noted = StreamRegistry::new();
        assert_eq!(routed.row(s).info.messages, 0);
        for i in 1..4u64 {
            let at = SimTime::from_millis(i);
            routed.row(s).info.note(4, at, true);
            noted.note_message(s, 4, at, true);
            assert_eq!(routed.info(s), noted.info(s));
        }
        let info = routed.info(s).unwrap();
        assert_eq!((info.first_seen, info.messages), (SimTime::from_millis(1), 3));
        assert!(info.derived);
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
    fn rows_stay_in_first_seen_order_and_a_hint_is_checked() {
        let mut r = StreamRegistry::new();
        let s = StreamId::from_raw;
        let ids = [30u32, 10, 20].map(|raw| r.row_at(s(raw), None).1.expect("a new row"));
        let order: Vec<u32> = r.iter().map(|i| i.stream.to_raw()).collect();
        assert_eq!(order, [30, 10, 20]);
        // The stream's own row is used as is; another stream's row, or
        // one past the end of a shorter table, sends the caller the
        // right one.
        assert_eq!(r.row_at(s(10), Some(ids[1])).1, None);
        assert_eq!(r.row_at(s(10), Some(ids[2])).1, Some(ids[1]));
        let mut short = StreamRegistry::new();
        let (row, looked_up) = short.row_at(s(20), Some(ids[2]));
        assert_eq!(row.info.stream, s(20));
        assert_eq!(looked_up, Some(RowId::at(0)));
        assert_eq!(short.len(), 1);
    }

    #[test]
    fn derived_flag_sticks() {
        let mut r = StreamRegistry::new();
        let s = StreamId::from_raw(0x00FF_0000);
        r.note_message(s, 1, SimTime::ZERO, true);
        assert!(r.info(s).unwrap().derived);
    }
}
