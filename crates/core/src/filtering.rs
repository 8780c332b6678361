//! The Filtering Service: duplicate elimination and stream
//! reconstruction.
//!
//! "The Filtering Service reconstructs the data streams by eliminating
//! duplicate data messages. Filtered data is then forwarded to the
//! Dispatching Service" (§4.2). Input is raw frames from the receiver
//! array — the same transmission may arrive several times through
//! overlapping receivers, corrupted frames fail their CRC, and frames can
//! arrive out of order through differing receiver latencies.
//!
//! Per stream the service maintains the last-delivered sequence number
//! and a small reorder buffer. In serial-number order
//! ([`garnet_wire::SequenceNumber`]):
//!
//! * a frame at or before the last delivered sequence is a **duplicate or
//!   stale retransmit** → dropped;
//! * the immediate successor is delivered at once, then any buffered
//!   successors drain;
//! * a frame further ahead is **buffered** until either the gap fills or
//!   a reorder timeout expires, at which point the stream accepts the gap
//!   (the missing message was lost in the air) and moves on.
//!
//! Every CRC-valid reception — including duplicates — also yields an
//! [`Observation`] for the Location Service: duplicates are useless to
//! consumers but golden for trilateration.

use std::collections::{BTreeSet, HashMap};

use garnet_simkit::{Counter, ReceiverId, SimDuration, SimTime};
use garnet_wire::{
    DataMessage, FrameBytes, FrameHeader, SensorId, SequenceNumber, StreamId, WireError,
};

use crate::stream::RowId;

/// Tuning of the filtering service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilterConfig {
    /// How long an out-of-order message may wait for its gap to fill.
    pub reorder_timeout: SimDuration,
    /// Upper bound on buffered messages per stream; beyond it the oldest
    /// buffered message is force-delivered (back-pressure guard).
    pub max_buffered_per_stream: usize,
    /// A frame more than this far ahead of the last delivered sequence is
    /// treated as a stream restart rather than buffered (the sensor
    /// rebooted or we lost half the window).
    pub restart_distance: u16,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            reorder_timeout: SimDuration::from_millis(50),
            max_buffered_per_stream: 256,
            restart_distance: 4096,
        }
    }
}

/// A reconstructed, deduplicated message leaving the filtering service.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery {
    /// The decoded message.
    pub msg: DataMessage,
    /// When its first copy reached any receiver.
    pub first_received_at: SimTime,
    /// When the filtering service released it downstream.
    pub delivered_at: SimTime,
}

/// A location-relevant sighting: receiver R heard sensor S at RSSI x.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observation {
    /// The sensor that transmitted.
    pub sensor: SensorId,
    /// The receiver that heard it.
    pub receiver: ReceiverId,
    /// Received signal strength (dBm).
    pub rssi_dbm: f64,
    /// Arrival instant.
    pub at: SimTime,
}

/// One raw frame of a batch handed to [`FilteringService::on_batch`].
#[derive(Clone, Debug)]
pub struct FrameArrival {
    /// The receiver that heard it.
    pub receiver: ReceiverId,
    /// Received signal strength (dBm).
    pub rssi_dbm: f64,
    /// The encoded frame (shared view of the arrival buffer).
    pub frame: FrameBytes,
    /// Arrival instant.
    pub at: SimTime,
}

/// The messages one frame released: the common single delivery is held
/// inline, and only a gap fill that drains a reorder buffer spills to
/// the heap — an in-order stream never allocates here.
///
/// Consumable like the `Vec` it replaces: by value and by reference as
/// an iterator of [`Delivery`], with `len`/`is_empty` and indexing.
#[derive(Debug, Default)]
pub struct Deliveries {
    first: Option<Delivery>,
    /// Everything after `first`, in release order.
    rest: Vec<Delivery>,
}

impl Deliveries {
    /// Number of deliveries held.
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// True if the frame released nothing.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The deliveries in release order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }
}

impl Extend<Delivery> for Deliveries {
    fn extend<I: IntoIterator<Item = Delivery>>(&mut self, iter: I) {
        for d in iter {
            match self.first {
                None => self.first = Some(d),
                Some(_) => self.rest.push(d),
            }
        }
    }
}

impl IntoIterator for Deliveries {
    type Item = Delivery;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Delivery>, std::vec::IntoIter<Delivery>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

impl<'a> IntoIterator for &'a Deliveries {
    type Item = &'a Delivery;
    type IntoIter =
        std::iter::Chain<std::option::Iter<'a, Delivery>, std::slice::Iter<'a, Delivery>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.iter().chain(&self.rest)
    }
}

impl std::ops::Index<usize> for Deliveries {
    type Output = Delivery;

    fn index(&self, i: usize) -> &Delivery {
        match (i, &self.first) {
            (0, Some(d)) => d,
            _ => &self.rest[i.wrapping_sub(1)],
        }
    }
}

/// Outcome of feeding one frame to the service.
#[derive(Debug, Default)]
pub struct FilterResult {
    /// Messages released downstream (possibly several: a gap fill can
    /// drain the buffer). The usual single delivery is inline — see
    /// [`Deliveries`].
    pub deliveries: Deliveries,
    /// The location observation, for any CRC-valid frame.
    pub observation: Option<Observation>,
    /// Set when the frame failed to decode.
    pub error: Option<WireError>,
    /// The dispatch row of the frame's stream, once the router has
    /// remembered one ([`FilteringService::remember_row`]).
    pub(crate) row: Option<RowId>,
}

#[derive(Debug)]
struct Buffered {
    msg: DataMessage,
    first_received_at: SimTime,
    deadline: SimTime,
}

#[derive(Debug, Default)]
struct StreamFilter {
    last_delivered: Option<SequenceNumber>,
    /// The stream's row in the Dispatching Service's catalogue, so that
    /// the dispatch hop need not hash the stream id again.
    row: Option<RowId>,
    /// Sorted in serial order (ascending from `last_delivered`).
    buffer: Vec<Buffered>,
}

// The remembered row fits in the padding beside `last_delivered`.
const _: () = assert!(std::mem::size_of::<StreamFilter>() == 32);

impl StreamFilter {
    fn is_stale(&self, seq: SequenceNumber) -> bool {
        match self.last_delivered {
            Some(last) => !seq.is_after(last),
            None => false,
        }
    }

    fn is_buffered(&self, seq: SequenceNumber) -> bool {
        self.buffer.iter().any(|b| b.msg.seq() == seq)
    }

    fn insert_buffered(&mut self, entry: Buffered) {
        let seq = entry.msg.seq();
        let pos = self
            .buffer
            .iter()
            .position(|b| seq.distance_to(b.msg.seq()) > 0)
            .unwrap_or(self.buffer.len());
        self.buffer.insert(pos, entry);
    }

    /// The reorder deadline of the buffer head — the only deadline the
    /// service acts on, and the key this stream holds in the deadline
    /// index.
    fn head_deadline(&self) -> Option<SimTime> {
        self.buffer.first().map(|b| b.deadline)
    }

    /// Drains every buffered message that is now in order (no gap before
    /// it), returning deliveries.
    fn drain_ready(&mut self, now: SimTime, out: &mut impl Extend<Delivery>) {
        // The buffer is only used once a first message was delivered, so
        // `last_delivered` is set whenever it holds anything.
        while let (Some(head), Some(last)) = (self.buffer.first(), self.last_delivered) {
            if head.msg.seq() != last.next() {
                break;
            }
            let b = self.buffer.remove(0);
            self.last_delivered = Some(b.msg.seq());
            out.extend(Some(Delivery {
                msg: b.msg,
                first_received_at: b.first_received_at,
                delivered_at: now,
            }));
        }
    }

    /// Force-delivers the buffer head (gap accepted), then drains.
    fn force_head(&mut self, now: SimTime, out: &mut impl Extend<Delivery>) {
        if self.buffer.is_empty() {
            return;
        }
        let b = self.buffer.remove(0);
        self.last_delivered = Some(b.msg.seq());
        out.extend(Some(Delivery {
            msg: b.msg,
            first_received_at: b.first_received_at,
            delivered_at: now,
        }));
        self.drain_ready(now, out);
    }
}

/// Moves `stream`'s entry in the deadline index from its old buffer-head
/// deadline to its new one (either may be absent: the buffer was, or now
/// is, empty).
fn reindex(
    deadlines: &mut BTreeSet<(SimTime, u32)>,
    stream: u32,
    before: Option<SimTime>,
    after: Option<SimTime>,
) {
    if before == after {
        return;
    }
    if let Some(deadline) = before {
        deadlines.remove(&(deadline, stream));
    }
    if let Some(deadline) = after {
        deadlines.insert((deadline, stream));
    }
}

/// The Filtering Service.
///
/// # Example
///
/// ```
/// use garnet_core::filtering::FilteringService;
/// use garnet_simkit::{ReceiverId, SimTime};
/// use garnet_wire::{DataMessage, StreamId};
///
/// let mut filter = FilteringService::new(Default::default());
/// let msg = DataMessage::builder(StreamId::from_raw(0x0100)).build()?;
/// let frame: garnet_wire::FrameBytes = msg.encode_to_vec().into();
///
/// // The same frame through two overlapping receivers:
/// let r1 = filter.on_frame(ReceiverId::new(0), -40.0, &frame, SimTime::ZERO);
/// let r2 = filter.on_frame(ReceiverId::new(1), -55.0, &frame, SimTime::ZERO);
/// assert_eq!(r1.deliveries.len(), 1); // first copy delivered
/// assert_eq!(r2.deliveries.len(), 0); // duplicate eliminated
/// assert!(r2.observation.is_some()); // but still a location sighting
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct FilteringService {
    config: FilterConfig,
    /// Per-stream state under std's keyed hasher: stream ids come off
    /// the radio, so a forged id must not pick its own bucket.
    streams: HashMap<u32, StreamFilter>,
    /// `(head deadline, raw stream id)` of every stream with something
    /// buffered, kept in step wherever a buffer head changes. Invariant:
    /// exactly the set a scan of `streams` for buffer heads would build,
    /// so [`FilteringService::next_deadline`] is its first entry and
    /// [`FilteringService::on_tick`] visits only the streams that are
    /// due.
    deadlines: BTreeSet<(SimTime, u32)>,
    delivered: Counter,
    duplicates: Counter,
    crc_failures: Counter,
    reordered: Counter,
    gaps_accepted: Counter,
    restarts: Counter,
}

impl FilteringService {
    /// Creates a filtering service.
    pub fn new(config: FilterConfig) -> Self {
        FilteringService {
            config,
            streams: HashMap::new(),
            deadlines: BTreeSet::new(),
            delivered: Counter::new(),
            duplicates: Counter::new(),
            crc_failures: Counter::new(),
            reordered: Counter::new(),
            gaps_accepted: Counter::new(),
            restarts: Counter::new(),
        }
    }

    /// Feeds one raw frame as heard by `receiver` at `now`.
    pub fn on_frame(
        &mut self,
        receiver: ReceiverId,
        rssi_dbm: f64,
        frame: &FrameBytes,
        now: SimTime,
    ) -> FilterResult {
        match FrameHeader::parse(frame) {
            Ok(hdr) => self.apply(receiver, rssi_dbm, frame, &hdr, now),
            Err(e) => {
                self.crc_failures.incr();
                FilterResult { error: Some(e), ..FilterResult::default() }
            }
        }
    }

    /// Feeds a burst of frames, each `(receiver, rssi_dbm, frame, at)`.
    ///
    /// [`FilteringService::on_frame`] once per entry, in order: one
    /// call, and one result `Vec`, per burst.
    pub fn on_batch(&mut self, frames: &[FrameArrival]) -> Vec<FilterResult> {
        frames.iter().map(|f| self.on_frame(f.receiver, f.rssi_dbm, &f.frame, f.at)).collect()
    }

    /// Feeds one frame whose fixed header was already validated (the
    /// zero-copy fast path: only the CRC remains to check, and the
    /// payload is sliced out of `frame` without copying).
    fn apply(
        &mut self,
        receiver: ReceiverId,
        rssi_dbm: f64,
        frame: &FrameBytes,
        hdr: &FrameHeader,
        now: SimTime,
    ) -> FilterResult {
        let mut result = FilterResult::default();
        let msg = match DataMessage::decode_validated(frame, hdr) {
            Ok(msg) => msg,
            Err(e) => {
                self.crc_failures.incr();
                result.error = Some(e);
                return result;
            }
        };
        result.observation =
            Some(Observation { sensor: msg.stream().sensor(), receiver, rssi_dbm, at: now });

        let stream = msg.stream().to_raw();
        let state = self.streams.entry(stream).or_default();
        result.row = state.row;
        let seq = msg.seq();

        if state.is_stale(seq) || state.is_buffered(seq) {
            self.duplicates.incr();
            return result;
        }

        let head_before = state.head_deadline();
        let released = Delivery { msg, first_received_at: now, delivered_at: now };
        match state.last_delivered {
            None => {
                // First message of the stream: deliver whatever seq it has.
                state.last_delivered = Some(seq);
                result.deliveries.extend(Some(released));
                state.drain_ready(now, &mut result.deliveries);
            }
            Some(last) => {
                let expected = last.next();
                if seq == expected {
                    state.last_delivered = Some(seq);
                    result.deliveries.extend(Some(released));
                    state.drain_ready(now, &mut result.deliveries);
                } else if last.distance_to(seq) > 0
                    && last.distance_to(seq) as u32 > u32::from(self.config.restart_distance)
                {
                    // Far ahead: treat as a restarted stream.
                    self.restarts.incr();
                    state.buffer.clear();
                    state.last_delivered = Some(seq);
                    result.deliveries.extend(Some(released));
                } else {
                    // A gap: hold for reordering.
                    self.reordered.incr();
                    state.insert_buffered(Buffered {
                        msg: released.msg,
                        first_received_at: now,
                        deadline: now.saturating_add(self.config.reorder_timeout),
                    });
                    if state.buffer.len() > self.config.max_buffered_per_stream {
                        self.gaps_accepted.incr();
                        state.force_head(now, &mut result.deliveries);
                    }
                }
            }
        }
        let head_after = state.head_deadline();
        reindex(&mut self.deadlines, stream, head_before, head_after);
        self.delivered.add(result.deliveries.len() as u64);
        result
    }

    /// Releases buffered messages whose reorder deadline has passed,
    /// accepting the gaps before them.
    ///
    /// Streams flush in ascending stream-id order, each stream's
    /// releases together.
    ///
    /// Only the streams the deadline index says are due are visited —
    /// the same deliveries, in the same order, as walking every resident
    /// stream (a flush on one stream never moves another's head), at a
    /// cost proportional to what is due rather than to what is resident.
    /// Allocates nothing when nothing is due.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Delivery> {
        let mut due: Vec<u32> =
            self.deadlines.range(..=(now, u32::MAX)).map(|&(_, stream)| stream).collect();
        due.sort_unstable();
        let mut out = Vec::new();
        for stream in due {
            #[expect(
                clippy::expect_used,
                reason = "the deadline index names resident streams only"
            )]
            let state = self.streams.get_mut(&stream).expect("indexed streams are resident");
            let head_before = state.head_deadline();
            while state.head_deadline().is_some_and(|deadline| deadline <= now) {
                self.gaps_accepted.incr();
                state.force_head(now, &mut out);
            }
            reindex(&mut self.deadlines, stream, head_before, state.head_deadline());
        }
        self.delivered.add(out.len() as u64);
        out
    }

    /// The earliest buffer-head deadline, for scheduling the next
    /// [`FilteringService::on_tick`]: the first entry of the deadline
    /// index, so the cost does not depend on how many streams are
    /// resident.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.deadlines.first().map(|&(deadline, _)| deadline)
    }

    /// Messages released downstream.
    pub fn delivered_count(&self) -> u64 {
        self.delivered.get()
    }

    /// Duplicate frames eliminated.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates.get()
    }

    /// Frames rejected by CRC/decode.
    pub fn crc_failure_count(&self) -> u64 {
        self.crc_failures.get()
    }

    /// Frames that arrived out of order and were buffered.
    pub fn reordered_count(&self) -> u64 {
        self.reordered.get()
    }

    /// Gaps accepted (messages given up as lost).
    pub fn gap_count(&self) -> u64 {
        self.gaps_accepted.get()
    }

    /// Stream restarts detected.
    pub fn restart_count(&self) -> u64 {
        self.restarts.get()
    }

    /// Number of streams currently tracked.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Remembers `row` as `stream`'s dispatch row, handed back in the
    /// [`FilterResult`] of each of the stream's later frames. A stream
    /// this service does not track is left untracked.
    pub(crate) fn remember_row(&mut self, stream: StreamId, row: RowId) {
        if let Some(state) = self.streams.get_mut(&stream.to_raw()) {
            state.row = Some(row);
        }
    }
}

/// The pre-index implementation, kept as the oracle the deadline index
/// is tested against.
#[cfg(test)]
impl FilteringService {
    /// What the deadline index must hold: every stream's buffer head,
    /// found by walking all resident streams.
    fn scan_heads(&self) -> BTreeSet<(SimTime, u32)> {
        self.streams
            .iter()
            .filter_map(|(&stream, s)| s.head_deadline().map(|deadline| (deadline, stream)))
            .collect()
    }

    /// `on_tick` as a full scan in ascending stream-id order (the map
    /// iterates in hash order, so the scan sorts first).
    fn on_tick_scan(&mut self, now: SimTime) -> Vec<Delivery> {
        let mut ids: Vec<u32> = self.streams.keys().copied().collect();
        ids.sort_unstable();
        let mut out = Vec::new();
        for id in ids {
            let state = self.streams.get_mut(&id).expect("the id was just read");
            while state.buffer.first().is_some_and(|b| b.deadline <= now) {
                self.gaps_accepted.incr();
                state.force_head(now, &mut out);
            }
        }
        self.delivered.add(out.len() as u64);
        self.deadlines = self.scan_heads();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_wire::{StreamId, StreamIndex};

    fn svc() -> FilteringService {
        FilteringService::new(FilterConfig::default())
    }

    fn stream() -> StreamId {
        StreamId::new(SensorId::new(7).unwrap(), StreamIndex::new(0))
    }

    fn frame_vec(seq: u16) -> Vec<u8> {
        DataMessage::builder(stream())
            .seq(SequenceNumber::new(seq))
            .payload(vec![seq as u8])
            .build()
            .unwrap()
            .encode_to_vec()
    }

    fn frame(seq: u16) -> FrameBytes {
        FrameBytes::from(frame_vec(seq))
    }

    fn rx(n: u32) -> ReceiverId {
        ReceiverId::new(n)
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut f = svc();
        for i in 0..10u16 {
            let r = f.on_frame(rx(0), -40.0, &frame(i), SimTime::from_millis(i as u64));
            assert_eq!(r.deliveries.len(), 1, "seq {i}");
            assert_eq!(r.deliveries[0].msg.seq().as_u16(), i);
        }
        assert_eq!(f.delivered_count(), 10);
        assert_eq!(f.duplicate_count(), 0);
    }

    #[test]
    fn duplicates_from_overlapping_receivers_eliminated() {
        let mut f = svc();
        let fr = frame(0);
        assert_eq!(f.on_frame(rx(0), -40.0, &fr, SimTime::ZERO).deliveries.len(), 1);
        for r in 1..5u32 {
            let res = f.on_frame(rx(r), -50.0, &fr, SimTime::from_micros(r as u64));
            assert!(res.deliveries.is_empty());
            assert!(res.observation.is_some(), "duplicates still feed location");
        }
        assert_eq!(f.duplicate_count(), 4);
        assert_eq!(f.delivered_count(), 1);
    }

    #[test]
    fn corrupted_frame_rejected_without_observation() {
        let mut f = svc();
        let mut fr = frame_vec(0);
        let last = fr.len() - 1;
        fr[last] ^= 0xFF;
        let r = f.on_frame(rx(0), -40.0, &fr.into(), SimTime::ZERO);
        assert!(r.deliveries.is_empty());
        assert!(r.observation.is_none());
        assert!(r.error.is_some());
        assert_eq!(f.crc_failure_count(), 1);
    }

    #[test]
    fn out_of_order_within_timeout_reordered() {
        let mut f = svc();
        f.on_frame(rx(0), -40.0, &frame(0), SimTime::ZERO);
        // 2 arrives before 1.
        let r2 = f.on_frame(rx(0), -40.0, &frame(2), SimTime::from_millis(1));
        assert!(r2.deliveries.is_empty());
        let r1 = f.on_frame(rx(0), -40.0, &frame(1), SimTime::from_millis(2));
        let seqs: Vec<u16> = r1.deliveries.iter().map(|d| d.msg.seq().as_u16()).collect();
        assert_eq!(seqs, vec![1, 2], "gap fill drains the buffer in order");
        assert_eq!(f.reordered_count(), 1);
        assert_eq!(f.gap_count(), 0);
    }

    #[test]
    fn gap_accepted_after_timeout() {
        let mut f = svc();
        f.on_frame(rx(0), -40.0, &frame(0), SimTime::ZERO);
        f.on_frame(rx(0), -40.0, &frame(2), SimTime::from_millis(1)); // 1 lost
        assert_eq!(f.next_deadline(), Some(SimTime::from_millis(51)));
        assert!(f.on_tick(SimTime::from_millis(50)).is_empty(), "not due yet");
        let out = f.on_tick(SimTime::from_millis(51));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.seq().as_u16(), 2);
        assert_eq!(f.gap_count(), 1);
        // Late arrival of 1 is now stale.
        let late = f.on_frame(rx(0), -40.0, &frame(1), SimTime::from_millis(60));
        assert!(late.deliveries.is_empty());
        assert_eq!(f.duplicate_count(), 1);
    }

    #[test]
    fn delivery_keeps_first_arrival_time() {
        let mut f = svc();
        f.on_frame(rx(0), -40.0, &frame(0), SimTime::ZERO);
        f.on_frame(rx(0), -40.0, &frame(2), SimTime::from_millis(5));
        let out = f.on_tick(SimTime::from_millis(60));
        assert_eq!(out[0].first_received_at, SimTime::from_millis(5));
        assert_eq!(out[0].delivered_at, SimTime::from_millis(60));
    }

    #[test]
    fn sequence_wraparound_is_seamless() {
        let mut f = svc();
        for i in 0..10u32 {
            let seq = 65_530u16.wrapping_add(i as u16);
            let r = f.on_frame(rx(0), -40.0, &frame(seq), SimTime::from_millis(u64::from(i)));
            assert_eq!(r.deliveries.len(), 1, "seq {seq}");
        }
        assert_eq!(f.delivered_count(), 10);
        assert_eq!(f.duplicate_count(), 0);
        assert_eq!(f.restart_count(), 0);
    }

    #[test]
    fn reorder_across_wraparound() {
        let mut f = svc();
        f.on_frame(rx(0), -40.0, &frame(65_535), SimTime::ZERO);
        // 1 arrives before 0 (both after the wrap).
        let r = f.on_frame(rx(0), -40.0, &frame(1), SimTime::from_millis(1));
        assert!(r.deliveries.is_empty());
        let r = f.on_frame(rx(0), -40.0, &frame(0), SimTime::from_millis(2));
        let seqs: Vec<u16> = r.deliveries.iter().map(|d| d.msg.seq().as_u16()).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn distant_jump_is_a_restart() {
        let mut f = svc();
        f.on_frame(rx(0), -40.0, &frame(0), SimTime::ZERO);
        let r = f.on_frame(rx(0), -40.0, &frame(10_000), SimTime::from_millis(1));
        assert_eq!(r.deliveries.len(), 1);
        assert_eq!(f.restart_count(), 1);
        // Stream continues from the new position.
        let r = f.on_frame(rx(0), -40.0, &frame(10_001), SimTime::from_millis(2));
        assert_eq!(r.deliveries.len(), 1);
    }

    #[test]
    fn buffer_overflow_forces_progress() {
        let mut f = FilteringService::new(FilterConfig {
            max_buffered_per_stream: 4,
            ..FilterConfig::default()
        });
        f.on_frame(rx(0), -40.0, &frame(0), SimTime::ZERO);
        // Leave a gap at 1, then pile on 2..=6: the fifth buffered
        // message exceeds the cap and forces the head out.
        let mut forced = Vec::new();
        for i in 2..=6u16 {
            let r = f.on_frame(rx(0), -40.0, &frame(i), SimTime::from_millis(i as u64));
            forced.extend(r.deliveries);
        }
        assert!(!forced.is_empty());
        assert_eq!(forced[0].msg.seq().as_u16(), 2);
        assert!(f.gap_count() >= 1);
    }

    #[test]
    fn streams_are_independent() {
        let mut f = svc();
        let other = StreamId::new(SensorId::new(8).unwrap(), StreamIndex::new(0));
        let m1: FrameBytes = DataMessage::builder(other)
            .seq(SequenceNumber::new(0))
            .build()
            .unwrap()
            .encode_to_vec()
            .into();
        f.on_frame(rx(0), -40.0, &frame(0), SimTime::ZERO);
        let r = f.on_frame(rx(0), -40.0, &m1, SimTime::ZERO);
        assert_eq!(r.deliveries.len(), 1, "same seq on a different stream is not a dup");
        assert_eq!(f.stream_count(), 2);
        assert_eq!(f.duplicate_count(), 0);
    }

    #[test]
    fn observation_carries_receiver_and_rssi() {
        let mut f = svc();
        let r = f.on_frame(rx(3), -62.5, &frame(0), SimTime::from_millis(9));
        let obs = r.observation.unwrap();
        assert_eq!(obs.receiver, rx(3));
        assert_eq!(obs.rssi_dbm, -62.5);
        assert_eq!(obs.sensor.as_u32(), 7);
        assert_eq!(obs.at, SimTime::from_millis(9));
    }

    #[test]
    fn deliveries_iterate_the_same_by_value_and_by_reference() {
        let delivery = |seq: u16| Delivery {
            msg: DataMessage::builder(stream()).seq(SequenceNumber::new(seq)).build().unwrap(),
            first_received_at: SimTime::from_millis(u64::from(seq)),
            delivered_at: SimTime::from_millis(u64::from(seq) + 1),
        };
        for n in [0u16, 1, 2, 5] {
            let want: Vec<Delivery> = (0..n).map(delivery).collect();
            let mut held = Deliveries::default();
            held.extend(want.iter().cloned());
            assert_eq!(held.len(), want.len());
            assert_eq!(held.is_empty(), want.is_empty());
            assert!(held.iter().eq(want.iter()), "iter(), n={n}");
            assert!((&held).into_iter().eq(want.iter()), "by reference, n={n}");
            for (i, d) in want.iter().enumerate() {
                assert_eq!(&held[i], d, "index {i}, n={n}");
            }
            assert_eq!(held.into_iter().collect::<Vec<_>>(), want, "by value, n={n}");
        }
    }

    #[test]
    #[should_panic]
    fn deliveries_index_past_the_end_panics() {
        let _ = &Deliveries::default()[0];
    }

    #[test]
    fn batch_matches_per_frame() {
        // A messy burst — duplicates, a reorder gap, a corrupt frame —
        // produces the same per-frame results and the same counters
        // whether fed through `on_batch` or `on_frame` one at a time.
        let mut corrupt = frame_vec(9);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let arrivals: Vec<FrameArrival> = [frame(0), frame(0), frame(2), corrupt.into(), frame(1)]
            .into_iter()
            .enumerate()
            .map(|(i, fr)| FrameArrival {
                receiver: rx(i as u32 % 2),
                rssi_dbm: -40.0 - i as f64,
                frame: fr,
                at: SimTime::from_millis(i as u64),
            })
            .collect();

        let mut batched = svc();
        let batch_results = batched.on_batch(&arrivals);

        let mut single = svc();
        let frame_results: Vec<FilterResult> = arrivals
            .iter()
            .map(|a| single.on_frame(a.receiver, a.rssi_dbm, &a.frame, a.at))
            .collect();

        assert_eq!(batch_results.len(), frame_results.len());
        for (i, (b, s)) in batch_results.iter().zip(&frame_results).enumerate() {
            let project = |r: &FilterResult| {
                (
                    r.deliveries
                        .iter()
                        .map(|d| (d.msg.seq().as_u16(), d.msg.payload().to_vec()))
                        .collect::<Vec<_>>(),
                    r.observation.map(|o| (o.receiver, o.sensor.as_u32())),
                    r.error.is_some(),
                )
            };
            assert_eq!(project(b), project(s), "frame {i} diverged");
        }
        assert_eq!(batched.delivered_count(), single.delivered_count());
        assert_eq!(batched.duplicate_count(), single.duplicate_count());
        assert_eq!(batched.crc_failure_count(), single.crc_failure_count());
        assert_eq!(batched.reordered_count(), single.reordered_count());
        assert_eq!(batched.gap_count(), single.gap_count());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use garnet_wire::{StreamId, StreamIndex};
    use proptest::prelude::*;

    /// The frame for `(stream index, sequence)`.
    fn frame_of(stream: u8, seq: u16) -> FrameBytes {
        let stream =
            StreamId::new(SensorId::new(1 + u32::from(stream)).unwrap(), StreamIndex::new(0));
        DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .build()
            .unwrap()
            .encode_to_vec()
            .into()
    }

    // The deadline index against the scan it replaced: two services fed
    // the same interleaving of `on_frame`/`on_batch`/`on_tick` — one
    // ticking through the index, one through the full scan — must agree
    // on every result, and after every step the index must hold exactly
    // the buffer heads a scan finds.
    proptest! {
        #[test]
        fn deadline_index_matches_the_full_scan(
            ops in proptest::collection::vec((0u8..12, 0u8..4, 0u8..12, 0u64..40), 1..250),
        ) {
            let config = FilterConfig { max_buffered_per_stream: 3, ..FilterConfig::default() };
            let mut indexed = FilteringService::new(config);
            let mut oracle = FilteringService::new(config);
            // Each stream's next in-order sequence, starting just short
            // of the 16-bit wrap.
            let mut next = [65_530u16; 4];
            let mut now = SimTime::ZERO;
            let mut pick = |stream: u8, how: u8| -> FrameBytes {
                let cursor = &mut next[usize::from(stream)];
                let seq = match how {
                    // In order.
                    0..=4 => {
                        *cursor = cursor.wrapping_add(1);
                        cursor.wrapping_sub(1)
                    }
                    // A stale retransmit, or a late gap fill.
                    5 => cursor.wrapping_sub(1),
                    6 => cursor.wrapping_sub(3),
                    // One sequence lost for good.
                    7 => {
                        *cursor = cursor.wrapping_add(2);
                        cursor.wrapping_sub(1)
                    }
                    // Displaced: ahead of sequences still to come (the
                    // far ones pile up behind the gap until the buffer
                    // overflows and forces its head).
                    8 => cursor.wrapping_add(1),
                    9 | 10 => cursor.wrapping_add(u16::from(how)),
                    // Far ahead: a restart, clearing whatever is held.
                    _ => {
                        *cursor = cursor.wrapping_add(5_001);
                        cursor.wrapping_sub(1)
                    }
                };
                frame_of(stream, seq)
            };
            let same = |a: &FilterResult, b: &FilterResult| {
                a.deliveries.iter().eq(b.deliveries.iter())
                    && a.observation == b.observation
                    && a.error.is_some() == b.error.is_some()
            };
            let mut ops = ops.into_iter();
            while let Some((kind, stream, how, dt)) = ops.next() {
                now += SimDuration::from_millis(dt);
                match kind {
                    0..=7 => {
                        let fr = pick(stream, how);
                        let a = indexed.on_frame(ReceiverId::new(0), -40.0, &fr, now);
                        let b = oracle.on_frame(ReceiverId::new(0), -40.0, &fr, now);
                        prop_assert!(same(&a, &b), "on_frame diverged at {now:?}");
                    }
                    8 | 9 => {
                        // The next few ops' frames, as one batch.
                        let batch: Vec<FrameArrival> = ops
                            .by_ref()
                            .take(1 + usize::from(how) % 5)
                            .map(|(_, stream, how, _)| FrameArrival {
                                receiver: ReceiverId::new(1),
                                rssi_dbm: -50.0,
                                frame: pick(stream, how),
                                at: now,
                            })
                            .collect();
                        let a = indexed.on_batch(&batch);
                        let b = oracle.on_batch(&batch);
                        prop_assert_eq!(a.len(), b.len());
                        let agree = a.iter().zip(&b).all(|(a, b)| same(a, b));
                        prop_assert!(agree, "on_batch diverged at {now:?}");
                    }
                    _ => {
                        let (a, b) = (indexed.on_tick(now), oracle.on_tick_scan(now));
                        prop_assert_eq!(a, b, "on_tick diverged at {:?}", now);
                    }
                }
                let heads = indexed.scan_heads();
                let earliest = heads.first().map(|&(deadline, _)| deadline);
                prop_assert_eq!(indexed.next_deadline(), earliest);
                prop_assert_eq!(&indexed.deadlines, &heads, "index drifted from the heads");
                prop_assert_eq!(oracle.scan_heads(), heads, "the services' buffers differ");
            }
            // Flush both; the books must close identically.
            let end = now + SimDuration::from_secs(3_600);
            prop_assert_eq!(indexed.on_tick(end), oracle.on_tick_scan(end));
            prop_assert_eq!(indexed.next_deadline(), None);
            for count in [
                FilteringService::delivered_count,
                FilteringService::duplicate_count,
                FilteringService::reordered_count,
                FilteringService::gap_count,
                FilteringService::restart_count,
            ] {
                prop_assert_eq!(count(&indexed), count(&oracle));
            }
        }
    }

    // Simulate receiver duplication/reordering of an in-order source and
    // verify exactly-once, in-order delivery of everything that arrives
    // in some copy.
    proptest! {
        #[test]
        fn exactly_once_in_order(
            n in 1u16..80,
            dup_mask in proptest::collection::vec(0u8..3, 80),
            swap_mask in proptest::collection::vec(proptest::bool::ANY, 80),
        ) {
            let stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
            // Build the arrival schedule: each message may appear 1-3
            // times; adjacent pairs may swap.
            let mut arrivals: Vec<u16> = Vec::new();
            for i in 0..n {
                for _ in 0..=(dup_mask[i as usize] % 3) {
                    arrivals.push(i);
                }
            }
            let mut k = 0;
            while k + 1 < arrivals.len() {
                if swap_mask[k % swap_mask.len()] {
                    arrivals.swap(k, k + 1);
                }
                k += 2;
            }

            let arrivals_first = arrivals[0];
            let mut f = FilteringService::new(FilterConfig::default());
            let mut delivered: Vec<u16> = Vec::new();
            let mut t = SimTime::ZERO;
            for seq in arrivals {
                let fr: FrameBytes = DataMessage::builder(stream)
                    .seq(SequenceNumber::new(seq))
                    .build()
                    .unwrap()
                    .encode_to_vec()
                    .into();
                t += garnet_simkit::SimDuration::from_micros(100);
                for d in f.on_frame(ReceiverId::new(0), -40.0, &fr, t).deliveries {
                    delivered.push(d.msg.seq().as_u16());
                }
            }
            // Flush whatever is still buffered.
            for d in f.on_tick(SimTime::from_secs(3600)) {
                delivered.push(d.msg.seq().as_u16());
            }
            // Every message delivered exactly once…
            let mut sorted = delivered.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), delivered.len(), "duplicate delivery: {:?}", delivered);
            // …in serial order…
            for w in delivered.windows(2) {
                prop_assert!(
                    SequenceNumber::new(w[1]).is_after(SequenceNumber::new(w[0])),
                    "out of order: {:?}", delivered
                );
            }
            // …and complete *from the first-delivered sequence on*: a
            // message reordered ahead of the true stream start defines
            // the start, and anything serially before it is
            // indistinguishable from a stale retransmit and is dropped.
            let first = arrivals_first;
            prop_assert_eq!(delivered.len() as u16, n - first);
            prop_assert_eq!(delivered[0], first);
        }
    }
}
