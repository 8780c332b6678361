//! The frame archive: segment-rolling writer, crash-recovery scan and
//! range replay.
//!
//! A [`FrameArchive`] owns a boxed [`SegmentStore`] and appends
//! [`ArchiveRecord`]s to the highest-numbered segment, rolling to a
//! fresh segment once the current one passes its size bound. Opening an
//! archive always runs the **recovery scan** first: segments are read
//! in ascending order and parsed record by record; at the first corrupt
//! or torn record the segment is truncated to its last valid byte and
//! every later segment is dropped — an acknowledged record is never
//! lost (it precedes any corruption by append order) and a torn record
//! is never resurrected (its bytes fail the CRC and are cut). The scan
//! also rebuilds the per-stream high-water marks, giving the runtime a
//! consistent `(StreamId, seq)` frontier to resume from.

use std::collections::BTreeMap;

use garnet_wire::{peek_seq, peek_stream};

use crate::record::{ArchiveRecord, RecordError, RecordView};
use crate::segment::{SegmentId, SegmentStore, StoreError};

/// Where the recovery scan cut a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncation {
    /// The segment that held the first corrupt record.
    pub segment: SegmentId,
    /// The segment's length after the cut (its valid prefix).
    pub valid_len: u64,
    /// Bytes discarded from this segment by the cut.
    pub lost_bytes: u64,
    /// Why the first invalid record failed to parse.
    pub error: RecordError,
}

/// What the recovery scan found and repaired.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Valid records across all surviving segments.
    pub records: u64,
    /// …of which frame records.
    pub frames: u64,
    /// …of which tick records.
    pub ticks: u64,
    /// …of which ack records.
    pub acks: u64,
    /// The cut, when a corrupt record was found (`None` = clean log).
    pub truncation: Option<Truncation>,
    /// Segments dropped wholesale because they followed the cut.
    pub dropped_segments: Vec<SegmentId>,
    /// Surviving segments, ascending.
    pub segments: Vec<SegmentId>,
    /// Per-stream high-water mark: the last archived sequence number of
    /// each stream (raw stream id → seq), in append order — the frontier
    /// a restarted runtime resumes from.
    pub high_water: BTreeMap<u32, u16>,
}

/// Why a replay read failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayError {
    /// The backend failed.
    Store(StoreError),
    /// A record failed to parse (replay only walks recovered archives,
    /// so this means the store corrupted data *after* recovery — e.g. a
    /// short read or read-side bit flip).
    Record {
        /// The segment holding the bad record.
        segment: SegmentId,
        /// Byte offset of the record's start within the segment.
        offset: u64,
        /// The parse failure.
        error: RecordError,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Store(e) => write!(f, "replay read failed: {e}"),
            ReplayError::Record { segment, offset, error } => {
                write!(f, "corrupt record in segment {segment} at offset {offset}: {error}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<StoreError> for ReplayError {
    fn from(e: StoreError) -> Self {
        ReplayError::Store(e)
    }
}

/// Walks `bytes` in place, handing each valid record to `visit` as a
/// borrowed view. Returns the length of the valid prefix and, when that
/// is short of `bytes`, why the record starting there failed to parse.
fn scan_records<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(RecordView<'a>),
) -> (u64, Option<RecordError>) {
    let mut offset = 0usize;
    while offset < bytes.len() {
        match RecordView::parse(&bytes[offset..]) {
            Ok((view, used)) => {
                visit(view);
                offset += used;
            }
            Err(e) => return (offset as u64, Some(e)),
        }
    }
    (offset as u64, None)
}

/// The segment-rolling archive writer/reader.
pub struct FrameArchive {
    store: Box<dyn SegmentStore>,
    segment_max_bytes: u64,
    current: SegmentId,
    current_len: u64,
    appended: u64,
}

impl std::fmt::Debug for FrameArchive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameArchive")
            .field("segment_max_bytes", &self.segment_max_bytes)
            .field("current", &self.current)
            .field("current_len", &self.current_len)
            .field("appended", &self.appended)
            .finish_non_exhaustive()
    }
}

impl FrameArchive {
    /// Opens an archive over `store`, running the recovery scan first.
    /// The writer resumes at the end of the last surviving segment.
    /// `segment_max_bytes` bounds a segment before the writer rolls to
    /// the next id (0 is treated as 1: every record gets its own
    /// segment).
    pub fn open(
        mut store: Box<dyn SegmentStore>,
        segment_max_bytes: u64,
    ) -> Result<(FrameArchive, RecoveryReport), StoreError> {
        let report = Self::recover(store.as_mut())?;
        let current = report.segments.last().copied().unwrap_or(0);
        let current_len = if report.segments.is_empty() { 0 } else { store.len(current)? };
        Ok((
            FrameArchive {
                store,
                segment_max_bytes: segment_max_bytes.max(1),
                current,
                current_len,
                appended: 0,
            },
            report,
        ))
    }

    /// The recovery scan: parses every segment in ascending order,
    /// truncates the first segment holding a corrupt record to its
    /// valid prefix, removes all later segments, and rebuilds the
    /// per-stream high-water marks from the surviving records. Each
    /// segment is validated in place — no record is copied out — so the
    /// scan holds one segment's bytes at a time and nothing per record.
    pub fn recover(store: &mut dyn SegmentStore) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport::default();
        let ids = store.segments()?;
        let mut cut_at: Option<usize> = None;
        for (i, &id) in ids.iter().enumerate() {
            let bytes = store.read(id)?;
            let (valid_len, bad) = scan_records(&bytes, |view| {
                report.records += 1;
                match view {
                    RecordView::Frame { frame, .. } => {
                        report.frames += 1;
                        if let (Some(stream), Some(seq)) = (peek_stream(frame), peek_seq(frame)) {
                            report.high_water.insert(stream.to_raw(), seq.as_u16());
                        }
                    }
                    RecordView::Tick { .. } => report.ticks += 1,
                    RecordView::Ack { .. } => report.acks += 1,
                }
            });
            if let Some(error) = bad {
                store.truncate(id, valid_len)?;
                report.truncation = Some(Truncation {
                    segment: id,
                    valid_len,
                    lost_bytes: bytes.len() as u64 - valid_len,
                    error,
                });
                report.segments.push(id);
                cut_at = Some(i + 1);
                break;
            }
            report.segments.push(id);
        }
        if let Some(from) = cut_at {
            for &id in &ids[from..] {
                store.remove(id)?;
                report.dropped_segments.push(id);
            }
        }
        Ok(report)
    }

    /// Appends one record, rolling to a new segment when the current
    /// one is full. A backend error leaves the archive usable: the
    /// caller counts the record dropped and delivery continues.
    #[cfg(test)]
    pub(crate) fn append(&mut self, rec: &ArchiveRecord) -> Result<(), StoreError> {
        self.append_bytes(&rec.encode())
    }

    /// Appends one pre-encoded record: a burst of one.
    pub fn append_bytes(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.append_burst(bytes, &[bytes.len()]).1
    }

    /// Appends a burst of pre-encoded records with one
    /// [`SegmentStore::append`] per segment touched. `bytes` holds the
    /// records back to back and `ends[i]` is the offset one past record
    /// `i` (ascending, the last equal to `bytes.len()`). Segments roll
    /// at exactly the record boundaries record-by-record appends would
    /// roll at, so the stored bytes do not depend on how the caller
    /// grouped records into bursts.
    ///
    /// Returns how many records landed — always a prefix of the burst —
    /// and the backend error that stopped the rest, if one did. The
    /// archive stays usable after an error.
    pub fn append_burst(
        &mut self,
        bytes: &[u8],
        ends: &[usize],
    ) -> (usize, Result<(), StoreError>) {
        let before = self.appended;
        let result = self.write_burst(bytes, ends);
        ((self.appended - before) as usize, result)
    }

    fn write_burst(&mut self, bytes: &[u8], ends: &[usize]) -> Result<(), StoreError> {
        // The records headed for the current segment: where they start,
        // where the last one ends, how many.
        let (mut start, mut prev, mut records) = (0, 0, 0);
        for &end in ends {
            assert!(prev <= end && end <= bytes.len(), "record ends must ascend within bytes");
            let segment_len = self.current_len + (prev - start) as u64;
            if segment_len > 0 && segment_len + (end - prev) as u64 > self.segment_max_bytes {
                self.commit(&bytes[start..prev], records)?;
                (start, records) = (prev, 0);
                self.current += 1;
                self.current_len = 0;
            }
            prev = end;
            records += 1;
        }
        self.commit(&bytes[start..prev], records)
    }

    /// Writes `records` records' worth of `bytes` to the current segment.
    fn commit(&mut self, bytes: &[u8], records: u64) -> Result<(), StoreError> {
        if records > 0 {
            self.store.append(self.current, bytes)?;
            self.current_len += bytes.len() as u64;
            self.appended += records;
        }
        Ok(())
    }

    /// Flushes the backend.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.store.sync()
    }

    /// Records appended through this handle (not counting recovered
    /// history).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The segment currently being appended to.
    pub fn current_segment(&self) -> SegmentId {
        self.current
    }

    /// Reads and decodes every record in the segment range
    /// `from..=to` (ascending; missing ids inside the range are
    /// skipped — segment ids need not be contiguous after recovery).
    pub fn read_range(
        &mut self,
        from: SegmentId,
        to: SegmentId,
    ) -> Result<Vec<ArchiveRecord>, ReplayError> {
        let ids: Vec<SegmentId> =
            self.store.segments()?.into_iter().filter(|id| (from..=to).contains(id)).collect();
        let mut out = Vec::new();
        for id in ids {
            let bytes = self.store.read(id)?;
            let (offset, bad) = scan_records(&bytes, |view| out.push(view.to_record()));
            if let Some(error) = bad {
                return Err(ReplayError::Record { segment: id, offset, error });
            }
        }
        Ok(out)
    }

    /// Every record in the archive, in append order.
    pub fn read_all(&mut self) -> Result<Vec<ArchiveRecord>, ReplayError> {
        self.read_range(SegmentId::MIN, SegmentId::MAX)
    }

    /// Gives the backend store back (to stash in a config slot or
    /// inspect after shutdown).
    pub fn into_store(self) -> Box<dyn SegmentStore> {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::MemStore;
    use garnet_simkit::SimTime;
    use garnet_wire::FrameBytes;

    fn frame_rec(stream_sensor: u32, seq: u16, at: u64) -> ArchiveRecord {
        use garnet_wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};
        let stream = StreamId::new(SensorId::new(stream_sensor).unwrap(), StreamIndex::new(0));
        let wire = DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![seq as u8])
            .build()
            .unwrap()
            .encode_to_vec();
        ArchiveRecord::frame(0, -50.0, FrameBytes::from(wire), SimTime::from_micros(at))
    }

    fn open_mem(max: u64) -> FrameArchive {
        FrameArchive::open(Box::new(MemStore::new()), max).unwrap().0
    }

    #[test]
    fn append_read_back_round_trips_in_order() {
        let mut a = open_mem(1 << 20);
        let recs = vec![
            frame_rec(1, 0, 10),
            ArchiveRecord::Tick { at_us: 20 },
            frame_rec(1, 1, 30),
            ArchiveRecord::Ack {
                at_us: 40,
                request_id: 9,
                status: garnet_wire::AckStatus::Applied,
            },
        ];
        for r in &recs {
            a.append(r).unwrap();
        }
        assert_eq!(a.read_all().unwrap(), recs);
    }

    #[test]
    fn segments_roll_at_the_size_bound() {
        let mut a = open_mem(64);
        for seq in 0..20u16 {
            a.append(&frame_rec(1, seq, u64::from(seq))).unwrap();
        }
        assert!(a.current_segment() > 0, "64-byte segments must roll over 20 records");
        // The roll is invisible to readers: everything comes back in order.
        let all = a.read_all().unwrap();
        assert_eq!(all.len(), 20);
        let seqs: Vec<u16> = all.iter().map(|r| r.seq().unwrap()).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn recovery_truncates_at_first_corruption_and_drops_later_segments() {
        // Three hand-built segments of four records each; flip one byte
        // in the middle of segment 1.
        let mut store = MemStore::new();
        for seg in 0..3u64 {
            let mut buf = Vec::new();
            for i in 0..4u16 {
                frame_rec(1, seg as u16 * 4 + i, 0).encode_into(&mut buf);
            }
            if seg == 1 {
                let cut = buf.len() / 2;
                buf[cut] ^= 0x40;
            }
            store.append(seg, &buf).unwrap();
        }

        let report = FrameArchive::recover(&mut store).unwrap();
        let t = report.truncation.expect("corruption must be found");
        assert_eq!(t.segment, 1);
        assert_eq!(report.segments, vec![0, 1], "segments after the cut are gone");
        assert_eq!(report.dropped_segments, vec![2]);
        assert!(report.records >= 4, "segment 0 fully recovered");
        assert!(report.records < 12, "corrupt tail not resurrected");
        // Re-scan is clean and idempotent.
        let again = FrameArchive::recover(&mut store).unwrap();
        assert_eq!(again.truncation, None);
        assert_eq!(again.records, report.records);
    }

    #[test]
    fn high_water_marks_track_last_archived_seq_per_stream() {
        let mut store = MemStore::new();
        let mut buf = Vec::new();
        for (sensor, seq) in [(1u32, 0u16), (2, 5), (1, 1), (2, 6), (1, 2)] {
            frame_rec(sensor, seq, 0).encode_into(&mut buf);
        }
        store.append(0, &buf).unwrap();
        let report = FrameArchive::recover(&mut store).unwrap();
        let hw: Vec<u16> = report.high_water.values().copied().collect();
        assert_eq!(hw, vec![2, 6]);
        assert_eq!(report.frames, 5);
    }

    #[test]
    fn open_resumes_appending_after_recovery() {
        let mut store = MemStore::new();
        store.append(0, &frame_rec(1, 0, 0).encode()).unwrap();
        // A torn tail: half a record.
        let torn = frame_rec(1, 1, 1).encode();
        store.append(0, &torn[..torn.len() / 2]).unwrap();

        let (mut a, report) = FrameArchive::open(Box::new(store), 1 << 20).unwrap();
        assert_eq!(report.records, 1);
        assert!(report.truncation.is_some());
        a.append(&frame_rec(1, 1, 2)).unwrap();
        let all = a.read_all().unwrap();
        assert_eq!(all.len(), 2, "the re-sent record lands after the cut, no gap, no ghost");
        assert_eq!(all[1].seq(), Some(1));
    }
}
