//! No silent data corruption: every fault the [`FaultyStore`] injects —
//! torn writes, bit flips on the write path, short reads and bit flips
//! on the read path — is caught by the record CRC/length checks before
//! a decoded frame can escape. A corrupt byte stream either truncates
//! cleanly at the recovery scan or fails a replay read loudly; it never
//! round-trips into an [`ArchiveRecord`] that differs from an appended
//! one. And grouping records into bursts changes how many store writes
//! carry them, never the bytes stored.

use garnet_simkit::SimTime;
use garnet_store::{
    ArchiveRecord, FaultPlan, FaultyStore, FrameArchive, MemStore, SegmentId, SegmentStore,
    StoreError,
};
use garnet_wire::{
    AckStatus, DataMessage, FrameBytes, RequestId, SensorId, SequenceNumber, StreamId, StreamIndex,
};
use proptest::prelude::*;

fn frame_rec(sensor: u32, seq: u16, at: u64) -> ArchiveRecord {
    frame_with(sensor, seq, at, vec![seq as u8, sensor as u8])
}

fn frame_with(sensor: u32, seq: u16, at: u64, payload: Vec<u8>) -> ArchiveRecord {
    let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
    let wire = DataMessage::builder(stream)
        .seq(SequenceNumber::new(seq))
        .payload(payload)
        .build()
        .unwrap()
        .encode_to_vec();
    ArchiveRecord::frame(0, -50.0, FrameBytes::from(wire), SimTime::from_micros(at))
}

/// Appends `n` frame records through a fault-injecting store, then
/// recovers and replays. Returns (appended cleanly, recovered records,
/// injected fault total).
fn run_faulty(
    seed: u64,
    n: u16,
    plan: FaultPlan,
    segment_max: u64,
) -> (Vec<ArchiveRecord>, Vec<ArchiveRecord>, u64) {
    let mut store = FaultyStore::new(MemStore::new(), FaultPlan { seed, ..plan });
    let mut appended = Vec::new();
    {
        let mut current: u64 = 0;
        let mut current_len: u64 = 0;
        for seq in 0..n {
            let rec = frame_rec(1 + u32::from(seq % 3), seq, u64::from(seq) * 10);
            let bytes = rec.encode();
            if current_len > 0 && current_len + bytes.len() as u64 > segment_max {
                current += 1;
                current_len = 0;
            }
            match store.append(current, &bytes) {
                Ok(()) => {
                    current_len += bytes.len() as u64;
                    appended.push(rec);
                }
                Err(StoreError::Stalled) => break,
                Err(e) => panic!("unexpected store error: {e}"),
            }
        }
    }
    let injected = store.ledger().total();
    // Recovery runs on the *clean* inner store (the crash-consistent
    // bytes actually on "disk"), then replay reads back through it.
    let mut inner = store.into_inner();
    let report = FrameArchive::recover(&mut inner).unwrap();
    let (mut archive, reopened) = FrameArchive::open(Box::new(inner), segment_max).unwrap();
    assert_eq!(reopened.records, report.records, "recovery is idempotent");
    let recovered = archive.read_all().expect("recovered log replays cleanly");
    (appended, recovered, injected)
}

/// Encodes `records` back to back, with the offset one past each.
fn encode_burst(records: &[ArchiveRecord]) -> (Vec<u8>, Vec<usize>) {
    let (mut bytes, mut ends) = (Vec::new(), Vec::new());
    for rec in records {
        rec.encode_into(&mut bytes);
        ends.push(bytes.len());
    }
    (bytes, ends)
}

/// Every segment's bytes, by id.
fn segment_bytes(archive: FrameArchive) -> Vec<(SegmentId, Vec<u8>)> {
    let mut store = archive.into_store();
    let ids = store.segments().unwrap();
    ids.into_iter().map(|id| (id, store.read(id).unwrap())).collect()
}

/// The record mix the facade logs: frames of varying payload length
/// (`kind` ≥ 2), ticks and acks.
fn mixed_rec(kind: u8, i: u16) -> ArchiveRecord {
    let at = SimTime::from_micros(u64::from(i));
    match kind {
        0 => ArchiveRecord::tick(at),
        1 => ArchiveRecord::ack(RequestId::new(u32::from(i)), AckStatus::Applied, at),
        len => frame_with(1, i, u64::from(i), vec![i as u8; usize::from(len)]),
    }
}

proptest! {
    /// Group commit changes the number of store writes, not the stored
    /// bytes: for any record sequence, any split into bursts and any
    /// (small) segment bound, burst appends leave exactly the segments
    /// that record-by-record appends leave — which are those of the
    /// roll rule written out by hand below.
    #[test]
    fn burst_appends_store_the_same_bytes_as_per_record_appends(
        kinds in proptest::collection::vec(0u8..40, 1..60),
        splits in proptest::collection::vec(1usize..12, 1..8),
        segment_max in 1u64..400,
    ) {
        let records: Vec<ArchiveRecord> =
            kinds.iter().enumerate().map(|(i, &k)| mixed_rec(k, i as u16)).collect();

        let mut by_hand: Vec<(SegmentId, Vec<u8>)> = vec![(0, Vec::new())];
        for rec in &records {
            let bytes = rec.encode();
            let (id, current) = by_hand.last().unwrap();
            if !current.is_empty() && (current.len() + bytes.len()) as u64 > segment_max {
                by_hand.push((id + 1, Vec::new()));
            }
            by_hand.last_mut().unwrap().1.extend_from_slice(&bytes);
        }

        let open = || FrameArchive::open(Box::new(MemStore::new()), segment_max).unwrap().0;
        let mut per_record = open();
        for rec in &records {
            per_record.append_bytes(&rec.encode()).unwrap();
        }
        let mut bursts = open();
        let (mut from, mut k) = (0, 0);
        while from < records.len() {
            let to = (from + splits[k % splits.len()]).min(records.len());
            let (bytes, ends) = encode_burst(&records[from..to]);
            let (landed, result) = bursts.append_burst(&bytes, &ends);
            prop_assert_eq!((landed, result), (to - from, Ok(())));
            (from, k) = (to, k + 1);
        }
        prop_assert_eq!(bursts.appended(), records.len() as u64);
        prop_assert_eq!(bursts.current_segment(), per_record.current_segment());
        prop_assert_eq!(&segment_bytes(per_record), &by_hand);
        prop_assert_eq!(&segment_bytes(bursts), &by_hand);
    }

    /// Write-path faults: whatever the fault mix, every recovered
    /// record is byte-identical to a record that was actually appended,
    /// in appended order (a prefix, possibly with one corrupted-segment
    /// gap cut) — torn or flipped records are truncated away, never
    /// decoded.
    #[test]
    fn write_faults_never_surface_as_decoded_frames(
        seed in 0u64..1000,
        torn in 0u16..300,
        flip in 0u16..300,
        n in 10u16..60,
    ) {
        let plan = FaultPlan {
            torn_write_per_mille: torn,
            bit_flip_per_mille: flip,
            ..FaultPlan::default()
        };
        let (appended, recovered, injected) = run_faulty(seed, n, plan, 256);
        // Every recovered record is one of the appended ones, and the
        // sequence is order-preserving (a subsequence of the appends).
        let mut cursor = 0usize;
        for rec in &recovered {
            let pos = appended[cursor..].iter().position(|a| a == rec);
            prop_assert!(
                pos.is_some(),
                "recovered record not among the (remaining) appended ones: {rec:?}"
            );
            cursor += pos.unwrap() + 1;
        }
        if injected == 0 {
            prop_assert_eq!(recovered.len(), appended.len(), "clean run loses nothing");
        }
    }

    /// Read-path faults: a short read or read-side bit flip makes
    /// replay fail loudly (or, when the cut luckily lands on a record
    /// boundary, yields a clean prefix) — never a record that was not
    /// appended.
    #[test]
    fn read_faults_fail_loudly_or_yield_a_clean_prefix(
        seed in 0u64..1000,
        short in 200u16..1000,
        n in 5u16..40,
    ) {
        // Clean write path…
        let mut store = MemStore::new();
        let mut appended = Vec::new();
        let mut buf = Vec::new();
        for seq in 0..n {
            let rec = frame_rec(1, seq, u64::from(seq));
            rec.encode_into(&mut buf);
            appended.push(rec);
        }
        store.append(0, &buf).unwrap();
        // …faulty read path.
        let plan = FaultPlan { seed, short_read_per_mille: short, ..FaultPlan::default() };
        let (mut archive, _) =
            FrameArchive::open(Box::new(FaultyStore::new(store, plan)), 1 << 20).unwrap();
        match archive.read_range(0, 0) {
            Ok(records) => {
                prop_assert!(records.len() <= appended.len());
                prop_assert_eq!(&records[..], &appended[..records.len()],
                    "a successful read is a byte-identical prefix");
            }
            Err(e) => {
                // Loud failure is the expected path for a mid-record cut.
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
            }
        }
    }
}

/// Exhaustive single-fault check: one torn append at every possible cut
/// point is always detected — the archive never resurrects the torn
/// record, and never loses the acknowledged ones before it.
#[test]
fn every_torn_tail_is_cut_exactly_at_the_last_acknowledged_record() {
    let good: Vec<ArchiveRecord> = (0..3u16).map(|s| frame_rec(1, s, u64::from(s))).collect();
    let torn = frame_rec(1, 3, 3).encode();
    for cut in 0..torn.len() {
        let mut store = MemStore::new();
        let mut buf = Vec::new();
        for rec in &good {
            rec.encode_into(&mut buf);
        }
        buf.extend_from_slice(&torn[..cut]);
        store.append(0, &buf).unwrap();
        let report = FrameArchive::recover(&mut store).unwrap();
        assert_eq!(report.records, 3, "cut at {cut}: acknowledged records survive");
        assert_eq!(report.truncation.is_some(), cut > 0, "cut at {cut}");
        let (mut archive, _) = FrameArchive::open(Box::new(store), 1 << 20).unwrap();
        assert_eq!(archive.read_all().unwrap(), good, "cut at {cut}: torn record resurrected");
    }
}

/// The same for a burst: one store write carrying four records, torn at
/// every possible byte offset. Recovery returns exactly the records
/// wholly before the cut — a torn burst loses its torn record and those
/// after it, nothing before — and the reopened archive resumes at the
/// cut, so re-sending the lost ones leaves a clean, complete log.
#[test]
fn a_torn_burst_loses_exactly_the_records_at_and_after_the_cut() {
    let good: Vec<ArchiveRecord> = (0..3u16).map(|s| frame_rec(1, s, u64::from(s))).collect();
    let burst: Vec<ArchiveRecord> = (3..7u16).map(|s| mixed_rec((s % 4) as u8 * 5, s)).collect();
    let (good_bytes, _) = encode_burst(&good);
    let (burst_bytes, ends) = encode_burst(&burst);

    // FaultyStore draws its cut from the seed: walk seeds until every
    // offset of the burst has been the cut.
    let mut cuts_seen = vec![false; burst_bytes.len()];
    for seed in 0..20_000 {
        if cuts_seen.iter().all(|&seen| seen) {
            break;
        }
        let mut base = MemStore::new();
        base.append(0, &good_bytes).unwrap();
        let plan = FaultPlan { seed, torn_write_per_mille: 1000, ..FaultPlan::default() };
        let mut store = FaultyStore::new(base, plan);
        store.append(0, &burst_bytes).unwrap();
        assert_eq!(store.ledger().torn_writes, 1);
        let mut store = store.into_inner();
        let cut = store.len(0).unwrap() as usize - good_bytes.len();
        if std::mem::replace(&mut cuts_seen[cut], true) {
            continue;
        }

        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let (mut archive, report) = FrameArchive::open(Box::new(store), 1 << 20).unwrap();
        assert_eq!(report.records as usize, good.len() + whole, "cut at {cut}");
        let on_boundary = cut == 0 || ends.contains(&cut);
        assert_eq!(report.truncation.is_none(), on_boundary, "cut at {cut}");

        let (bytes, ends) = encode_burst(&burst[whole..]);
        assert_eq!(archive.append_burst(&bytes, &ends), (burst.len() - whole, Ok(())));
        let all: Vec<ArchiveRecord> = good.iter().chain(&burst).cloned().collect();
        assert_eq!(archive.read_all().unwrap(), all, "cut at {cut}: resumed log");
    }
    assert!(cuts_seen.iter().all(|&seen| seen), "20 000 seeds must reach every cut point");
}
