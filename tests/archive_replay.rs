//! The durable archive's end-to-end contract:
//!
//! 1. **Deterministic replay** — the boundary log a live facade writes
//!    replays into a fresh facade and rebuilds dispatch state
//!    bit-identically, whatever `on_frames` chunking wrote the log.
//! 2. **Crash recovery** — a store that dies mid-run loses only the
//!    unacknowledged tail: recovery never loses a frame the store
//!    acknowledged and never resurrects a torn one, and the
//!    `archive.*` ledger accounts for every offered record.
//! 3. **Graceful degradation** — a store that fails never stalls
//!    delivery, and `Garnet::shutdown` reports a failed final sync as
//!    the typed `GarnetError::ArchiveFlushFailed`.
//! 4. **Group commit** — the tap commits once per facade call, and the
//!    ledger still counts records: a burst the sink takes only part of
//!    is accounted for record by record, and what lands is a prefix.

use std::sync::{Arc, Mutex};

use garnet::core::consumer::{Consumer, ConsumerCtx};
use garnet::core::filtering::Delivery;
use garnet::core::middleware::{Garnet, GarnetConfig, GarnetError};
use garnet::core::TopicFilter;
use garnet::core::{store_slot, ArchiveBackend, ArchiveConfig, StoreSlot};
use garnet::radio::ReceiverId;
use garnet::simkit::trace::TraceOutcome;
use garnet::simkit::SimTime;
use garnet::store::{
    ArchiveRecord, FaultPlan, FaultyStore, FileStore, FrameArchive, MemStore, SegmentStore,
};
use garnet::wire::{
    AckStatus, DataMessage, RequestId, SensorId, SequenceNumber, StreamId, StreamIndex,
};

use proptest::prelude::*;

/// The byte-exact facade delivery log: (raw stream, seq, payload).
type FacadeLog = Vec<(u32, u16, Vec<u8>)>;

struct RecordingConsumer {
    log: Arc<Mutex<FacadeLog>>,
}

impl Consumer for RecordingConsumer {
    fn name(&self) -> &str {
        "recorder"
    }
    fn on_data(&mut self, d: &Delivery, _ctx: &mut ConsumerCtx) {
        self.log.lock().unwrap().push((
            d.msg.stream().to_raw(),
            d.msg.seq().as_u16(),
            d.msg.payload().to_vec(),
        ));
    }
}

/// Everything the archive must reconstruct: the byte-exact delivery
/// log and the per-stage counters. (The metrics report's queue-depth
/// high-water legitimately depends on arrival chunking, so dispatch
/// state is compared through log + counters.)
#[derive(Debug, PartialEq, Eq)]
struct DispatchState {
    log: FacadeLog,
    delivered: u64,
    duplicates: u64,
    crc_failures: u64,
    dispatched: u64,
    orphaned: u64,
}

fn frame(sensor: u32, seq: u16) -> Vec<u8> {
    let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
    DataMessage::builder(stream)
        .seq(SequenceNumber::new(seq))
        .payload(vec![seq as u8, sensor as u8])
        .build()
        .unwrap()
        .encode_to_vec()
}

/// A messy interleaved burst over streams 1..=sensors with drops and
/// duplicates steered by the masks.
fn burst_schedule(sensors: u32, n: u16, drop_mask: &[u8], dup_mask: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for seq in 0..n {
        for sensor in 1..=sensors {
            let i = (seq as usize + sensor as usize) % drop_mask.len();
            if drop_mask[i] == 0 {
                continue;
            }
            let copies = 1 + usize::from(dup_mask[i % dup_mask.len()] % 2);
            for _ in 0..copies {
                frames.push(frame(sensor, seq));
            }
        }
    }
    frames
}

fn config(archive: Option<ArchiveConfig>) -> GarnetConfig {
    GarnetConfig { archive, ..GarnetConfig::default() }
}

fn fresh_garnet(config: GarnetConfig) -> (Garnet, Arc<Mutex<FacadeLog>>) {
    let mut g = Garnet::new(config);
    let token = g.issue_default_token("recorder");
    let log = Arc::new(Mutex::new(Vec::new()));
    let id = g
        .register_consumer(Box::new(RecordingConsumer { log: Arc::clone(&log) }), &token, 0)
        .unwrap();
    for s in (2..=6u32).step_by(2) {
        g.subscribe(id, TopicFilter::Sensor(SensorId::new(s).unwrap()), &token).unwrap();
    }
    (g, log)
}

fn dispatch_state(g: &Garnet, log: &Arc<Mutex<FacadeLog>>) -> DispatchState {
    let f = g.filtering();
    DispatchState {
        log: log.lock().unwrap().clone(),
        delivered: f.delivered_count(),
        duplicates: f.duplicate_count(),
        crc_failures: f.crc_failure_count(),
        dispatched: g.dispatching().dispatched_count(),
        orphaned: g.orphanage().total_taken(),
    }
}

/// Runs a live facade with the archive tap on a slot-planted store:
/// chunked frame bursts (each chunk at its own instant), a standalone
/// ack, a maintenance tick, then a clean shutdown. Returns the
/// recovered boundary records and the live run's dispatch state.
fn live_run(
    cfg: GarnetConfig,
    slot: StoreSlot,
    frames: &[Vec<u8>],
    chunks: &[usize],
) -> (Vec<ArchiveRecord>, DispatchState) {
    let (mut g, log) = fresh_garnet(cfg);
    let (mut i, mut k) = (0usize, 0usize);
    while i < frames.len() {
        let take = chunks[k % chunks.len()].min(frames.len() - i);
        let at = SimTime::from_millis(1 + k as u64);
        let batch: Vec<_> =
            frames[i..i + take].iter().map(|b| (ReceiverId::new(0), -45.0, b.clone())).collect();
        g.on_frames(batch, at);
        i += take;
        k += 1;
    }
    g.on_standalone_ack(RequestId::new(42), AckStatus::Applied, SimTime::from_secs(50));
    g.on_tick(SimTime::from_secs(60));
    let state = dispatch_state(&g, &log);
    g.shutdown(SimTime::from_secs(61)).expect("clean store, shutdown flushes");
    let store = slot.lock().unwrap().take().expect("store returned to the slot");
    let (mut archive, report) = FrameArchive::open(store, 1 << 20).unwrap();
    assert!(report.truncation.is_none(), "clean run must recover without truncation");
    (archive.read_all().unwrap(), state)
}

fn custom_archive(slot: &StoreSlot) -> ArchiveConfig {
    ArchiveConfig { backend: ArchiveBackend::Custom(Arc::clone(slot)), ..ArchiveConfig::default() }
}

proptest! {
    /// The tentpole acceptance property: any configuration's log,
    /// replayed into any configuration's fresh facade, rebuilds the
    /// live run's dispatch state bit-identically — and the replaying
    /// facade's own archive tap writes a record-identical log (replay
    /// of a replay is a fixed point).
    #[test]
    fn replay_rebuilds_dispatch_state_bit_identically(
        sensors in 2u32..6,
        n in 4u16..16,
        drop_mask in proptest::collection::vec(0u8..8, 16),
        dup_mask in proptest::collection::vec(0u8..4, 16),
        chunks in proptest::collection::vec(1usize..9, 1..8),
    ) {
        let frames = burst_schedule(sensors, n, &drop_mask, &dup_mask);
        if frames.is_empty() {
            return; // masks dropped everything; nothing to compare
        }
        let slot = store_slot(Box::new(MemStore::new()));
        let (records, live) =
            live_run(config(Some(custom_archive(&slot))), slot, &frames, &chunks);

        let replay_slot = store_slot(Box::new(MemStore::new()));
        let (mut g, log) = fresh_garnet(config(Some(custom_archive(&replay_slot))));
        g.replay_archive(&records);
        let replayed = dispatch_state(&g, &log);
        prop_assert_eq!(&live, &replayed, "replay diverged");

        // The replaying facade archived the same boundary inputs: its
        // log is record-identical to the one it was fed.
        g.shutdown(SimTime::from_secs(120)).expect("replay shutdown flushes");
        let store = replay_slot.lock().unwrap().take().expect("replay store returned");
        let (mut archive, _) = FrameArchive::open(store, 1 << 20).unwrap();
        prop_assert_eq!(archive.read_all().unwrap(), records, "re-archived log diverged");
    }

    /// Crash recovery through the facade: a store that tears writes and
    /// then dies mid-run yields a recovered log that is an
    /// order-preserving subsequence of what was offered — acknowledged
    /// frames before the crash survive, torn ones never resurrect —
    /// and the ledger accounts for every offered record.
    #[test]
    fn crash_recovery_never_loses_acknowledged_nor_resurrects_torn_frames(
        seed in 0u64..500,
        torn in 0u16..400,
        die_after in 1u64..60,
        n in 4u16..20,
    ) {
        let faulty = FaultyStore::new(
            MemStore::new(),
            FaultPlan {
                seed,
                torn_write_per_mille: torn,
                stall_after_appends: Some(die_after),
                ..FaultPlan::default()
            },
        );
        let slot = store_slot(Box::new(faulty));
        let frames = burst_schedule(4, n, &[1, 1, 0, 1], &[0, 1]);
        let (mut g, _log) =
            fresh_garnet(config(Some(custom_archive(&slot))));
        let offered: Vec<_> = frames
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let at = SimTime::from_millis(1 + i as u64);
                g.on_frames(vec![(ReceiverId::new(0), -45.0, b.clone())], at);
                ArchiveRecord::frame(0, -45.0, b.clone().into(), at)
            })
            .collect();

        let ledger = g.archive_ledger().unwrap();
        prop_assert_eq!(ledger.offered, frames.len() as u64);
        prop_assert_eq!(ledger.archived + ledger.dropped + ledger.pending, ledger.offered);
        prop_assert_eq!(ledger.pending, 0, "inline sink leaves nothing pending");
        // Delivery never stalled on the dying store.
        prop_assert!(g.filtering().delivered_count() > 0);

        // Shutdown may legitimately report the dead store; recover the
        // bytes either way (the slot gets the store back regardless).
        let _ = g.shutdown(SimTime::from_secs(10));
        let mut store = slot.lock().unwrap().take().expect("store returned to the slot");
        // Recovery repairs the log it scans, so the second facade below
        // gets its own copy of the bytes as the crash left them.
        let mut crashed = MemStore::new();
        for id in store.segments().unwrap() {
            crashed.append(id, &store.read(id).unwrap()).unwrap();
        }
        let (mut archive, report) = FrameArchive::open(store, 1 << 20).unwrap();
        let recovered = archive.read_all().unwrap();
        prop_assert!(recovered.len() as u64 <= ledger.archived);
        // A facade restarted over those bytes reports the same scan:
        // record counts, the truncation point, per-stream high water.
        let crashed = store_slot(Box::new(crashed));
        let restarted = Garnet::new(config(Some(custom_archive(&crashed))));
        prop_assert_eq!(restarted.archive_recovery(), Some(&report));
        // Order-preserving subsequence of the offered records: nothing
        // reordered, nothing invented, torn tails truncated away.
        let mut cursor = 0usize;
        for rec in &recovered {
            let pos = offered[cursor..].iter().position(|o| o == rec);
            prop_assert!(pos.is_some(), "recovered a record that was never offered: {:?}", rec);
            cursor += pos.unwrap() + 1;
        }
        // With no faults at all, the acknowledged log IS the offered log.
        if torn == 0 && die_after >= offered.len() as u64 {
            prop_assert_eq!(report.truncation.is_none(), true);
            prop_assert_eq!(recovered, offered);
        }
    }
}

#[test]
fn recovery_reports_per_stream_high_water_marks() {
    let slot = store_slot(Box::new(MemStore::new()));
    let frames: Vec<_> =
        (0..10u16).map(|s| frame(1, s)).chain((0..5u16).map(|s| frame(2, s))).collect();
    let (records, _) = live_run(config(Some(custom_archive(&slot))), slot, &frames, &[3]);
    assert!(!records.is_empty());

    // Re-open the log (write it into a fresh store) and inspect marks.
    let mut store = MemStore::new();
    let mut buf = Vec::new();
    for r in &records {
        r.encode_into(&mut buf);
    }
    store.append(0, &buf).unwrap();
    let report = FrameArchive::recover(&mut store).unwrap();
    let s1 = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0)).to_raw();
    let s2 = StreamId::new(SensorId::new(2).unwrap(), StreamIndex::new(0)).to_raw();
    assert_eq!(report.high_water.get(&s1), Some(&9));
    assert_eq!(report.high_water.get(&s2), Some(&4));
}

#[test]
fn stalled_archive_degrades_gracefully_and_ledger_balances() {
    // A backend that refuses every append from the start: the facade
    // keeps delivering, counts every record dropped, and shuts down
    // with the typed error (nothing flushed).
    let faulty = FaultyStore::new(
        MemStore::new(),
        FaultPlan { stall_after_appends: Some(0), ..FaultPlan::default() },
    );
    let slot = store_slot(Box::new(faulty));
    let (mut g, log) = fresh_garnet(config(Some(custom_archive(&slot))));
    let batch: Vec<_> = (0..20u16).map(|s| (ReceiverId::new(0), -45.0, frame(2, s))).collect();
    g.on_frames(batch, SimTime::from_millis(1));

    assert_eq!(log.lock().unwrap().len(), 20, "delivery must not wait on storage");
    let ledger = g.archive_ledger().unwrap();
    assert_eq!(ledger.offered, 20);
    assert_eq!(ledger.archived, 0);
    assert_eq!(ledger.dropped, 20);
    assert_eq!(ledger.pending, 0);

    assert!(matches!(
        g.flush_archive(SimTime::from_millis(2)),
        Err(GarnetError::ArchiveFlushFailed)
    ));
    assert!(matches!(g.shutdown(SimTime::from_millis(3)), Err(GarnetError::ArchiveFlushFailed)));
    // The facade still answers reads after the failed drain.
    assert_eq!(g.archive_ledger().unwrap().dropped, 20);
}

/// One burst of `n` frames of sensor 2 (subscribed), seqs from `from`.
fn burst_of(from: u16, n: u16) -> Vec<(ReceiverId, f64, Vec<u8>)> {
    (from..from + n).map(|s| (ReceiverId::new(0), -45.0, frame(2, s))).collect()
}

/// The frame records `burst_of(from, n)` offered at `at` must log as.
fn records_of(from: u16, n: u16, at: SimTime) -> Vec<ArchiveRecord> {
    (from..from + n).map(|s| ArchiveRecord::frame(0, -45.0, frame(2, s).into(), at)).collect()
}

fn read_log(store: Box<dyn SegmentStore>) -> Vec<ArchiveRecord> {
    FrameArchive::open(store, 1 << 20).unwrap().0.read_all().unwrap()
}

fn recovered_log(slot: &StoreSlot) -> Vec<ArchiveRecord> {
    read_log(slot.lock().unwrap().take().expect("store returned to the slot"))
}

#[test]
fn store_stalling_mid_burst_is_accounted_per_record_on_fifo() {
    // Segments of exactly three records, and a store that dies after
    // two writes: a 20-record burst is five segment writes, so its
    // first six records land and the other fourteen are dropped.
    let t1 = SimTime::from_millis(1);
    let record_len = records_of(0, 1, t1)[0].encoded_len() as u64;
    let faulty = FaultyStore::new(
        MemStore::new(),
        FaultPlan { stall_after_appends: Some(2), ..FaultPlan::default() },
    );
    let slot = store_slot(Box::new(faulty));
    let archive = ArchiveConfig { segment_max_bytes: 3 * record_len, ..custom_archive(&slot) };
    let (mut g, log) = fresh_garnet(GarnetConfig { trace_capacity: 128, ..config(Some(archive)) });

    g.on_frames(burst_of(0, 20), t1);
    assert_eq!(log.lock().unwrap().len(), 20, "every frame delivered");
    let l = g.archive_ledger().unwrap();
    assert_eq!((l.offered, l.archived, l.dropped, l.pending), (20, 6, 14, 0));
    // The tap's flight recorder sees one hop per record, refused ones
    // shed.
    let hops = g.archive_trace_snapshot().records;
    let shed = hops.iter().filter(|h| h.outcome == TraceOutcome::Shed).count();
    assert_eq!((hops.len(), shed), (20, 14));

    assert!(matches!(g.shutdown(SimTime::from_millis(2)), Err(GarnetError::ArchiveFlushFailed)));
    assert_eq!(recovered_log(&slot), records_of(0, 6, t1), "the burst's prefix survives");
}

#[test]
fn tick_and_ack_between_bursts_land_in_append_order() {
    // Once into a store handed over in a slot, once into the file
    // backend the facade opens for itself.
    let slot = store_slot(Box::new(MemStore::new()));
    let dir = std::env::temp_dir().join(format!("garnet-archive-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let file_archive = ArchiveConfig {
        backend: ArchiveBackend::Directory(dir.clone()),
        ..ArchiveConfig::default()
    };
    for (archive, on_disk) in [(custom_archive(&slot), false), (file_archive, true)] {
        let (mut g, log) = fresh_garnet(config(Some(archive)));
        let at = |ms| SimTime::from_millis(ms);
        g.on_frames(burst_of(0, 5), at(1));
        g.on_tick(at(2));
        g.on_standalone_ack(RequestId::new(7), AckStatus::Deferred, at(3));
        g.on_frames(burst_of(5, 5), at(4));
        g.shutdown(at(5)).expect("clean store, shutdown flushes");

        let mut expected = records_of(0, 5, at(1));
        expected.push(ArchiveRecord::tick(at(2)));
        expected.push(ArchiveRecord::ack(RequestId::new(7), AckStatus::Deferred, at(3)));
        expected.extend(records_of(5, 5, at(4)));
        let recovered = if on_disk {
            read_log(Box::new(FileStore::open(&dir).unwrap()))
        } else {
            recovered_log(&slot)
        };
        assert_eq!(recovered, expected, "on_disk={on_disk}");
        let l = g.archive_ledger().unwrap();
        assert_eq!(
            (l.offered, l.archived, l.dropped, l.pending),
            (12, 12, 0, 0),
            "on_disk={on_disk}"
        );
        // The tap costs no delivery.
        assert_eq!(log.lock().unwrap().len(), 10, "on_disk={on_disk}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn archive_metrics_stage_reports_the_ledger() {
    let slot = store_slot(Box::new(MemStore::new()));
    let (mut g, _log) = fresh_garnet(config(Some(custom_archive(&slot))));
    g.on_frames(vec![(ReceiverId::new(0), -45.0, frame(2, 0))], SimTime::from_millis(1));
    g.on_tick(SimTime::from_secs(1));
    let report = g.metrics().report();
    assert!(report.contains("archive.offered"), "report:\n{report}");
    assert!(report.contains("archive.archived"));
    assert!(report.contains("archive.recovered_records"));
    let ledger = g.archive_ledger().unwrap();
    assert_eq!(ledger.offered, 2, "one frame + one tick");
    assert_eq!(ledger.archived, 2);
}
