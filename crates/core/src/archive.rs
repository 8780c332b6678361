//! The durable-archive tap: every boundary input the facade accepts —
//! raw frames, maintenance ticks, standalone acknowledgements — is
//! encoded as a `garnet-store` [`ArchiveRecord`] and appended to an
//! append-only segmented log, so a crash-recovered node can rebuild its
//! dispatch state by replaying the log into a fresh [`crate::middleware::Garnet`]
//! (see `Garnet::replay_archive`).
//!
//! The tap sits at the facade boundary, *before* admission, so a
//! boundary log replays identically batched or per-frame.
//!
//! The tap commits once per facade call: the call's records — a whole
//! `on_frames` burst, or the single record of a tick or an ack — are
//! encoded into one reused buffer and handed to the sink together, one
//! store write per segment touched.
//!
//! The log is written inline, on the caller's thread. A store that fails never stalls delivery: the records it
//! refuses are counted, not retried, and the [`ArchiveLedger`] accounts
//! for every offered record as `archived | dropped`. A store that blocks
//! blocks the caller. `Garnet::shutdown` syncs the log and hands a
//! custom store back to its slot.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use garnet_simkit::trace::{
    TraceConfig, TraceEventKind, TraceOutcome, TraceRecord, TraceSnapshot, TraceStage, Tracer,
};
use garnet_simkit::SimTime;
use garnet_store::{
    ArchiveRecord, FileStore, FrameArchive, MemStore, RecoveryReport, SegmentStore, StoreError,
};

/// A shared slot a test (or embedder) can plant a custom
/// [`SegmentStore`] in and recover it from after shutdown — the hook
/// that lets crash/replay tests inspect the exact bytes the facade
/// persisted.
pub type StoreSlot = Arc<Mutex<Option<Box<dyn SegmentStore>>>>;

/// Creates an empty [`StoreSlot`] holding `store`.
pub fn store_slot(store: Box<dyn SegmentStore>) -> StoreSlot {
    Arc::new(Mutex::new(Some(store)))
}

/// Where the archive log lives.
#[derive(Clone, Debug, Default)]
pub enum ArchiveBackend {
    /// In-process memory (discarded at shutdown unless recovered via a
    /// slot) — the bench/test default.
    #[default]
    Memory,
    /// One `segment-*.log` file per segment under this directory.
    Directory(PathBuf),
    /// A caller-provided store, taken from the slot at `Garnet::new`
    /// and returned to it at shutdown.
    Custom(StoreSlot),
}

/// Durable-archive configuration (`GarnetConfig.archive`).
#[derive(Clone, Debug)]
pub struct ArchiveConfig {
    /// Storage backend.
    pub backend: ArchiveBackend,
    /// Segment roll-over threshold in bytes.
    pub segment_max_bytes: u64,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig { backend: ArchiveBackend::Memory, segment_max_bytes: 4 << 20 }
    }
}

/// Per-record accounting: every record offered to the tap ends up in
/// exactly one of `archived | dropped`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArchiveLedger {
    /// Records offered to the tap.
    pub offered: u64,
    /// Records the store accepted: handed to the OS, so they survive
    /// this process; they survive the machine after the next successful
    /// `Garnet::flush_archive` or `Garnet::shutdown`.
    pub archived: u64,
    /// Records refused (failed store, disabled sink).
    pub dropped: u64,
    /// Always 0: appends complete inside the call that offers them.
    /// Kept for the benchmark's ledger check.
    pub pending: u64,
    /// Completed flushes.
    pub flushes: u64,
    /// Flushes that failed.
    pub flush_failures: u64,
}

/// The facade's archive tap. Owns the sink, the recovery report from
/// opening the backend, the [`ArchiveLedger`], and its own flight
/// recorder (separate from the router's tracer, so turning the archive
/// on never moves a router trace line).
#[derive(Debug)]
pub(crate) struct ArchiveService {
    /// The log behind the tap; `None` when the backend could not be
    /// opened, or after shutdown: delivery continues, every record
    /// counts as dropped.
    sink: Option<FrameArchive>,
    config: ArchiveConfig,
    recovery: RecoveryReport,
    /// The last store failure (open error or store error).
    pub(crate) last_error: Option<StoreError>,
    offered: u64,
    archived: u64,
    dropped: u64,
    flushes: u64,
    flush_failures: u64,
    tracer: Tracer,
    /// The burst being committed: its records encoded back to back, and
    /// the offset one past each. Reused across calls.
    burst: Vec<u8>,
    burst_ends: Vec<usize>,
}

impl ArchiveService {
    /// Opens the backend and recovers any existing log (truncating at
    /// the first corrupt record). A backend that fails to open disables
    /// the tap — the middleware runs, the ledger records the loss.
    pub(crate) fn new(config: ArchiveConfig, trace_capacity: usize) -> Self {
        let mut last_error = None;
        let store: Option<Box<dyn SegmentStore>> = match &config.backend {
            ArchiveBackend::Memory => Some(Box::new(MemStore::new())),
            ArchiveBackend::Directory(dir) => match FileStore::open(dir) {
                Ok(fs) => Some(Box::new(fs)),
                Err(e) => {
                    last_error = Some(e);
                    None
                }
            },
            ArchiveBackend::Custom(slot) => {
                // A poisoned slot is opened like any other: whatever a
                // panicking holder left in the store, `FrameArchive::open`
                // recovers it as it recovers a log torn by a crash.
                slot.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .map(|s| s as Box<dyn SegmentStore>)
            }
        };
        let opened = store.and_then(|s| match FrameArchive::open(s, config.segment_max_bytes) {
            Ok(pair) => Some(pair),
            Err(e) => {
                last_error = Some(e);
                None
            }
        });
        let (sink, recovery) = match opened {
            Some((archive, recovery)) => (Some(archive), recovery),
            None => (None, RecoveryReport::default()),
        };
        ArchiveService {
            sink,
            config,
            recovery,
            last_error,
            offered: 0,
            archived: 0,
            dropped: 0,
            flushes: 0,
            flush_failures: 0,
            tracer: Tracer::new(TraceConfig { capacity: trace_capacity }),
            burst: Vec::new(),
            burst_ends: Vec::new(),
        }
    }

    /// The recovery report from opening the backend: what survived, what
    /// was truncated, the per-stream high-water marks.
    pub(crate) fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Current per-record accounting.
    pub(crate) fn ledger(&self) -> ArchiveLedger {
        ArchiveLedger {
            offered: self.offered,
            archived: self.archived,
            dropped: self.dropped,
            pending: 0,
            flushes: self.flushes,
            flush_failures: self.flush_failures,
        }
    }

    /// This tap's flight recorder (empty at trace capacity 0).
    pub(crate) fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Appends one facade call's records as a single commit: one store
    /// write per segment touched. The store takes a prefix of the burst;
    /// the rest counts dropped. Records one hop per record in the tap's
    /// tracer.
    pub(crate) fn append(
        &mut self,
        records: impl Iterator<Item = ArchiveRecord> + Clone,
        now: SimTime,
    ) {
        self.burst.clear();
        self.burst_ends.clear();
        for record in records.clone() {
            record.encode_into(&mut self.burst);
            self.burst_ends.push(self.burst.len());
        }
        let accepted = match &mut self.sink {
            Some(archive) => {
                let (landed, result) = archive.append_burst(&self.burst, &self.burst_ends);
                if let Err(e) = result {
                    self.last_error = Some(e);
                }
                landed
            }
            None => 0,
        };
        self.offered += self.burst_ends.len() as u64;
        self.archived += accepted as u64;
        self.dropped += (self.burst_ends.len() - accepted) as u64;
        if self.tracer.is_enabled() {
            for (i, record) in records.enumerate() {
                self.tracer.record(|| TraceRecord {
                    stream: record.stream().map(|s| s.to_raw()),
                    ..TraceRecord::new(
                        now.as_micros(),
                        TraceStage::Archive,
                        TraceEventKind::ArchiveAppend,
                        if i < accepted { TraceOutcome::Delivered } else { TraceOutcome::Shed },
                    )
                });
            }
        }
    }

    /// Syncs the store. Returns `false` when the sync fails or the tap
    /// is disabled (counted in the ledger); delivery is unaffected
    /// either way.
    pub(crate) fn flush(&mut self, now: SimTime) -> bool {
        let ok = match &mut self.sink {
            Some(archive) => match archive.sync() {
                Ok(()) => true,
                Err(e) => {
                    self.last_error = Some(e);
                    false
                }
            },
            None => false,
        };
        if ok {
            self.flushes += 1;
        } else {
            self.flush_failures += 1;
        }
        self.tracer.record(|| {
            TraceRecord::new(
                now.as_micros(),
                TraceStage::Archive,
                TraceEventKind::ArchiveFlush,
                if ok { TraceOutcome::Delivered } else { TraceOutcome::Failed },
            )
        });
        ok
    }

    /// Syncs and retires the sink, returning the store to an
    /// [`ArchiveBackend::Custom`] slot. Returns `false` when the final
    /// sync failed. A tap that is already disabled has nothing to sync:
    /// every record it saw is accounted for as dropped.
    pub(crate) fn shutdown(&mut self, now: SimTime) -> bool {
        if self.sink.is_none() {
            return true;
        }
        let flushed = self.flush(now);
        if let (Some(archive), ArchiveBackend::Custom(slot)) =
            (self.sink.take(), &self.config.backend)
        {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(archive.into_store());
        }
        flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_store_slot_is_opened_and_refilled() {
        let slot = store_slot(Box::new(MemStore::new()));
        let holder = Arc::clone(&slot);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = holder.lock();
            panic!("a holder of the slot panics");
        }));
        assert!(slot.is_poisoned());
        let backend = ArchiveBackend::Custom(Arc::clone(&slot));
        let mut archive =
            ArchiveService::new(ArchiveConfig { backend, ..ArchiveConfig::default() }, 0);
        assert!(archive.sink.is_some(), "the store in a poisoned slot opens");
        assert!(archive.shutdown(SimTime::ZERO));
        let refilled = slot.lock().unwrap_or_else(PoisonError::into_inner).is_some();
        assert!(refilled, "shutdown puts the store back");
    }
}
