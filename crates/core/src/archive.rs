//! The durable-archive tap: every boundary input the facade accepts —
//! raw frames, maintenance ticks, standalone acknowledgements — is
//! encoded as a `garnet-store` [`ArchiveRecord`] and appended to an
//! append-only segmented log, so a crash-recovered node can rebuild its
//! dispatch state by replaying the log into a fresh [`crate::Garnet`]
//! (see `Garnet::replay_archive`).
//!
//! The tap sits at the facade boundary, *before* admission: there is
//! one `Router`, and a [`DriverKind`] or shard layout only changes where
//! its filtering shards run, so a boundary log replays identically under
//! either kind, any shard layout, batched or per-frame. Records are
//! encoded at the tap, which also makes the logged bytes independent of
//! worker timing.
//!
//! The tap commits once per facade call: the call's records — a whole
//! `on_frames` burst, or the single record of a tick or an ack — are
//! encoded into one reused buffer and handed to the sink together, one
//! store write per segment touched.
//!
//! Storage must never stall delivery. Under the FIFO engine the log is
//! written inline (the simulation reference is single-threaded anyway);
//! under the threaded engine bursts go through the bounded
//! [`garnet_net::Archiver`] queue and are *refused* — counted, not
//! waited for — when the queue is full or the backend is wedged. The
//! [`ArchiveLedger`] accounts for every offered record as
//! `archived | dropped | pending`, and `Garnet::shutdown` flushes the
//! pending tail with a bounded timeout.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use garnet_net::{Archiver, FlushOutcome};
use garnet_simkit::trace::{
    TraceConfig, TraceEventKind, TraceOutcome, TraceRecord, TraceSnapshot, TraceStage, Tracer,
};
use garnet_simkit::SimTime;
use garnet_store::{
    ArchiveRecord, FileStore, FrameArchive, MemStore, RecoveryReport, SegmentStore, StoreError,
};

use crate::driver::DriverKind;

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
    /// and returned to it at shutdown (threaded worker permitting).
    Custom(StoreSlot),
}

/// Durable-archive configuration (`GarnetConfig.archive`).
#[derive(Clone, Debug)]
pub struct ArchiveConfig {
    /// Storage backend.
    pub backend: ArchiveBackend,
    /// Segment roll-over threshold in bytes.
    pub segment_max_bytes: u64,
    /// Most records in flight to the threaded writer (enqueued, not
    /// yet written); the records of a burst that would exceed it are
    /// refused (counted dropped) without blocking.
    pub queue_capacity: usize,
    /// Bounded wait for flush and shutdown drains.
    pub flush_timeout: Duration,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig {
            backend: ArchiveBackend::Memory,
            segment_max_bytes: 4 << 20,
            queue_capacity: 4096,
            flush_timeout: Duration::from_secs(5),
        }
    }
}

/// Per-record accounting: every record offered to the tap ends up in
/// exactly one of `archived | dropped | pending`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArchiveLedger {
    /// Records offered to the tap.
    pub offered: u64,
    /// Records the store accepted: handed to the OS, so they survive
    /// this process; they survive the machine after the next successful
    /// `Garnet::flush_archive` or `Garnet::shutdown`.
    pub archived: u64,
    /// Records refused (full queue, failed store, disabled sink).
    pub dropped: u64,
    /// Records enqueued but not yet written
    /// (`offered - archived - dropped`; nonzero only for the threaded
    /// writer between pumps).
    pub pending: u64,
    /// Completed flushes.
    pub flushes: u64,
    /// Flushes that failed or timed out.
    pub flush_failures: u64,
}

/// The write path behind the tap.
enum Sink {
    /// Synchronous append (FIFO engine).
    Inline(FrameArchive),
    /// Background writer with a bounded queue (threaded engine).
    Threaded(Archiver),
    /// The backend could not be opened (or was already shut down):
    /// delivery continues, every record counts as dropped.
    Disabled,
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Sink::Inline(_) => "Sink::Inline",
            Sink::Threaded(_) => "Sink::Threaded",
            Sink::Disabled => "Sink::Disabled",
        })
    }
}

/// The facade's archive tap. Owns the sink, the recovery report from
/// opening the backend, the [`ArchiveLedger`], and its own flight
/// recorder (separate from the router's tracer, so archive hops never
/// perturb the trace-equivalence contract across driver kinds).
#[derive(Debug)]
pub struct ArchiveService {
    sink: Sink,
    config: ArchiveConfig,
    recovery: RecoveryReport,
    /// Failure that disabled the sink (open error or store error).
    pub(crate) last_error: Option<StoreError>,
    offered: u64,
    inline_archived: u64,
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
    /// Opens the backend, recovers any existing log (truncating at the
    /// first corrupt record), and starts the writer appropriate for
    /// `driver`. A backend that fails to open degrades to
    /// [`Sink::Disabled`] — the middleware runs, the ledger records the
    /// loss.
    pub(crate) fn new(config: ArchiveConfig, driver: DriverKind, trace_capacity: usize) -> Self {
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
                slot.lock().expect("archive store slot").take().map(|s| s as Box<dyn SegmentStore>)
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
            Some((archive, recovery)) => {
                let sink = match driver {
                    DriverKind::Fifo => Sink::Inline(archive),
                    DriverKind::Threaded => {
                        Sink::Threaded(Archiver::spawn(archive, config.queue_capacity))
                    }
                };
                (sink, recovery)
            }
            None => (Sink::Disabled, RecoveryReport::default()),
        };
        ArchiveService {
            sink,
            config,
            recovery,
            last_error,
            offered: 0,
            inline_archived: 0,
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
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Current per-record accounting.
    pub fn ledger(&self) -> ArchiveLedger {
        let (archived, worker_failed, worker_flush_failures) = match &self.sink {
            Sink::Inline(_) | Sink::Disabled => (self.inline_archived, 0, 0),
            Sink::Threaded(arch) => {
                let c = arch.counters();
                (c.appended, c.failed, c.flush_failures)
            }
        };
        let dropped = self.dropped + worker_failed;
        ArchiveLedger {
            offered: self.offered,
            archived,
            dropped,
            pending: self.offered.saturating_sub(archived + dropped),
            flushes: self.flushes,
            flush_failures: self.flush_failures + worker_flush_failures,
        }
    }

    /// This tap's flight recorder (empty at trace capacity 0).
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Appends one facade call's records as a single commit (encoded
    /// here, so logged bytes never depend on writer timing): one store
    /// write per segment touched inline, one queue hand-off threaded.
    /// The sink takes a prefix of the burst; the rest counts dropped.
    /// Records one hop per record in the tap's tracer.
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
            Sink::Inline(archive) => {
                let (landed, result) = archive.append_burst(&self.burst, &self.burst_ends);
                self.inline_archived += landed as u64;
                if let Err(e) = result {
                    self.last_error = Some(e);
                }
                landed
            }
            Sink::Threaded(arch) => arch.try_append(&self.burst, &self.burst_ends),
            Sink::Disabled => 0,
        };
        self.offered += self.burst_ends.len() as u64;
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

    /// Flushes pending appends within the configured bounded timeout.
    /// Returns `false` on flush failure or timeout (counted in the
    /// ledger); delivery is unaffected either way.
    pub(crate) fn flush(&mut self, now: SimTime) -> bool {
        let ok = match &mut self.sink {
            Sink::Inline(archive) => match archive.sync() {
                Ok(()) => true,
                Err(e) => {
                    self.last_error = Some(e);
                    false
                }
            },
            Sink::Threaded(arch) => {
                matches!(arch.flush(self.config.flush_timeout), FlushOutcome::Flushed)
            }
            Sink::Disabled => false,
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

    /// Drains and retires the sink within the bounded timeout,
    /// returning the store to a [`ArchiveBackend::Custom`] slot when
    /// possible. Returns `false` when the drain timed out (pending
    /// appends may be lost; the ledger still balances).
    pub(crate) fn shutdown(&mut self, now: SimTime) -> bool {
        if matches!(self.sink, Sink::Disabled) {
            // Nothing pending: the tap already degraded (or was shut
            // down); every record is accounted for as dropped.
            return true;
        }
        let flushed = self.flush(now);
        let (archive, timed_out) = match std::mem::replace(&mut self.sink, Sink::Disabled) {
            Sink::Inline(archive) => (Some(archive), false),
            Sink::Threaded(arch) => {
                let down = arch.shutdown(self.config.flush_timeout);
                // The worker is gone: fold its final counters into the
                // service's own, so the post-shutdown ledger keeps
                // reporting what was durably appended.
                self.inline_archived += down.counters.appended;
                self.dropped += down.counters.failed;
                self.flush_failures += down.counters.flush_failures;
                (down.archive, down.timed_out)
            }
            Sink::Disabled => (None, false),
        };
        if let (Some(archive), ArchiveBackend::Custom(slot)) = (archive, &self.config.backend) {
            *slot.lock().expect("archive store slot") = Some(archive.into_store());
        }
        flushed && !timed_out
    }
}
