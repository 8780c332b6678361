//! Background archive writer for the threaded deployment.
//!
//! The durable archive (`garnet-store`) is deliberately runtime-free;
//! this module supplies the runtime half for live deployments: a single
//! worker thread that owns a [`FrameArchive`] and drains a command
//! channel of pre-encoded record bursts, one command and one
//! [`FrameArchive::append_burst`] per burst. The facade encodes records
//! *before* enqueueing, so the bytes that reach the log are independent
//! of worker timing — archive contents stay deterministic even though
//! append completion is not.
//!
//! Back-pressure is explicit and lossy by design: at most
//! `queue_capacity` records are in flight, [`Archiver::try_append`]
//! refuses whatever part of a burst would exceed that, and the caller
//! counts those records as dropped. Delivery to consumers never waits
//! on storage — the graceful-degradation contract of
//! `GarnetConfig.archive`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use garnet_store::{FrameArchive, StoreError};

/// Commands drained by the worker, in submission order.
enum Cmd {
    /// Append a burst of pre-encoded records (`ends[i]` is the offset
    /// one past record `i`, as [`FrameArchive::append_burst`] takes it).
    Append { bytes: Vec<u8>, ends: Vec<usize> },
    /// Sync the backend and publish the flush id as completed.
    Flush(u64),
    /// Drain, sync, deposit the archive and retire.
    Shutdown,
}

/// Worker-side progress published under the shared mutex.
#[derive(Debug, Default)]
struct WorkerState {
    /// Records the store accepted (the caller's `archived` count).
    appended: u64,
    /// Records the store refused (counted dropped).
    failed: u64,
    /// Highest flush id whose sync completed (successfully or not).
    flushed: u64,
    /// Flush syncs that returned a store error.
    flush_failures: u64,
    /// Worker has drained, synced and deposited the archive.
    retired: bool,
    /// The archive, handed back at retirement for store recovery.
    archive: Option<FrameArchive>,
    /// Most recent store error, for diagnostics.
    last_error: Option<StoreError>,
}

#[derive(Debug, Default)]
struct Shared {
    state: Mutex<WorkerState>,
    cond: Condvar,
}

/// Point-in-time copy of the worker's progress counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArchiverCounters {
    /// Records the store accepted: handed to the OS, durable after the
    /// next successful flush.
    pub appended: u64,
    /// Records that errored at the store.
    pub failed: u64,
    /// Flush syncs that errored at the store.
    pub flush_failures: u64,
}

/// Outcome of a bounded-wait flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushOutcome {
    /// All appends enqueued before the flush are durable.
    Flushed,
    /// The sync ran but the backend reported an error.
    Failed,
    /// The worker did not complete the flush within the timeout.
    TimedOut,
}

/// What `shutdown` managed to salvage.
#[derive(Debug)]
pub struct ArchiverShutdown {
    /// The archive (and its backend store), when the worker retired in
    /// time; `None` when it was wedged and had to be abandoned.
    pub archive: Option<FrameArchive>,
    /// True when the worker missed the shutdown deadline.
    pub timed_out: bool,
    /// Final progress counters (best effort when timed out).
    pub counters: ArchiverCounters,
}

/// Handle to the background archive writer.
pub struct Archiver {
    tx: Sender<Cmd>,
    shared: Arc<Shared>,
    /// Most records allowed in flight (enqueued, not yet appended or
    /// failed).
    capacity: u64,
    /// Records ever enqueued.
    enqueued: u64,
    next_flush: AtomicU64,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Archiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Archiver").field("counters", &self.counters()).finish()
    }
}

impl Archiver {
    /// Spawns the worker thread around `archive`, with at most
    /// `queue_capacity` records in flight (minimum 1).
    pub fn spawn(archive: FrameArchive, queue_capacity: usize) -> Archiver {
        // The channel carries one command per burst and needs no bound
        // of its own: `try_append` bounds the records behind it.
        let (tx, rx) = channel();
        let shared = Arc::new(Shared::default());
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("garnet-archiver".into())
            .spawn(move || run_worker(archive, rx, worker_shared))
            .expect("spawn archiver worker");
        Archiver {
            tx,
            shared,
            capacity: queue_capacity.max(1) as u64,
            enqueued: 0,
            next_flush: AtomicU64::new(0),
            worker: Some(worker),
        }
    }

    /// Enqueues a burst of pre-encoded records (`bytes`/`ends` as
    /// [`FrameArchive::append_burst`] takes them) as one command, never
    /// blocking. Returns how many records were accepted: the leading
    /// ones that fit under the in-flight bound — none when the worker
    /// is gone. The caller counts the rest dropped.
    pub fn try_append(&mut self, bytes: &[u8], ends: &[usize]) -> usize {
        let done = {
            let st = self.shared.state.lock().expect("archiver state");
            st.appended + st.failed
        };
        let room = self.capacity.saturating_sub(self.enqueued - done);
        let take = room.min(ends.len() as u64) as usize;
        if take == 0 {
            return 0;
        }
        let cmd =
            Cmd::Append { bytes: bytes[..ends[take - 1]].to_vec(), ends: ends[..take].to_vec() };
        if self.tx.send(cmd).is_err() {
            return 0;
        }
        self.enqueued += take as u64;
        take
    }

    /// Progress counters published by the worker.
    pub fn counters(&self) -> ArchiverCounters {
        let st = self.shared.state.lock().expect("archiver state");
        ArchiverCounters {
            appended: st.appended,
            failed: st.failed,
            flush_failures: st.flush_failures,
        }
    }

    /// Most recent store error seen by the worker, if any.
    pub fn last_error(&self) -> Option<StoreError> {
        self.shared.state.lock().expect("archiver state").last_error.clone()
    }

    /// Waits (bounded) until every append enqueued before this call is
    /// durable, then syncs the backend.
    pub fn flush(&self, timeout: Duration) -> FlushOutcome {
        let id = self.next_flush.fetch_add(1, Ordering::Relaxed) + 1;
        let deadline = std::time::Instant::now() + timeout;
        if self.tx.send(Cmd::Flush(id)).is_err() {
            // The worker died without retiring (a panic in the store):
            // nothing will ever complete this flush.
            return FlushOutcome::TimedOut;
        }
        let mut st = self.shared.state.lock().expect("archiver state");
        loop {
            if st.flushed >= id || st.retired {
                return if st.flush_failures > 0 || st.last_error.is_some() {
                    FlushOutcome::Failed
                } else {
                    FlushOutcome::Flushed
                };
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return FlushOutcome::TimedOut;
            }
            let (guard, _timeout) =
                self.shared.cond.wait_timeout(st, deadline - now).expect("archiver state");
            st = guard;
        }
    }

    /// Retires the worker: drains pending appends, syncs, and hands the
    /// archive back. If the worker misses the deadline (e.g. wedged in
    /// a stalled store write) it is detached and the archive abandoned.
    pub fn shutdown(mut self, timeout: Duration) -> ArchiverShutdown {
        // Best effort: dropping `tx` (when `self` drops) disconnects the
        // channel, which the worker also treats as shutdown.
        let deadline = std::time::Instant::now() + timeout;
        let _ = self.tx.send(Cmd::Shutdown);
        let (archive, timed_out, counters) = {
            let mut st = self.shared.state.lock().expect("archiver state");
            loop {
                if st.retired {
                    let counters = ArchiverCounters {
                        appended: st.appended,
                        failed: st.failed,
                        flush_failures: st.flush_failures,
                    };
                    break (st.archive.take(), false, counters);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    let counters = ArchiverCounters {
                        appended: st.appended,
                        failed: st.failed,
                        flush_failures: st.flush_failures,
                    };
                    break (None, true, counters);
                }
                let (guard, _timeout) =
                    self.shared.cond.wait_timeout(st, deadline - now).expect("archiver state");
                st = guard;
            }
        };
        if let Some(worker) = self.worker.take() {
            if timed_out {
                // Wedged in the store: detach rather than hang the
                // caller. The thread exits on its own once the store
                // call returns and it sees the disconnected channel.
                drop(worker);
            } else {
                let _ = worker.join();
            }
        }
        ArchiverShutdown { archive, timed_out, counters }
    }
}

fn apply_append(archive: &mut FrameArchive, bytes: &[u8], ends: &[usize], st: &Mutex<WorkerState>) {
    let (landed, result) = archive.append_burst(bytes, ends);
    let mut st = st.lock().expect("archiver state");
    st.appended += landed as u64;
    st.failed += (ends.len() - landed) as u64;
    if let Err(e) = result {
        st.last_error = Some(e);
    }
}

fn run_worker(mut archive: FrameArchive, rx: Receiver<Cmd>, shared: Arc<Shared>) {
    loop {
        match rx.recv() {
            Ok(Cmd::Append { bytes, ends }) => {
                apply_append(&mut archive, &bytes, &ends, &shared.state);
                shared.cond.notify_all();
            }
            Ok(Cmd::Flush(id)) => {
                let result = archive.sync();
                let mut st = shared.state.lock().expect("archiver state");
                if let Err(e) = result {
                    st.flush_failures += 1;
                    st.last_error = Some(e);
                }
                st.flushed = st.flushed.max(id);
                drop(st);
                shared.cond.notify_all();
            }
            Ok(Cmd::Shutdown) | Err(_) => break,
        }
    }
    // Disconnect path: drain whatever was still queued behind the hangup.
    while let Ok(cmd) = rx.try_recv() {
        match cmd {
            Cmd::Append { bytes, ends } => apply_append(&mut archive, &bytes, &ends, &shared.state),
            Cmd::Flush(id) => {
                let mut st = shared.state.lock().expect("archiver state");
                st.flushed = st.flushed.max(id);
            }
            Cmd::Shutdown => {}
        }
    }
    let final_sync = archive.sync();
    let mut st = shared.state.lock().expect("archiver state");
    if let Err(e) = final_sync {
        st.flush_failures += 1;
        st.last_error = Some(e);
    }
    st.archive = Some(archive);
    st.retired = true;
    drop(st);
    shared.cond.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_store::{FaultPlan, FaultyStore, MemStore, SegmentId, SegmentStore};

    fn archive() -> FrameArchive {
        FrameArchive::open(Box::new(MemStore::new()), 1 << 20).unwrap().0
    }

    #[test]
    fn appends_flush_and_hand_the_archive_back() {
        let mut arch = Archiver::spawn(archive(), 64);
        assert_eq!(arch.try_append(&[1, 2, 3, 4, 5], &[3, 5]), 2);
        assert_eq!(arch.try_append(&[6], &[1]), 1);
        assert_eq!(arch.flush(Duration::from_secs(5)), FlushOutcome::Flushed);
        assert_eq!(arch.counters().appended, 3);
        let down = arch.shutdown(Duration::from_secs(5));
        assert!(!down.timed_out);
        let got = down.archive.expect("archive returned");
        assert_eq!(got.appended(), 3);
        let mut store = got.into_store();
        assert_eq!(store.read(0).unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }

    /// A store whose appends wait for the test's go-ahead (one token
    /// per append; all of them once the sender is dropped).
    #[derive(Debug)]
    struct GatedStore {
        inner: MemStore,
        gate: std::sync::mpsc::Receiver<()>,
    }

    impl SegmentStore for GatedStore {
        fn append(&mut self, segment: SegmentId, bytes: &[u8]) -> Result<(), StoreError> {
            let _ = self.gate.recv();
            self.inner.append(segment, bytes)
        }
        fn read(&mut self, segment: SegmentId) -> Result<Vec<u8>, StoreError> {
            self.inner.read(segment)
        }
        fn len(&mut self, segment: SegmentId) -> Result<u64, StoreError> {
            self.inner.len(segment)
        }
        fn truncate(&mut self, segment: SegmentId, len: u64) -> Result<(), StoreError> {
            self.inner.truncate(segment, len)
        }
        fn remove(&mut self, segment: SegmentId) -> Result<(), StoreError> {
            self.inner.remove(segment)
        }
        fn segments(&mut self) -> Result<Vec<SegmentId>, StoreError> {
            self.inner.segments()
        }
    }

    #[test]
    fn capacity_bounds_records_in_flight_not_commands() {
        let (go, gate) = std::sync::mpsc::channel();
        let store = GatedStore { inner: MemStore::new(), gate };
        let (arch, _) = FrameArchive::open(Box::new(store), 1 << 20).unwrap();
        let mut arch = Archiver::spawn(arch, 4);
        // Nothing completes until the gate opens, so the bound is exact.
        assert_eq!(arch.try_append(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(arch.try_append(&[4, 5, 6], &[1, 2, 3]), 1, "one slot left: the first record");
        assert_eq!(arch.try_append(&[7], &[1]), 0, "full: refused without blocking");
        // The first burst lands and frees its three slots.
        go.send(()).unwrap();
        while arch.counters().appended < 3 {
            std::thread::yield_now();
        }
        assert_eq!(arch.try_append(&[8, 9, 10, 11], &[1, 2, 3, 4]), 3);
        drop(go);
        let down = arch.shutdown(Duration::from_secs(5));
        assert_eq!(down.counters, ArchiverCounters { appended: 7, failed: 0, flush_failures: 0 });
        let mut store = down.archive.expect("archive returned").into_store();
        assert_eq!(store.read(0).unwrap(), vec![1, 2, 3, 4, 8, 9, 10]);
    }

    #[test]
    fn wedged_store_times_out_flush_and_shutdown() {
        let plan = FaultPlan {
            stall_after_appends: Some(0),
            stall_sleep: Some(Duration::from_millis(400)),
            ..FaultPlan::default()
        };
        let store = FaultyStore::new(MemStore::new(), plan);
        let (arch, _) = FrameArchive::open(Box::new(store), 1 << 20).unwrap();
        let mut arch = Archiver::spawn(arch, 4);
        // The worker wedges inside the first append's stall sleep.
        assert_eq!(arch.try_append(&[0; 8], &[8]), 1);
        assert_eq!(arch.flush(Duration::from_millis(50)), FlushOutcome::TimedOut);
        let down = arch.shutdown(Duration::from_millis(50));
        assert!(down.timed_out);
        assert!(down.archive.is_none());
    }

    #[test]
    fn store_errors_are_counted_not_fatal() {
        let plan = FaultPlan { stall_after_appends: Some(1), ..FaultPlan::default() };
        let store = FaultyStore::new(MemStore::new(), plan);
        let (arch, _) = FrameArchive::open(Box::new(store), 1 << 20).unwrap();
        let mut arch = Archiver::spawn(arch, 16);
        assert_eq!(arch.try_append(&[1], &[1]), 1);
        assert_eq!(arch.try_append(&[2], &[1]), 1);
        let down = arch.shutdown(Duration::from_secs(5));
        assert!(!down.timed_out);
        assert_eq!(down.counters.appended, 1);
        assert_eq!(down.counters.failed, 1);
    }
}
