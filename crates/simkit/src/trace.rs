//! Flight-recorder event tracing for the service graph.
//!
//! The paper's Fig. 1 is a dataflow diagram — arrows between Filtering,
//! Dispatching, Orphanage, Location and Actuation — and this module
//! records those arrows actually firing: one compact [`TraceRecord`] per
//! `ServiceEvent` hop, held in a fixed-capacity ring buffer
//! ([`Tracer`]), plus a per-stage hop count. The driver (the `Router`
//! in `garnet-core`) appends records in its FIFO event order, so traces
//! of the same input schedule are comparable line-for-line.
//!
//! The recorder is in every build and switched by one run-time value:
//! [`TraceConfig::capacity`]. At `0` (the default) it is **off** —
//! [`Tracer::record`] returns before building the record, the ring is
//! never allocated and every snapshot is empty, so the hot path pays one
//! predictable branch per hop. Any other capacity turns it on.

use std::fmt;

/// The Fig. 1 stage a trace record is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceStage {
    /// Duplicate elimination / stream reconstruction (ingest hot path).
    Filtering,
    /// Subscription matching and consumer delivery.
    Dispatch,
    /// The control graph: location, resource, replication, coordination.
    Control,
    /// Unclaimed-data retention.
    Orphanage,
    /// Command stamping, retransmit and ack tracking.
    Actuation,
    /// Durable frame/control-event archive (the `garnet-store` tap).
    Archive,
}

impl TraceStage {
    /// Every stage, in display order.
    pub(crate) const ALL: [TraceStage; 6] = [
        TraceStage::Filtering,
        TraceStage::Dispatch,
        TraceStage::Control,
        TraceStage::Orphanage,
        TraceStage::Actuation,
        TraceStage::Archive,
    ];

    /// Stable lowercase name used in JSONL dumps and metric keys.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            TraceStage::Filtering => "filtering",
            TraceStage::Dispatch => "dispatch",
            TraceStage::Control => "control",
            TraceStage::Orphanage => "orphanage",
            TraceStage::Actuation => "actuation",
            TraceStage::Archive => "archive",
        }
    }

    /// Dense index into per-stage arrays (`0..6`).
    pub(crate) fn index(self) -> usize {
        match self {
            TraceStage::Filtering => 0,
            TraceStage::Dispatch => 1,
            TraceStage::Control => 2,
            TraceStage::Orphanage => 3,
            TraceStage::Actuation => 4,
            TraceStage::Archive => 5,
        }
    }
}

impl fmt::Display for TraceStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which `ServiceEvent` variant (or supervision action) a record is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A raw radio frame entering the filtering service.
    Frame,
    /// A reorder-buffer flush sweeping stalled streams.
    FlushReorder,
    /// A filtered delivery entering the dispatch stage.
    Filtered,
    /// An unclaimed delivery entering the orphanage.
    Orphaned,
    /// A location-relevant sighting.
    Observed,
    /// An out-of-band position hint.
    Hint,
    /// A sensor acknowledgement reaching the actuation service.
    AckReceived,
    /// A consumer actuation request entering resource mediation.
    ActuationRequested,
    /// An approved command submitted for stamping.
    Submit,
    /// A stamped command handed to the replicator for targeting.
    Replicate,
    /// The periodic actuation retransmit/expiry sweep.
    ActuationTick,
    /// A consumer state report reaching the coordinator.
    StateReported,
    /// A record appended to the durable archive.
    ArchiveAppend,
    /// An archive flush (sync of pending appends to the backend).
    ArchiveFlush,
    /// A dispatch match-cache rebuild (cold or invalidated entry) for
    /// the stream of the preceding `Filtered` hop.
    CacheRebuild,
}

impl TraceEventKind {
    /// Stable lowercase name used in JSONL dumps.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            TraceEventKind::Frame => "frame",
            TraceEventKind::FlushReorder => "flush_reorder",
            TraceEventKind::Filtered => "filtered",
            TraceEventKind::Orphaned => "orphaned",
            TraceEventKind::Observed => "observed",
            TraceEventKind::Hint => "hint",
            TraceEventKind::AckReceived => "ack_received",
            TraceEventKind::ActuationRequested => "actuation_requested",
            TraceEventKind::Submit => "submit",
            TraceEventKind::Replicate => "replicate",
            TraceEventKind::ActuationTick => "actuation_tick",
            TraceEventKind::StateReported => "state_reported",
            TraceEventKind::ArchiveAppend => "archive_append",
            TraceEventKind::ArchiveFlush => "archive_flush",
            TraceEventKind::CacheRebuild => "cache_rebuild",
        }
    }
}

/// What happened to the event at this hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Routed to its stage and processed.
    Delivered,
    /// Dropped by overload admission control.
    Shed,
    /// Replaced (or absorbed) by a newer frame of the same stream.
    Coalesced,
    /// Lost to a worker failure.
    Failed,
}

impl TraceOutcome {
    /// Stable lowercase name used in JSONL dumps.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Delivered => "delivered",
            TraceOutcome::Shed => "shed",
            TraceOutcome::Coalesced => "coalesced",
            TraceOutcome::Failed => "failed",
        }
    }
}

/// One event hop, compactly encoded.
///
/// `stream` / `sensor` / `root` are optional because not every hop has
/// them (a `FlushReorder` has no stream).
/// JSONL encoding omits absent fields entirely.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Simulated time of the hop, in microseconds.
    pub at_us: u64,
    /// Stage the event was routed to.
    pub stage: TraceStage,
    /// Event kind.
    pub kind: TraceEventKind,
    /// Stream id (raw), when the event carries one.
    pub stream: Option<u32>,
    /// Sensor id (raw), when the event carries one.
    pub sensor: Option<u32>,
    /// Root sequence number of the boundary event this hop descends
    /// from, in admission order.
    pub root: Option<u64>,
    /// What happened at this hop.
    pub outcome: TraceOutcome,
    /// Age of the underlying data at this hop (µs since its first copy
    /// reached any receiver); 0 when not applicable.
    pub age_us: u64,
}

impl TraceRecord {
    /// A record with the required fields set and every optional field
    /// absent; fill in the rest by struct update.
    pub fn new(at_us: u64, stage: TraceStage, kind: TraceEventKind, outcome: TraceOutcome) -> Self {
        TraceRecord {
            at_us,
            stage,
            kind,
            stream: None,
            sensor: None,
            root: None,
            outcome,
            age_us: 0,
        }
    }

    fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"at_us\":{},\"stage\":\"{}\",\"kind\":\"{}\"",
            self.at_us,
            self.stage.as_str(),
            self.kind.as_str()
        );
        if let Some(s) = self.stream {
            let _ = write!(out, ",\"stream\":{s}");
        }
        if let Some(s) = self.sensor {
            let _ = write!(out, ",\"sensor\":{s}");
        }
        if let Some(r) = self.root {
            let _ = write!(out, ",\"root\":{r}");
        }
        let _ =
            write!(out, ",\"outcome\":\"{}\",\"age_us\":{}", self.outcome.as_str(), self.age_us);
        out.push('}');
    }

    /// One JSONL line (no trailing newline), fixed key order.
    #[cfg(test)]
    pub(crate) fn jsonl_line(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_jsonl(&mut s);
        s
    }
}

/// Per-stage roll-up carried by a [`TraceSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageStats {
    /// The stage.
    pub stage: TraceStage,
    /// Hops recorded for the stage (survivors and evicted alike).
    pub hops: u64,
}

/// A point-in-time copy of the recorder: the surviving ring contents in
/// chronological order, the exact count of records that fell off the
/// ring, and per-stage hop counts. Empty ([`TraceSnapshot::default`])
/// while the recorder is off.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Surviving records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records evicted by ring wrap-around (exact).
    pub dropped: u64,
    /// Per-stage hop counts, for the stages that recorded any.
    pub stages: Vec<StageStats>,
}

impl TraceSnapshot {
    /// The full dump: one JSONL line per surviving record.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in &self.records {
            r.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Recorder capacity — the recorder's only switch; see [`Tracer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity in records. `0` (the default) turns the recorder
    /// off. Otherwise the oldest records are evicted (and counted in
    /// `dropped_records`) once the ring is full.
    pub capacity: usize,
}

/// The flight recorder: a fixed-capacity ring of [`TraceRecord`]s plus
/// per-stage hop counts. Off (and holding no storage) at capacity 0;
/// [`Tracer::record`] takes the record as a closure so that, while off,
/// even *constructing* the record is skipped.
#[derive(Default)]
pub struct Tracer {
    capacity: usize,
    ring: Vec<TraceRecord>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
    hops: [u64; 6],
}

impl Tracer {
    /// Creates a recorder with the given ring capacity.
    pub fn new(config: TraceConfig) -> Self {
        Tracer { capacity: config.capacity, ..Tracer::default() }
    }

    /// Whether records are captured (the capacity is non-zero), so
    /// callers can skip work that only feeds [`Tracer::record`].
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one hop. While the recorder is off the closure is never
    /// invoked.
    pub fn record(&mut self, make: impl FnOnce() -> TraceRecord) {
        if self.capacity == 0 {
            return;
        }
        let rec = make();
        self.hops[rec.stage.index()] += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records already evicted by ring wrap-around (exact).
    pub(crate) fn dropped_records(&self) -> u64 {
        self.dropped
    }

    /// Surviving records in the ring.
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    /// Copies the recorder state out; see [`TraceSnapshot`].
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut records = Vec::with_capacity(self.ring.len());
        records.extend_from_slice(&self.ring[self.head..]);
        records.extend_from_slice(&self.ring[..self.head]);
        let stages = TraceStage::ALL
            .iter()
            .filter(|s| self.hops[s.index()] > 0)
            .map(|&stage| StageStats { stage, hops: self.hops[stage.index()] })
            .collect();
        TraceSnapshot { records, dropped: self.dropped, stages }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped_records())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64) -> TraceRecord {
        TraceRecord {
            stream: Some(7),
            root: Some(at),
            ..TraceRecord::new(
                at,
                TraceStage::Filtering,
                TraceEventKind::Frame,
                TraceOutcome::Delivered,
            )
        }
    }

    #[test]
    fn jsonl_omits_absent_fields_and_keeps_key_order() {
        let r = rec(42);
        assert_eq!(
            r.jsonl_line(),
            "{\"at_us\":42,\"stage\":\"filtering\",\"kind\":\"frame\",\"stream\":7,\
             \"root\":42,\"outcome\":\"delivered\",\"age_us\":0}"
        );
        let full = TraceRecord { sensor: Some(3), age_us: 5, ..rec(1) };
        let line = full.jsonl_line();
        assert!(line.contains("\"sensor\":3"));
        assert!(line.ends_with("\"age_us\":5}"));
    }

    #[test]
    fn ring_wraps_with_exact_drop_accounting() {
        let mut t = Tracer::new(TraceConfig { capacity: 4 });
        for at in 0..10u64 {
            t.record(|| rec(at));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped_records(), 6);
        let snap = t.snapshot();
        let ats: Vec<u64> = snap.records.iter().map(|r| r.at_us).collect();
        assert_eq!(ats, vec![6, 7, 8, 9], "oldest evicted first, survivors in order");
        assert_eq!(snap.dropped, 6);
        // Stage stats count every hop, not just survivors.
        assert_eq!(snap.stages, vec![StageStats { stage: TraceStage::Filtering, hops: 10 }]);
    }

    #[test]
    fn zero_capacity_is_off_and_never_builds_records() {
        assert_eq!(TraceConfig::default().capacity, 0, "off is the default");
        let mut t = Tracer::new(TraceConfig { capacity: 0 });
        assert!(!t.is_enabled());
        t.record(|| unreachable!("record closure must not run while the recorder is off"));
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped_records(), 0, "nothing recorded, nothing dropped");
        let snap = t.snapshot();
        assert!(snap.records.is_empty() && snap.stages.is_empty());
        assert_eq!(snap.dropped, 0);
    }
}
