//! Flight-recorder event tracing for the service graph.
//!
//! The paper's Fig. 1 is a dataflow diagram — arrows between Filtering,
//! Dispatching, Orphanage, Location and Actuation — and this module
//! records those arrows actually firing: one compact [`TraceRecord`] per
//! `ServiceEvent` hop, held in a fixed-capacity ring buffer
//! ([`Tracer`]), plus per-stage occupancy and latency fed into the
//! log-bucketed [`Histogram`]. The driver (the `Router` in
//! `garnet-core`) appends records in its FIFO event order, so traces of
//! the same input schedule are comparable line-for-line.
//!
//! The recorder is **feature-gated**: with the `trace` cargo feature
//! off, [`Tracer`] is a zero-sized type whose methods are inlined
//! no-ops and whose `record` closure is never invoked, so the hot path
//! pays nothing (the `disabled` suite of `tests/tracing.rs` pins the
//! no-op). The *passive* types — [`TraceRecord`], [`TraceSnapshot`],
//! the enums — are always compiled so reports can carry an (empty)
//! snapshot unconditionally.

use std::fmt;

use crate::metrics::Histogram;

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
    pub const ALL: [TraceStage; 6] = [
        TraceStage::Filtering,
        TraceStage::Dispatch,
        TraceStage::Control,
        TraceStage::Orphanage,
        TraceStage::Actuation,
        TraceStage::Archive,
    ];

    /// Stable lowercase name used in JSONL dumps and metric keys.
    pub fn as_str(self) -> &'static str {
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
    pub fn index(self) -> usize {
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
    pub fn as_str(self) -> &'static str {
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
    pub fn as_str(self) -> &'static str {
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
    pub fn jsonl_line(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_jsonl(&mut s);
        s
    }
}

/// Per-stage roll-up carried by a [`TraceSnapshot`].
#[derive(Clone, Debug)]
pub struct StageStats {
    /// The stage.
    pub stage: TraceStage,
    /// Hops recorded for the stage (independent of ring capacity).
    pub hops: u64,
    /// Driver queue depth observed at each hop for this stage.
    pub occupancy: Histogram,
    /// Data age at each hop (µs; see [`TraceRecord::age_us`]).
    pub latency: Histogram,
}

/// A point-in-time copy of the recorder: the surviving ring contents in
/// chronological order, the exact count of records that fell off the
/// ring, and per-stage statistics.
///
/// Always compiled; with the `trace` feature off every snapshot is
/// empty ([`TraceSnapshot::default`]).
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Surviving records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records evicted by ring wrap-around (exact).
    pub dropped: u64,
    /// Per-stage occupancy/latency roll-ups (empty when tracing is off
    /// or nothing was recorded).
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

/// Recorder capacity; see [`Tracer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity in records. Oldest records are evicted (and
    /// counted in `dropped_records`) once the ring is full. A capacity
    /// of 0 records nothing (every hop counts as dropped).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 65_536 }
    }
}

/// The flight recorder: a fixed-capacity ring of [`TraceRecord`]s plus
/// per-stage occupancy/latency histograms.
///
/// With the `trace` feature **off** this is a zero-sized type whose
/// methods compile to nothing — in particular [`Tracer::record`] takes
/// the record as a closure so even *constructing* the record is skipped.
#[cfg(feature = "trace")]
pub struct Tracer {
    capacity: usize,
    ring: Vec<TraceRecord>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
    hops: [u64; 6],
    occupancy: [Histogram; 6],
    latency: [Histogram; 6],
}

#[cfg(feature = "trace")]
impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(TraceConfig::default())
    }
}

#[cfg(feature = "trace")]
impl Tracer {
    /// Creates a recorder with the given ring capacity.
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            capacity: config.capacity,
            ring: Vec::new(),
            head: 0,
            dropped: 0,
            hops: [0; 6],
            occupancy: Default::default(),
            latency: Default::default(),
        }
    }

    /// Whether records are actually captured (always true here; the
    /// no-op twin returns false so callers can skip expensive setup).
    pub fn is_enabled(&self) -> bool {
        true
    }

    /// Records one hop. The closure builds the record only when tracing
    /// is compiled in.
    pub fn record(&mut self, make: impl FnOnce() -> TraceRecord) {
        let rec = make();
        let idx = rec.stage.index();
        self.hops[idx] += 1;
        self.latency[idx].record(rec.age_us);
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Feeds the driver's queue depth into a stage's occupancy
    /// histogram. Separate from [`Tracer::record`] because occupancy is
    /// a property of the driver, not of the event (the threaded driver
    /// reports in-flight roots here, which is timing-dependent and
    /// excluded from the determinism contract).
    pub fn note_occupancy(&mut self, stage: TraceStage, depth: u64) {
        self.occupancy[stage.index()].record(depth);
    }

    /// Records already evicted by ring wrap-around (exact).
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }

    /// Surviving records in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded (or everything was evicted
    /// by a zero-capacity ring).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Copies the recorder state out; see [`TraceSnapshot`].
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut records = Vec::with_capacity(self.ring.len());
        records.extend_from_slice(&self.ring[self.head..]);
        records.extend_from_slice(&self.ring[..self.head]);
        let stages = TraceStage::ALL
            .iter()
            .filter(|s| self.hops[s.index()] > 0)
            .map(|&stage| StageStats {
                stage,
                hops: self.hops[stage.index()],
                occupancy: self.occupancy[stage.index()].clone(),
                latency: self.latency[stage.index()].clone(),
            })
            .collect();
        TraceSnapshot { records, dropped: self.dropped, stages }
    }

    /// Clears the ring, the drop counter and the per-stage histograms.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.dropped = 0;
        self.hops = [0; 6];
        self.occupancy.iter_mut().for_each(Histogram::reset);
        self.latency.iter_mut().for_each(Histogram::reset);
    }
}

/// No-op twin of the recorder (the `trace` feature is off).
#[cfg(not(feature = "trace"))]
#[derive(Default)]
pub struct Tracer;

#[cfg(not(feature = "trace"))]
impl Tracer {
    /// No-op constructor.
    #[inline(always)]
    pub fn new(_config: TraceConfig) -> Self {
        Tracer
    }

    /// Always false: nothing is captured.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        false
    }

    /// No-op; the closure is never invoked.
    #[inline(always)]
    pub fn record(&mut self, _make: impl FnOnce() -> TraceRecord) {}

    /// No-op.
    #[inline(always)]
    pub fn note_occupancy(&mut self, _stage: TraceStage, _depth: u64) {}

    /// Always 0.
    #[inline(always)]
    pub fn dropped_records(&self) -> u64 {
        0
    }

    /// Always 0.
    #[inline(always)]
    pub fn len(&self) -> usize {
        0
    }

    /// Always true.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        true
    }

    /// Always empty.
    #[inline(always)]
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot::default()
    }

    /// No-op.
    #[inline(always)]
    pub fn reset(&mut self) {}
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

    #[cfg(feature = "trace")]
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
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].hops, 10);
        assert_eq!(snap.stages[0].latency.count(), 10);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn zero_capacity_records_nothing_but_counts_everything() {
        let mut t = Tracer::new(TraceConfig { capacity: 0 });
        t.record(|| rec(1));
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped_records(), 1);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn reset_clears_ring_drops_and_histograms() {
        let mut t = Tracer::new(TraceConfig { capacity: 2 });
        for at in 0..5u64 {
            t.record(|| rec(at));
        }
        t.note_occupancy(TraceStage::Filtering, 3);
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.dropped_records(), 0);
        assert!(t.snapshot().stages.is_empty());
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn disabled_tracer_is_zero_sized_and_never_builds_records() {
        assert_eq!(std::mem::size_of::<Tracer>(), 0);
        let mut t = Tracer::new(TraceConfig::default());
        t.record(|| unreachable!("record closure must not run when tracing is off"));
        assert!(t.is_empty());
        assert!(t.snapshot().records.is_empty());
    }
}
