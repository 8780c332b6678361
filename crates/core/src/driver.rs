//! The execution engines behind the [`crate::Garnet`] facade.
//!
//! [`RouterDriver`] is the router-facing surface the facade actually
//! uses: frame intake, pumping to quiescence, subscription changes,
//! the metrics counters, the intake ledger, shard supervision and the
//! flight recorder. Both engines are unbounded, batch-fed intakes: what
//! happens to a frame at capacity is the facade scheduler's decision
//! ([`crate::qos::QosScheduler`]), made before a frame gets here. Two
//! engines implement it:
//!
//! * [`FifoDriver`] — the single-threaded FIFO [`Router`], the
//!   simulation engine with bit-exact event interleaving;
//! * [`ThreadedDriver`] — a facade-hosted [`ThreadedRouter`]: worker
//!   pools per stage, a shared live subscription table, and the control
//!   graph pumped inline so synchronous facade calls can still borrow
//!   it.
//!
//! Both produce identical deliveries, metrics and (modulo shard ids)
//! trace dumps for the same input schedule; [`GarnetConfig::driver`]
//! picks between them.
//!
//! [`GarnetConfig::driver`]: crate::GarnetConfig::driver

use std::sync::{Arc, RwLock};

use garnet_net::{ShardFailure, SubscriberId, SubscriptionTable, TopicFilter};
use garnet_simkit::trace::{TraceConfig, TraceOutcome, TraceSnapshot};
use garnet_simkit::{Histogram, SimTime};
use garnet_wire::StreamId;

use crate::filtering::{FilterConfig, FilteringService};
use crate::router::{
    ControlGraph, OverloadConfig, OverloadTotals, Router, Services, ShardedIngest, ThreadedRouter,
    ThreadedRouterParts,
};
use crate::service::{BatchedFrame, ServiceEvent, ServiceOutput};
use crate::stream::ShardedStreamRegistry;
use crate::telemetry::{PipelineSpans, QueueDepthGauges};

/// Which execution engine hosts the service graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DriverKind {
    /// The single-threaded FIFO [`Router`]: one event at a time, the
    /// reference interleaving. The default.
    #[default]
    Fifo,
    /// The [`ThreadedRouter`]: filtering and dispatch on worker pools,
    /// outputs released in boundary order so every observable matches
    /// the FIFO engine.
    Threaded,
}

/// Ingest-stage counters, snapshotted by value through the driver
/// surface. (By value because the threaded engine aggregates per-shard
/// snapshots on demand — there is no single struct to borrow.)
#[derive(Clone, Copy, Debug, Default)]
pub struct FilterStats {
    pub(crate) delivered: u64,
    pub(crate) duplicates: u64,
    pub(crate) crc_failures: u64,
    pub(crate) reordered: u64,
    pub(crate) gaps: u64,
    pub(crate) restarts: u64,
    pub(crate) streams: usize,
}

impl FilterStats {
    /// Snapshot of one filtering shard's counters.
    pub(crate) fn of(filter: &FilteringService) -> Self {
        FilterStats {
            delivered: filter.delivered_count(),
            duplicates: filter.duplicate_count(),
            crc_failures: filter.crc_failure_count(),
            reordered: filter.reordered_count(),
            gaps: filter.gap_count(),
            restarts: filter.restart_count(),
            streams: filter.stream_count(),
        }
    }

    /// Snapshot of a whole sharded ingest stage.
    pub(crate) fn of_sharded(ingest: &ShardedIngest) -> Self {
        FilterStats {
            delivered: ingest.delivered_count(),
            duplicates: ingest.duplicate_count(),
            crc_failures: ingest.crc_failure_count(),
            reordered: ingest.reordered_count(),
            gaps: ingest.gap_count(),
            restarts: ingest.restart_count(),
            streams: ingest.stream_count(),
        }
    }

    /// Sums two shard snapshots (streams are partitioned across
    /// shards, so the sums are exact).
    pub(crate) fn absorb(mut self, other: FilterStats) -> Self {
        self.delivered += other.delivered;
        self.duplicates += other.duplicates;
        self.crc_failures += other.crc_failures;
        self.reordered += other.reordered;
        self.gaps += other.gaps;
        self.restarts += other.restarts;
        self.streams += other.streams;
        self
    }

    /// Messages released downstream.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Duplicate frames eliminated.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Frames rejected by CRC/decode.
    pub fn crc_failure_count(&self) -> u64 {
        self.crc_failures
    }

    /// Frames buffered out of order.
    pub fn reordered_count(&self) -> u64 {
        self.reordered
    }

    /// Gaps accepted.
    pub fn gap_count(&self) -> u64 {
        self.gaps
    }

    /// Stream restarts detected.
    pub fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// Streams tracked.
    pub fn stream_count(&self) -> usize {
        self.streams
    }
}

/// Dispatch-stage counters, snapshotted by value through the driver
/// surface.
#[derive(Clone, Debug, Default)]
pub struct DispatchStats {
    pub(crate) dispatched: u64,
    pub(crate) deliveries: u64,
    pub(crate) unclaimed: u64,
    pub(crate) fanout: Histogram,
    pub(crate) subscribers: usize,
    pub(crate) match_cache: garnet_net::MatchCacheStats,
}

impl DispatchStats {
    /// Messages routed.
    pub fn dispatched_count(&self) -> u64 {
        self.dispatched
    }

    /// Total (message, subscriber) deliveries.
    pub fn delivery_count(&self) -> u64 {
        self.deliveries
    }

    /// Messages that matched nobody.
    pub fn unclaimed_count(&self) -> u64 {
        self.unclaimed
    }

    /// Distribution of per-message fan-out.
    pub fn fanout(&self) -> &Histogram {
        &self.fanout
    }

    /// Distinct subscribers with live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers
    }

    /// Match-cache counters, folded across dispatch shards.
    pub fn match_cache(&self) -> garnet_net::MatchCacheStats {
        self.match_cache
    }
}

/// The router-facing surface [`crate::Garnet`] drives. Everything the
/// facade needs — frame intake, pumping, subscriptions, stream
/// catalogue, control-plane access, metrics, the intake ledger, shard
/// supervision and the flight recorder — with both engines behind it.
///
/// The contract the facade's determinism guarantees rest on:
///
/// * [`RouterDriver::pump_into`] (and [`RouterDriver::pump`], the same
///   function with a fresh buffer) hands back escaped outputs in the
///   exact order the FIFO router would surface them; nothing handed
///   back means the graph is quiescent.
/// * Subscription and registry mutations only happen between pumps
///   (the facade is single-threaded), so engines may serve them from
///   shared state without locking the hot path.
/// * [`RouterDriver::shutdown`] drains in-flight work and joins any
///   worker pools; afterwards reads (metrics, traces, streams) still
///   work and new events are ignored.
pub trait RouterDriver: std::fmt::Debug {
    /// Queues one boundary event — the control path: never shed.
    fn push_event(&mut self, ev: ServiceEvent, now: SimTime);

    /// Hands a burst of frames to the engine's unbounded intake, one
    /// ledger entry per frame; engines amortise per-frame costs over
    /// the burst (one channel hand-off per shard run, one filtering
    /// pass per batch). The returned `Vec` is always empty: it is kept
    /// for the benchmark's call site, which iterates it, and has no
    /// effect.
    fn admit_frames(&mut self, frames: Vec<BatchedFrame>, now: SimTime) -> Vec<ServiceOutput>;

    /// Records, in the flight recorder, a frame the facade's scheduler
    /// dropped before it reached the engine (`Shed` or `Coalesced`).
    /// Only called with the `trace` feature on; the default does
    /// nothing.
    fn trace_dropped(&mut self, _frame: &BatchedFrame, _outcome: TraceOutcome, _now: SimTime) {}

    /// Advances the graph, appending escaped outputs to `out` — the
    /// caller's buffer, so a caller that pumps in a loop reuses one
    /// allocation — in canonical order. The engine stops at the first
    /// step that escapes anything: the caller applies what it got (which
    /// may push new events) and calls again, so events a consumer emits
    /// take the queue position they always have. Appending nothing
    /// means quiescence.
    fn pump_into(&mut self, now: SimTime, out: &mut Vec<ServiceOutput>);

    /// [`RouterDriver::pump_into`] into a fresh buffer: the same
    /// outputs, returned. An empty batch means quiescence.
    fn pump(&mut self, now: SimTime) -> Vec<ServiceOutput> {
        let mut out = Vec::new();
        self.pump_into(now, &mut out);
        out
    }

    /// Allocates a fresh subscriber identity.
    fn register_subscriber(&mut self) -> SubscriberId;

    /// Adds a subscription. Returns true if new.
    fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool;

    /// Removes one subscription.
    fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool;

    /// Removes every subscription of a departing subscriber, returning
    /// how many it held.
    fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize;

    /// True if a message on `stream` would reach at least one
    /// subscriber.
    fn would_deliver(&self, stream: StreamId) -> bool;

    /// Overrides the stream catalogue's claimed flag.
    fn set_claimed(&mut self, stream: StreamId, claimed: bool);

    /// The stream catalogue.
    fn streams(&self) -> &ShardedStreamRegistry;

    /// The control-plane services (synchronous request/response calls:
    /// orphanage claims, location reads, profile registration).
    fn control(&self) -> &ControlGraph;

    /// Mutable control-plane access.
    fn control_mut(&mut self) -> &mut ControlGraph;

    /// Ingest-stage counters.
    fn filter_stats(&self) -> FilterStats;

    /// Dispatch-stage counters.
    fn dispatch_stats(&self) -> DispatchStats;

    /// Monotonic intake totals: `shed` and `coalesced` are always zero
    /// (an engine drops nothing), so at quiescence
    /// `offered == delivered`.
    fn overload_totals(&self) -> OverloadTotals;

    /// High-water mark of the frame queue.
    fn peak_queue_depth(&self) -> u64;

    /// Shard restarts performed by a supervision policy (always 0 for
    /// the FIFO engine — nothing panics, nothing restarts).
    fn shard_restart_count(&self) -> u64;

    /// Jobs accepted per [`garnet_net::EdgeClass`] across the engine's
    /// stage edges, indexed by `EdgeClass::index`. All zeros for the
    /// FIFO engine, which has no channel boundaries to account at.
    fn edge_class_submits(&self) -> [u64; 3] {
        [0; 3]
    }

    /// The pipeline latency spans recorded so far (filtering /
    /// dispatching / end-to-end, sim-time driven and therefore
    /// engine-invariant). Still readable after shutdown.
    fn pipeline_spans(&self) -> &PipelineSpans;

    /// The per-ingest-shard admission-depth gauges. Still readable
    /// after shutdown.
    fn queue_depth_gauges(&self) -> &QueueDepthGauges;

    /// Turns latency-span and depth-gauge recording on or off (on by
    /// default).
    fn set_telemetry_recording(&mut self, enabled: bool);

    /// Resets the telemetry depth counts at a logical quiescence point
    /// (the facade calls this after pumping the engine dry; watermarks
    /// survive).
    fn note_telemetry_quiescent(&mut self);

    /// Takes worker failures recorded since the last call (always
    /// empty for the FIFO engine, which has no threads to lose).
    fn take_shard_failures(&mut self) -> Vec<ShardFailure>;

    /// The earliest time-driven deadline across services.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Replaces the flight recorder with one of the given capacity.
    fn configure_trace(&mut self, config: TraceConfig);

    /// The flight recorder's current contents.
    fn trace_snapshot(&self) -> TraceSnapshot;

    /// Streams the flight recorder's window to `w` as JSONL and clears
    /// it (see [`garnet_simkit::trace::Tracer::drain_to`]).
    fn trace_drain_to(&mut self, w: &mut dyn std::io::Write) -> std::io::Result<usize>;

    /// Drains in-flight work and joins any worker pools, returning the
    /// outputs released on the way out. Reads keep working afterwards;
    /// new events are ignored.
    fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput>;
}

/// The FIFO [`Router`] behind the driver surface.
#[derive(Debug)]
pub struct FifoDriver {
    router: Router,
}

impl FifoDriver {
    /// Wraps a router over the given services.
    ///
    /// * `_overload` — accepted for the benchmark's call site; has no effect.
    /// * `_batch` — accepted for the benchmark's call site; has no effect.
    pub fn new(services: Services, _overload: Option<OverloadConfig>, _batch: bool) -> Self {
        FifoDriver { router: Router::new(services) }
    }
}

impl RouterDriver for FifoDriver {
    fn push_event(&mut self, ev: ServiceEvent, _now: SimTime) {
        self.router.enqueue(ev);
    }

    fn admit_frames(&mut self, frames: Vec<BatchedFrame>, _now: SimTime) -> Vec<ServiceOutput> {
        // Queued one entry per frame (own root tag, own ledger entry);
        // the batch win comes from the pump, where `step_batch` pops the
        // consecutive Frame run and filters it in one pass.
        for f in frames {
            self.router.admit_frame(f.receiver, f.rssi_dbm, f.frame);
        }
        Vec::new()
    }

    #[cfg(feature = "trace")]
    fn trace_dropped(&mut self, frame: &BatchedFrame, outcome: TraceOutcome, now: SimTime) {
        self.router.trace_dropped(frame, outcome, now);
    }

    fn pump_into(&mut self, now: SimTime, out: &mut Vec<ServiceOutput>) {
        // Steps until the first step that escapes anything: the facade
        // applies it (possibly pushing new events) and calls again, so
        // the apply-per-step cadence of driving the router directly is
        // preserved exactly. `step_batch` consumes runs of consecutive
        // Frame events in one filtering pass; frame steps emit no
        // external outputs, so the batch is observably identical to
        // stepping the run one frame at a time.
        let held = out.len();
        while out.len() == held && self.router.step_batch(now, out) {}
    }

    fn register_subscriber(&mut self) -> SubscriberId {
        self.router.services_mut().dispatch.register_subscriber()
    }

    fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.router.services_mut().dispatch.subscribe(subscriber, filter)
    }

    fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.router.services_mut().dispatch.unsubscribe(subscriber, filter)
    }

    fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize {
        self.router.services_mut().dispatch.unsubscribe_all(subscriber)
    }

    fn would_deliver(&self, stream: StreamId) -> bool {
        self.router.services().dispatch.would_deliver(stream)
    }

    fn set_claimed(&mut self, stream: StreamId, claimed: bool) {
        self.router.services_mut().dispatch.streams.set_claimed(stream, claimed);
    }

    fn streams(&self) -> &ShardedStreamRegistry {
        &self.router.services().dispatch.streams
    }

    fn control(&self) -> &ControlGraph {
        &self.router.services().control
    }

    fn control_mut(&mut self) -> &mut ControlGraph {
        &mut self.router.services_mut().control
    }

    fn filter_stats(&self) -> FilterStats {
        FilterStats::of_sharded(&self.router.services().ingest)
    }

    fn dispatch_stats(&self) -> DispatchStats {
        let d = &self.router.services().dispatch;
        DispatchStats {
            dispatched: d.dispatched_count(),
            deliveries: d.delivery_count(),
            unclaimed: d.unclaimed_count(),
            fanout: d.fanout(),
            subscribers: d.subscriber_count(),
            match_cache: d.cache_stats(),
        }
    }

    fn overload_totals(&self) -> OverloadTotals {
        self.router.overload_totals()
    }

    fn peak_queue_depth(&self) -> u64 {
        self.router.peak_queue_depth()
    }

    fn shard_restart_count(&self) -> u64 {
        0
    }

    fn pipeline_spans(&self) -> &PipelineSpans {
        self.router.pipeline_spans()
    }

    fn queue_depth_gauges(&self) -> &QueueDepthGauges {
        self.router.queue_depth_gauges()
    }

    fn set_telemetry_recording(&mut self, enabled: bool) {
        self.router.set_telemetry_recording(enabled);
    }

    fn note_telemetry_quiescent(&mut self) {
        self.router.note_telemetry_quiescent();
    }

    fn take_shard_failures(&mut self) -> Vec<ShardFailure> {
        Vec::new()
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.router.next_deadline()
    }

    fn configure_trace(&mut self, config: TraceConfig) {
        self.router.configure_trace(config);
    }

    fn trace_snapshot(&self) -> TraceSnapshot {
        self.router.trace_snapshot()
    }

    fn trace_drain_to(&mut self, w: &mut dyn std::io::Write) -> std::io::Result<usize> {
        self.router.trace_drain_to(w)
    }

    fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput> {
        // No pools to join: just drain whatever is still queued.
        let mut out = Vec::new();
        while self.router.step(now, &mut out) {}
        out
    }
}

/// The [`ThreadedRouter`] hosted behind the driver surface.
///
/// Subscriptions live in one shared [`SubscriptionTable`] the dispatch
/// workers read per job — no per-worker replicas, so subscription
/// memory is independent of the shard count. Outputs released during
/// admission are buffered and handed out at the next
/// [`RouterDriver::pump`], which preserves the FIFO engine's apply
/// order (releases are in boundary order; the FIFO queue is too).
///
/// Dropping the driver joins all worker pools; [`RouterDriver::shutdown`]
/// does the same but keeps the terminal state readable.
pub struct ThreadedDriver {
    router: Option<ThreadedRouter>,
    subscriptions: Arc<RwLock<SubscriptionTable>>,
    next_subscriber: u32,
    /// Outputs released by the graph while admitting, held until the
    /// facade pumps.
    pending: Vec<ServiceOutput>,
    /// Frames admitted since the graph last went quiescent — the
    /// mirror of the FIFO router's queue depth, since the facade pumps
    /// to quiescence after every admission burst.
    frames_since_quiescence: u64,
    peak_depth: u64,
    /// What shutdown left behind; reads are served from here once the
    /// pools are joined.
    retired: Option<ThreadedRouterParts>,
}

impl ThreadedDriver {
    /// Spawns the hosted graph.
    ///
    /// * `_overload` — accepted for the benchmark's call site; has no effect.
    /// * `_batch` — accepted for the benchmark's call site; has no effect.
    pub fn new(
        config: FilterConfig,
        ingest_shards: usize,
        dispatch_shards: usize,
        control: ControlGraph,
        _overload: Option<OverloadConfig>,
        _batch: bool,
        cache: garnet_net::DispatchCacheConfig,
    ) -> Self {
        let subscriptions = Arc::new(RwLock::new(SubscriptionTable::new()));
        let router = ThreadedRouter::hosted(
            config,
            ingest_shards,
            dispatch_shards,
            subscriptions.clone(),
            control,
            cache,
        );
        ThreadedDriver {
            router: Some(router),
            subscriptions,
            next_subscriber: 0,
            pending: Vec::new(),
            frames_since_quiescence: 0,
            peak_depth: 0,
            retired: None,
        }
    }

    fn retired(&self) -> &ThreadedRouterParts {
        self.retired.as_ref().expect("a ThreadedDriver is live or retired, never neither")
    }
}

impl RouterDriver for ThreadedDriver {
    fn push_event(&mut self, ev: ServiceEvent, now: SimTime) {
        let Some(router) = self.router.as_mut() else { return };
        for released in router.push_event(ev, now) {
            self.pending.extend(released.outputs);
        }
    }

    fn admit_frames(&mut self, frames: Vec<BatchedFrame>, now: SimTime) -> Vec<ServiceOutput> {
        let Some(router) = self.router.as_mut() else { return Vec::new() };
        self.frames_since_quiescence += frames.len() as u64;
        self.peak_depth = self.peak_depth.max(self.frames_since_quiescence);
        let staged = frames.into_iter().map(|f| (f.receiver, f.rssi_dbm, f.frame));
        for released in router.push_frames(staged, now) {
            self.pending.extend(released.outputs);
        }
        Vec::new()
    }

    #[cfg(feature = "trace")]
    fn trace_dropped(&mut self, frame: &BatchedFrame, outcome: TraceOutcome, now: SimTime) {
        let Some(router) = self.router.as_mut() else { return };
        for released in router.trace_dropped(frame, outcome, now) {
            self.pending.extend(released.outputs);
        }
    }

    fn pump_into(&mut self, _now: SimTime, out: &mut Vec<ServiceOutput>) {
        out.append(&mut self.pending);
        if let Some(router) = self.router.as_mut() {
            while !router.is_quiescent() {
                let released = router.poll();
                if released.is_empty() {
                    std::thread::yield_now();
                }
                for r in released {
                    out.extend(r.outputs);
                }
            }
        }
        self.frames_since_quiescence = 0;
    }

    fn register_subscriber(&mut self) -> SubscriberId {
        let id = SubscriberId::new(self.next_subscriber);
        self.next_subscriber += 1;
        id
    }

    fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.subscriptions.write().unwrap_or_else(|e| e.into_inner()).subscribe(subscriber, filter)
    }

    fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.subscriptions
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .unsubscribe(subscriber, filter)
    }

    fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize {
        self.subscriptions.write().unwrap_or_else(|e| e.into_inner()).unsubscribe_all(subscriber)
    }

    fn would_deliver(&self, stream: StreamId) -> bool {
        !self.subscriptions.read().unwrap_or_else(|e| e.into_inner()).is_unclaimed(stream)
    }

    fn set_claimed(&mut self, stream: StreamId, claimed: bool) {
        match self.router.as_mut() {
            Some(r) => r.streams_mut().set_claimed(stream, claimed),
            None => {
                if let Some(parts) = self.retired.as_mut() {
                    parts.streams.set_claimed(stream, claimed);
                }
            }
        }
    }

    fn streams(&self) -> &ShardedStreamRegistry {
        match &self.router {
            Some(r) => r.streams(),
            None => &self.retired().streams,
        }
    }

    fn control(&self) -> &ControlGraph {
        match &self.router {
            Some(r) => r.control_graph().expect("hosted routers run control inline"),
            None => self.retired().control.as_ref().expect("hosted routers run control inline"),
        }
    }

    fn control_mut(&mut self) -> &mut ControlGraph {
        match self.router.as_mut() {
            Some(r) => r.control_graph_mut().expect("hosted routers run control inline"),
            None => self
                .retired
                .as_mut()
                .and_then(|p| p.control.as_mut())
                .expect("hosted routers run control inline"),
        }
    }

    fn filter_stats(&self) -> FilterStats {
        match &self.router {
            Some(r) => r.filter_stats(),
            None => self.retired().filter_stats,
        }
    }

    fn dispatch_stats(&self) -> DispatchStats {
        match &self.router {
            Some(r) => r.dispatch_stats(),
            None => self.retired().dispatch_stats.clone(),
        }
    }

    fn overload_totals(&self) -> OverloadTotals {
        let offered = match &self.router {
            Some(r) => r.offered_frame_count(),
            None => self.retired().report.offered_frames,
        };
        OverloadTotals { offered, shed: 0, coalesced: 0, delivered: offered }
    }

    fn peak_queue_depth(&self) -> u64 {
        self.peak_depth
    }

    fn shard_restart_count(&self) -> u64 {
        match &self.router {
            Some(r) => r.restart_count(),
            None => self.retired().report.shard_restarts,
        }
    }

    fn edge_class_submits(&self) -> [u64; 3] {
        match &self.router {
            Some(r) => r.class_submits(),
            None => [0; 3],
        }
    }

    fn pipeline_spans(&self) -> &PipelineSpans {
        match &self.router {
            Some(r) => r.pipeline_spans(),
            None => &self.retired().spans,
        }
    }

    fn queue_depth_gauges(&self) -> &QueueDepthGauges {
        match &self.router {
            Some(r) => r.queue_depth_gauges(),
            None => &self.retired().depths,
        }
    }

    fn set_telemetry_recording(&mut self, enabled: bool) {
        if let Some(r) = self.router.as_mut() {
            r.set_telemetry_recording(enabled);
        }
    }

    fn note_telemetry_quiescent(&mut self) {
        if let Some(r) = self.router.as_mut() {
            r.note_telemetry_quiescent();
        }
    }

    fn take_shard_failures(&mut self) -> Vec<ShardFailure> {
        match self.router.as_mut() {
            Some(r) => r.take_root_failures().into_iter().map(|f| f.failure).collect(),
            None => match self.retired.as_mut() {
                Some(parts) => std::mem::take(&mut parts.report.failures)
                    .into_iter()
                    .map(|f| f.failure)
                    .collect(),
                None => Vec::new(),
            },
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.router.as_ref().and_then(ThreadedRouter::next_deadline)
    }

    fn configure_trace(&mut self, config: TraceConfig) {
        if let Some(r) = self.router.as_mut() {
            r.configure_trace(config);
        }
    }

    fn trace_snapshot(&self) -> TraceSnapshot {
        match &self.router {
            Some(r) => r.trace_snapshot(),
            None => self.retired().report.trace.clone(),
        }
    }

    fn trace_drain_to(&mut self, w: &mut dyn std::io::Write) -> std::io::Result<usize> {
        match self.router.as_mut() {
            Some(r) => r.trace_drain_to(w),
            None => {
                // The recorder died with the worker pools; drain the
                // snapshot the shutdown report kept instead.
                let Some(parts) = self.retired.as_mut() else { return Ok(0) };
                let mut written = 0;
                for rec in parts.report.trace.records.drain(..) {
                    writeln!(w, "{}", rec.jsonl_line())?;
                    written += 1;
                }
                Ok(written)
            }
        }
    }

    fn shutdown(&mut self, _now: SimTime) -> Vec<ServiceOutput> {
        let mut out = std::mem::take(&mut self.pending);
        if let Some(router) = self.router.take() {
            let mut parts = router.into_parts();
            for released in std::mem::take(&mut parts.report.outputs) {
                out.extend(released.outputs);
            }
            self.retired = Some(parts);
        }
        self.frames_since_quiescence = 0;
        out
    }
}

impl Drop for ThreadedDriver {
    /// Joins the worker pools if [`RouterDriver::shutdown`] was never
    /// called ([`ThreadedRouter::into_parts`] drains every in-flight
    /// root before joining, so nothing is lost and nothing deadlocks).
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            let _ = router.into_parts();
        }
    }
}

impl std::fmt::Debug for ThreadedDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedDriver")
            .field("router", &self.router)
            .field("pending", &self.pending.len())
            .field("retired", &self.retired.is_some())
            .finish_non_exhaustive()
    }
}
