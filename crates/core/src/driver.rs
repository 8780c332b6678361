//! The execution engine behind the [`crate::Garnet`] facade.
//!
//! [`RouterDriver`] is the router-facing surface the facade actually
//! uses: frame intake, pumping to quiescence, subscription changes,
//! the metrics counters, the intake ledger, shard supervision and the
//! flight recorder. The intake is unbounded and batch-fed: what happens
//! to a frame at capacity is the facade scheduler's decision
//! ([`crate::qos::QosScheduler`]), made before a frame gets here.
//!
//! One type implements it, [`FifoDriver`]: the FIFO [`Router`] pumped
//! on the facade's thread. [`GarnetConfig::driver`] only decides where
//! that router's filtering shards execute — on the same thread
//! ([`DriverKind::Fifo`], [`ShardedIngest::new`]) or one per supervised
//! worker ([`DriverKind::Threaded`], [`ShardedIngest::pooled`]). Queue,
//! dispatch, control, spans and trace are the same code either way, so
//! deliveries, metrics and trace dumps are identical for the same input
//! schedule.
//!
//! [`GarnetConfig::driver`]: crate::GarnetConfig::driver

use garnet_net::{ShardFailure, SubscriberId, TopicFilter};
use garnet_simkit::trace::{TraceConfig, TraceOutcome, TraceSnapshot};
use garnet_simkit::{Histogram, SimTime};
use garnet_wire::StreamId;

use crate::filtering::{FilterConfig, FilteringService};
use crate::router::{
    ControlGraph, OverloadConfig, OverloadTotals, Router, Services, ShardedDispatch, ShardedIngest,
};
use crate::service::{BatchedFrame, ServiceEvent, ServiceOutput};
use crate::stream::ShardedStreamRegistry;
use crate::telemetry::{PipelineSpans, QueueDepthGauges};

/// Where the service graph's filtering shards execute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DriverKind {
    /// On the facade's thread, like the rest of the [`Router`]. The
    /// default.
    #[default]
    Fifo,
    /// One per supervised worker thread: a burst costs one hand-off per
    /// non-empty shard, and the facade's thread waits for the results
    /// before routing them, so every observable matches
    /// [`DriverKind::Fifo`].
    Threaded,
}

/// Ingest-stage counters, snapshotted by value through the driver
/// surface. (By value because they are summed over the shards on
/// demand — there is no single struct to borrow.)
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

/// The router-facing surface [`crate::Garnet`] drives: everything the
/// facade needs — frame intake, pumping, subscriptions, stream
/// catalogue, control-plane access, metrics, the intake ledger, shard
/// supervision and the flight recorder.
///
/// The contract the facade's determinism guarantees rest on:
///
/// * [`RouterDriver::pump_into`] (and [`RouterDriver::pump`], the same
///   function with a fresh buffer) hands back escaped outputs in the
///   exact order the FIFO router would surface them; nothing handed
///   back means the graph is quiescent.
/// * Subscription and registry mutations only happen between pumps
///   (the facade is single-threaded).
/// * [`RouterDriver::shutdown`] drains in-flight work and joins any
///   worker pool; afterwards reads (metrics, traces, streams) still
///   work, and frames offered to a joined pool are dropped.
pub trait RouterDriver: std::fmt::Debug {
    /// Queues one boundary event — the control path: never shed.
    fn push_event(&mut self, ev: ServiceEvent, now: SimTime);

    /// Hands a burst of frames to the engine's unbounded intake, one
    /// ledger entry per frame; the pump amortises per-frame costs over
    /// the burst (one filtering pass per shard, and with pooled shards
    /// one hand-off each). The returned `Vec` is always empty: it is kept
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

    /// Filtering-worker restarts performed by the supervision policy
    /// (always 0 with inline shards — no threads, nothing restarts).
    fn shard_restart_count(&self) -> u64;

    /// Jobs handed to filtering workers per [`garnet_net::EdgeClass`],
    /// indexed by `EdgeClass::index` (see
    /// [`ShardedIngest::class_submits`]). All zeros with inline shards,
    /// which have no channel boundary to account at.
    fn edge_class_submits(&self) -> [u64; 3];

    /// The pipeline latency spans recorded so far (filtering /
    /// dispatching / end-to-end, sim-time driven). Still readable after
    /// shutdown.
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
    /// empty with inline shards, which have no threads to lose).
    fn take_shard_failures(&mut self) -> Vec<ShardFailure>;

    /// The earliest time-driven deadline across services.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Replaces the flight recorder with one of the given capacity.
    fn configure_trace(&mut self, config: TraceConfig);

    /// The flight recorder's current contents.
    fn trace_snapshot(&self) -> TraceSnapshot;

    /// Drains in-flight work and joins any worker pool, returning the
    /// outputs released on the way out. Reads keep working afterwards.
    fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput>;
}

/// The FIFO [`Router`] behind the driver surface — the one engine,
/// whatever its ingest stage runs on.
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
        self.router.services().ingest.stats()
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
        self.router.services().ingest.shard_restarts()
    }

    fn edge_class_submits(&self) -> [u64; 3] {
        self.router.services().ingest.class_submits()
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
        self.router.services_mut().ingest.take_failures()
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

    fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput> {
        let mut out = Vec::new();
        while self.router.step(now, &mut out) {}
        self.router.services_mut().ingest.join();
        out
    }
}

/// The constructor the benchmark names for [`DriverKind::Threaded`]:
/// builds the [`Services`] with a pooled ingest stage and returns the
/// one driver type over them.
#[derive(Debug)]
pub struct ThreadedDriver;

impl ThreadedDriver {
    /// A [`FifoDriver`] whose `ingest_shards` filtering shards run on
    /// worker threads ([`ShardedIngest::pooled`]).
    ///
    /// * `_overload` — accepted for the benchmark's call site; has no effect.
    /// * `_batch` — accepted for the benchmark's call site; has no effect.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        config: FilterConfig,
        ingest_shards: usize,
        dispatch_shards: usize,
        control: ControlGraph,
        _overload: Option<OverloadConfig>,
        _batch: bool,
        cache: garnet_net::DispatchCacheConfig,
    ) -> FifoDriver {
        let services = Services {
            ingest: ShardedIngest::pooled(config, ingest_shards),
            dispatch: ShardedDispatch::with_cache(dispatch_shards, cache),
            control,
        };
        FifoDriver::new(services, None, true)
    }
}
