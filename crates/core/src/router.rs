//! The event router: Figure 1's arrows as a FIFO of typed events.
//!
//! [`Router`] owns every sans-io service and moves
//! [`ServiceEvent`]s between them. One [`Router::step`] pops one event,
//! hands it to the owning service, re-enqueues any
//! [`ServiceOutput::Emit`] at the *back* of the queue, and returns the
//! remaining outputs (deliveries, plans, denials, expiries) for the
//! facade to apply. The queue is strictly FIFO, which makes the whole
//! middleware a deterministic event machine: the same enqueue sequence
//! always produces the same output sequence, regardless of how the
//! ingest stage is sharded.
//!
//! The ingest hot path (the Filtering Service) is the only stage with
//! per-message CPU cost worth parallelising, so it alone is sharded:
//! [`ShardedIngest`] partitions streams across N independent
//! [`FilteringService`]s by sensor id (every stream of a sensor lands on
//! one shard, so per-stream sequence state never crosses shards) and
//! merges flushes back into the stream-id order a single service would
//! have produced. [`ThreadedRouter`] runs the same shards — and the rest
//! of the graph — on OS threads for live deployments.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, RwLock};

use garnet_net::{EdgeClass, RootFailure, StageEdge, SubscriptionTable, SupervisionConfig};
use garnet_radio::ReceiverId;
use garnet_simkit::trace::{TraceConfig, TraceRecord, TraceSnapshot, Tracer};
use garnet_simkit::{Histogram, SimTime};
use garnet_wire::{peek_stream, ActuationTarget, FrameBytes};

use crate::actuation::{ActuationConfig, ActuationService};
use crate::coordinator::{CoordinationMode, SuperCoordinator};
use crate::dispatching::{DispatchOutcome, DispatchingService};
use crate::driver::{DispatchStats, FilterStats};
use crate::filtering::{Delivery, FilterConfig, FilterResult, FilteringService, FrameArrival};
use crate::location::{LocationConfig, LocationService};
use crate::orphanage::{Orphanage, OrphanageConfig};
use crate::replicator::MessageReplicator;
use crate::resource::{MediationPolicy, ResourceManager};
#[cfg(feature = "trace")]
use crate::service::BatchedFrame;
use crate::service::{GarnetService, ServiceEvent, ServiceOutput};
use crate::stream::{shard_of_sensor, ShardedStreamRegistry};
use crate::telemetry::{PipelineSpans, QueueDepthGauges};
use crate::trace::RootTag;
#[cfg(feature = "trace")]
use crate::trace::{event_record, frame_record, RootTrace};
#[cfg(feature = "trace")]
use garnet_simkit::trace::{TraceEventKind, TraceOutcome, TraceStage};

/// The ingest stage: N filtering shards partitioned by sensor id.
///
/// With `shards == 1` this is exactly one [`FilteringService`]. With
/// more, each sensor's streams are pinned to one shard; frame handling
/// is embarrassingly parallel across shards because the only shared
/// state — per-stream sequence windows — is partitioned with them.
/// Reorder flushes are merged back into ascending stream-id order,
/// which is the order a single service's `BTreeMap` walk produces, so
/// the event sequence leaving this stage is bit-identical for any shard
/// count.
#[derive(Debug)]
pub struct ShardedIngest {
    shards: Vec<FilteringService>,
}

impl ShardedIngest {
    /// Creates an ingest stage with `shards` filtering shards (0 is
    /// treated as 1).
    pub fn new(config: FilterConfig, shards: usize) -> Self {
        let n = shards.max(1);
        ShardedIngest { shards: (0..n).map(|_| FilteringService::new(config)).collect() }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a frame belongs to. Undecodable-but-headed frames
    /// still shard deterministically via [`peek_stream`]; frames too
    /// short to carry a stream id land on shard 0 (they fail CRC
    /// wherever they land — the choice only has to be deterministic).
    pub fn shard_of(&self, frame: &[u8]) -> usize {
        match peek_stream(frame) {
            Some(stream) => shard_of_sensor(stream.sensor().as_u32(), self.shards.len()),
            None => 0,
        }
    }

    /// Feeds one frame to its shard, returning the raw filter result.
    pub fn on_frame(
        &mut self,
        receiver: ReceiverId,
        rssi_dbm: f64,
        frame: &FrameBytes,
        now: SimTime,
    ) -> FilterResult {
        let shard = self.shard_of(frame);
        self.shards[shard].on_frame(receiver, rssi_dbm, frame, now)
    }

    /// Feeds a burst of frames, equivalent to [`ShardedIngest::on_frame`]
    /// per entry in order: results come back in arrival order, and since
    /// streams are pinned to shards, routing each shard its own
    /// arrival-ordered sub-batch observes exactly the per-frame state
    /// evolution. Each shard validates its sub-batch's headers in one
    /// prepass ([`FilteringService::on_batch`]).
    pub fn on_batch(&mut self, frames: &[FrameArrival]) -> Vec<FilterResult> {
        if self.shards.len() == 1 {
            return self.shards[0].on_batch(frames);
        }
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, f) in frames.iter().enumerate() {
            per_shard[self.shard_of(&f.frame)].push(i);
        }
        let mut out: Vec<Option<FilterResult>> = frames.iter().map(|_| None).collect();
        for (shard, idxs) in per_shard.into_iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            // Cloning a FrameArrival only bumps the frame's refcount.
            let batch: Vec<FrameArrival> = idxs.iter().map(|&i| frames[i].clone()).collect();
            for (i, r) in idxs.into_iter().zip(self.shards[shard].on_batch(&batch)) {
                out[i] = Some(r);
            }
        }
        out.into_iter().map(|r| r.expect("every frame lands on exactly one shard")).collect()
    }

    /// Flushes expired reorder buffers on every shard and merges the
    /// releases into ascending stream-id order (identical to a single
    /// unsharded service: each shard flushes in stream-id order, and
    /// streams are partitioned, so a stable merge by stream id
    /// reproduces the global order).
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Delivery> {
        let mut out: Vec<Delivery> = Vec::new();
        for shard in &mut self.shards {
            out.extend(shard.on_tick(now));
        }
        out.sort_by_key(|d| d.msg.stream().to_raw());
        out
    }

    /// The earliest reorder deadline across shards.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(FilteringService::next_deadline).min()
    }

    /// Emits the events one frame's filter result owes the graph, in the
    /// order every engine must queue them: the location sighting, then
    /// an `AckReceived` for each released message carrying a
    /// piggy-backed acknowledgement, then the released messages
    /// themselves. Both engines feed their queues through this one
    /// function, so that order is defined once.
    pub(crate) fn frame_events(result: FilterResult, mut emit: impl FnMut(ServiceEvent)) {
        if let Some(obs) = result.observation {
            emit(ServiceEvent::Observed(obs));
        }
        for d in &result.deliveries {
            if let Some(request_id) = d.msg.ack() {
                emit(ServiceEvent::AckReceived {
                    request_id,
                    status: garnet_wire::AckStatus::Applied,
                });
            }
        }
        for delivery in result.deliveries {
            emit(ServiceEvent::Filtered { delivery, depth: 0 });
        }
    }

    /// Messages released downstream (all shards).
    pub fn delivered_count(&self) -> u64 {
        self.shards.iter().map(FilteringService::delivered_count).sum()
    }

    /// Duplicate frames eliminated (all shards).
    pub fn duplicate_count(&self) -> u64 {
        self.shards.iter().map(FilteringService::duplicate_count).sum()
    }

    /// Frames rejected by CRC/decode (all shards).
    pub fn crc_failure_count(&self) -> u64 {
        self.shards.iter().map(FilteringService::crc_failure_count).sum()
    }

    /// Frames buffered out of order (all shards).
    pub fn reordered_count(&self) -> u64 {
        self.shards.iter().map(FilteringService::reordered_count).sum()
    }

    /// Gaps accepted (all shards).
    pub fn gap_count(&self) -> u64 {
        self.shards.iter().map(FilteringService::gap_count).sum()
    }

    /// Stream restarts detected (all shards).
    pub fn restart_count(&self) -> u64 {
        self.shards.iter().map(FilteringService::restart_count).sum()
    }

    /// Streams tracked (streams are partitioned, so the sum is exact).
    pub fn stream_count(&self) -> usize {
        self.shards.iter().map(FilteringService::stream_count).sum()
    }
}

/// The dispatch stage partitioned by sensor id — the same
/// [`shard_of_sensor`] hash as [`ShardedIngest`], so all of a sensor's
/// streams route on one dispatch shard and the per-shard
/// [`crate::stream::StreamRegistry`] partitions never overlap.
///
/// Subscription state is *partitioned* with the streams: a
/// `Stream`/`Sensor` filter lives only on the shard that owns every
/// stream it can match, so per-shard table size no longer scales as
/// `shards × subscribers`. Only [`garnet_net::TopicFilter::All`] — which
/// matches streams on every shard — is replicated, one copy per shard.
/// Message-path calls (`route`, registry updates) go to the owning
/// shard only; counters sum across shards and the catalogue merges in
/// ascending stream-id order — with the sim driver pumping events in
/// FIFO order, every observable is bit-identical for any shard count.
#[derive(Debug)]
pub struct ShardedDispatch {
    dispatchers: Vec<DispatchingService>,
    /// The stream catalogue, partitioned with the dispatchers.
    pub streams: ShardedStreamRegistry,
    next_subscriber: u32,
    /// Whether the most recent [`ShardedDispatch::route`] (re)built its
    /// match set — consumed by the tracer via
    /// [`ShardedDispatch::take_last_rebuild`].
    last_rebuilt: bool,
}

impl ShardedDispatch {
    /// Creates a dispatch stage with `shards` partitions (0 is treated
    /// as 1), under the default match-cache configuration.
    pub fn new(shards: usize) -> Self {
        Self::with_cache(shards, garnet_net::DispatchCacheConfig::default())
    }

    /// Creates a dispatch stage whose per-shard match caches run under
    /// an explicit configuration.
    pub fn with_cache(shards: usize, cache: garnet_net::DispatchCacheConfig) -> Self {
        let n = shards.max(1);
        ShardedDispatch {
            dispatchers: (0..n).map(|_| DispatchingService::with_cache(cache)).collect(),
            streams: ShardedStreamRegistry::new(n),
            next_subscriber: 0,
            last_rebuilt: false,
        }
    }

    /// Number of dispatch shards.
    pub fn shard_count(&self) -> usize {
        self.dispatchers.len()
    }

    fn shard_of(&self, stream: garnet_wire::StreamId) -> usize {
        shard_of_sensor(stream.sensor().as_u32(), self.dispatchers.len())
    }

    /// Allocates a fresh subscriber identity. Allocation is global —
    /// one counter across all shards — so ids never collide however the
    /// stage is sharded.
    pub fn register_subscriber(&mut self) -> garnet_net::SubscriberId {
        let id = garnet_net::SubscriberId::new(self.next_subscriber);
        self.next_subscriber += 1;
        id
    }

    /// The shard that owns every stream `filter` can match (`None` for
    /// [`garnet_net::TopicFilter::All`], which has no single owner).
    fn shard_of_filter(&self, filter: garnet_net::TopicFilter) -> Option<usize> {
        match filter {
            garnet_net::TopicFilter::Stream(stream) => Some(self.shard_of(stream)),
            garnet_net::TopicFilter::Sensor(sensor) => {
                Some(shard_of_sensor(sensor.as_u32(), self.dispatchers.len()))
            }
            garnet_net::TopicFilter::All => None,
        }
    }

    /// Adds a subscription on the shard that owns the filter's streams
    /// (`All` is replicated to every shard). Returns true if new.
    pub fn subscribe(
        &mut self,
        subscriber: garnet_net::SubscriberId,
        filter: garnet_net::TopicFilter,
    ) -> bool {
        match self.shard_of_filter(filter) {
            Some(shard) => self.dispatchers[shard].subscribe(subscriber, filter),
            None => self
                .dispatchers
                .iter_mut()
                .map(|d| d.subscribe(subscriber, filter))
                .fold(false, |a, b| a | b),
        }
    }

    /// Removes one subscription from its owning shard (every shard for
    /// `All`).
    pub fn unsubscribe(
        &mut self,
        subscriber: garnet_net::SubscriberId,
        filter: garnet_net::TopicFilter,
    ) -> bool {
        match self.shard_of_filter(filter) {
            Some(shard) => self.dispatchers[shard].unsubscribe(subscriber, filter),
            None => self
                .dispatchers
                .iter_mut()
                .map(|d| d.unsubscribe(subscriber, filter))
                .fold(false, |a, b| a | b),
        }
    }

    /// Removes every subscription of a departing consumer, on every
    /// shard. Returns the consumer's distinct filter count (an `All`
    /// filter counts once however many shards replicate it).
    pub fn unsubscribe_all(&mut self, subscriber: garnet_net::SubscriberId) -> usize {
        let distinct: std::collections::BTreeSet<garnet_net::TopicFilter> =
            self.dispatchers.iter().flat_map(|d| d.filters_of(subscriber)).collect();
        for d in &mut self.dispatchers {
            d.unsubscribe_all(subscriber);
        }
        distinct.len()
    }

    /// Routes one message on its owning shard.
    pub fn route(&mut self, stream: garnet_wire::StreamId) -> DispatchOutcome {
        let shard = self.shard_of(stream);
        let outcome = self.dispatchers[shard].route(stream);
        self.last_rebuilt = outcome.rebuilt;
        outcome
    }

    /// The dispatch stage's whole job for one filtered message: route it
    /// on its owning shard, record it (and whether anyone claimed it) in
    /// the catalogue with one lookup, and build its single output.
    pub fn dispatch(&mut self, delivery: Delivery, depth: u32) -> ServiceOutput {
        let stream = delivery.msg.stream();
        let outcome = self.route(stream);
        self.streams.note_routed(
            stream,
            delivery.msg.payload().len(),
            delivery.delivered_at,
            depth > 0,
            !outcome.unclaimed,
        );
        routed_output(outcome.recipients, delivery, depth)
    }

    /// Whether the most recent route (re)built its match set, clearing
    /// the flag — the FIFO router reads this right after pumping a
    /// `Filtered` event to append the `CacheRebuild` trace record.
    pub fn take_last_rebuild(&mut self) -> bool {
        std::mem::take(&mut self.last_rebuilt)
    }

    /// Per-shard match-cache counters folded into one view.
    pub fn cache_stats(&self) -> garnet_net::MatchCacheStats {
        let mut stats = garnet_net::MatchCacheStats::default();
        for d in &self.dispatchers {
            stats.absorb(d.cache_stats());
        }
        stats
    }

    /// Peeks the match set without accounting (owning shard).
    pub fn would_deliver(&self, stream: garnet_wire::StreamId) -> bool {
        self.dispatchers[self.shard_of(stream)].would_deliver(stream)
    }

    /// Messages routed (all shards).
    pub fn dispatched_count(&self) -> u64 {
        self.dispatchers.iter().map(DispatchingService::dispatched_count).sum()
    }

    /// Total (message, subscriber) deliveries (all shards).
    pub fn delivery_count(&self) -> u64 {
        self.dispatchers.iter().map(DispatchingService::delivery_count).sum()
    }

    /// Messages that matched nobody (all shards).
    pub fn unclaimed_count(&self) -> u64 {
        self.dispatchers.iter().map(DispatchingService::unclaimed_count).sum()
    }

    /// Distribution of per-message fan-out, merged across shards.
    pub fn fanout(&self) -> Histogram {
        let mut h = Histogram::new();
        for d in &self.dispatchers {
            h.merge(d.fanout());
        }
        h
    }

    /// Distinct subscribers with live subscriptions across all shards.
    pub fn subscriber_count(&self) -> usize {
        let ids: std::collections::BTreeSet<garnet_net::SubscriberId> =
            self.dispatchers.iter().flat_map(|d| d.subscriber_ids()).collect();
        ids.len()
    }

    /// Per-shard subscription-table sizes — the partitioning regression
    /// metric: `Stream`/`Sensor` filters live on exactly one shard, so
    /// (absent `All` filters) the sum equals an unsharded table holding
    /// the same subscriptions.
    pub fn shard_subscription_counts(&self) -> Vec<usize> {
        self.dispatchers.iter().map(DispatchingService::subscription_count).collect()
    }
}

/// The one place a routed message becomes an output, for both engines:
/// a message nobody matched goes to the Orphanage, anything else is one
/// [`ServiceOutput::Deliver`] carrying the whole match set — no
/// per-recipient output and no `Delivery` clone, whatever the fan-out.
fn routed_output(
    recipients: Arc<[garnet_net::SubscriberId]>,
    delivery: Delivery,
    depth: u32,
) -> ServiceOutput {
    if recipients.is_empty() {
        ServiceOutput::Emit(ServiceEvent::Orphaned(delivery))
    } else {
        ServiceOutput::Deliver { recipients, delivery, depth }
    }
}

/// The control-plane services downstream of dispatch, owned together
/// with their routing: the orphanage, location, resource, actuation,
/// replicator and coordinator boxes of Figure 1.
///
/// These services form a *closed* cascade — no control service ever
/// emits a `Frame` or `Filtered` event back into the data plane — so a
/// threaded driver can run the whole group as one worker: feed it the
/// control events of one boundary event and [`ControlGraph::pump`] runs
/// the internal FIFO to quiescence exactly as the single-threaded
/// [`Router`] would.
#[derive(Debug)]
pub struct ControlGraph {
    /// Unclaimed-message retention.
    pub orphanage: Orphanage,
    /// Sensor location inference.
    pub location: LocationService,
    /// Actuation conflict mediation.
    pub resource: ResourceManager,
    /// Stream-update tracking and retry.
    pub actuation: ActuationService,
    /// Area-targeted downlink planning.
    pub replicator: MessageReplicator,
    /// State-triggered policy actions.
    pub coordinator: SuperCoordinator,
}

impl Default for ControlGraph {
    /// A control graph with every service at its default configuration
    /// and no receiver/transmitter arrays — the shape tests and
    /// threaded-driver factories want when the run exercises the data
    /// path rather than radio geometry.
    fn default() -> Self {
        ControlGraph {
            orphanage: Orphanage::new(OrphanageConfig::default()),
            location: LocationService::new(LocationConfig::default(), &[]),
            resource: ResourceManager::new(MediationPolicy::MergeMax),
            actuation: ActuationService::new(ActuationConfig::default()),
            replicator: MessageReplicator::new(Vec::new()),
            coordinator: SuperCoordinator::new(CoordinationMode::Predictive {
                min_confidence: 0.6,
            }),
        }
    }
}

impl ControlGraph {
    fn route(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput> {
        use ServiceEvent::*;
        match ev {
            Orphaned(_) => self.orphanage.handle(ev, now),
            Observed(_) | Hint { .. } => self.location.handle(ev, now),
            ActuationRequested { .. } => self.resource.handle(ev, now),
            Submit { .. } | AckReceived { .. } | ActuationTick => self.actuation.handle(ev, now),
            Replicate { origin, requester, request, estimate } => {
                // The replicator's read-dependency on the Location
                // Service is resolved here, at routing time, so the
                // replicator itself stays free of service references.
                let estimate = estimate.or_else(|| match request.target {
                    ActuationTarget::Sensor(s) => self.location.estimate(s, now),
                    ActuationTarget::Stream(st) => self.location.estimate(st.sensor(), now),
                    ActuationTarget::Area(_) => None,
                });
                self.replicator.handle(Replicate { origin, requester, request, estimate }, now)
            }
            StateReported { .. } => self.coordinator.handle(ev, now),
            // Data-plane events are not ours; ignoring them keeps the
            // contract total.
            Frame { .. } | FrameBatch(_) | FlushReorder | Filtered { .. } => Vec::new(),
        }
    }

    /// Runs `events` (and everything they cascade into) to quiescence
    /// over an internal FIFO, returning the outputs that escape the
    /// graph. This is exactly the [`Router`]'s pump restricted to the
    /// control plane, which is what makes a one-worker threaded control
    /// stage bit-identical to the single-threaded router.
    pub fn pump(&mut self, events: Vec<ServiceEvent>, now: SimTime) -> Vec<ServiceOutput> {
        self.pump_traced(events, now).0
    }

    /// [`ControlGraph::pump`] plus one [`TraceRecord`] per event hop, in
    /// the FIFO order the hops were routed (always empty with the
    /// `trace` feature off). Records carry no root sequence — the driver
    /// owns that and stamps it when the trace is merged.
    pub fn pump_traced(
        &mut self,
        events: Vec<ServiceEvent>,
        now: SimTime,
    ) -> (Vec<ServiceOutput>, Vec<TraceRecord>) {
        let mut queue: VecDeque<ServiceEvent> = events.into();
        let mut external = Vec::new();
        #[cfg_attr(not(feature = "trace"), allow(unused_mut))]
        let mut trace: Vec<TraceRecord> = Vec::new();
        while let Some(ev) = queue.pop_front() {
            #[cfg(feature = "trace")]
            trace.push(event_record(&ev, now, None));
            for o in self.route(ev, now) {
                match o {
                    ServiceOutput::Emit(ev) => queue.push_back(ev),
                    other => external.push(other),
                }
            }
        }
        (external, trace)
    }
}

impl GarnetService for ControlGraph {
    fn handle(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput> {
        self.route(ev, now)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        GarnetService::next_deadline(&self.actuation)
    }
}

/// Every routed service, owned together so the router can borrow them
/// independently — grouped by stage: the sharded data plane (ingest,
/// dispatch) and the control plane behind it. Fields are public: the
/// facade reaches in for direct reads (statistics) and the rare
/// synchronous call (subscription changes, orphanage claims) that is
/// request/response rather than dataflow.
#[derive(Debug)]
pub struct Services {
    /// Sharded filtering (the ingest hot path).
    pub ingest: ShardedIngest,
    /// Sharded subscription routing + stream catalogue.
    pub dispatch: ShardedDispatch,
    /// Everything downstream of dispatch.
    pub control: ControlGraph,
}

/// How the facade's admission scheduler ([`crate::qos::QosScheduler`],
/// the one place this is decided) responds when its bounded data tier
/// is at capacity. Only radio frames are ever governed — control events
/// (acks, actuations, flushes) are never dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Drop the oldest staged frame to admit the newest — the arrivals
    /// most likely to still matter survive.
    Shed,
    /// Replace a staged frame of the arriving frame's stream with
    /// whichever carries the newer sequence number (per-stream
    /// freshness, as a GSN-style drop policy); falls back to shedding
    /// the oldest staged frame when the stream has nothing staged.
    CoalesceFrames,
    /// Admit nothing over capacity: the facade releases the staged
    /// tier into the engine and pumps it dry to make room, then
    /// re-offers — nothing is dropped.
    Block,
}

/// Bounded admission control for the facade's frame intake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Maximum number of frames staged at once (0 is treated as 1).
    pub capacity: usize,
    /// What to do with a frame arriving at capacity.
    pub policy: OverloadPolicy,
}

/// Monotonic frame-admission totals, for metrics deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadTotals {
    /// Frames accepted into admission (everything except blocked
    /// attempts, which retry and count once on success).
    pub offered: u64,
    /// Frames dropped by the overload policy before filtering.
    pub shed: u64,
    /// The subset of `shed` dropped in favour of a newer same-stream
    /// sequence.
    pub coalesced: u64,
    /// Frames released into filtering.
    pub delivered: u64,
}

/// The FIFO event router over [`Services`].
#[derive(Debug)]
pub struct Router {
    services: Services,
    /// Each queued event carries the root-sequence tag of the boundary
    /// event it descends from (a zero-sized unit unless the `trace`
    /// feature is on).
    queue: VecDeque<(RootTag, ServiceEvent)>,
    /// `Frame` events currently in `queue` (control events excluded).
    queued_frames: usize,
    /// Frames offered and stepped; the queue never drops one.
    totals: OverloadTotals,
    peak_queued: u64,
    /// The flight recorder (a zero-sized no-op unless the `trace`
    /// feature is on).
    tracer: Tracer,
    /// Always-on latency spans, recorded once per dispatched delivery.
    spans: PipelineSpans,
    /// Per-ingest-shard admission-depth gauges.
    depths: QueueDepthGauges,
    /// [`Router::step_batch`]'s scratch, kept between calls so a burst
    /// costs no allocation here: the run's root tags and its arrivals
    /// (both empty outside a call).
    tags: Vec<RootTag>,
    arrivals: Vec<FrameArrival>,
    /// Next root sequence number for a boundary enqueue.
    #[cfg(feature = "trace")]
    next_root: u64,
}

impl Router {
    /// Creates a router over the given services with an empty,
    /// unbounded queue.
    pub fn new(services: Services) -> Self {
        let depths = QueueDepthGauges::new(services.ingest.shard_count());
        Router {
            services,
            queue: VecDeque::new(),
            queued_frames: 0,
            totals: OverloadTotals::default(),
            peak_queued: 0,
            tracer: Tracer::new(TraceConfig::default()),
            spans: PipelineSpans::new(),
            depths,
            tags: Vec::new(),
            arrivals: Vec::new(),
            #[cfg(feature = "trace")]
            next_root: 0,
        }
    }

    /// Replaces the flight recorder with one of the given capacity
    /// (any records already buffered are discarded). A no-op without
    /// the `trace` feature.
    pub fn configure_trace(&mut self, config: TraceConfig) {
        self.tracer = Tracer::new(config);
    }

    /// The flight recorder's current contents (chronological) plus
    /// per-stage statistics. Empty without the `trace` feature.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Streams the flight recorder's window to `w` as JSONL and clears
    /// it (see [`Tracer::drain_to`]).
    pub fn trace_drain_to(&mut self, mut w: &mut dyn std::io::Write) -> std::io::Result<usize> {
        self.tracer.drain_to(&mut w)
    }

    /// Shared view of the services.
    pub fn services(&self) -> &Services {
        &self.services
    }

    /// Mutable view of the services (for synchronous facade calls).
    pub fn services_mut(&mut self) -> &mut Services {
        &mut self.services
    }

    /// Enqueues an event at the back of the queue — the control path:
    /// acks, actuations, flushes and other non-`Frame` events. Frames
    /// entering here still count against the queue depth.
    #[cfg_attr(not(feature = "trace"), allow(clippy::let_unit_value))]
    pub fn enqueue(&mut self, ev: ServiceEvent) {
        let tag = self.alloc_root();
        self.enqueue_tagged(tag, ev);
    }

    /// Allocates a fresh root-sequence tag for a boundary enqueue.
    #[cfg(feature = "trace")]
    fn alloc_root(&mut self) -> RootTag {
        let root = self.next_root;
        self.next_root += 1;
        root
    }

    #[cfg(not(feature = "trace"))]
    #[inline(always)]
    fn alloc_root(&mut self) -> RootTag {}

    /// Enqueues under an existing root tag — the cascade path: events a
    /// service emitted while handling `tag`'s work stay attributed to
    /// that boundary event.
    fn enqueue_tagged(&mut self, tag: RootTag, ev: ServiceEvent) {
        if matches!(ev, ServiceEvent::Frame { .. }) {
            self.queued_frames += 1;
            self.peak_queued = self.peak_queued.max(self.queued_frames as u64);
        }
        self.queue.push_back((tag, ev));
    }

    /// Queues one radio frame for filtering and counts it offered. The
    /// queue is unbounded: what happens to a frame at capacity was
    /// decided before it got here, by [`crate::qos::QosScheduler`].
    pub fn admit_frame(&mut self, receiver: ReceiverId, rssi_dbm: f64, frame: FrameBytes) {
        self.totals.offered += 1;
        self.note_offered_depth(&frame);
        self.enqueue(ServiceEvent::Frame { receiver, rssi_dbm, frame });
    }

    /// Samples the telemetry depth gauges for one offered frame: the
    /// total and the frame's ingest shard — the same count the threaded
    /// router samples at `push_frames`, so the gauges are
    /// engine-invariant. Skipped entirely (including the shard peek)
    /// when span recording is off.
    fn note_offered_depth(&mut self, frame: &[u8]) {
        if self.depths.enabled() {
            // A single-shard deployment (the default) needs no header
            // peek — every frame lands on shard 0.
            let shard = if self.services.ingest.shard_count() == 1 {
                0
            } else {
                self.services.ingest.shard_of(frame)
            };
            self.depths.note_admitted(shard);
        }
    }

    /// Records a frame the admission scheduler dropped before it reached
    /// the queue, under a root of its own (nothing was routed, so
    /// [`Router::step`] will never trace it).
    #[cfg(feature = "trace")]
    pub fn trace_dropped(&mut self, frame: &BatchedFrame, outcome: TraceOutcome, now: SimTime) {
        let root = self.alloc_root();
        self.tracer.record(|| TraceRecord {
            root: Some(root),
            outcome,
            ..frame_record(&frame.frame, now)
        });
    }

    /// Pops and routes one event. Events a service emits go straight to
    /// the back of the queue; everything else — the outputs that escape
    /// the graph — is appended to `out`, the caller's buffer, for the
    /// driver to apply. Returns `false` when the queue is empty
    /// (quiescence).
    pub fn step(&mut self, now: SimTime, out: &mut Vec<ServiceOutput>) -> bool {
        let Some((tag, ev)) = self.queue.pop_front() else { return false };
        if matches!(ev, ServiceEvent::Frame { .. }) {
            self.queued_frames -= 1;
            self.totals.delivered += 1;
        }
        // Every delivery passes through here exactly once (batch-mode
        // cascades re-enter the queue), so this is the FIFO engine's
        // span point; the threaded engine records the same three legs
        // at its B drain.
        if let ServiceEvent::Filtered { delivery, .. } = &ev {
            self.spans.record(delivery.first_received_at, delivery.delivered_at, now);
        }
        #[cfg(feature = "trace")]
        let rec = {
            let rec = event_record(&ev, now, Some(tag));
            self.tracer.note_occupancy(rec.stage, self.queue.len() as u64);
            self.tracer.record(|| rec);
            rec
        };
        match ev {
            ServiceEvent::Frame { receiver, rssi_dbm, frame } => {
                let result = self.services.ingest.on_frame(receiver, rssi_dbm, &frame, now);
                self.enqueue_frame_result(tag, result);
            }
            // The member frames in order, each exactly as a `Frame`
            // event would be handled.
            ServiceEvent::FrameBatch(frames) => {
                for f in frames {
                    let result =
                        self.services.ingest.on_frame(f.receiver, f.rssi_dbm, &f.frame, now);
                    self.enqueue_frame_result(tag, result);
                }
            }
            ServiceEvent::FlushReorder => {
                for delivery in self.services.ingest.on_tick(now) {
                    self.enqueue_tagged(tag, ServiceEvent::Filtered { delivery, depth: 0 });
                }
            }
            ServiceEvent::Filtered { delivery, depth } => {
                let output = self.services.dispatch.dispatch(delivery, depth);
                self.absorb(tag, output, out);
            }
            control => {
                for output in self.services.control.handle(control, now) {
                    self.absorb(tag, output, out);
                }
            }
        }
        // A dispatch hop that had to (re)build its match set appends a
        // CacheRebuild record right behind its Filtered one — the same
        // adjacency the threaded driver reconstructs per root.
        #[cfg(feature = "trace")]
        if rec.kind == TraceEventKind::Filtered && self.services.dispatch.take_last_rebuild() {
            self.tracer.record(|| TraceRecord { kind: TraceEventKind::CacheRebuild, ..rec });
        }
        true
    }

    /// Re-enqueues an emitted event under its root's tag, or hands an
    /// escaped output to the caller's buffer.
    fn absorb(&mut self, tag: RootTag, output: ServiceOutput, out: &mut Vec<ServiceOutput>) {
        match output {
            ServiceOutput::Emit(ev) => self.enqueue_tagged(tag, ev),
            other => out.push(other),
        }
    }

    /// Queues one frame's filter result as events under the frame's
    /// root tag, with no buffer in between.
    fn enqueue_frame_result(&mut self, tag: RootTag, result: FilterResult) {
        ShardedIngest::frame_events(result, |ev| self.enqueue_tagged(tag, ev));
    }

    /// Pops and routes a maximal run of consecutive `Frame` events as
    /// one filtering batch (falling back to [`Router::step`] when the
    /// queue head is anything else). Bit-identical to stepping the same
    /// events one at a time: frames were adjacent in the queue, so their
    /// cascades would have been enqueued back-to-back in this exact
    /// order anyway, and each frame keeps its own root tag, trace record
    /// and ledger entry — only the per-event dispatch and header
    /// re-validation are amortised. Frame steps escape nothing, so `out`
    /// is untouched on that path.
    pub fn step_batch(&mut self, now: SimTime, out: &mut Vec<ServiceOutput>) -> bool {
        if !matches!(self.queue.front(), Some((_, ServiceEvent::Frame { .. }))) {
            return self.step(now, out);
        }
        let mut tags = std::mem::take(&mut self.tags);
        let mut arrivals = std::mem::take(&mut self.arrivals);
        while matches!(self.queue.front(), Some((_, ServiceEvent::Frame { .. }))) {
            let (tag, ev) = self.queue.pop_front().expect("front was just matched");
            self.queued_frames -= 1;
            self.totals.delivered += 1;
            #[cfg(feature = "trace")]
            {
                let rec = event_record(&ev, now, Some(tag));
                self.tracer.note_occupancy(rec.stage, self.queue.len() as u64);
                self.tracer.record(|| rec);
            }
            let ServiceEvent::Frame { receiver, rssi_dbm, frame } = ev else {
                unreachable!("front was matched as a Frame");
            };
            tags.push(tag);
            arrivals.push(FrameArrival { receiver, rssi_dbm, frame, at: now });
        }
        let results = self.services.ingest.on_batch(&arrivals);
        arrivals.clear();
        for (tag, result) in tags.drain(..).zip(results) {
            self.enqueue_frame_result(tag, result);
        }
        self.tags = tags;
        self.arrivals = arrivals;
        true
    }

    /// Monotonic intake totals: frames offered and frames stepped into
    /// filtering (`shed` and `coalesced` stay zero — the queue never
    /// drops). At quiescence `offered == delivered`.
    pub fn overload_totals(&self) -> OverloadTotals {
        self.totals
    }

    /// `Frame` events currently queued.
    pub fn queued_frame_count(&self) -> usize {
        self.queued_frames
    }

    /// High-water mark of the frame queue.
    pub fn peak_queue_depth(&self) -> u64 {
        self.peak_queued
    }

    /// The pipeline latency spans recorded so far.
    pub fn pipeline_spans(&self) -> &PipelineSpans {
        &self.spans
    }

    /// The per-ingest-shard admission-depth gauges.
    pub fn queue_depth_gauges(&self) -> &QueueDepthGauges {
        &self.depths
    }

    /// Turns latency-span and depth-gauge recording on or off (on by
    /// default; `GarnetConfig.telemetry.spans` drives this).
    pub fn set_telemetry_recording(&mut self, enabled: bool) {
        self.spans.set_enabled(enabled);
        self.depths.set_enabled(enabled);
    }

    /// Resets the telemetry depth counts (the watermarks survive).
    /// Called by the facade after it pumps the engine dry — a *logical*
    /// quiescence both engines reach at the same boundary, unlike the
    /// racy "did the workers keep up?" quiescence a threaded poll could
    /// observe mid-burst.
    pub fn note_telemetry_quiescent(&mut self) {
        self.depths.note_quiescent();
    }

    /// The earliest time-driven deadline across routed services.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [self.services.ingest.next_deadline(), GarnetService::next_deadline(&self.services.control)]
            .into_iter()
            .flatten()
            .min()
    }
}

/// One queued frame awaiting its shard batch: (receiver, rssi_dbm,
/// frame bytes, arrival time).
type PendingFrame = (ReceiverId, f64, FrameBytes, SimTime);

fn pending_to_arrival((receiver, rssi_dbm, frame, at): PendingFrame) -> FrameArrival {
    FrameArrival { receiver, rssi_dbm, frame, at }
}

/// A job for one threaded filtering shard (the A edge).
enum FilterJob {
    /// One boundary frame.
    Frame(PendingFrame),
    /// A run of consecutive boundary frames bound for this shard. The
    /// job rides on the run's **first** root; frame `i` belongs to root
    /// `first + i` (the driver allocates the run's roots consecutively),
    /// so one job — one queue slot, one result hand-off, one counter
    /// snapshot — carries the whole run.
    Frames(Vec<PendingFrame>),
    /// Flush reorder buffers up to the given instant.
    Flush(SimTime),
}

/// What a filtering shard produced for one job, plus the shard's
/// counter snapshot (riding on the result keeps the router's metrics
/// view current without reaching into worker-owned state).
struct FilterOut {
    kind: FilterOutKind,
    /// The producing shard.
    shard: usize,
    /// The shard's counters after this job.
    stats: FilterStats,
    /// The shard's earliest reorder deadline after this job.
    next_deadline: Option<SimTime>,
}

/// The payload of a [`FilterOut`]. Frame results travel as the filter
/// produced them; the driver turns each into events at the A drain
/// ([`ShardedIngest::frame_events`], the order a single-threaded ingest
/// emits them in).
// One per job, moved once through the edge: boxing the inline variant
// would cost the per-frame allocation it exists to avoid.
#[allow(clippy::large_enum_variant)]
enum FilterOutKind {
    /// The frame's filter result.
    Frame(FilterResult),
    /// Per-frame results for a [`FilterJob::Frames`] run: entry `i`
    /// belongs to root `first + i`, where `first` is the root the job
    /// was submitted under.
    Frames(Vec<FilterResult>),
    /// The shard's flush releases, in its own stream-id order.
    Flush(Vec<Delivery>),
}

/// A job for one threaded dispatch shard (the B edge).
struct DispatchJob {
    delivery: Delivery,
    depth: u32,
}

/// The bookkeeping one routed delivery owes the router. Dispatch
/// workers are pure matchers over the shared subscription table; every
/// state mutation (stream catalogue, counters, claimed flags) rides
/// back in the note and is applied at the B drain — global submission
/// order, the exact order the FIFO router handles `Filtered` events.
struct RouteNote {
    stream: garnet_wire::StreamId,
    payload_len: usize,
    /// First boundary admission of the delivery's lead observation —
    /// with `delivered_at` and the root's `now`, everything the B drain
    /// needs to record the three latency spans.
    first_received_at: SimTime,
    delivered_at: SimTime,
    depth: u32,
    /// Subscribers matched (0 = the delivery went to the Orphanage).
    matched: usize,
    /// True if the shard's match cache (re)built this set — surfaces as
    /// a `CacheRebuild` trace record behind the `Filtered` one.
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    rebuilt: bool,
    /// Which dispatch shard routed the delivery, so the drain can slot
    /// the stats snapshot below.
    cache_shard: usize,
    /// Cumulative match-cache counters of that shard, snapshotted after
    /// this route. Riding every note costs four u64 copies and spares
    /// the worker any shared-state synchronisation.
    cache_stats: garnet_net::MatchCacheStats,
}

/// Routes one delivery against the subscription table — the B worker
/// body. `cache` is the worker's shard-local match cache.
fn route_delivery(
    table: &SubscriptionTable,
    cache: &mut garnet_net::MatchCache,
    shard: usize,
    delivery: Delivery,
    depth: u32,
) -> (ServiceOutput, RouteNote) {
    let (recipients, rebuilt) = cache.resolve(table, delivery.msg.stream());
    let note = RouteNote {
        stream: delivery.msg.stream(),
        payload_len: delivery.msg.payload().len(),
        first_received_at: delivery.first_received_at,
        delivered_at: delivery.delivered_at,
        depth,
        matched: recipients.len(),
        rebuilt,
        cache_shard: shard,
        cache_stats: cache.stats(),
    };
    (routed_output(recipients, delivery, depth), note)
}

/// A job for the control worker (the C edge): one boundary event's
/// control events, pumped to quiescence.
struct ControlJob {
    events: Vec<ServiceEvent>,
    now: SimTime,
}

/// The [`EdgeClass`] tag for a control-stage hand-off: the
/// highest-priority [`crate::qos::PriorityClass`] among the bundled
/// events (a batch carrying any graph-keeping event is control-class;
/// a pure actuation chain tags as actuation).
fn control_batch_class(batch: &[(u64, ControlJob)]) -> EdgeClass {
    use crate::qos::PriorityClass;
    let top = batch
        .iter()
        .flat_map(|(_, job)| job.events.iter())
        .map(PriorityClass::of)
        .min()
        .unwrap_or(PriorityClass::Control);
    match top {
        PriorityClass::Control => EdgeClass::Control,
        PriorityClass::Actuation => EdgeClass::Actuation,
        PriorityClass::Data => EdgeClass::Data,
    }
}

/// The trace record for one `Filtered` hop handed to a dispatch shard,
/// field-identical to the single-threaded router's record for the same
/// delivery (the shard id is the only extra).
#[cfg(feature = "trace")]
fn dispatch_record(delivery: &Delivery, now: SimTime, shard: usize) -> TraceRecord {
    TraceRecord {
        stream: Some(delivery.msg.stream().to_raw()),
        sensor: Some(delivery.msg.stream().sensor().as_u32()),
        age_us: now.saturating_since(delivery.first_received_at).as_micros(),
        shard: Some(shard as u32),
        ..TraceRecord::new(
            now.as_micros(),
            TraceStage::Dispatch,
            TraceEventKind::Filtered,
            TraceOutcome::Delivered,
        )
    }
}

/// Everything a [`ThreadedRouter`] tracks about one boundary event
/// while its work is spread across the three edges.
struct RootState {
    now: SimTime,
    a_expected: usize,
    a_done: usize,
    is_flush: bool,
    flush_submitted: bool,
    flush_deliveries: Vec<Delivery>,
    b_expected: usize,
    b_done: usize,
    c_events: Vec<ServiceEvent>,
    c_submitted: bool,
    c_done: bool,
    outputs: Vec<ServiceOutput>,
    /// Per-root trace buffer, merged into the recorder in canonical
    /// order when the root is released.
    #[cfg(feature = "trace")]
    trace: RootTrace,
}

impl RootState {
    fn new(now: SimTime) -> Self {
        RootState {
            now,
            a_expected: 0,
            a_done: 0,
            is_flush: false,
            flush_submitted: false,
            flush_deliveries: Vec::new(),
            b_expected: 0,
            b_done: 0,
            c_events: Vec::new(),
            c_submitted: false,
            c_done: false,
            outputs: Vec::new(),
            #[cfg(feature = "trace")]
            trace: RootTrace::default(),
        }
    }

    /// All filtering and dispatch work has landed (completed or been
    /// attributed to a failure): the root's control events are final.
    fn data_done(&self) -> bool {
        self.a_done == self.a_expected && self.b_done == self.b_expected
    }

    fn complete(&self) -> bool {
        self.data_done() && self.c_submitted && self.c_done
    }
}

/// The effects of one boundary event, released in boundary order.
#[derive(Debug)]
pub struct RootOutput {
    /// The boundary event's sequence number (the order
    /// [`ThreadedRouter`] releases outputs in).
    pub root: u64,
    /// Everything that escaped the service graph for this event:
    /// [`ServiceOutput::Deliver`]s in dispatch order, then the control
    /// cascade's terminals, exactly as the single-threaded [`Router`]
    /// would surface them.
    pub outputs: Vec<ServiceOutput>,
}

/// Terminal accounting for a threaded router run.
#[derive(Debug, Default)]
pub struct ThreadedRouterReport {
    /// Outputs still unreleased when [`ThreadedRouter::finish`] ran
    /// (normally empty — finish drains first).
    pub outputs: Vec<RootOutput>,
    /// Worker failures over the run, attributed to their boundary
    /// events.
    pub failures: Vec<RootFailure>,
    /// Frames offered to [`ThreadedRouter::push_frames`].
    pub offered_frames: u64,
    /// Jobs lost to shard failures across all edges.
    pub lost_jobs: u64,
    /// Shard restarts performed by the supervision policy.
    pub shard_restarts: u64,
    /// The run's flight-recorder contents (empty without the `trace`
    /// feature).
    pub trace: TraceSnapshot,
}

/// Everything [`ThreadedRouter::into_parts`] leaves behind once the
/// worker pools are joined: the run report plus the state a hosting
/// facade keeps serving reads from after shutdown.
#[derive(Debug)]
pub struct ThreadedRouterParts {
    /// Terminal accounting (unreleased outputs, failures, ledger,
    /// trace).
    pub report: ThreadedRouterReport,
    /// The stream catalogue at shutdown.
    pub streams: ShardedStreamRegistry,
    /// The control graph, when it ran inline ([`ThreadedRouter::hosted`]).
    pub control: Option<ControlGraph>,
    /// Final ingest counters.
    pub filter_stats: FilterStats,
    /// Final dispatch counters.
    pub dispatch_stats: DispatchStats,
    /// Pipeline latency spans at shutdown.
    pub spans: PipelineSpans,
    /// Admission-depth gauges at shutdown.
    pub depths: QueueDepthGauges,
}

/// How a [`ThreadedRouter`] runs its control plane.
// One instance per router, so the Worker/Inline size gap costs nothing.
#[allow(clippy::large_enum_variant)]
enum ControlStage {
    /// A dedicated worker pumping each root's cascade — the
    /// [`ThreadedRouter::new`] shape: everything off-thread.
    Worker(StageEdge<ControlJob, (Vec<ServiceOutput>, Vec<TraceRecord>)>),
    /// The graph pumped inline at the submission point — the
    /// facade-hosted shape, so the facade's synchronous control calls
    /// (orphanage claims, location reads, profile registration) can
    /// borrow the graph between pumps.
    Inline(Box<ControlGraph>),
}

/// The full service graph on OS threads: one worker (or shard pool) per
/// stage, FIFO per edge, deterministic output.
///
/// Three [`StageEdge`]s over `garnet-net`'s [`ShardPool`]:
///
/// * **A — filtering**: one [`FilteringService`] per ingest shard,
///   partitioned by [`shard_of_sensor`];
/// * **B — dispatch**: one pure matcher per dispatch shard over the
///   shared subscription table (`route_delivery`, with a shard-local
///   match cache), same hash;
/// * **C — control**: a single [`ControlGraph`] worker running each
///   boundary event's control cascade to quiescence.
///
/// Every boundary event (frame, flush, tick) is stamped with a **root**
/// sequence number at entry. Edges merge their outputs in submission
/// order (the [`StageEdge`] contract), the driver forwards each root's
/// work through B and C in root order, and finished roots are released
/// strictly in root order — so the output sequence is bit-identical to
/// the single-threaded [`Router`] pumping the same boundary events,
/// regardless of thread scheduling. Within one root, control events are
/// ordered exactly as the FIFO router would queue them: ingest-origin
/// events (Observed, AckReceived) first, then dispatch-origin Orphaned
/// events in dispatch order.
///
/// Determinism holds while subscriptions are static over the run (the B
/// workers route against snapshots).
///
/// Admission: every edge blocks. A full filtering shard pushes
/// backpressure to the caller and nothing is dropped here — shedding
/// and coalescing belong to the facade's scheduler
/// ([`crate::qos::QosScheduler`]). Worker panics are caught by the
/// pool, attributed to their root (which completes rather than hanging
/// the release order), and — with a [`SupervisionConfig`] — the shard
/// is rebuilt within the restart budget.
pub struct ThreadedRouter {
    a: StageEdge<FilterJob, FilterOut>,
    b: StageEdge<DispatchJob, (ServiceOutput, RouteNote)>,
    c: ControlStage,
    ingest_shards: usize,
    dispatch_shards: usize,
    /// The live subscription table every dispatch worker reads. The
    /// determinism contract: mutations only happen while the graph is
    /// quiescent (the hosting facade is single-threaded), so every job
    /// of a run sees the same table.
    subscriptions: Arc<RwLock<SubscriptionTable>>,
    /// The stream catalogue, updated at the B drain in global
    /// submission order.
    streams: ShardedStreamRegistry,
    /// Latest per-ingest-shard (counters, reorder deadline) snapshot,
    /// refreshed at the A drain.
    a_stats: Vec<(FilterStats, Option<SimTime>)>,
    /// Latest per-dispatch-shard match-cache snapshot, refreshed at the
    /// B drain (each note carries its shard's cumulative counters).
    b_cache_stats: Vec<garnet_net::MatchCacheStats>,
    /// Root span of each in-flight [`FilterJob::Frames`] run, keyed by
    /// the run's first root: a failed run must close every root it
    /// carried, not just the one the job rode on.
    a_spans: BTreeMap<u64, usize>,
    dispatched: u64,
    deliveries: u64,
    unclaimed: u64,
    fanout: Histogram,
    roots: BTreeMap<u64, RootState>,
    next_root: u64,
    /// Next root whose control job may be submitted (C is FIFO in root
    /// order).
    next_c_submit: u64,
    /// Next root to release (outputs leave in root order).
    next_release: u64,
    offered_frames: u64,
    lost_jobs: u64,
    failures: Vec<RootFailure>,
    /// The flight recorder (a zero-sized no-op unless the `trace`
    /// feature is on). Per-root buffers merge into it at release, so
    /// its record order matches the single-threaded router's.
    tracer: Tracer,
    /// Always-on latency spans, recorded at the B drain in global
    /// submission order — the same once-per-delivery point the FIFO
    /// router's `step` records at.
    spans: PipelineSpans,
    /// Per-ingest-shard admission-depth gauges, sampled at push time.
    depths: QueueDepthGauges,
}

impl ThreadedRouter {
    /// Spawns the graph with a 4-job queue per shard and no
    /// supervision. `control_factory` builds the control
    /// worker's [`ControlGraph`] (and rebuilds it on a supervised
    /// restart); `subscriptions` is snapshotted per dispatch worker.
    pub fn new(
        config: FilterConfig,
        ingest_shards: usize,
        dispatch_shards: usize,
        subscriptions: &SubscriptionTable,
        control_factory: impl FnMut() -> ControlGraph + 'static,
    ) -> Self {
        Self::with_options(
            config,
            ingest_shards,
            dispatch_shards,
            subscriptions,
            control_factory,
            4,
            None,
            garnet_net::DispatchCacheConfig::default(),
        )
    }

    /// [`ThreadedRouter::new`] with an explicit per-shard queue bound,
    /// supervision policy and match-cache configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn with_options(
        config: FilterConfig,
        ingest_shards: usize,
        dispatch_shards: usize,
        subscriptions: &SubscriptionTable,
        mut control_factory: impl FnMut() -> ControlGraph + 'static,
        queue_capacity: usize,
        supervision: Option<SupervisionConfig>,
        cache: garnet_net::DispatchCacheConfig,
    ) -> Self {
        let ingest_shards = ingest_shards.max(1);
        let dispatch_shards = dispatch_shards.max(1);
        let capacity = queue_capacity.max(1);
        let subscriptions = Arc::new(RwLock::new(subscriptions.clone()));
        let a = Self::filter_edge(config, ingest_shards, capacity, supervision);
        let b = Self::dispatch_edge(dispatch_shards, capacity, supervision, &subscriptions, cache);
        let c = ControlStage::Worker(StageEdge::new(1, capacity, supervision, move |_shard| {
            let mut control = control_factory();
            Box::new(move |job: ControlJob| control.pump_traced(job.events, job.now))
        }));
        Self::assemble(a, b, c, ingest_shards, dispatch_shards, subscriptions)
    }

    /// Spawns the facade-hosted shape: the control graph pumped inline
    /// (so the facade's synchronous control calls can reach it) and the
    /// live subscription table shared with the dispatch workers.
    pub fn hosted(
        config: FilterConfig,
        ingest_shards: usize,
        dispatch_shards: usize,
        subscriptions: Arc<RwLock<SubscriptionTable>>,
        control: ControlGraph,
        cache: garnet_net::DispatchCacheConfig,
    ) -> Self {
        let ingest_shards = ingest_shards.max(1);
        let dispatch_shards = dispatch_shards.max(1);
        let capacity = 4;
        // The deployable runtime self-heals: a poisoned shard is
        // rebuilt under the default supervision budget instead of
        // staying dead for the facade's lifetime. The lost run still
        // surfaces as `ShardFailure`s — restarts are visible, never
        // silent.
        let supervision = Some(SupervisionConfig::default());
        let a = Self::filter_edge(config, ingest_shards, capacity, supervision);
        let b = Self::dispatch_edge(dispatch_shards, capacity, supervision, &subscriptions, cache);
        let c = ControlStage::Inline(Box::new(control));
        Self::assemble(a, b, c, ingest_shards, dispatch_shards, subscriptions)
    }

    fn filter_edge(
        config: FilterConfig,
        shards: usize,
        capacity: usize,
        supervision: Option<SupervisionConfig>,
    ) -> StageEdge<FilterJob, FilterOut> {
        StageEdge::new(shards, capacity, supervision, move |shard| {
            let mut filter = FilteringService::new(config);
            Box::new(move |job: FilterJob| {
                let kind = match job {
                    FilterJob::Frame((receiver, rssi_dbm, frame, at)) => {
                        FilterOutKind::Frame(filter.on_frame(receiver, rssi_dbm, &frame, at))
                    }
                    FilterJob::Frames(frames) => {
                        let arrivals: Vec<FrameArrival> =
                            frames.into_iter().map(pending_to_arrival).collect();
                        FilterOutKind::Frames(filter.on_batch(&arrivals))
                    }
                    FilterJob::Flush(now) => FilterOutKind::Flush(filter.on_tick(now)),
                };
                FilterOut {
                    kind,
                    shard,
                    stats: FilterStats::of(&filter),
                    next_deadline: filter.next_deadline(),
                }
            })
        })
    }

    fn dispatch_edge(
        shards: usize,
        capacity: usize,
        supervision: Option<SupervisionConfig>,
        subscriptions: &Arc<RwLock<SubscriptionTable>>,
        cache: garnet_net::DispatchCacheConfig,
    ) -> StageEdge<DispatchJob, (ServiceOutput, RouteNote)> {
        let subs = subscriptions.clone();
        StageEdge::new(shards, capacity, supervision, move |shard| {
            let subs = subs.clone();
            // Shard-local: streams are pinned to shards, so each cache
            // sees the same stream sequence its FIFO twin would. A
            // supervised restart starts cold — correct, just slower
            // until the working set rebuilds.
            let mut cache = garnet_net::MatchCache::new(cache);
            Box::new(move |job: DispatchJob| {
                let table = subs.read().unwrap_or_else(|e| e.into_inner());
                route_delivery(&table, &mut cache, shard, job.delivery, job.depth)
            })
        })
    }

    fn assemble(
        a: StageEdge<FilterJob, FilterOut>,
        b: StageEdge<DispatchJob, (ServiceOutput, RouteNote)>,
        c: ControlStage,
        ingest_shards: usize,
        dispatch_shards: usize,
        subscriptions: Arc<RwLock<SubscriptionTable>>,
    ) -> Self {
        ThreadedRouter {
            a,
            b,
            c,
            ingest_shards,
            dispatch_shards,
            subscriptions,
            streams: ShardedStreamRegistry::new(dispatch_shards),
            a_stats: vec![(FilterStats::default(), None); ingest_shards],
            b_cache_stats: vec![garnet_net::MatchCacheStats::default(); dispatch_shards],
            a_spans: BTreeMap::new(),
            dispatched: 0,
            deliveries: 0,
            unclaimed: 0,
            fanout: Histogram::new(),
            roots: BTreeMap::new(),
            next_root: 0,
            next_c_submit: 0,
            next_release: 0,
            offered_frames: 0,
            lost_jobs: 0,
            failures: Vec::new(),
            tracer: Tracer::new(TraceConfig::default()),
            spans: PipelineSpans::new(),
            depths: QueueDepthGauges::new(ingest_shards),
        }
    }

    /// Replaces the flight recorder with one of the given capacity. A
    /// no-op without the `trace` feature.
    pub fn configure_trace(&mut self, config: TraceConfig) {
        self.tracer = Tracer::new(config);
    }

    /// The flight recorder's current contents: records for every root
    /// released so far, in release (== root) order, each root's hops in
    /// the canonical single-threaded order. Empty without the `trace`
    /// feature.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Number of filtering shards.
    pub fn ingest_shard_count(&self) -> usize {
        self.ingest_shards
    }

    /// Number of dispatch shards.
    pub fn dispatch_shard_count(&self) -> usize {
        self.dispatch_shards
    }

    fn new_root(&mut self, now: SimTime) -> u64 {
        let root = self.next_root;
        self.next_root += 1;
        self.roots.insert(root, RootState::new(now));
        root
    }

    /// Offers one boundary frame to the graph — a
    /// [`ThreadedRouter::push_frames`] batch of one.
    pub fn push_frame(
        &mut self,
        receiver: ReceiverId,
        rssi_dbm: f64,
        frame: FrameBytes,
        at: SimTime,
    ) -> Vec<RootOutput> {
        self.push_frames([(receiver, rssi_dbm, frame)], at)
    }

    /// Offers a burst of boundary frames as one call, blocking while a
    /// frame's filtering shard is at capacity, and returns the roots
    /// that completed. Every frame gets its own root — release order,
    /// tracing and the offered count are per frame — but each run of
    /// consecutive frames bound for the same filtering shard travels as
    /// **one** multi-frame job ([`FilterJob::Frames`] under the run's
    /// first root), and the edges are polled once for the whole burst.
    pub fn push_frames(
        &mut self,
        frames: impl IntoIterator<Item = (ReceiverId, f64, FrameBytes)>,
        at: SimTime,
    ) -> Vec<RootOutput> {
        // Root order must equal A-edge submission order (the B
        // sequencer leans on it), so only consecutive same-shard runs
        // may share a job.
        let mut run_shard = 0usize;
        let mut run_first = 0u64;
        let mut run: Vec<PendingFrame> = Vec::new();
        for (receiver, rssi_dbm, frame) in frames {
            self.offered_frames += 1;
            let stream = peek_stream(&frame);
            let shard = match stream {
                Some(stream) => shard_of_sensor(stream.sensor().as_u32(), self.ingest_shards),
                None => 0,
            };
            self.depths.note_admitted(shard);
            let root = self.new_root(at);
            let state = self.roots.get_mut(&root).expect("just inserted");
            state.a_expected = 1;
            #[cfg(feature = "trace")]
            state
                .trace
                .push_pre(TraceRecord { shard: Some(shard as u32), ..frame_record(&frame, at) });
            if shard != run_shard && !run.is_empty() {
                let jobs = std::mem::take(&mut run);
                self.submit_frame_run(run_shard, run_first, jobs);
            }
            if run.is_empty() {
                run_first = root;
            }
            run_shard = shard;
            run.push((receiver, rssi_dbm, frame, at));
        }
        if !run.is_empty() {
            self.submit_frame_run(run_shard, run_first, run);
        }
        self.poll()
    }

    /// Submits one consecutive-root run to the filtering edge: a single
    /// frame rides as [`FilterJob::Frame`], a longer run as one
    /// [`FilterJob::Frames`] job under its first root, with the span
    /// recorded so a failed run still closes every root it carried.
    fn submit_frame_run(&mut self, shard: usize, first: u64, mut run: Vec<PendingFrame>) {
        if run.len() == 1 {
            let frame = run.pop().expect("run of one");
            self.a.submit_classed(shard, first, FilterJob::Frame(frame), EdgeClass::Data);
        } else {
            self.a_spans.insert(first, run.len());
            self.a.submit_classed(shard, first, FilterJob::Frames(run), EdgeClass::Data);
        }
    }

    /// Records a frame the admission scheduler dropped before it reached
    /// the graph: a root of its own that completes empty, so the record
    /// takes its place in release order.
    #[cfg(feature = "trace")]
    pub fn trace_dropped(
        &mut self,
        frame: &BatchedFrame,
        outcome: TraceOutcome,
        at: SimTime,
    ) -> Vec<RootOutput> {
        let shard = match peek_stream(&frame.frame) {
            Some(stream) => shard_of_sensor(stream.sensor().as_u32(), self.ingest_shards),
            None => 0,
        };
        let root = self.new_root(at);
        self.roots.get_mut(&root).expect("just inserted").trace.push_pre(TraceRecord {
            shard: Some(shard as u32),
            outcome,
            ..frame_record(&frame.frame, at)
        });
        self.poll()
    }

    /// Flushes every filtering shard's reorder buffers as one boundary
    /// event; releases merge across shards into ascending stream-id
    /// order before dispatch, matching [`ShardedIngest::on_tick`].
    /// Control path: always blocks, never sheds.
    pub fn push_flush(&mut self, now: SimTime) -> Vec<RootOutput> {
        let root = self.new_root(now);
        {
            let state = self.roots.get_mut(&root).expect("just inserted");
            state.is_flush = true;
            state.a_expected = self.ingest_shards;
            #[cfg(feature = "trace")]
            state.trace.push_pre(TraceRecord::new(
                now.as_micros(),
                TraceStage::Filtering,
                TraceEventKind::FlushReorder,
                TraceOutcome::Delivered,
            ));
        }
        for shard in 0..self.ingest_shards {
            self.a.submit_classed(shard, root, FilterJob::Flush(now), EdgeClass::Control);
        }
        self.poll()
    }

    /// Runs the actuation service's retry/expiry sweep as one boundary
    /// event on the control stage.
    pub fn push_tick(&mut self, now: SimTime) -> Vec<RootOutput> {
        self.push_control(ServiceEvent::ActuationTick, now)
    }

    /// Runs one control event (and everything it cascades into) as a
    /// boundary event. Control path: always admitted, never shed.
    pub fn push_control(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<RootOutput> {
        let root = self.new_root(now);
        self.roots.get_mut(&root).expect("just inserted").c_events.push(ev);
        self.poll()
    }

    /// Re-injects a filtered delivery as a boundary event headed
    /// straight for dispatch — the facade's derived-stream publication
    /// path ([`crate::ConsumerAction::PublishDerived`]).
    pub fn push_filtered(
        &mut self,
        delivery: Delivery,
        depth: u32,
        now: SimTime,
    ) -> Vec<RootOutput> {
        let shard = shard_of_sensor(delivery.msg.stream().sensor().as_u32(), self.dispatch_shards);
        let root = self.new_root(now);
        let state = self.roots.get_mut(&root).expect("just inserted");
        state.b_expected = 1;
        #[cfg(feature = "trace")]
        state.trace.push_dispatch(dispatch_record(&delivery, now, shard));
        self.b.submit_classed(shard, root, DispatchJob { delivery, depth }, EdgeClass::Data);
        self.poll()
    }

    /// Routes one boundary event to its owning edge — the hosting
    /// facade's single typed entry point.
    pub fn push_event(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<RootOutput> {
        match ev {
            ServiceEvent::Frame { receiver, rssi_dbm, frame } => {
                self.push_frame(receiver, rssi_dbm, frame, now)
            }
            ServiceEvent::FrameBatch(frames) => {
                self.push_frames(frames.into_iter().map(|f| (f.receiver, f.rssi_dbm, f.frame)), now)
            }
            ServiceEvent::FlushReorder => self.push_flush(now),
            ServiceEvent::Filtered { delivery, depth } => self.push_filtered(delivery, depth, now),
            other => self.push_control(other, now),
        }
    }

    /// True when every boundary event pushed so far has been released.
    pub fn is_quiescent(&self) -> bool {
        self.next_release == self.next_root
    }

    /// A sealed flush root's dispatch jobs: the per-shard releases
    /// merged into ascending stream-id order (each shard released in
    /// its own stream order and streams are partitioned, so the sort is
    /// the exact merge).
    fn flush_jobs(state: &mut RootState, dispatch_shards: usize) -> Vec<(usize, DispatchJob)> {
        if !state.is_flush || state.a_done != state.a_expected || state.flush_submitted {
            return Vec::new();
        }
        state.flush_submitted = true;
        let mut deliveries = std::mem::take(&mut state.flush_deliveries);
        deliveries.sort_by_key(|d| d.msg.stream().to_raw());
        let mut jobs = Vec::with_capacity(deliveries.len());
        for delivery in deliveries {
            state.b_expected += 1;
            let shard = shard_of_sensor(delivery.msg.stream().sensor().as_u32(), dispatch_shards);
            #[cfg(feature = "trace")]
            state.trace.push_dispatch(dispatch_record(&delivery, state.now, shard));
            jobs.push((shard, DispatchJob { delivery, depth: 0 }));
        }
        jobs
    }

    /// Folds one frame's filter result into its root: Filtered events
    /// become dispatch jobs (appended to `b_pending` in submission
    /// order — the B edge's sequencing), Observed / AckReceived events
    /// queue as control events ahead of them, exactly as the FIFO
    /// router would order the same frame.
    fn absorb_frame_result(
        &mut self,
        root: u64,
        result: FilterResult,
        b_pending: &mut Vec<(usize, u64, DispatchJob)>,
    ) {
        let Some(state) = self.roots.get_mut(&root) else { return };
        state.a_done += 1;
        let dispatch_shards = self.dispatch_shards;
        ShardedIngest::frame_events(result, |ev| match ev {
            ServiceEvent::Filtered { delivery, depth } => {
                state.b_expected += 1;
                let shard =
                    shard_of_sensor(delivery.msg.stream().sensor().as_u32(), dispatch_shards);
                #[cfg(feature = "trace")]
                state.trace.push_dispatch(dispatch_record(&delivery, state.now, shard));
                b_pending.push((shard, root, DispatchJob { delivery, depth }));
            }
            // Observed / AckReceived: control events the FIFO router
            // would queue before the Filtered ones — same order here.
            control => state.c_events.push(control),
        });
        // Filtering has fully landed: everything in c_events so far
        // precedes dispatch in the canonical FIFO order.
        #[cfg(feature = "trace")]
        if state.a_done == state.a_expected {
            state.trace.set_pre_c(state.c_events.len());
        }
    }

    /// Drives every edge forward without blocking on results, returning
    /// the roots that completed (in root order).
    pub fn poll(&mut self) -> Vec<RootOutput> {
        // A outputs arrive in submission order == root order, so B jobs
        // are submitted in (root, within-root stream) order with no
        // reorder buffer: this loop is the B edge's sequencer. Jobs are
        // accumulated across the whole A drain and handed to B in
        // consecutive same-shard runs, preserving that global order
        // while amortising the channel hand-off over the burst.
        let mut b_pending: Vec<(usize, u64, DispatchJob)> = Vec::new();
        for (root, out) in self.a.drain() {
            self.a_stats[out.shard] = (out.stats, out.next_deadline);
            match out.kind {
                FilterOutKind::Frame(result) => {
                    self.absorb_frame_result(root, result, &mut b_pending);
                }
                FilterOutKind::Frames(per_frame) => {
                    // A run's roots are consecutive from the root the
                    // job rode on; attributing entry i to root + i is
                    // exactly the per-frame drain.
                    self.a_spans.remove(&root);
                    for (i, result) in per_frame.into_iter().enumerate() {
                        self.absorb_frame_result(root + i as u64, result, &mut b_pending);
                    }
                }
                FilterOutKind::Flush(deliveries) => {
                    let mut b_jobs = Vec::new();
                    if let Some(state) = self.roots.get_mut(&root) {
                        state.a_done += 1;
                        state.flush_deliveries.extend(deliveries);
                        b_jobs = Self::flush_jobs(state, self.dispatch_shards);
                        // Filtering has fully landed: everything in
                        // c_events so far precedes dispatch in the
                        // canonical FIFO order.
                        #[cfg(feature = "trace")]
                        if state.a_done == state.a_expected {
                            state.trace.set_pre_c(state.c_events.len());
                        }
                    }
                    b_pending.extend(b_jobs.into_iter().map(|(shard, job)| (shard, root, job)));
                }
            }
        }
        for f in self.a.take_failures() {
            self.lost_jobs += 1;
            // A lost multi-frame run closes every root it carried:
            // sealing must never hang on work that will not arrive.
            let span = self.a_spans.remove(&f.root).unwrap_or(1) as u64;
            for root in f.root..f.root.saturating_add(span) {
                let mut b_jobs = Vec::new();
                if let Some(state) = self.roots.get_mut(&root) {
                    state.a_done += 1;
                    #[cfg(feature = "trace")]
                    {
                        state.trace.fail_pre();
                        if state.a_done == state.a_expected {
                            state.trace.set_pre_c(state.c_events.len());
                        }
                    }
                    b_jobs = Self::flush_jobs(state, self.dispatch_shards);
                }
                b_pending.extend(b_jobs.into_iter().map(|(shard, job)| (shard, root, job)));
            }
            self.failures.push(f);
        }
        let mut it = b_pending.into_iter().peekable();
        while let Some((shard, root, job)) = it.next() {
            let mut jobs = vec![(root, job)];
            while it.peek().is_some_and(|(s, _, _)| *s == shard) {
                let (_, r, j) = it.next().expect("peeked");
                jobs.push((r, j));
            }
            self.b.submit_batch_classed(shard, jobs, EdgeClass::Data);
        }

        for (root, (output, note)) in self.b.drain() {
            // The note lands here, in the edge's global submission
            // order — the exact order the FIFO router handles
            // `Filtered` events — so the catalogue and counters are
            // bit-identical to the single-threaded dispatch stage.
            self.streams.note_routed(
                note.stream,
                note.payload_len,
                note.delivered_at,
                note.depth > 0,
                note.matched > 0,
            );
            self.dispatched += 1;
            self.deliveries += note.matched as u64;
            self.fanout.record(note.matched as u64);
            if note.matched == 0 {
                self.unclaimed += 1;
            }
            if let Some(slot) = self.b_cache_stats.get_mut(note.cache_shard) {
                *slot = note.cache_stats;
            }
            if let Some(state) = self.roots.get_mut(&root) {
                // The FIFO router records spans when it steps each
                // `Filtered` event at the boundary event's `now`; the
                // root's `now` is that same instant, so the histograms
                // are engine-invariant.
                self.spans.record(note.first_received_at, note.delivered_at, state.now);
                state.b_done += 1;
                #[cfg(feature = "trace")]
                state.trace.complete_dispatch(true, note.rebuilt);
                match output {
                    // Orphaned: a control event the FIFO router would
                    // queue behind the frame's other control events.
                    ServiceOutput::Emit(ev) => state.c_events.push(ev),
                    deliver => state.outputs.push(deliver),
                }
            }
        }
        for f in self.b.take_failures() {
            self.lost_jobs += 1;
            if let Some(state) = self.roots.get_mut(&f.root) {
                state.b_done += 1;
                #[cfg(feature = "trace")]
                state.trace.complete_dispatch(false, false);
            }
            self.failures.push(f);
        }

        // Control events run strictly in root order: the control graph
        // is the one stateful stage shared by every root, so its FIFO
        // *is* the determinism argument — whether it lives on a worker
        // or is pumped inline right here.
        let mut c_batch: Vec<(u64, ControlJob)> = Vec::new();
        loop {
            let root = self.next_c_submit;
            let (events, now) = match self.roots.get_mut(&root) {
                Some(state) if state.data_done() && !state.c_submitted => {
                    state.c_submitted = true;
                    let events = std::mem::take(&mut state.c_events);
                    if events.is_empty() {
                        state.c_done = true;
                        self.next_c_submit += 1;
                        continue;
                    }
                    (events, state.now)
                }
                _ => break,
            };
            self.next_c_submit += 1;
            match &mut self.c {
                // Consecutive ready roots accumulate and leave as one
                // hand-off below — the worker pumps them in root order
                // either way.
                ControlStage::Worker(_) => c_batch.push((root, ControlJob { events, now })),
                ControlStage::Inline(graph) => {
                    let (outputs, c_trace) = graph.pump_traced(events, now);
                    let state = self.roots.get_mut(&root).expect("submitted above");
                    state.outputs.extend(outputs);
                    state.c_done = true;
                    #[cfg(feature = "trace")]
                    state.trace.set_control(c_trace);
                    #[cfg(not(feature = "trace"))]
                    let _ = c_trace;
                }
            }
        }
        if !c_batch.is_empty() {
            if let ControlStage::Worker(edge) = &mut self.c {
                let class = control_batch_class(&c_batch);
                edge.submit_batch_classed(0, c_batch, class);
            }
        }

        if let ControlStage::Worker(edge) = &mut self.c {
            for (root, (outputs, c_trace)) in edge.drain() {
                if let Some(state) = self.roots.get_mut(&root) {
                    state.outputs.extend(outputs);
                    state.c_done = true;
                    #[cfg(feature = "trace")]
                    state.trace.set_control(c_trace);
                    #[cfg(not(feature = "trace"))]
                    let _ = c_trace;
                }
            }
            for f in edge.take_failures() {
                self.lost_jobs += 1;
                if let Some(state) = self.roots.get_mut(&f.root) {
                    // The pumped events were consumed by the lost
                    // worker, so there are no control hops to trace; the
                    // failure itself is surfaced via `failures` /
                    // `lost_jobs`.
                    state.c_done = true;
                }
                self.failures.push(f);
            }
        }

        self.trace_restarts();

        let mut released = Vec::new();
        while let Some(state) = self.roots.get(&self.next_release) {
            if !state.complete() {
                break;
            }
            let state = self.roots.remove(&self.next_release).expect("checked above");
            #[cfg(feature = "trace")]
            {
                // Occupancy here is the number of roots still in flight
                // when this one released — a concurrency measure, and
                // (unlike the records) timing-dependent.
                let in_flight = self.roots.len() as u64;
                state.trace.emit(self.next_release, in_flight, &mut self.tracer);
            }
            released.push(RootOutput { root: self.next_release, outputs: state.outputs });
            self.next_release += 1;
        }
        released
    }

    /// Folds supervision restarts from every edge into the trace, each
    /// with the backoff delay the policy chose. Restart timing is
    /// wall-clock, not simulated, so the records carry `at_us: 0` and
    /// are keyed by stage + shard + backoff only.
    #[cfg(feature = "trace")]
    fn trace_restarts(&mut self) {
        let mut batches = vec![
            (TraceStage::Filtering, self.a.take_restart_events()),
            (TraceStage::Dispatch, self.b.take_restart_events()),
        ];
        if let ControlStage::Worker(edge) = &mut self.c {
            batches.push((TraceStage::Control, edge.take_restart_events()));
        }
        for (stage, events) in batches {
            for e in events {
                self.tracer.record(|| TraceRecord {
                    shard: Some(e.shard as u32),
                    backoff_us: Some(e.delay.as_micros() as u64),
                    ..TraceRecord::new(
                        0,
                        stage,
                        TraceEventKind::ShardRestart,
                        TraceOutcome::Delivered,
                    )
                });
            }
        }
    }

    #[cfg(not(feature = "trace"))]
    #[inline(always)]
    fn trace_restarts(&mut self) {}

    /// Frames offered to [`ThreadedRouter::push_frames`] so far.
    pub fn offered_frame_count(&self) -> u64 {
        self.offered_frames
    }

    /// Shard restarts performed by supervision across all edges.
    pub fn restart_count(&self) -> u64 {
        let c = match &self.c {
            ControlStage::Worker(edge) => edge.restart_count(),
            ControlStage::Inline(_) => 0,
        };
        self.a.restart_count() + self.b.restart_count() + c
    }

    /// Jobs accepted per [`EdgeClass`] across all stage edges, indexed
    /// by [`EdgeClass::index`] — the per-class flow accounting the QoS
    /// layer's `qos.*` metrics ride on for the threaded engine.
    pub fn class_submits(&self) -> [u64; 3] {
        let mut totals = [0u64; 3];
        let c = match &self.c {
            ControlStage::Worker(edge) => edge.class_submits(),
            ControlStage::Inline(_) => [0; 3],
        };
        for (i, t) in totals.iter_mut().enumerate() {
            *t = self.a.class_submits()[i] + self.b.class_submits()[i] + c[i];
        }
        totals
    }

    /// Takes the worker failures recorded since the last call.
    pub fn take_root_failures(&mut self) -> Vec<RootFailure> {
        std::mem::take(&mut self.failures)
    }

    /// The pipeline latency spans recorded so far.
    pub fn pipeline_spans(&self) -> &PipelineSpans {
        &self.spans
    }

    /// The per-ingest-shard admission-depth gauges.
    pub fn queue_depth_gauges(&self) -> &QueueDepthGauges {
        &self.depths
    }

    /// Turns latency-span and depth-gauge recording on or off (on by
    /// default; `GarnetConfig.telemetry.spans` drives this).
    pub fn set_telemetry_recording(&mut self, enabled: bool) {
        self.spans.set_enabled(enabled);
        self.depths.set_enabled(enabled);
    }

    /// Resets the telemetry depth counts (the watermarks survive).
    /// Called by the facade after it pumps the engine dry — a *logical*
    /// quiescence both engines reach at the same boundary, unlike the
    /// racy "did the workers keep up?" quiescence a threaded poll could
    /// observe mid-burst.
    pub fn note_telemetry_quiescent(&mut self) {
        self.depths.note_quiescent();
    }

    /// The stream catalogue.
    pub fn streams(&self) -> &ShardedStreamRegistry {
        &self.streams
    }

    /// Mutable catalogue access (claimed-flag overrides).
    pub fn streams_mut(&mut self) -> &mut ShardedStreamRegistry {
        &mut self.streams
    }

    /// The inline control graph (`None` when control runs on a
    /// worker).
    pub fn control_graph(&self) -> Option<&ControlGraph> {
        match &self.c {
            ControlStage::Inline(graph) => Some(graph),
            ControlStage::Worker(_) => None,
        }
    }

    /// Mutable inline control graph (`None` when control runs on a
    /// worker).
    pub fn control_graph_mut(&mut self) -> Option<&mut ControlGraph> {
        match &mut self.c {
            ControlStage::Inline(graph) => Some(graph),
            ControlStage::Worker(_) => None,
        }
    }

    /// Ingest counters summed across shards, as of each shard's last
    /// completed job (exact at quiescence).
    pub fn filter_stats(&self) -> FilterStats {
        self.a_stats.iter().fold(FilterStats::default(), |acc, (stats, _)| acc.absorb(*stats))
    }

    /// Dispatch counters (applied at the B drain in submission order).
    pub fn dispatch_stats(&self) -> DispatchStats {
        let mut match_cache = garnet_net::MatchCacheStats::default();
        for s in &self.b_cache_stats {
            match_cache.absorb(*s);
        }
        DispatchStats {
            dispatched: self.dispatched,
            deliveries: self.deliveries,
            unclaimed: self.unclaimed,
            fanout: self.fanout.clone(),
            subscribers: self
                .subscriptions
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .subscriber_count(),
            match_cache,
        }
    }

    /// The earliest time-driven deadline: reorder flushes across the
    /// ingest shards, plus the actuation sweep when control runs
    /// inline. Exact at quiescence (per-shard deadlines ride on each
    /// job's result).
    pub fn next_deadline(&self) -> Option<SimTime> {
        let ingest = self.a_stats.iter().filter_map(|(_, deadline)| *deadline).min();
        let control = match &self.c {
            ControlStage::Inline(graph) => GarnetService::next_deadline(&**graph),
            ControlStage::Worker(_) => None,
        };
        [ingest, control].into_iter().flatten().min()
    }

    /// Streams the flight recorder's window to `w` as JSONL and clears
    /// it (see [`Tracer::drain_to`]).
    pub fn trace_drain_to(&mut self, mut w: &mut dyn std::io::Write) -> std::io::Result<usize> {
        self.tracer.drain_to(&mut w)
    }

    /// Drains every in-flight root, joins all workers, and returns the
    /// run's terminal accounting (any roots not yet handed out by
    /// [`ThreadedRouter::poll`] ride in `outputs`, in root order).
    pub fn finish(self) -> ThreadedRouterReport {
        self.into_parts().report
    }

    /// [`ThreadedRouter::finish`], keeping the state a hosting facade
    /// serves reads from after shutdown: the stream catalogue, the
    /// inline control graph, and the final counter snapshots.
    pub fn into_parts(mut self) -> ThreadedRouterParts {
        let mut outputs = Vec::new();
        while self.next_release < self.next_root {
            let released = self.poll();
            if released.is_empty() {
                std::thread::yield_now();
            }
            outputs.extend(released);
        }
        let filter_stats = self.filter_stats();
        let dispatch_stats = self.dispatch_stats();
        let shard_restarts = self.restart_count();
        let mut failures = std::mem::take(&mut self.failures);
        let (a_rest, a_fail) = self.a.finish();
        let (b_rest, b_fail) = self.b.finish();
        let (c_unreleased, c_fail, control) = match self.c {
            ControlStage::Worker(edge) => {
                let (rest, fail) = edge.finish();
                (rest.len(), fail, None)
            }
            ControlStage::Inline(graph) => (0, Vec::new(), Some(*graph)),
        };
        debug_assert!(
            a_rest.is_empty() && b_rest.is_empty() && c_unreleased == 0,
            "all roots were drained before the edges were joined"
        );
        let late = a_fail.len() + b_fail.len() + c_fail.len();
        failures.extend(a_fail);
        failures.extend(b_fail);
        failures.extend(c_fail);
        ThreadedRouterParts {
            report: ThreadedRouterReport {
                outputs,
                failures,
                offered_frames: self.offered_frames,
                lost_jobs: self.lost_jobs + late as u64,
                shard_restarts,
                trace: self.tracer.snapshot(),
            },
            streams: self.streams,
            control,
            filter_stats,
            dispatch_stats,
            spans: self.spans,
            depths: self.depths,
        }
    }
}

impl std::fmt::Debug for ThreadedRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedRouter")
            .field("ingest_shards", &self.ingest_shards)
            .field("dispatch_shards", &self.dispatch_shards)
            .field("in_flight_roots", &self.roots.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};

    fn frame(sensor: u32, seq: u16) -> garnet_wire::FrameBytes {
        let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
        DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![seq as u8])
            .build()
            .unwrap()
            .encode_to_vec()
            .into()
    }

    #[test]
    fn subscription_entries_partition_across_dispatch_shards() {
        use garnet_net::TopicFilter;
        // Stream/Sensor filters must live on exactly one shard each, so
        // the per-shard entry counts sum to what an unsharded table
        // would hold — subscription memory must not scale with the
        // shard count.
        let stream =
            |sensor: u32| StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
        let filters: Vec<TopicFilter> = (1..=40u32)
            .map(|s| {
                if s % 2 == 0 {
                    TopicFilter::Sensor(SensorId::new(s).unwrap())
                } else {
                    TopicFilter::Stream(stream(s))
                }
            })
            .collect();
        let mut unsharded = ShardedDispatch::new(1);
        let sub = unsharded.register_subscriber();
        for f in &filters {
            assert!(unsharded.subscribe(sub, *f));
        }
        let total: usize = unsharded.shard_subscription_counts().iter().sum();
        assert_eq!(total, filters.len());
        for shards in [2usize, 4, 7] {
            let mut sharded = ShardedDispatch::new(shards);
            let sub = sharded.register_subscriber();
            for f in &filters {
                assert!(sharded.subscribe(sub, *f));
            }
            let counts = sharded.shard_subscription_counts();
            assert_eq!(counts.len(), shards);
            assert_eq!(
                counts.iter().sum::<usize>(),
                total,
                "shards={shards}: entries duplicated across shards: {counts:?}"
            );
            assert!(
                counts.iter().filter(|c| **c > 0).count() > 1,
                "shards={shards}: everything landed on one shard: {counts:?}"
            );
            // An `All` wiretap is the one filter that must replicate.
            sharded.subscribe(sub, TopicFilter::All);
            let with_all = sharded.shard_subscription_counts();
            assert_eq!(with_all.iter().sum::<usize>(), total + shards);
            // Departure reports distinct filters, not per-shard copies.
            assert_eq!(sharded.unsubscribe_all(sub), filters.len() + 1);
            assert_eq!(sharded.shard_subscription_counts().iter().sum::<usize>(), 0);
        }
    }

    #[test]
    fn sensors_pin_to_one_shard() {
        let ingest = ShardedIngest::new(FilterConfig::default(), 4);
        for sensor in 1..200u32 {
            let a = ingest.shard_of(&frame(sensor, 0));
            let b = ingest.shard_of(&frame(sensor, 9));
            assert_eq!(a, b, "sensor {sensor} moved shards");
        }
    }

    #[test]
    fn sharded_flush_is_stream_id_ordered() {
        // Leave a reorder gap on several sensors spread across shards,
        // then flush: releases must come back in ascending stream id.
        for shards in [1usize, 2, 4, 8] {
            let mut ingest = ShardedIngest::new(FilterConfig::default(), shards);
            for sensor in [9u32, 3, 14, 7, 11] {
                ingest.on_frame(ReceiverId::new(0), -40.0, &frame(sensor, 0), SimTime::ZERO);
                ingest.on_frame(
                    ReceiverId::new(0),
                    -40.0,
                    &frame(sensor, 2), // gap at 1
                    SimTime::from_millis(1),
                );
            }
            let out = ingest.on_tick(SimTime::from_secs(10));
            let ids: Vec<u32> = out.iter().map(|d| d.msg.stream().to_raw()).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "shards={shards}");
            assert_eq!(out.len(), 5, "shards={shards}");
        }
    }

    #[test]
    fn sharded_counters_aggregate() {
        let mut ingest = ShardedIngest::new(FilterConfig::default(), 4);
        for sensor in 1..=8u32 {
            let fr = frame(sensor, 0);
            ingest.on_frame(ReceiverId::new(0), -40.0, &fr, SimTime::ZERO);
            ingest.on_frame(ReceiverId::new(1), -50.0, &fr, SimTime::ZERO); // dup
        }
        assert_eq!(ingest.delivered_count(), 8);
        assert_eq!(ingest.duplicate_count(), 8);
        assert_eq!(ingest.stream_count(), 8);
    }
}
