//! The event router: Figure 1's arrows as a FIFO of typed events.
//!
//! [`Router`] owns every sans-io service and moves
//! [`ServiceEvent`]s between them. A burst of radio frames enters by a
//! call — [`Router::ingest`] hands it to the filtering stage and queues
//! what filtering released; everything else enters through
//! [`Router::enqueue`]. One [`Router::step`] pops one event, hands it to
//! the owning service, re-enqueues any [`ServiceOutput::Emit`] at the
//! *back* of the queue, and returns the remaining outputs (deliveries,
//! plans, denials, expiries) for the facade to apply. The queue is
//! strictly FIFO, which makes the whole middleware a deterministic event
//! machine: the same call sequence always produces the same output
//! sequence.
//!
//! Every stage runs on the caller's thread: Figure 1's one Filtering
//! Service ([`ShardedIngest`]), called inline by [`Router::ingest`] and
//! by a `FlushReorder` step, then its one Dispatching Service
//! ([`ShardedDispatch`]) and the control plane behind it.

use std::collections::VecDeque;
use std::sync::Arc;

use garnet_simkit::trace::{
    TraceConfig, TraceEventKind, TraceOutcome, TraceRecord, TraceSnapshot, Tracer,
};
use garnet_simkit::SimTime;

use crate::actuation::{ActuationConfig, ActuationService};
use crate::coordinator::{CoordinationMode, SuperCoordinator};
use crate::dispatching::DispatchingService;
use crate::driver::{DispatchStats, FilterStats};
use crate::filtering::{Delivery, FilterConfig, FilterResult, FilteringService, FrameArrival};
use crate::location::{LocationConfig, LocationService};
use crate::orphanage::{Orphanage, OrphanageConfig};
use crate::qos::ClassLedger;
use crate::replicator::MessageReplicator;
use crate::resource::{Decision, MediationPolicy, ResourceManager};
use crate::service::{
    ActuationOrigin, BatchedFrame, ServiceEvent, ServiceOutput, SYSTEM_PRIORITY, SYSTEM_SUBSCRIBER,
};
use crate::stream::StreamRegistry;
use crate::telemetry::{PipelineSpans, QueueDepthGauges};
use crate::trace::{event_record, frame_record, RootTag};

/// The ingest stage: Figure 1's one Filtering Service, on the router's
/// thread. Nothing here is sharded; the name is the one the benchmark's
/// call site uses.
#[derive(Debug)]
pub struct ShardedIngest {
    filter: FilteringService,
}

impl ShardedIngest {
    /// Creates the ingest stage.
    ///
    /// * `_shards` — accepted for the benchmark's call site; has no effect.
    pub fn new(config: FilterConfig, _shards: usize) -> Self {
        ShardedIngest { filter: FilteringService::new(config) }
    }

    /// Feeds a burst of frames, equivalent to one
    /// [`FilteringService::on_frame`] per entry in order: results come
    /// back in arrival order, and the burst's headers are validated in
    /// one prepass ([`FilteringService::on_batch`]).
    pub fn on_batch(&mut self, frames: &[FrameArrival]) -> Vec<FilterResult> {
        self.filter.on_batch(frames)
    }

    /// Flushes expired reorder buffers, releasing in ascending stream-id
    /// order ([`FilteringService::on_tick`]).
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Delivery> {
        self.filter.on_tick(now)
    }

    /// The earliest reorder deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.filter.next_deadline()
    }

    /// Emits the events one frame's filter result owes the graph, in the
    /// order the router must queue them: the location sighting, then
    /// an `AckReceived` for each released message carrying a
    /// piggy-backed acknowledgement, then the released messages
    /// themselves.
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

    /// The stage's counters, by value.
    pub fn stats(&self) -> FilterStats {
        FilterStats::of(&self.filter)
    }
}

/// The dispatch stage: Figure 1's one Dispatching Service and the one
/// stream catalogue it keeps current, on the router's thread. Nothing
/// here is sharded; the name is the one the benchmark's call site uses.
#[derive(Debug, Default)]
pub struct ShardedDispatch {
    dispatcher: DispatchingService,
    /// The stream catalogue.
    pub streams: StreamRegistry,
    /// Whether the most recent [`ShardedDispatch::dispatch`] (re)built
    /// its match set — consumed by the tracer via
    /// [`ShardedDispatch::take_last_rebuild`].
    last_rebuilt: bool,
}

impl ShardedDispatch {
    /// Creates a dispatch stage whose match cache runs under an explicit
    /// configuration ([`ShardedDispatch::default`] uses the default one).
    ///
    /// * `_shards` — accepted for the benchmark's call site; has no effect.
    pub fn with_cache(_shards: usize, cache: garnet_net::DispatchCacheConfig) -> Self {
        ShardedDispatch { dispatcher: DispatchingService::with_cache(cache), ..Self::default() }
    }

    /// Allocates a fresh subscriber identity.
    pub fn register_subscriber(&mut self) -> garnet_net::SubscriberId {
        self.dispatcher.register_subscriber()
    }

    /// Adds a subscription. Returns true if new.
    pub fn subscribe(
        &mut self,
        subscriber: garnet_net::SubscriberId,
        filter: garnet_net::TopicFilter,
    ) -> bool {
        self.dispatcher.subscribe(subscriber, filter)
    }

    /// Removes one subscription.
    pub fn unsubscribe(
        &mut self,
        subscriber: garnet_net::SubscriberId,
        filter: garnet_net::TopicFilter,
    ) -> bool {
        self.dispatcher.unsubscribe(subscriber, filter)
    }

    /// Removes every subscription of a departing consumer, returning
    /// how many it held.
    pub fn unsubscribe_all(&mut self, subscriber: garnet_net::SubscriberId) -> usize {
        self.dispatcher.unsubscribe_all(subscriber)
    }

    /// The dispatch stage's whole job for one filtered message: route
    /// it, record it (and whether anyone claimed it) in the catalogue
    /// with one lookup, and build its single output.
    pub fn dispatch(&mut self, delivery: Delivery, depth: u32) -> ServiceOutput {
        let stream = delivery.msg.stream();
        let outcome = self.dispatcher.route(stream);
        self.last_rebuilt = outcome.rebuilt;
        self.streams.note_routed(
            stream,
            delivery.msg.payload().len(),
            delivery.delivered_at,
            depth > 0,
            !outcome.unclaimed,
        );
        routed_output(outcome.recipients, delivery, depth)
    }

    /// Whether the most recent dispatch (re)built its match set, clearing
    /// the flag — the router reads this right after pumping a `Filtered`
    /// event to append the `CacheRebuild` trace record.
    pub fn take_last_rebuild(&mut self) -> bool {
        std::mem::take(&mut self.last_rebuilt)
    }

    /// Peeks the match set without accounting.
    pub fn would_deliver(&self, stream: garnet_wire::StreamId) -> bool {
        self.dispatcher.would_deliver(stream)
    }

    /// The stage's counters, by value (beside [`ShardedIngest::stats`]).
    pub fn stats(&self) -> DispatchStats {
        let d = &self.dispatcher;
        DispatchStats {
            dispatched: d.dispatched_count(),
            deliveries: d.delivery_count(),
            unclaimed: d.unclaimed_count(),
            fanout: d.fanout().clone(),
            subscribers: d.subscriber_count(),
            match_cache: d.cache_stats(),
        }
    }
}

/// The one place a routed message becomes an output: a message nobody
/// matched goes to the Orphanage, anything else is one
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
/// These services form a *closed* cascade: no control service ever
/// emits a `FlushReorder` or `Filtered` event back into the data plane.
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
    /// and no receiver/transmitter arrays — the shape tests and benches
    /// want when the run exercises the data path rather than radio
    /// geometry.
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
    /// Figure 1's control arrows: hands `ev` to the one service that
    /// owns its variant and turns what that service returns into the
    /// next events of the chain or the facade's effects.
    fn route(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput> {
        use ServiceEvent::*;
        match ev {
            Orphaned(delivery) => {
                self.orphanage.take_in(&delivery);
                Vec::new()
            }
            Observed(obs) => {
                self.location.observe(&obs);
                Vec::new()
            }
            Hint { sensor, position, confidence } => {
                self.location.hint(sensor, position, confidence, now);
                Vec::new()
            }
            ActuationRequested { origin, requester, priority, target, command } => {
                match self.resource.request(requester, priority, &target, &command) {
                    Decision::Granted { effective } => vec![ServiceOutput::Emit(Submit {
                        origin,
                        requester,
                        priority,
                        target,
                        command: effective,
                    })],
                    Decision::Denied { reason } => {
                        vec![ServiceOutput::Denied { origin, requester, reason }]
                    }
                }
            }
            Submit { origin, requester, priority, target, command } => {
                let request = self.actuation.submit(target, command, priority, now);
                vec![ServiceOutput::Emit(Replicate { origin, requester, request })]
            }
            AckReceived { request_id, status } => {
                self.actuation.on_ack(request_id, status, now);
                Vec::new()
            }
            ActuationTick => {
                let (retransmit, expired) = self.actuation.on_tick(now);
                let mut out: Vec<ServiceOutput> = retransmit
                    .into_iter()
                    .map(|request| {
                        ServiceOutput::Emit(Replicate {
                            origin: ActuationOrigin::Retry,
                            requester: SYSTEM_SUBSCRIBER,
                            request,
                        })
                    })
                    .collect();
                out.extend(expired.into_iter().map(ServiceOutput::Expired));
                out
            }
            Replicate { origin, requester, request } => {
                let plan = self.replicator.plan(request, &self.location, now);
                vec![ServiceOutput::Planned { origin, requester, plan }]
            }
            StateReported { reporter, state } => self
                .coordinator
                .report_state(reporter.as_u32(), state, now)
                .into_iter()
                .map(|a| {
                    ServiceOutput::Emit(ActuationRequested {
                        origin: ActuationOrigin::Coordinator,
                        requester: SYSTEM_SUBSCRIBER,
                        priority: a.action.priority.max(SYSTEM_PRIORITY),
                        target: a.action.target,
                        command: a.action.command,
                    })
                })
                .collect(),
            // Data-plane events are the router's own; it never hands
            // one here.
            FlushReorder | Filtered { .. } => Vec::new(),
        }
    }
}

/// Every routed service, owned together so the router can borrow them
/// independently — grouped by stage: the data plane (filtering,
/// dispatch) and the control plane behind it. Fields are public: the
/// facade reaches in for direct reads (statistics) and the rare
/// synchronous call (subscription changes, orphanage claims) that is
/// request/response rather than dataflow.
#[derive(Debug)]
pub struct Services {
    /// Filtering (the ingest hot path).
    pub ingest: ShardedIngest,
    /// Subscription routing + stream catalogue.
    pub dispatch: ShardedDispatch,
    /// Everything downstream of dispatch.
    pub control: ControlGraph,
}

/// How the facade's admission scheduler ([`crate::qos::QosScheduler`],
/// the one place this is decided) responds when its bounded frame queue
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

/// The FIFO event router over [`Services`].
#[derive(Debug)]
pub struct Router {
    services: Services,
    /// Each queued event carries the root-sequence tag of the boundary
    /// event it descends from.
    queue: VecDeque<(RootTag, ServiceEvent)>,
    /// Frames handed to [`Router::ingest`]; every one is filtered.
    frames_ingested: u64,
    /// The largest burst among them.
    peak_burst: u64,
    /// The flight recorder; off until [`Router::configure_trace`] gives
    /// it a capacity.
    tracer: Tracer,
    /// Always-on latency spans, recorded once per dispatched delivery.
    spans: PipelineSpans,
    /// The admission-depth gauge.
    depths: QueueDepthGauges,
    /// [`Router::ingest`]'s scratch, kept between calls so a burst
    /// costs no allocation here (empty outside a call).
    arrivals: Vec<FrameArrival>,
    /// Next root sequence number for a boundary enqueue.
    next_root: u64,
}

impl Router {
    /// Creates a router over the given services with an empty,
    /// unbounded queue.
    pub fn new(services: Services) -> Self {
        Router {
            services,
            queue: VecDeque::new(),
            frames_ingested: 0,
            peak_burst: 0,
            tracer: Tracer::new(TraceConfig::default()),
            spans: PipelineSpans::new(),
            depths: QueueDepthGauges::new(),
            arrivals: Vec::new(),
            next_root: 0,
        }
    }

    /// Replaces the flight recorder with one of the given capacity
    /// (any records already buffered are discarded); capacity 0 turns
    /// it off.
    pub fn configure_trace(&mut self, config: TraceConfig) {
        self.tracer = Tracer::new(config);
    }

    /// The flight recorder's current contents (chronological) plus
    /// per-stage hop counts. Empty while the recorder is off.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Shared view of the services.
    pub fn services(&self) -> &Services {
        &self.services
    }

    /// Mutable view of the services (for synchronous facade calls).
    pub fn services_mut(&mut self) -> &mut Services {
        &mut self.services
    }

    /// Enqueues a boundary event at the back of the queue: acks,
    /// actuations, flushes, derived republications — everything that is
    /// not a radio frame, which enters through [`Router::ingest`].
    pub fn enqueue(&mut self, ev: ServiceEvent) {
        let tag = self.alloc_root();
        self.enqueue_tagged(tag, ev);
    }

    /// Allocates a fresh root-sequence tag for a boundary enqueue.
    fn alloc_root(&mut self) -> RootTag {
        let root = self.next_root;
        self.next_root += 1;
        root
    }

    /// Enqueues under an existing root tag — the cascade path: events a
    /// service emitted while handling `tag`'s work stay attributed to
    /// that boundary event.
    fn enqueue_tagged(&mut self, tag: RootTag, ev: ServiceEvent) {
        self.queue.push_back((tag, ev));
    }

    /// The one way in for radio frames: filters the burst as one batch
    /// and queues what each frame's result owes the graph (its
    /// sighting, its piggy-backed acks, its released messages) under
    /// that frame's own root tag. Nothing bounds a burst here: what
    /// happens to a frame at capacity was decided before it got here, by
    /// [`crate::qos::QosScheduler`].
    ///
    /// Frames do not travel through the queue, because the queue is
    /// empty whenever they arrive: every facade entry point pumps to
    /// quiescence before it returns, the scheduler never releases an
    /// event beside frames, and `OverloadPolicy::Block` pumps dry before
    /// it re-offers. Were that ever untrue, the burst's results would
    /// queue behind what was there — still FIFO, nothing lost.
    pub fn ingest(&mut self, frames: Vec<BatchedFrame>, now: SimTime) {
        debug_assert!(self.queue.is_empty(), "frames arrived while events were queued");
        let burst = frames.len() as u64;
        self.frames_ingested += burst;
        self.peak_burst = self.peak_burst.max(burst);
        // The burst's root tags are consecutive from here.
        let first_root = self.next_root;
        for BatchedFrame { receiver, rssi_dbm, frame } in frames {
            self.depths.note_admitted();
            let root = self.alloc_root();
            self.tracer.record(|| frame_record(&frame, now, root, TraceOutcome::Delivered));
            self.arrivals.push(FrameArrival { receiver, rssi_dbm, frame, at: now });
        }
        let results = self.services.ingest.on_batch(&self.arrivals);
        self.arrivals.clear();
        for (root, result) in (first_root..).zip(results) {
            ShardedIngest::frame_events(result, |ev| self.enqueue_tagged(root, ev));
        }
    }

    /// Records a frame the admission scheduler dropped before it reached
    /// [`Router::ingest`], under a root of its own (nothing was routed,
    /// so nothing else will trace it).
    pub fn trace_dropped(&mut self, frame: &BatchedFrame, outcome: TraceOutcome, now: SimTime) {
        if self.tracer.is_enabled() {
            let root = self.alloc_root();
            self.tracer.record(|| frame_record(&frame.frame, now, root, outcome));
        }
    }

    /// Pops and routes one event. Events a service emits go straight to
    /// the back of the queue; everything else — the outputs that escape
    /// the graph — is appended to `out`, the caller's buffer, for the
    /// driver to apply. Returns `false` when the queue is empty
    /// (quiescence).
    pub fn step(&mut self, now: SimTime, out: &mut Vec<ServiceOutput>) -> bool {
        let Some((tag, ev)) = self.queue.pop_front() else { return false };
        // Every delivery passes through here exactly once, so this is
        // the span point.
        if let ServiceEvent::Filtered { delivery, .. } = &ev {
            self.spans.record(delivery.first_received_at, delivery.delivered_at, now);
        }
        let rec = self.tracer.is_enabled().then(|| {
            let rec = event_record(&ev, now, tag);
            self.tracer.record(|| rec);
            rec
        });
        match ev {
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
                for output in self.services.control.route(control, now) {
                    self.absorb(tag, output, out);
                }
            }
        }
        // A dispatch hop that had to (re)build its match set appends a
        // CacheRebuild record right behind its Filtered one.
        if let Some(rec) = rec.filter(|r| r.kind == TraceEventKind::Filtered) {
            if self.services.dispatch.take_last_rebuild() {
                self.tracer.record(|| TraceRecord { kind: TraceEventKind::CacheRebuild, ..rec });
            }
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

    /// Drains the queue, returning the outputs that escaped on the way
    /// out. Reads and further calls keep working afterwards.
    pub fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput> {
        let mut out = Vec::new();
        while self.step(now, &mut out) {}
        out
    }

    /// Whether the queue is drained (the facade checks this at every
    /// return).
    pub(crate) fn queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Monotonic intake totals: every frame handed to
    /// [`Router::ingest`] is both offered and delivered into filtering
    /// (`shed` and `coalesced` stay zero — nothing is dropped here).
    pub fn overload_totals(&self) -> ClassLedger {
        let n = self.frames_ingested;
        ClassLedger { offered: n, delivered: n, ..ClassLedger::default() }
    }

    /// The largest burst handed to [`Router::ingest`] — the most frames
    /// this router has held at once.
    pub fn peak_queue_depth(&self) -> u64 {
        self.peak_burst
    }

    /// The pipeline latency spans recorded so far.
    pub fn pipeline_spans(&self) -> &PipelineSpans {
        &self.spans
    }

    /// The admission-depth gauge.
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
    /// Called by the facade after it pumps the router dry.
    pub fn note_telemetry_quiescent(&mut self) {
        self.depths.note_quiescent();
    }

    /// The earliest time-driven deadline across routed services.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [self.services.ingest.next_deadline(), self.services.control.actuation.next_deadline()]
            .into_iter()
            .flatten()
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_net::SubscriberId;
    use garnet_radio::ReceiverId;
    use garnet_wire::{
        AckStatus, ActuationTarget, DataMessage, SensorCommand, SensorId, SequenceNumber, StreamId,
        StreamIndex,
    };

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

    fn arrival(receiver: u32, frame: garnet_wire::FrameBytes, at: SimTime) -> FrameArrival {
        FrameArrival { receiver: ReceiverId::new(receiver), rssi_dbm: -40.0, frame, at }
    }

    #[test]
    fn flush_is_stream_id_ordered() {
        // Leave a reorder gap on several sensors, then flush: releases
        // must come back in ascending stream id.
        let mut ingest = ShardedIngest::new(FilterConfig::default(), 1);
        for sensor in [9u32, 3, 14, 7, 11] {
            ingest.on_batch(&[arrival(0, frame(sensor, 0), SimTime::ZERO)]);
            // gap at 1
            ingest.on_batch(&[arrival(0, frame(sensor, 2), SimTime::from_millis(1))]);
        }
        let out = ingest.on_tick(SimTime::from_secs(10));
        let ids: Vec<u32> = out.iter().map(|d| d.msg.stream().to_raw()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn ingest_counters_are_the_filtering_service_s() {
        let mut ingest = ShardedIngest::new(FilterConfig::default(), 1);
        for sensor in 1..=8u32 {
            let fr = frame(sensor, 0);
            ingest.on_batch(&[arrival(0, fr.clone(), SimTime::ZERO)]);
            ingest.on_batch(&[arrival(1, fr, SimTime::ZERO)]); // dup
        }
        let stats = ingest.stats();
        assert_eq!(stats.delivered_count(), 8);
        assert_eq!(stats.duplicate_count(), 8);
        assert_eq!(stats.stream_count(), 8);
    }

    fn target() -> ActuationTarget {
        ActuationTarget::Sensor(SensorId::new(7).unwrap())
    }

    fn command() -> SensorCommand {
        SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms: 500 }
    }

    #[test]
    fn resource_grant_emits_submit() {
        let mut control = ControlGraph::default();
        let out = control.route(
            ServiceEvent::ActuationRequested {
                origin: ActuationOrigin::Api,
                requester: SubscriberId::new(3),
                priority: 10,
                target: target(),
                command: command(),
            },
            SimTime::ZERO,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            ServiceOutput::Emit(ServiceEvent::Submit { origin: ActuationOrigin::Api, .. })
        ));
    }

    #[test]
    fn actuation_submit_emits_replicate_and_tracks() {
        let mut control = ControlGraph::default();
        let out = control.route(
            ServiceEvent::Submit {
                origin: ActuationOrigin::Consumer,
                requester: SubscriberId::new(1),
                priority: 5,
                target: target(),
                command: command(),
            },
            SimTime::ZERO,
        );
        assert_eq!(control.actuation.in_flight(), 1);
        let ServiceOutput::Emit(ServiceEvent::Replicate { request, .. }) = &out[0] else {
            panic!("expected replicate: {out:?}");
        };
        // Ack closes the loop through the same entry point.
        let request_id = request.request_id;
        control.route(
            ServiceEvent::AckReceived { request_id, status: AckStatus::Applied },
            SimTime::from_millis(3),
        );
        assert_eq!(control.actuation.in_flight(), 0);
        assert_eq!(control.actuation.acknowledged_count(), 1);
    }

    #[test]
    fn orphanage_takes_in_orphaned_deliveries() {
        let mut control = ControlGraph::default();
        let msg = DataMessage::builder(StreamId::from_raw(0x0700)).build().unwrap();
        control.route(
            ServiceEvent::Orphaned(Delivery {
                msg,
                first_received_at: SimTime::ZERO,
                delivered_at: SimTime::ZERO,
            }),
            SimTime::ZERO,
        );
        assert_eq!(control.orphanage.total_taken(), 1);
    }
}
