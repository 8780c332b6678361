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
//! Service ([`ShardedIngest`]), called inline by [`Router::ingest`], by
//! `Router::forgo` and by a `FlushReorder` step, then its one
//! Dispatching Service ([`ShardedDispatch`]) and the control plane
//! behind it.

use std::collections::VecDeque;
use std::sync::Arc;

use garnet_simkit::trace::{
    TraceConfig, TraceEventKind, TraceOutcome, TraceRecord, TraceSnapshot, Tracer,
};
use garnet_simkit::{Propagation, ReceiverId, SimTime};
use garnet_wire::FrameBytes;

use crate::actuation::ActuationService;
use crate::coordinator::{CoordinationMode, SuperCoordinator};
use crate::dispatching::pubsub::{DispatchCacheConfig, SubscriberId, TopicFilter};
use crate::dispatching::DispatchingService;
use crate::filtering::{Delivery, FilterConfig, FilterResult, FilteringService};
use crate::location::{LocationConfig, LocationService};
use crate::orphanage::{Orphanage, OrphanageConfig};
use crate::qos::ClassLedger;
use crate::replicator::MessageReplicator;
use crate::resource::{Decision, MediationPolicy, ResourceManager};
use crate::service::{
    ActuationOrigin, BatchedFrame, ServiceEvent, ServiceOutput, SYSTEM_PRIORITY, SYSTEM_SUBSCRIBER,
};
use crate::stream::{RowId, StreamRegistry};
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

    /// Feeds one frame ([`FilteringService::on_frame`]): the router
    /// filters a burst one frame at a time, in arrival order, each
    /// frame's header validated as it is decoded.
    pub(crate) fn on_frame(
        &mut self,
        receiver: ReceiverId,
        rssi_dbm: f64,
        frame: &FrameBytes,
        now: SimTime,
    ) -> FilterResult {
        self.filter.on_frame(receiver, rssi_dbm, frame, now)
    }

    /// Marks sequence numbers admission coalesced away as forgone
    /// ([`FilteringService::forgo`]), handing each message that releases
    /// to `emit` with the stream's remembered dispatch row.
    pub(crate) fn forgo(
        &mut self,
        stream: garnet_wire::StreamId,
        seq: garnet_wire::SequenceNumber,
        below: u64,
        now: SimTime,
        emit: impl FnMut(Delivery, Option<RowId>),
    ) {
        self.filter.forgo(stream, seq, below, now, emit);
    }

    /// Flushes expired reorder buffers, releasing in ascending stream-id
    /// order ([`FilteringService::on_tick`]).
    pub(crate) fn on_tick(&mut self, now: SimTime) -> Vec<Delivery> {
        self.filter.on_tick(now)
    }

    /// The earliest reorder deadline.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.filter.next_deadline()
    }

    /// Remembers `stream`'s dispatch row
    /// ([`FilteringService::remember_row`]).
    pub(crate) fn remember_row(&mut self, stream: garnet_wire::StreamId, row: RowId) {
        self.filter.remember_row(stream, row);
    }

    /// Emits the events one frame's filter result owes the graph, in the
    /// order the router must queue them: the location sighting, then
    /// an `AckReceived` for each released message carrying a
    /// piggy-backed acknowledgement, then the released messages
    /// themselves, each carrying the stream's remembered dispatch row.
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
            emit(ServiceEvent::Filtered { delivery, depth: 0, row: result.row });
        }
    }

    /// The stage's one Filtering Service, whose counters are the
    /// stage's statistics.
    pub(crate) fn stats(&self) -> &FilteringService {
        &self.filter
    }
}

/// The dispatch stage: Figure 1's one Dispatching Service and the one
/// stream catalogue it keeps current, on the router's thread. Nothing
/// here is sharded; the name is the one the benchmark's call site uses.
#[derive(Debug, Default)]
pub struct ShardedDispatch {
    dispatcher: DispatchingService,
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
    pub fn with_cache(_shards: usize, cache: DispatchCacheConfig) -> Self {
        ShardedDispatch { dispatcher: DispatchingService::with_cache(cache), ..Self::default() }
    }

    /// The stream catalogue.
    pub(crate) fn streams(&self) -> &StreamRegistry {
        self.dispatcher.streams()
    }

    /// Marks a catalogued stream claimed/unclaimed.
    pub(crate) fn set_claimed(&mut self, stream: garnet_wire::StreamId, claimed: bool) {
        self.dispatcher.set_claimed(stream, claimed);
    }

    /// Allocates a fresh subscriber identity.
    pub fn register_subscriber(&mut self) -> SubscriberId {
        self.dispatcher.register_subscriber()
    }

    /// Adds a subscription. Returns true if new.
    pub fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.dispatcher.subscribe(subscriber, filter)
    }

    /// Removes one subscription.
    pub fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.dispatcher.unsubscribe(subscriber, filter)
    }

    /// Removes every subscription of a departing consumer, returning
    /// how many it held.
    pub(crate) fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize {
        self.dispatcher.unsubscribe_all(subscriber)
    }

    /// The dispatch stage's whole job for one filtered message: route
    /// it, record it (and whether anyone claimed it) in the catalogue
    /// row the route found, and build its single output. With `row`
    /// naming the stream's row, no lookup at all; otherwise one keyed
    /// lookup, and the row it found is returned beside the output for
    /// the caller to remember.
    pub(crate) fn dispatch(
        &mut self,
        delivery: Delivery,
        depth: u32,
        row: Option<RowId>,
    ) -> (ServiceOutput, Option<RowId>) {
        let (outcome, info, looked_up) = self.dispatcher.route_row(delivery.msg.stream(), row);
        // Keeping the claimed flag in step with each route makes a
        // subscription made before the stream's first message visible
        // to the quiescence sweep.
        info.note(delivery.msg.payload().len(), delivery.delivered_at, depth > 0);
        info.claimed = !outcome.unclaimed;
        self.last_rebuilt = outcome.rebuilt;
        (routed_output(outcome.recipients, delivery, depth), looked_up)
    }

    /// Whether the most recent dispatch (re)built its match set, clearing
    /// the flag — the router reads this right after pumping a `Filtered`
    /// event to append the `CacheRebuild` trace record.
    pub(crate) fn take_last_rebuild(&mut self) -> bool {
        std::mem::take(&mut self.last_rebuilt)
    }

    /// Peeks the match set without accounting.
    pub(crate) fn would_deliver(&self, stream: garnet_wire::StreamId) -> bool {
        self.dispatcher.would_deliver(stream)
    }

    /// The stage's one Dispatching Service, whose counters are the
    /// stage's statistics (beside `ShardedIngest::stats`).
    pub fn stats(&self) -> &DispatchingService {
        &self.dispatcher
    }
}

/// The one place a routed message becomes an output: a message nobody
/// matched goes to the Orphanage, anything else is one
/// [`ServiceOutput::Deliver`] carrying the whole match set — no
/// per-recipient output and no `Delivery` clone, whatever the fan-out.
fn routed_output(recipients: Arc<[SubscriberId]>, delivery: Delivery, depth: u32) -> ServiceOutput {
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
            // No receivers, so no sighting is ever inverted: the model
            // is `GarnetConfig`'s default and nothing reads it.
            location: LocationService::new(
                LocationConfig::default(),
                &[],
                Propagation::wifi_outdoor(),
            ),
            resource: ResourceManager::new(MediationPolicy::MergeMax),
            actuation: ActuationService::new(),
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

    /// The one way in for radio frames: filters the burst one frame at
    /// a time, in arrival order, and queues what each frame's result
    /// owes the graph (its sighting, its piggy-backed acks, its released
    /// messages) under that frame's own root tag as soon as it is
    /// filtered — no per-burst result buffer. Nothing bounds a burst
    /// here: what happens to a frame at capacity was decided before it
    /// got here, by [`crate::qos::QosScheduler`].
    ///
    /// Frames do not travel through the queue, because the queue is
    /// empty whenever they arrive: every facade entry point pumps to
    /// quiescence before it returns, the scheduler never releases an
    /// event beside frames, and `OverloadPolicy::Block` pumps dry before
    /// it re-offers. Were that ever untrue, the burst's results would
    /// queue behind what was there — still FIFO, nothing lost.
    ///
    /// Kept out of line: inlined into `Garnet::on_frames`, this loop
    /// cost steady-fifo ≈ 7 % of its frames/s (perfbench, 2-core host).
    #[inline(never)]
    pub fn ingest<I>(&mut self, frames: I, now: SimTime)
    where
        I: IntoIterator<Item = BatchedFrame>,
        I::IntoIter: ExactSizeIterator,
    {
        debug_assert!(self.queue.is_empty(), "frames arrived while events were queued");
        let frames = frames.into_iter();
        let burst = frames.len() as u64;
        self.frames_ingested += burst;
        self.peak_burst = self.peak_burst.max(burst);
        for BatchedFrame { receiver, rssi_dbm, frame } in frames {
            self.depths.note_admitted();
            let root = self.alloc_root();
            self.tracer.record(|| frame_record(&frame, now, root, TraceOutcome::Delivered));
            let result = self.services.ingest.on_frame(receiver, rssi_dbm, &frame, now);
            ShardedIngest::frame_events(result, |ev| self.enqueue_tagged(root, ev));
        }
    }

    /// Tells filtering that admission coalesced away the sequence
    /// numbers `below` stands for on `stream` (bit `i` is `seq - 1 - i`),
    /// and queues what that releases under a root of its own, as
    /// [`ShardedIngest::frame_events`] would: each released message's
    /// piggy-backed acknowledgement, then the message. Called after the
    /// survivors of the same release went through [`Router::ingest`],
    /// so a survivor always wins over a forgone copy of its sequence
    /// number.
    pub(crate) fn forgo(
        &mut self,
        stream: garnet_wire::StreamId,
        seq: garnet_wire::SequenceNumber,
        below: u64,
        now: SimTime,
    ) {
        let root = self.alloc_root();
        let queue = &mut self.queue;
        self.services.ingest.forgo(stream, seq, below, now, |delivery, row| {
            queue_released(queue, root, delivery, row);
        });
    }

    /// The `FlushReorder` arm of [`Router::step`]: queues what the
    /// expired reorder buffers release under `tag`, each message's
    /// piggy-backed acknowledgement first. Out of line, so the arms that
    /// carry frames keep their shape.
    #[inline(never)]
    fn flush_reorder(&mut self, tag: RootTag, now: SimTime) {
        for delivery in self.services.ingest.on_tick(now) {
            queue_released(&mut self.queue, tag, delivery, None);
        }
    }

    /// Records a frame the admission scheduler dropped before it reached
    /// [`Router::ingest`], under a root of its own (nothing was routed,
    /// so nothing else will trace it). Inlined into the facade's offer
    /// loop: with the recorder off it costs a compare per dropped frame.
    #[inline]
    pub(crate) fn trace_dropped(
        &mut self,
        frame: &BatchedFrame,
        outcome: TraceOutcome,
        now: SimTime,
    ) {
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
            ServiceEvent::FlushReorder => self.flush_reorder(tag, now),
            ServiceEvent::Filtered { delivery, depth, row } => {
                let stream = delivery.msg.stream();
                let (output, looked_up) = self.services.dispatch.dispatch(delivery, depth, row);
                // A radio stream's row found by key comes back with the
                // stream's next frames; derived streams have no
                // filtering state to hold one.
                if let Some(row) = looked_up.filter(|_| depth == 0) {
                    self.services.ingest.remember_row(stream, row);
                }
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
    pub(crate) fn overload_totals(&self) -> ClassLedger {
        let n = self.frames_ingested;
        ClassLedger { offered: n, delivered: n, ..ClassLedger::default() }
    }

    /// The largest burst handed to [`Router::ingest`] — the most frames
    /// this router has held at once.
    pub(crate) fn peak_queue_depth(&self) -> u64 {
        self.peak_burst
    }

    /// The pipeline latency spans recorded so far.
    pub(crate) fn pipeline_spans(&self) -> &PipelineSpans {
        &self.spans
    }

    /// The admission-depth gauge.
    pub(crate) fn queue_depth_gauges(&self) -> &QueueDepthGauges {
        &self.depths
    }

    /// Turns latency-span and depth-gauge recording on or off (on by
    /// default; `GarnetConfig.telemetry.spans` drives this).
    pub(crate) fn set_telemetry_recording(&mut self, enabled: bool) {
        self.spans.set_enabled(enabled);
        self.depths.set_enabled(enabled);
    }

    /// Resets the telemetry depth counts (the watermarks survive).
    /// Called by the facade after it pumps the router dry.
    pub(crate) fn note_telemetry_quiescent(&mut self) {
        self.depths.note_quiescent();
    }

    /// The earliest time-driven deadline across routed services.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        [self.services.ingest.next_deadline(), self.services.control.actuation.next_deadline()]
            .into_iter()
            .flatten()
            .min()
    }
}

/// Queues one message filtering released outside a frame's own result
/// (a forgone window or an expired reorder buffer) under `tag`, as
/// [`ShardedIngest::frame_events`] would: its piggy-backed
/// acknowledgement, then the message.
fn queue_released(
    queue: &mut VecDeque<(RootTag, ServiceEvent)>,
    tag: RootTag,
    delivery: Delivery,
    row: Option<RowId>,
) {
    if let Some(request_id) = delivery.msg.ack() {
        let status = garnet_wire::AckStatus::Applied;
        queue.push_back((tag, ServiceEvent::AckReceived { request_id, status }));
    }
    queue.push_back((tag, ServiceEvent::Filtered { delivery, depth: 0, row }));
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn rx(n: u32) -> ReceiverId {
        ReceiverId::new(n)
    }

    #[test]
    fn flush_is_stream_id_ordered() {
        // Leave a reorder gap on 1 024 sensors, inserted in a shuffled
        // order with their deadlines in that order too, then flush:
        // releases must come back in ascending stream id, not in
        // deadline order, and not in the order a hashed walk would find.
        // Enough streams that neither passes by chance.
        const SENSORS: u32 = 1_024;
        let mut ingest = ShardedIngest::new(FilterConfig::default(), 1);
        // 617 is coprime to 1 024, so this visits every sensor once.
        for i in 0..SENSORS {
            let sensor = 1 + i * 617 % SENSORS;
            ingest.on_frame(rx(0), -40.0, &frame(sensor, 0), SimTime::ZERO);
            // gap at 1
            let at = SimTime::from_micros(1_000 + u64::from(i));
            ingest.on_frame(rx(0), -40.0, &frame(sensor, 2), at);
        }
        let out = ingest.on_tick(SimTime::from_secs(10));
        let ids: Vec<u32> = out.iter().map(|d| d.msg.stream().to_raw()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(out.len(), SENSORS as usize);
    }

    #[test]
    fn ingest_counters_are_the_filtering_service_s() {
        let mut ingest = ShardedIngest::new(FilterConfig::default(), 1);
        for sensor in 1..=8u32 {
            let fr = frame(sensor, 0);
            ingest.on_frame(rx(0), -40.0, &fr, SimTime::ZERO);
            ingest.on_frame(rx(1), -40.0, &fr, SimTime::ZERO); // dup
        }
        let stats = ingest.stats();
        assert_eq!(stats.delivered_count(), 8);
        assert_eq!(stats.duplicate_count(), 8);
        assert_eq!(stats.stream_count(), 8);
    }

    fn stream_of(sensor: u32) -> StreamId {
        StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0))
    }

    fn router() -> Router {
        Router::new(Services {
            ingest: ShardedIngest::new(FilterConfig::default(), 1),
            dispatch: ShardedDispatch::default(),
            control: ControlGraph::default(),
        })
    }

    /// Ingests one frame through the router and pumps it dry.
    fn ingest_one(router: &mut Router, sensor: u32, seq: u16, now: SimTime) -> Vec<ServiceOutput> {
        let frame = BatchedFrame { receiver: rx(0), rssi_dbm: -40.0, frame: frame(sensor, seq) };
        router.ingest(vec![frame], now);
        router.shutdown(now)
    }

    /// Each `Deliver`'s stream and recipients, in order.
    fn delivered(out: &[ServiceOutput]) -> Vec<(u32, Vec<SubscriberId>)> {
        out.iter()
            .filter_map(|o| match o {
                ServiceOutput::Deliver { recipients, delivery, .. } => {
                    Some((delivery.msg.stream().to_raw(), recipients.to_vec()))
                }
                _ => None,
            })
            .collect()
    }

    /// The row filtering hands back with `sensor`'s next frame (the
    /// frame is filtered, and its message dropped).
    fn remembered(router: &mut Router, sensor: u32, seq: u16) -> Option<RowId> {
        router.services_mut().ingest.on_frame(rx(0), -40.0, &frame(sensor, seq), SimTime::ZERO).row
    }

    #[test]
    fn a_hint_naming_another_stream_s_row_is_checked_and_corrected() {
        let mut router = router();
        let d = &mut router.services_mut().dispatch;
        let (a, b) = (d.register_subscriber(), d.register_subscriber());
        d.subscribe(a, TopicFilter::Stream(stream_of(1)));
        d.subscribe(b, TopicFilter::Stream(stream_of(2)));
        ingest_one(&mut router, 1, 0, SimTime::ZERO);
        ingest_one(&mut router, 2, 0, SimTime::ZERO);
        let row1 = remembered(&mut router, 1, 1).expect("the first route remembered the row");
        let row2 = remembered(&mut router, 2, 1).expect("the first route remembered the row");
        assert_ne!(row1, row2);

        // Filtering holds stream 2's row for stream 1: the message still
        // reaches stream 1's subscriber, is counted on stream 1's row,
        // and filtering learns the right row back.
        router.services_mut().ingest.remember_row(stream_of(1), row2);
        let out = ingest_one(&mut router, 1, 2, SimTime::from_millis(1));
        assert_eq!(delivered(&out), [(stream_of(1).to_raw(), vec![a])]);
        let catalogue = router.services().dispatch.streams();
        let counts: Vec<u64> =
            [1, 2].map(|s| catalogue.info(stream_of(s)).unwrap().messages).to_vec();
        assert_eq!(counts, [2, 1]);
        assert_eq!(remembered(&mut router, 1, 3), Some(row1));
        assert_eq!(remembered(&mut router, 2, 2), Some(row2));
    }

    #[test]
    fn a_row_past_the_end_of_the_table_is_ignored() {
        // A row from another router whose catalogue is longer.
        let mut other = router();
        for sensor in 1..=3 {
            ingest_one(&mut other, sensor, 0, SimTime::ZERO);
        }
        let far = remembered(&mut other, 3, 1);
        assert!(far.is_some());

        let mut router = router();
        let d = &mut router.services_mut().dispatch;
        let a = d.register_subscriber();
        d.subscribe(a, TopicFilter::All);
        let msg = DataMessage::builder(stream_of(9)).build().unwrap();
        let delivery =
            Delivery { msg, first_received_at: SimTime::ZERO, delivered_at: SimTime::ZERO };
        router.enqueue(ServiceEvent::Filtered { delivery, depth: 0, row: far });
        let out = router.shutdown(SimTime::ZERO);
        assert_eq!(delivered(&out), [(stream_of(9).to_raw(), vec![a])]);
        assert_eq!(router.services().dispatch.streams().len(), 1);
        assert_eq!(router.services().dispatch.streams().info(stream_of(9)).unwrap().messages, 1);
        assert_eq!(router.services().ingest.stats().stream_count(), 0);
    }

    #[test]
    fn derived_republications_leave_filtering_state_alone() {
        let mut router = router();
        ingest_one(&mut router, 1, 0, SimTime::ZERO);
        let before = router.services().ingest.stats().stream_count();
        for (sensor, seq) in [(0x00FF_0001, 0), (1, 7)] {
            let msg = DataMessage::builder(stream_of(sensor))
                .seq(SequenceNumber::new(seq))
                .build()
                .unwrap();
            let at = SimTime::from_millis(1);
            let delivery = Delivery { msg, first_received_at: at, delivered_at: at };
            router.enqueue(ServiceEvent::Filtered { delivery, depth: 1, row: None });
            router.shutdown(at);
        }
        let after = router.services().ingest.stats().stream_count();
        assert_eq!(after, before);
        assert_eq!(router.services().dispatch.streams().len(), 2);
        assert_eq!(router.services().dispatch.streams().info(stream_of(1)).unwrap().messages, 2);
        // Stream 1's next frame is still its seq 1, not a duplicate.
        let out = ingest_one(&mut router, 1, 1, SimTime::from_millis(2));
        assert_eq!(router.services().ingest.stats().delivered_count(), 2);
        assert!(out.is_empty(), "nobody subscribes: the message is orphaned");
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

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::stream::StreamInfo;
    use garnet_simkit::SimDuration;
    use garnet_wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};
    use proptest::prelude::*;

    const RADIO: u32 = 16;
    const DERIVED_SENSOR: u32 = 0x00FF_0000;

    fn message(sensor: u32, seq: u16) -> DataMessage {
        let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
        DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![0; usize::from(seq % 5)])
            .build()
            .unwrap()
    }

    fn filter_of(code: u8) -> TopicFilter {
        let sensor = 1 + u32::from(code) % RADIO;
        match code / 16 % 3 {
            0 => TopicFilter::All,
            1 => TopicFilter::Sensor(SensorId::new(sensor).unwrap()),
            _ => TopicFilter::Stream(StreamId::new(
                SensorId::new(sensor).unwrap(),
                StreamIndex::new(0),
            )),
        }
    }

    /// A standalone Dispatching Service fed the same messages in the
    /// same order, one keyed `route` each, and the catalogue those
    /// routes imply.
    struct Replay {
        dispatch: DispatchingService,
        catalogue: StreamRegistry,
        delivered: Vec<(u32, u16, Vec<SubscriberId>)>,
    }

    impl Replay {
        fn route(&mut self, delivery: &Delivery, derived: bool) {
            let stream = delivery.msg.stream();
            let outcome = self.dispatch.route(stream);
            let len = delivery.msg.payload().len();
            self.catalogue.note_message(stream, len, delivery.delivered_at, derived);
            self.catalogue.set_claimed(stream, !outcome.unclaimed);
            if !outcome.unclaimed {
                let seq = delivery.msg.seq().as_u16();
                self.delivered.push((stream.to_raw(), seq, outcome.recipients.to_vec()));
            }
        }
    }

    // The routing the remembered rows buy, against the keyed route they
    // skip: interleaved frames (in order, duplicated, displaced) on up to
    // 16 radio streams, reorder flushes, subscription writes and derived
    // republications, each pumped through the router, must reach the
    // same recipients, in the same order, as a standalone keyed replay —
    // and leave the same catalogue and the same dispatch counters.
    proptest! {
        #[test]
        fn remembered_rows_route_like_the_keyed_replay(
            ops in proptest::collection::vec((0u8..12, 0u8..64, 0u8..8), 1..300),
        ) {
            let config = FilterConfig::default();
            let mut router = Router::new(Services {
                ingest: ShardedIngest::new(config, 1),
                dispatch: ShardedDispatch::default(),
                control: ControlGraph::default(),
            });
            let mut filter = FilteringService::new(config);
            let mut replay = Replay {
                dispatch: DispatchingService::new(),
                catalogue: StreamRegistry::new(),
                delivered: Vec::new(),
            };
            let subscribers: Vec<SubscriberId> = (0..4)
                .map(|_| {
                    let id = router.services_mut().dispatch.register_subscriber();
                    prop_assert_eq!(replay.dispatch.register_subscriber(), id);
                    id
                })
                .collect();
            let mut next = [0u16; RADIO as usize];
            let mut derived_seq = 0u16;
            let mut delivered = Vec::new();
            let mut now = SimTime::ZERO;
            for (kind, code, how) in ops {
                now += SimDuration::from_millis(u64::from(how) * 3);
                let sensor = 1 + u32::from(code) % RADIO;
                match kind {
                    0..=5 => {
                        let cursor = &mut next[(sensor - 1) as usize];
                        let seq = match how {
                            // A duplicate, and a displaced frame.
                            5 => cursor.wrapping_sub(1),
                            6 => cursor.wrapping_add(1),
                            _ => {
                                *cursor = cursor.wrapping_add(1);
                                cursor.wrapping_sub(1)
                            }
                        };
                        let frame: FrameBytes = message(sensor, seq).encode_to_vec().into();
                        let result = filter.on_frame(ReceiverId::new(0), -40.0, &frame, now);
                        for d in &result.deliveries {
                            replay.route(d, false);
                        }
                        let receiver = ReceiverId::new(0);
                        router.ingest(vec![BatchedFrame { receiver, rssi_dbm: -40.0, frame }], now);
                    }
                    6 | 7 => {
                        let (who, filter) = (subscribers[usize::from(how % 4)], filter_of(code));
                        let d = &mut router.services_mut().dispatch;
                        if kind == 6 {
                            prop_assert_eq!(
                                d.subscribe(who, filter),
                                replay.dispatch.subscribe(who, filter)
                            );
                        } else {
                            prop_assert_eq!(
                                d.unsubscribe(who, filter),
                                replay.dispatch.unsubscribe(who, filter)
                            );
                        }
                    }
                    8 | 9 => {
                        // A republication on a virtual stream, or on a
                        // radio stream's own id.
                        let on =
                            if kind == 8 { DERIVED_SENSOR + u32::from(how % 3) } else { sensor };
                        derived_seq = derived_seq.wrapping_add(1);
                        let delivery = Delivery {
                            msg: message(on, derived_seq),
                            first_received_at: now,
                            delivered_at: now,
                        };
                        replay.route(&delivery, true);
                        router.enqueue(ServiceEvent::Filtered { delivery, depth: 1, row: None });
                    }
                    _ => {
                        for d in filter.on_tick(now) {
                            replay.route(&d, false);
                        }
                        router.enqueue(ServiceEvent::FlushReorder);
                    }
                }
                for output in router.shutdown(now) {
                    if let ServiceOutput::Deliver { recipients, delivery, .. } = output {
                        let (stream, seq) = (delivery.msg.stream(), delivery.msg.seq());
                        delivered.push((stream.to_raw(), seq.as_u16(), recipients.to_vec()));
                    }
                }
                prop_assert_eq!(&delivered, &replay.delivered, "recipients diverged at {:?}", now);
            }
            let routed: Vec<&StreamInfo> = router.services().dispatch.streams().discover();
            prop_assert_eq!(routed, replay.catalogue.discover());
            let stats = router.services().dispatch.stats();
            let d = &replay.dispatch;
            prop_assert_eq!(
                (stats.dispatched_count(), stats.delivery_count(), stats.unclaimed_count()),
                (d.dispatched_count(), d.delivery_count(), d.unclaimed_count())
            );
            let (a, b) = (stats.match_cache(), d.match_cache());
            prop_assert_eq!(
                (a.hits, a.misses, a.invalidations, a.resident),
                (b.hits, b.misses, b.invalidations, b.resident)
            );
            prop_assert_eq!(router.services().ingest.stats().stream_count(), filter.stream_count());
        }
    }
}
