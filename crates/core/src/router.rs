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
//! sequence, regardless of how the ingest stage is sharded or where its
//! shards execute.
//!
//! The ingest hot path (the Filtering Service) is the only stage with
//! per-message CPU cost worth parallelising, so it alone is sharded:
//! [`ShardedIngest`] partitions streams across N independent
//! [`FilteringService`]s by sensor id (every stream of a sensor lands on
//! one shard, so per-stream sequence state never crosses shards) and
//! merges flushes back into the stream-id order a single service would
//! have produced. Those shards run either on the calling thread
//! ([`ShardedIngest::new`]) or on a supervised pool
//! ([`ShardedIngest::pooled`]) that keeps shard 0 on the calling thread
//! and gives each further shard a worker, so N shards start N−1
//! threads; that choice is all a [`crate::DriverKind`] changes.
//! Everything downstream of filtering — queue, dispatch, control,
//! spans, trace — is this one router on the caller's thread.

use std::collections::VecDeque;
use std::sync::Arc;

use garnet_net::{EdgeClass, ShardFailure, ShardPool, SupervisionConfig};
use garnet_simkit::trace::{
    TraceConfig, TraceEventKind, TraceOutcome, TraceRecord, TraceSnapshot, Tracer,
};
use garnet_simkit::SimTime;
use garnet_wire::{peek_stream, ActuationTarget};

use crate::actuation::{ActuationConfig, ActuationService};
use crate::coordinator::{CoordinationMode, SuperCoordinator};
use crate::dispatching::DispatchingService;
use crate::driver::{DispatchStats, FilterStats};
use crate::filtering::{Delivery, FilterConfig, FilterResult, FilteringService, FrameArrival};
use crate::location::{LocationConfig, LocationService};
use crate::orphanage::{Orphanage, OrphanageConfig};
use crate::replicator::MessageReplicator;
use crate::resource::{Decision, MediationPolicy, ResourceManager};
use crate::service::{
    ActuationOrigin, BatchedFrame, ServiceEvent, ServiceOutput, SYSTEM_PRIORITY, SYSTEM_SUBSCRIBER,
};
use crate::stream::{shard_of_sensor, StreamRegistry};
use crate::telemetry::{PipelineSpans, QueueDepthGauges};
use crate::trace::{event_record, frame_record, RootTag};

/// A job for one pooled filtering shard.
enum ShardJob {
    /// The shard's arrival-ordered share of one burst.
    Frames(Vec<FrameArrival>),
    /// Flush reorder buffers up to the given instant.
    Flush(SimTime),
}

/// One finished [`ShardJob`]. The shard's counters and earliest reorder
/// deadline ride on the result, which keeps [`ShardedIngest`]'s reads
/// current without reaching into worker-owned state.
struct ShardOut {
    shard: usize,
    /// [`ShardJob::Frames`]: one result per frame, in order.
    results: Vec<FilterResult>,
    /// [`ShardJob::Flush`]: the releases, in the shard's stream-id order.
    released: Vec<Delivery>,
    stats: FilterStats,
    next_deadline: Option<SimTime>,
}

/// The filtering shards of a [`ShardedIngest::pooled`] stage: one
/// [`FilteringService`] per supervised [`ShardPool`] shard — shard 0 on
/// the caller's thread, the rest on workers.
#[derive(Debug)]
struct IngestPool {
    /// `None` once [`IngestPool::join`] has retired the workers.
    pool: Option<ShardPool<ShardJob, ShardOut>>,
    /// Each shard's (counters, reorder deadline) as of its last
    /// finished job.
    stats: Vec<(FilterStats, Option<SimTime>)>,
    /// Jobs lost to worker panics, until [`ShardedIngest::take_failures`].
    failures: Vec<ShardFailure>,
    /// The pool's restart and per-class submit counts as of the last
    /// [`IngestPool::run`] — the only place either can move.
    restarts: u64,
    class_submits: [u64; 3],
}

impl IngestPool {
    fn new(config: FilterConfig, shards: usize) -> Self {
        // The deployable runtime self-heals: a poisoned shard is rebuilt
        // under the default supervision budget instead of staying dead
        // for the facade's lifetime. The lost job still surfaces as a
        // `ShardFailure` — restarts are visible, never silent. One job
        // per shard is in flight at a time, so a worker's queue bound is
        // never reached; shard 0's job runs on this thread when `run`
        // drains, after the workers' jobs are sent.
        let pool = ShardPool::with_supervision(
            shards,
            4,
            Some(SupervisionConfig::default()),
            move |shard| {
                let mut filter = FilteringService::new(config);
                Box::new(move |job: ShardJob| {
                    let (results, released) = match job {
                        ShardJob::Frames(frames) => (filter.on_batch(&frames), Vec::new()),
                        ShardJob::Flush(now) => (Vec::new(), filter.on_tick(now)),
                    };
                    ShardOut {
                        shard,
                        results,
                        released,
                        stats: FilterStats::of(&filter),
                        next_deadline: filter.next_deadline(),
                    }
                })
            },
        );
        IngestPool {
            pool: Some(pool),
            stats: vec![(FilterStats::default(), None); shards],
            failures: Vec::new(),
            restarts: 0,
            class_submits: [0; 3],
        }
    }

    /// Submits `jobs` (at most one per shard), runs shard 0's on this
    /// thread, waits until every one is accounted for — finished, or
    /// recorded as a [`ShardFailure`] — and returns the finished ones in
    /// submission order. A job whose stage panicked, or whose shard is
    /// still waiting out its restart backoff, has no entry. After
    /// [`IngestPool::join`] nothing runs.
    fn run(
        &mut self,
        jobs: impl Iterator<Item = (usize, ShardJob)>,
        class: EdgeClass,
    ) -> Vec<ShardOut> {
        let Some(pool) = self.pool.as_mut() else { return Vec::new() };
        let mut last = None;
        for (shard, job) in jobs {
            last = Some(pool.submit_tagged(shard, job, class));
        }
        let Some(last) = last else { return Vec::new() };
        let mut outs = pool.drain();
        while pool.merged_watermark() <= last {
            std::thread::yield_now();
            outs.extend(pool.drain());
        }
        for out in &outs {
            self.stats[out.shard] = (out.stats, out.next_deadline);
        }
        self.failures.extend(pool.take_failures());
        self.restarts = pool.restart_count();
        self.class_submits = pool.class_submits();
        debug_assert!(
            pool.local_backlog() == 0 && pool.merged_watermark() > last,
            "a job submitted by this run is unaccounted for"
        );
        outs
    }

    /// Joins the workers. Nothing is in flight between
    /// [`IngestPool::run`]s, so nothing is lost.
    fn join(&mut self) {
        if let Some(pool) = self.pool.take() {
            let (_, late) = pool.finish();
            self.failures.extend(late);
        }
    }
}

impl Drop for IngestPool {
    fn drop(&mut self) {
        self.join();
    }
}

/// Where a [`ShardedIngest`]'s filtering shards execute.
// One instance per router, so the Inline/Pooled size gap costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Shards {
    /// On the calling thread.
    Inline(Vec<FilteringService>),
    /// One per worker thread.
    Pooled(IngestPool),
}

/// The ingest stage: N filtering shards partitioned by sensor id.
///
/// With `shards == 1` this is exactly one [`FilteringService`]. With
/// more, each sensor's streams are pinned to one shard; frame handling
/// is embarrassingly parallel across shards because the only shared
/// state — per-stream sequence windows — is partitioned with them.
/// Reorder flushes are merged back into ascending stream-id order,
/// which is the order a single service's `BTreeMap` walk produces, so
/// the event sequence leaving this stage is bit-identical for any shard
/// count — and for either place the shards run: inline
/// ([`ShardedIngest::new`]) or on a worker pool
/// ([`ShardedIngest::pooled`]), where the caller filters shard 0's part
/// of a burst itself, hands each other non-empty shard's part to its
/// worker, and waits for all of them.
#[derive(Debug)]
pub struct ShardedIngest {
    shards: Shards,
}

impl ShardedIngest {
    /// Creates an ingest stage with `shards` filtering shards (0 is
    /// treated as 1) running on the calling thread.
    pub fn new(config: FilterConfig, shards: usize) -> Self {
        let n = shards.max(1);
        let shards = (0..n).map(|_| FilteringService::new(config)).collect();
        ShardedIngest { shards: Shards::Inline(shards) }
    }

    /// Creates an ingest stage whose `shards` filtering shards (0 is
    /// treated as 1) run on a supervised [`ShardPool`]: shard 0 on the
    /// calling thread, each further shard on a worker thread of its own,
    /// so N shards start N−1 threads and one shard starts none. Results
    /// are those of [`ShardedIngest::new`] with the same arguments,
    /// except that a shard panic loses the job it was running — empty
    /// results, plus a [`ShardFailure`] from
    /// [`ShardedIngest::take_failures`] — and the shard restarts with
    /// fresh state. A shard-0 panic unwinds on the calling thread, so
    /// that is the thread a panic hook names.
    pub fn pooled(config: FilterConfig, shards: usize) -> Self {
        ShardedIngest { shards: Shards::Pooled(IngestPool::new(config, shards.max(1))) }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        match &self.shards {
            Shards::Inline(shards) => shards.len(),
            Shards::Pooled(pool) => pool.stats.len(),
        }
    }

    /// The shard a frame belongs to. Undecodable-but-headed frames
    /// still shard deterministically via [`peek_stream`]; frames too
    /// short to carry a stream id land on shard 0 (they fail CRC
    /// wherever they land — the choice only has to be deterministic).
    /// A single-shard stage (the default) needs no header peek.
    pub fn shard_of(&self, frame: &[u8]) -> usize {
        let n = self.shard_count();
        if n == 1 {
            return 0;
        }
        peek_stream(frame).map_or(0, |stream| shard_of_sensor(stream.sensor().as_u32(), n))
    }

    /// Feeds a burst of frames, equivalent to one
    /// [`FilteringService::on_frame`] per entry in order on a single
    /// service: results come back in arrival order, and since streams
    /// are pinned to shards, routing each shard its own arrival-ordered
    /// sub-batch observes exactly the per-frame state evolution. Each shard validates its sub-batch's headers in one
    /// prepass ([`FilteringService::on_batch`]). Pooled shards work on
    /// their sub-batches concurrently, shard 0's on the calling thread;
    /// a sub-batch lost to a shard panic comes back as empty results.
    pub fn on_batch(&mut self, frames: &[FrameArrival]) -> Vec<FilterResult> {
        match &mut self.shards {
            Shards::Inline(shards) if shards.len() == 1 => return shards[0].on_batch(frames),
            // One shard takes the burst whole: nothing to split or scatter.
            Shards::Pooled(pool) if pool.stats.len() == 1 => {
                let job = ShardJob::Frames(frames.to_vec());
                return match pool.run(std::iter::once((0, job)), EdgeClass::Data).pop() {
                    Some(done) => done.results,
                    None => frames.iter().map(|_| FilterResult::default()).collect(),
                };
            }
            _ => {}
        }
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shard_count()];
        for (i, f) in frames.iter().enumerate() {
            per_shard[self.shard_of(&f.frame)].push(i);
        }
        // Cloning a FrameArrival only bumps the frame's refcount.
        let sub_batches = per_shard.iter().enumerate().filter(|(_, idxs)| !idxs.is_empty()).map(
            |(shard, idxs)| (shard, idxs.iter().map(|&i| frames[i].clone()).collect::<Vec<_>>()),
        );
        let mut out: Vec<FilterResult> = frames.iter().map(|_| FilterResult::default()).collect();
        let mut scatter = |shard: usize, results: Vec<FilterResult>| {
            for (&i, r) in per_shard[shard].iter().zip(results) {
                out[i] = r;
            }
        };
        match &mut self.shards {
            Shards::Inline(shards) => {
                for (shard, batch) in sub_batches {
                    scatter(shard, shards[shard].on_batch(&batch));
                }
            }
            Shards::Pooled(pool) => {
                let jobs = sub_batches.map(|(shard, batch)| (shard, ShardJob::Frames(batch)));
                for done in pool.run(jobs, EdgeClass::Data) {
                    scatter(done.shard, done.results);
                }
            }
        }
        out
    }

    /// Flushes expired reorder buffers on every shard and merges the
    /// releases into ascending stream-id order (identical to a single
    /// unsharded service: each shard flushes in stream-id order, and
    /// streams are partitioned, so a stable merge by stream id
    /// reproduces the global order).
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Delivery> {
        let mut out: Vec<Delivery> = match &mut self.shards {
            Shards::Inline(shards) => shards.iter_mut().flat_map(|s| s.on_tick(now)).collect(),
            Shards::Pooled(pool) => {
                let jobs = (0..pool.stats.len()).map(|shard| (shard, ShardJob::Flush(now)));
                pool.run(jobs, EdgeClass::Control).into_iter().flat_map(|d| d.released).collect()
            }
        };
        out.sort_by_key(|d| d.msg.stream().to_raw());
        out
    }

    /// The earliest reorder deadline across shards (pooled shards: as of
    /// each shard's last finished job, which is exact between calls).
    pub fn next_deadline(&self) -> Option<SimTime> {
        match &self.shards {
            Shards::Inline(shards) => {
                shards.iter().filter_map(FilteringService::next_deadline).min()
            }
            Shards::Pooled(pool) => pool.stats.iter().filter_map(|(_, deadline)| *deadline).min(),
        }
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

    /// The stage's counters summed across shards (streams are
    /// partitioned, so the sums are exact; pooled shards: as of each
    /// shard's last finished job).
    pub fn stats(&self) -> FilterStats {
        let total = FilterStats::default();
        match &self.shards {
            Shards::Inline(shards) => {
                shards.iter().fold(total, |acc, s| acc.absorb(FilterStats::of(s)))
            }
            Shards::Pooled(pool) => pool.stats.iter().fold(total, |acc, (s, _)| acc.absorb(*s)),
        }
    }

    /// Takes the jobs lost to worker panics since the last call (always
    /// empty for inline shards, which have no threads to lose).
    pub fn take_failures(&mut self) -> Vec<ShardFailure> {
        match &mut self.shards {
            Shards::Inline(_) => Vec::new(),
            Shards::Pooled(pool) => std::mem::take(&mut pool.failures),
        }
    }

    /// Worker restarts performed by the pool's supervision policy
    /// (always 0 for inline shards).
    pub fn shard_restarts(&self) -> u64 {
        match &self.shards {
            Shards::Inline(_) => 0,
            Shards::Pooled(pool) => pool.restarts,
        }
    }

    /// Jobs handed to pooled shards per [`EdgeClass`], indexed by
    /// [`EdgeClass::index`]: one `Data` job per non-empty shard per
    /// burst, one `Control` job per shard per flush. All zeros for
    /// inline shards, which have no channel boundary to account at.
    pub fn class_submits(&self) -> [u64; 3] {
        match &self.shards {
            Shards::Inline(_) => [0; 3],
            Shards::Pooled(pool) => pool.class_submits,
        }
    }

    /// Joins pooled workers (a no-op for inline shards). Counters and
    /// failures stay readable; frames fed afterwards come back as empty
    /// results.
    pub fn join(&mut self) {
        if let Shards::Pooled(pool) = &mut self.shards {
            pool.join();
        }
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
                vec![ServiceOutput::Emit(Replicate { origin, requester, request, estimate: None })]
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
                            estimate: None,
                        })
                    })
                    .collect();
                out.extend(expired.into_iter().map(ServiceOutput::Expired));
                out
            }
            Replicate { origin, requester, request, estimate } => {
                // The replicator's read-dependency on the Location
                // Service is resolved here, at routing time, so the
                // replicator itself stays free of service references.
                let estimate = estimate.or_else(|| match request.target {
                    ActuationTarget::Sensor(s) => self.location.estimate(s, now),
                    ActuationTarget::Stream(st) => self.location.estimate(st.sensor(), now),
                    ActuationTarget::Area(_) => None,
                });
                let plan = self.replicator.plan_with_estimate(request, estimate);
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
/// independently — grouped by stage: the data plane (sharded ingest,
/// dispatch) and the control plane behind it. Fields are public: the
/// facade reaches in for direct reads (statistics) and the rare
/// synchronous call (subscription changes, orphanage claims) that is
/// request/response rather than dataflow.
#[derive(Debug)]
pub struct Services {
    /// Sharded filtering (the ingest hot path).
    pub ingest: ShardedIngest,
    /// Subscription routing + stream catalogue.
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
    /// Radio frames accepted into admission (everything except blocked
    /// attempts, which retry and count once on success). A consumer's
    /// derived republications are not frames and never count here.
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
    /// Per-ingest-shard admission-depth gauges.
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
        let depths = QueueDepthGauges::new(services.ingest.shard_count());
        Router {
            services,
            queue: VecDeque::new(),
            frames_ingested: 0,
            peak_burst: 0,
            tracer: Tracer::new(TraceConfig::default()),
            spans: PipelineSpans::new(),
            depths,
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
            // The depth gauges sample the total and the frame's ingest
            // shard; off, they cost nothing (not even the shard peek).
            if self.depths.enabled() {
                self.depths.note_admitted(self.services.ingest.shard_of(&frame));
            }
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

    /// Drains the queue and joins any filtering worker pool, returning
    /// the outputs that escaped on the way out. Reads keep working
    /// afterwards; frames offered to a joined pool filter to nothing.
    pub fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput> {
        let mut out = Vec::new();
        while self.step(now, &mut out) {}
        self.services.ingest.join();
        out
    }

    /// Monotonic intake totals: every frame handed to
    /// [`Router::ingest`] is both offered and delivered into filtering
    /// (`shed` and `coalesced` stay zero — nothing is dropped here).
    pub fn overload_totals(&self) -> OverloadTotals {
        let n = self.frames_ingested;
        OverloadTotals { offered: n, delivered: n, ..OverloadTotals::default() }
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
        AckStatus, DataMessage, SensorCommand, SensorId, SequenceNumber, StreamId, StreamIndex,
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
                ingest.on_batch(&[arrival(0, frame(sensor, 0), SimTime::ZERO)]);
                // gap at 1
                ingest.on_batch(&[arrival(0, frame(sensor, 2), SimTime::from_millis(1))]);
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
        let ServiceOutput::Emit(ServiceEvent::Replicate { request, estimate, .. }) = &out[0] else {
            panic!("expected replicate: {out:?}");
        };
        assert!(estimate.is_none(), "the estimate is filled in when the Replicate is routed");
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
