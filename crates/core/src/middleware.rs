//! The Garnet middleware facade: Figure 1 assembled into one deployable
//! unit.
//!
//! [`Garnet`] owns the service graph — one FIFO [`Router`] — and drives
//! it directly: a burst of radio frames is handed to
//! [`Router::ingest`], every other external input becomes a
//! [`ServiceEvent`] on the router's queue, and the facade steps the
//! router to quiescence on the caller's thread, applying the outputs
//! that escape the graph (consumer callbacks, control plans, denials,
//! expiries):
//!
//! ```text
//!   on_frame ─→ ShardedIngest ─→ Dispatching ─→ consumers ─→ actions
//!                  │                  │                         │
//!                  │                  └─(Orphaned)→ Orphanage   │
//!                  ├─(Observed)→ Location                       │
//!                  └─(AckReceived)→ Actuation                   │
//!                                                               ▼
//!        Resource Manager ←─ ActuationRequested ←───────────────┤
//!               │ (Submit)                                      │
//!        Actuation Service ─(Replicate)→ Replicator → control   │
//!               ▲                                    plans out  │
//!        Super Coordinator ←─ StateReported ←───────────────────┘
//! ```
//!
//! Consumers run *inside* the facade (mutually unaware of each other, as
//! §2 demands); their derived streams re-enter the dispatch loop as
//! `Filtered` events with a bounded depth, forming the "essentially
//! arbitrary graph of consumer processes and data streams" of §6.
//!
//! The queue is strictly FIFO and every stage runs on the caller's
//! thread, so the same call sequence always produces the same outputs.
//! In debug builds every entry point that feeds or reconfigures the graph
//! checks the facade's books before it returns
//! (`Garnet::check_invariants`).

use std::collections::HashMap;

use core::fmt;
use garnet_simkit::geometry::Point;
use garnet_simkit::trace::{TraceOutcome, TraceSnapshot};
use garnet_simkit::{stage_key, Propagation, Receiver, ReceiverId, SimTime, Transmitter};
use garnet_store::ArchiveRecord;
use garnet_wire::{
    AckStatus, ActuationTarget, DataMessage, FrameBytes, RequestId, SensorCommand, SensorId,
    SequenceNumber, StreamId, StreamUpdateRequest,
};

use crate::actuation::ActuationService;
use crate::archive::{ArchiveConfig, ArchiveService};
use crate::auth::{AuthService, Capability, CapabilitySet, Principal, Token};
use crate::consumer::{Consumer, ConsumerAction, ConsumerCtx};
use crate::coordinator::{CoordinationMode, PolicyAction, SuperCoordinator};
use crate::dispatching::pubsub::{DispatchCacheConfig, SubscriberId, TopicFilter};
use crate::dispatching::DispatchingService;
use crate::driver::DriverKind;
use crate::filtering::{Delivery, FilterConfig, FilteringService};
use crate::location::{LocationEstimate, LocationService};
use crate::orphanage::{Orphanage, OrphanageConfig};
use crate::qos::{
    ClassLedger, ClassLedgers, DeliverySchedule, FrameOffer, PriorityClass, QosConfig, QosScheduler,
};
use crate::replicator::{MessageReplicator, ReplicationPlan};
use crate::resource::{DenyReason, MediationPolicy, ResourceManager};
use crate::router::{
    ControlGraph, OverloadConfig, Router, Services, ShardedDispatch, ShardedIngest,
};
use crate::service::{ActuationOrigin, BatchedFrame, ServiceEvent, ServiceOutput};
use crate::stream::StreamRegistry;
use crate::telemetry::{TelemetryConfig, TelemetryService, TelemetrySnapshot};

pub(crate) use crate::service::SYSTEM_SUBSCRIBER;

/// Demand-driven quiescence (§8's "system-inferred changes to data
/// usage patterns"): streams nobody subscribes to are slowed down to
/// save sensor energy and restored when demand appears — the middleware
/// analogue of a Fjords proxy "adjusting sensor output based on user
/// demand" (§7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuiesceConfig {
    /// How long a stream may run unclaimed before it is slowed.
    pub idle_after: garnet_simkit::SimDuration,
    /// Interval (ms) imposed on quiesced streams.
    pub slow_interval_ms: u32,
    /// Interval (ms) restored when a subscriber appears (a subsequent
    /// consumer actuation can refine it).
    pub restore_interval_ms: u32,
}

/// Facade configuration.
#[derive(Clone, Debug)]
pub struct GarnetConfig {
    /// Accepted for the benchmark's call site; has no effect.
    pub driver: DriverKind,
    /// Filtering Service tuning.
    pub filter: FilterConfig,
    /// Accepted for the benchmark's call site; has no effect.
    pub ingest_shards: usize,
    /// Accepted for the benchmark's call site; has no effect.
    pub dispatch_shards: usize,
    /// Orphanage tuning.
    pub orphanage: OrphanageConfig,
    /// Resource Manager conflict policy.
    pub mediation: MediationPolicy,
    /// Super Coordinator mode.
    pub coordination: CoordinationMode,
    /// Key material for the token authority.
    pub auth_key: [u8; 16],
    /// Maximum derived-stream depth (loop guard for the consumer graph).
    pub max_derived_depth: u32,
    /// Installed receiver array (for location inference).
    pub receivers: Vec<Receiver>,
    /// The deployment's one path-loss model: the radios deliver by it
    /// (`garnet_workloads::pipeline::PipelineSim` reads it from here) and
    /// the Location Service inverts it to turn a sighting's RSSI into a
    /// distance. Defaults to [`Propagation::wifi_outdoor`], the paper's
    /// 802.11b testbed.
    pub propagation: Propagation,
    /// Installed transmitter array (for the actuation path).
    pub transmitters: Vec<Transmitter>,
    /// Demand-driven quiescence of unclaimed streams; `None` disables.
    pub quiesce: Option<QuiesceConfig>,
    /// Bounded admission control for the frame intake, enforced by the
    /// facade-boundary [`QosScheduler`] — the one place a frame is shed,
    /// coalesced or held back. `None` leaves the intake unbounded
    /// (nothing is ever dropped).
    pub overload: Option<OverloadConfig>,
    /// Tuning for the scheduler [`GarnetConfig::overload`] arms and for
    /// per-consumer delivery scheduling (see `crate::qos`).
    pub qos: QosConfig,
    /// Flight-recorder ring capacity in records; `0` (the default)
    /// leaves the recorder off.
    pub trace_capacity: usize,
    /// Accepted for the benchmark's call site; has no effect.
    pub batch_ingest: bool,
    /// Durable frame/control-event archive (see [`crate::archive`]);
    /// `None` disables the tap entirely.
    pub archive: Option<ArchiveConfig>,
    /// Dispatch match-set memoisation (see [`crate::dispatching`]). On
    /// by default; the cache changes dispatch cost, never output order.
    pub dispatch_cache: DispatchCacheConfig,
    /// Telemetry plane: latency spans, windowed snapshot export, health
    /// scoring and the optional rotating JSONL sink `garnetctl` reads
    /// (see [`crate::telemetry`]).
    pub telemetry: TelemetryConfig,
}

impl Default for GarnetConfig {
    fn default() -> Self {
        GarnetConfig {
            driver: DriverKind::default(),
            filter: FilterConfig::default(),
            ingest_shards: 1,
            dispatch_shards: 1,
            orphanage: OrphanageConfig::default(),
            mediation: MediationPolicy::MergeMax,
            coordination: CoordinationMode::Predictive { min_confidence: 0.6 },
            auth_key: *b"garnet-master-k!",
            max_derived_depth: 16,
            receivers: Vec::new(),
            propagation: Propagation::wifi_outdoor(),
            transmitters: Vec::new(),
            quiesce: None,
            overload: None,
            qos: QosConfig::default(),
            trace_capacity: 0,
            batch_ingest: true,
            archive: None,
            dispatch_cache: DispatchCacheConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Errors from facade operations.
#[derive(Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GarnetError {
    /// The presented token does not grant the needed capability (or is
    /// expired/forged).
    NotAuthorized {
        /// The capability that was required.
        needed: Capability,
    },
    /// No consumer is registered under this id.
    UnknownConsumer(SubscriberId),
    /// The 24-bit virtual sensor space for derived streams is exhausted.
    VirtualSensorSpaceExhausted,
    /// An `Api` actuation chain drained without reaching a terminal
    /// `Planned` or `Denied` outcome — the request was lost inside the
    /// event graph instead of being resolved.
    ActuationUnresolved,
    /// An archive flush did not make the log durable: the store's `sync`
    /// failed, or the tap was disabled (its backend never opened, or the
    /// archive was already shut down). Delivery is unaffected and the
    /// router still shuts down cleanly; the
    /// [`crate::archive::ArchiveLedger`] says which records landed.
    ArchiveFlushFailed,
}

impl fmt::Display for GarnetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GarnetError::NotAuthorized { needed } => {
                write!(f, "token does not grant {needed:?}")
            }
            GarnetError::UnknownConsumer(id) => write!(f, "no consumer registered as {id}"),
            GarnetError::VirtualSensorSpaceExhausted => {
                write!(f, "no virtual sensor ids remain for derived streams")
            }
            GarnetError::ActuationUnresolved => {
                write!(f, "actuation request drained without a Planned or Denied outcome")
            }
            GarnetError::ArchiveFlushFailed => {
                write!(f, "archive flush failed: the store did not sync, or the tap is disabled")
            }
        }
    }
}

impl std::error::Error for GarnetError {}

/// Frame-admission accounting carried on a [`StepOutput`]: what the
/// overload policy did during the call. At quiescence the ledger is
/// exact: `offered == shed + delivered`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Frames accepted into admission during this call.
    pub offered: u64,
    /// Frames dropped by the overload policy before filtering
    /// (includes the coalesced subset).
    pub shed: u64,
    /// The subset of `shed` dropped in favour of a newer same-stream
    /// sequence.
    pub coalesced: u64,
    /// Frames handed to filtering.
    pub delivered: u64,
    /// High-water mark of frames held at once since the facade started
    /// — the scheduler's staged tier, or the largest burst when
    /// admission is unbounded (merged by maximum, so it stays a
    /// high-water mark).
    pub peak_queue_depth: u64,
    /// Always 0: nothing restarts. Kept for the benchmark's ledger check.
    pub shard_restarts: u64,
}

impl OverloadStats {
    fn absorb(&mut self, other: OverloadStats) {
        self.offered += other.offered;
        self.shed += other.shed;
        self.coalesced += other.coalesced;
        self.delivered += other.delivered;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.shard_restarts += other.shard_restarts;
    }
}

/// Effects the caller must carry out after a facade call: control
/// messages to transmit, and requests that exhausted their retries —
/// plus the overload and failure accounting for the call. Effects that
/// arise inside a call returning no `StepOutput`
/// ([`Garnet::on_standalone_ack`], [`Garnet::request_actuation`],
/// [`Garnet::provide_hint`]) ride on the next one returned.
#[derive(Debug, Default)]
pub struct StepOutput {
    /// Replication plans to broadcast through the transmitter array.
    pub control: Vec<ReplicationPlan>,
    /// Requests abandoned after all retries.
    pub expired_requests: Vec<StreamUpdateRequest>,
    /// Frame-admission accounting for this call (zero when the queue is
    /// unbounded or the call took no frames).
    pub overload: OverloadStats,
    /// Always empty: nothing runs on a thread that could lose a job.
    /// Kept for the benchmark's ledger check.
    pub shard_failures: Vec<ShardFailure>,
}

impl StepOutput {
    /// Appends another output's effects, then restores the canonical
    /// order: ascending request id (stable, so equal-id entries — e.g.
    /// an original and its retransmission — keep their relative order).
    ///
    /// Request ids are allocated in grant order by the single Actuation
    /// Service, so this is chronological order — and it makes the merge
    /// **order-independent**: merging partial outputs in any order
    /// yields the same final sequence. Overload counters add (peak depth
    /// takes the maximum) and shard failures sort by `(shard, seq)` —
    /// both order-independent too.
    pub fn merge(&mut self, mut other: StepOutput) {
        self.control.append(&mut other.control);
        self.expired_requests.append(&mut other.expired_requests);
        self.control.sort_by_key(|p| p.request.request_id.as_u32());
        self.expired_requests.sort_by_key(|r| r.request_id.as_u32());
        self.overload.absorb(other.overload);
        self.shard_failures.append(&mut other.shard_failures);
        self.shard_failures.sort_by_key(|f| (f.shard, f.seq));
    }
}

/// A job a shard worker lost by panicking or refusing it: the shard pool
/// the benchmark's hand-off probe runs records the loss here instead of
/// letting it vanish (or hang the submission-order merge on a sequence
/// number that will never arrive). Nothing in the middleware loses one,
/// so [`StepOutput::shard_failures`] stays empty.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardFailure {
    /// The shard that lost the job.
    pub shard: usize,
    /// The submission sequence number of the lost job.
    pub seq: u64,
    /// The panic payload, or a synthetic reason for jobs dropped on a
    /// shard that was already poisoned.
    pub reason: String,
}

/// Outcome of a consumer actuation request.
#[derive(Debug)]
pub enum ActuationOutcome {
    /// Approved; the plan is also appended to the returned
    /// [`StepOutput`]-style effects.
    Granted {
        /// Correlation id for the eventual acknowledgement.
        request_id: RequestId,
        /// The broadcast plan.
        plan: ReplicationPlan,
    },
    /// Refused by the Resource Manager.
    Denied {
        /// Why.
        reason: DenyReason,
    },
}

struct ConsumerEntry {
    id: SubscriberId,
    consumer: Box<dyn Consumer>,
    /// The token `register_consumer` verified: its capabilities govern
    /// the consumer's actions, and presenting it again costs no MAC.
    token: Token,
    priority: u8,
    virtual_sensor: SensorId,
    derived_seq: HashMap<u8, SequenceNumber>,
    /// The consumer's drain limit, as the delivery schedule holds it:
    /// fan-out reads it here, from the entry its cursor already holds.
    drain_limit: Option<usize>,
}

impl fmt::Debug for ConsumerEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConsumerEntry")
            .field("id", &self.id)
            .field("principal", self.token.principal())
            .field("caps", &self.token.capabilities())
            .field("priority", &self.priority)
            .field("virtual_sensor", &self.virtual_sensor)
            .finish()
    }
}

/// The assembled middleware.
#[derive(Debug)]
pub struct Garnet {
    max_derived_depth: u32,
    /// The service graph: every service of Figure 1 behind one FIFO
    /// queue, stepped on the caller's thread.
    router: Router,
    auth: AuthService,
    /// The registered consumers, ascending by id: ids are handed out in
    /// ascending order, so registering appends, and a match set (also
    /// ascending) is delivered by walking the list with one cursor.
    consumers: Vec<ConsumerEntry>,
    next_virtual_sensor: u32,
    depth_drops: u64,
    denied_actions: u64,
    quiesce: Option<QuiesceConfig>,
    quiesced: std::collections::BTreeSet<u32>,
    quiesce_actions: u64,
    restore_actions: u64,
    /// Holds the terminal outcome of an in-flight `Api` actuation chain
    /// between enqueueing it and the pump draining it.
    api_outcome: Option<ActuationOutcome>,
    /// The durable-archive tap (`GarnetConfig.archive`).
    archive: Option<ArchiveService>,
    /// The facade-boundary admission scheduler (`Some` when
    /// [`GarnetConfig::overload`] is set). The router is unbounded
    /// either way; this layer owns admission policy.
    qos: Option<QosScheduler>,
    /// Per-consumer delivery scheduling — inert until
    /// [`Garnet::set_consumer_drain_limit`] declares a consumer slow.
    delivery: DeliverySchedule,
    /// The telemetry window state machine (`GarnetConfig.telemetry`).
    telemetry: TelemetryService,
    /// The buffer [`Router::step`] fills on every drain round (empty
    /// between pumps; kept for its capacity).
    escaped: Vec<ServiceOutput>,
    /// Effects produced inside an entry point that returns no
    /// [`StepOutput`] — its pump runs the per-call delivery drain like
    /// any other, so a drain-limited consumer's callback can plan an
    /// actuation there — held for the next entry point that returns one.
    held: StepOutput,
}

impl Garnet {
    /// Assembles the middleware from a configuration.
    pub fn new(config: GarnetConfig) -> Garnet {
        let control = ControlGraph {
            orphanage: Orphanage::new(config.orphanage),
            location: LocationService::new(&config.receivers, config.propagation),
            resource: ResourceManager::new(config.mediation),
            actuation: ActuationService::new(),
            replicator: MessageReplicator::new(config.transmitters),
            coordinator: SuperCoordinator::new(config.coordination),
        };
        // Admission policy lives at the facade boundary: the router runs
        // unbounded and only ever sees the frames the scheduler released.
        let qos = config.overload.map(|overload| QosScheduler::new(overload, &config.qos));
        let services = Services {
            ingest: ShardedIngest::new(config.filter, 1),
            dispatch: ShardedDispatch::with_cache(1, config.dispatch_cache),
            control,
        };
        let mut router = Router::new(services);
        router
            .configure_trace(garnet_simkit::trace::TraceConfig { capacity: config.trace_capacity });
        let archive = config.archive.map(|cfg| ArchiveService::new(cfg, config.trace_capacity));
        Garnet {
            max_derived_depth: config.max_derived_depth,
            router,
            auth: AuthService::new(config.auth_key),
            consumers: Vec::new(),
            next_virtual_sensor: SensorId::MAX.as_u32(),
            depth_drops: 0,
            denied_actions: 0,
            quiesce: config.quiesce,
            quiesced: std::collections::BTreeSet::new(),
            quiesce_actions: 0,
            restore_actions: 0,
            api_outcome: None,
            archive,
            qos,
            delivery: DeliverySchedule::new(config.qos.consumer_queue_capacity),
            telemetry: TelemetryService::new(config.telemetry),
            escaped: Vec::new(),
            held: StepOutput::default(),
        }
    }

    /// The token authority (for issuing scoped tokens).
    pub fn auth(&self) -> &AuthService {
        &self.auth
    }

    /// Issues an all-capability token with a far-future expiry —
    /// convenience for examples and tests; real deployments scope
    /// capabilities per principal.
    pub fn issue_default_token(&self, principal: &str) -> Token {
        self.auth.issue(Principal::new(principal), CapabilitySet::all(), u64::MAX)
    }

    /// The one token check behind every entry point. A token identical
    /// to the one consumer `id` registered with had its MAC verified
    /// then, and a MAC depends on nothing but the token's fields and
    /// this node's key, so only its expiry and `needed` are checked
    /// again; any other token (or no `id`) is verified in full.
    fn authorize(
        &self,
        id: Option<SubscriberId>,
        token: &Token,
        needed: Capability,
        now: SimTime,
    ) -> Result<(), GarnetError> {
        let now_us = now.as_micros();
        let verified = id.and_then(|id| self.consumer(id)).is_some_and(|e| e.token.same_as(token));
        let granted = if verified {
            token.admits(now_us, needed)
        } else {
            self.auth.verify(token, now_us, needed)
        };
        if granted {
            Ok(())
        } else {
            Err(GarnetError::NotAuthorized { needed })
        }
    }

    /// Registers a consumer process. The token is verified in full and
    /// kept: its capability set governs everything the consumer later
    /// does through its [`ConsumerCtx`], and the consumer's later calls
    /// that present it again cost no MAC. Returns the consumer's
    /// subscriber id.
    ///
    /// # Errors
    ///
    /// Authorisation failure ([`Capability::Subscribe`] is required) or
    /// virtual-sensor exhaustion.
    pub fn register_consumer(
        &mut self,
        consumer: Box<dyn Consumer>,
        token: &Token,
        priority: u8,
    ) -> Result<SubscriberId, GarnetError> {
        self.authorize(None, token, Capability::Subscribe, SimTime::ZERO)?;
        if self.next_virtual_sensor == 0 {
            return Err(GarnetError::VirtualSensorSpaceExhausted);
        }
        let virtual_sensor = SensorId::new(self.next_virtual_sensor)
            .map_err(|_| GarnetError::VirtualSensorSpaceExhausted)?;
        self.next_virtual_sensor -= 1;
        let id = self.router.services_mut().dispatch.register_subscriber();
        let at = self.consumers.partition_point(|e| e.id < id);
        self.consumers.insert(
            at,
            ConsumerEntry {
                id,
                consumer,
                token: token.clone(),
                priority,
                virtual_sensor,
                derived_seq: HashMap::new(),
                drain_limit: None,
            },
        );
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(id)
    }

    /// Removes a consumer: drops its subscriptions and its staged
    /// deliveries, and releases its resource demands.
    pub fn deregister_consumer(&mut self, id: SubscriberId) -> Result<(), GarnetError> {
        let at = self.consumer_index(id).ok_or(GarnetError::UnknownConsumer(id))?;
        self.consumers.remove(at);
        let services = self.router.services_mut();
        services.dispatch.unsubscribe_all(id);
        services.control.resource.release_consumer(id);
        self.delivery.forget(id);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    /// The virtual sensor id under which a consumer's derived streams
    /// publish.
    pub fn virtual_sensor(&self, id: SubscriberId) -> Option<SensorId> {
        self.consumer(id).map(|e| e.virtual_sensor)
    }

    /// Where `id`'s entry sits in `consumers`, if it is registered.
    fn consumer_index(&self, id: SubscriberId) -> Option<usize> {
        self.consumers.binary_search_by_key(&id, |e| e.id).ok()
    }

    fn consumer(&self, id: SubscriberId) -> Option<&ConsumerEntry> {
        self.consumer_index(id).map(|at| &self.consumers[at])
    }

    /// Subscribes a consumer to a filter. Any orphanage backlog matching
    /// a `Stream` or `Sensor` filter is claimed and replayed to this
    /// consumer immediately; the returned [`StepOutput`] carries any
    /// effects of actions the consumer took during replay, and the count
    /// of replayed messages.
    ///
    /// # Errors
    ///
    /// Authorisation failure or unknown consumer.
    pub fn subscribe(
        &mut self,
        id: SubscriberId,
        filter: TopicFilter,
        token: &Token,
    ) -> Result<(usize, StepOutput), GarnetError> {
        self.subscribe_at(id, filter, token, SimTime::ZERO)
    }

    /// [`Garnet::subscribe`] with an explicit current time (token expiry
    /// and replay timestamps use it).
    pub fn subscribe_at(
        &mut self,
        id: SubscriberId,
        filter: TopicFilter,
        token: &Token,
        now: SimTime,
    ) -> Result<(usize, StepOutput), GarnetError> {
        self.authorize(Some(id), token, Capability::Subscribe, now)?;
        if self.consumer_index(id).is_none() {
            return Err(GarnetError::UnknownConsumer(id));
        }
        self.router.services_mut().dispatch.subscribe(id, filter);

        // Claim matching orphanage backlog, ascending by stream. Claims
        // are synchronous request/response, not dataflow, so they stay
        // direct calls.
        let sensor_orphans = match filter {
            TopicFilter::Sensor(sensor) => {
                self.router.services().control.orphanage.unclaimed_streams_of(sensor)
            }
            _ => Vec::new(),
        };
        let claimable: &[StreamId] = match &filter {
            TopicFilter::Stream(s) => std::slice::from_ref(s),
            TopicFilter::Sensor(_) => &sensor_orphans,
            // An All-subscription is a wiretap; dumping the whole
            // orphanage on it would rarely be intended.
            TopicFilter::All => &[],
        };
        let mut backlog: Vec<DataMessage> = Vec::new();
        let mut out = StepOutput::default();
        for &s in claimable {
            let services = self.router.services_mut();
            backlog.extend(services.control.orphanage.claim(s));
            services.dispatch.set_claimed(s, true);
        }
        // Demand restores every quiesced stream the filter matches,
        // whatever the orphanage still holds of it: an `All` subscriber
        // claims no backlog, and a stream's backlog may have been
        // evicted long before its subscriber arrives.
        let demanded: Vec<StreamId> = self
            .quiesced
            .iter()
            .map(|&raw| StreamId::from_raw(raw))
            .filter(|&s| filter.matches(s))
            .collect();
        for s in demanded {
            self.router.services_mut().dispatch.set_claimed(s, true);
            self.restore_if_quiesced(s, now, &mut out);
        }
        let replayed = backlog.len();
        for msg in backlog {
            let delivery = Delivery { msg, first_received_at: now, delivered_at: now };
            self.deliver_to(id, &delivery, 0, now);
        }
        self.pump(now, &mut out);
        self.release_held(&mut out);
        debug_assert_eq!(self.check_return(&out, None), Ok(()));
        Ok((replayed, out))
    }

    /// Removes one subscription.
    pub fn unsubscribe(&mut self, id: SubscriberId, filter: TopicFilter) {
        let dispatch = &mut self.router.services_mut().dispatch;
        dispatch.unsubscribe(id, filter);
        if let TopicFilter::Stream(s) = filter {
            if !dispatch.would_deliver(s) {
                dispatch.set_claimed(s, false);
            }
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Feeds one raw frame from a receiver into the pipeline — an
    /// [`Garnet::on_frames`] batch of one.
    ///
    /// The frame passes the admission scheduler first, but since the
    /// facade pumps to quiescence after every call, a frame-at-a-time
    /// caller never fills the bounded tier — bursts only become visible
    /// to the [`crate::router::OverloadPolicy`] (enforced by
    /// [`QosScheduler`]) through [`Garnet::on_frames`].
    pub fn on_frame(
        &mut self,
        receiver: ReceiverId,
        rssi_dbm: f64,
        frame: &[u8],
        now: SimTime,
    ) -> StepOutput {
        self.on_frames(vec![(receiver, rssi_dbm, frame.to_vec())], now)
    }

    /// Feeds a burst of raw frames through admission control before a
    /// single pump — the preferred ingest entry. Batching makes the
    /// bounded tier and its overload policy observable: the whole burst
    /// is admitted and handed to the ingest stage in one call, which
    /// filters it frame by frame (each frame's header is validated as
    /// the frame is decoded).
    ///
    /// Frames arriving as [`FrameBytes`] handles (e.g. out of receiver
    /// buffers) enter zero-copy; `Vec<u8>` payloads are absorbed
    /// without copying.
    ///
    /// The returned [`StepOutput::overload`] is this call's ledger:
    /// with the engine drained, `offered == shed + delivered`, counting
    /// every individual frame of the batch.
    // Inlined into the caller's burst loop, as tests/golden/frame_path.txt
    // records: without the hint the compiler's choice flips with edits
    // nowhere near the frame path.
    #[inline]
    pub fn on_frames<F: Into<FrameBytes>>(
        &mut self,
        frames: Vec<(ReceiverId, f64, F)>,
        now: SimTime,
    ) -> StepOutput {
        let mut out = StepOutput::default();
        let base = self.admission_totals();
        let handed_in = frames.len();
        let batch: Vec<BatchedFrame> = frames
            .into_iter()
            .map(|(receiver, rssi_dbm, frame)| BatchedFrame {
                receiver,
                rssi_dbm,
                frame: frame.into(),
            })
            .collect();
        // Archive-before-admit: the tap logs every offered frame (even
        // ones the overload policy later sheds), so a replayed log
        // re-offers the identical boundary input — the whole burst in
        // one commit. `FrameBytes` clones are reference-counted.
        if let Some(archive) = &mut self.archive {
            let records = batch.iter().map(|f| {
                ArchiveRecord::frame(f.receiver.as_u32(), f.rssi_dbm, f.frame.clone(), now)
            });
            archive.append(records, now);
        }
        if self.qos.is_some() {
            // The scheduler owns admission: every frame offers into its
            // bounded queue, and the survivors release in one batch.
            for f in batch {
                self.offer_frame(f, now, &mut out);
            }
            self.release_qos(now);
        } else {
            self.router.ingest(batch, now);
        }
        self.pump(now, &mut out);
        self.note_overload_delta(base, &mut out);
        self.maybe_emit_telemetry(now);
        self.release_held(&mut out);
        debug_assert_eq!(self.check_return(&out, Some(handed_in)), Ok(()));
        out
    }

    /// Offers one frame to the armed scheduler until it is staged or
    /// dropped. Under `Block` a full queue hands the frame back: release
    /// the staged frames into the engine, pump it dry to make room, then
    /// re-offer.
    fn offer_frame(&mut self, mut frame: BatchedFrame, now: SimTime, out: &mut StepOutput) {
        loop {
            #[expect(clippy::expect_used, reason = "`on_frames` calls this only with `qos` set")]
            let qos = self.qos.as_mut().expect("callers check the scheduler is armed");
            match qos.offer_frame(frame, now) {
                FrameOffer::Blocked(back) => {
                    self.release_qos(now);
                    self.pump(now, out);
                    frame = back;
                }
                FrameOffer::StagedAfterShed(lost) => {
                    self.router.trace_dropped(&lost, TraceOutcome::Shed, now);
                    break;
                }
                FrameOffer::Coalesced(lost) => {
                    self.router.trace_dropped(&lost, TraceOutcome::Coalesced, now);
                    break;
                }
                _ => break,
            }
        }
    }

    /// Queues a boundary event on the router, counting it in its class
    /// ledger first when the QoS scheduler is armed. Events are never
    /// staged: the scheduler bounds radio frames only.
    fn route_event(&mut self, ev: ServiceEvent) {
        if let Some(s) = self.qos.as_mut() {
            s.note_event(&ev);
        }
        self.router.enqueue(ev);
    }

    /// Hands the frames the scheduler staged to the engine as one burst,
    /// then tells filtering which sequence numbers coalescing dropped.
    fn release_qos(&mut self, now: SimTime) {
        if let Some(s) = self.qos.as_mut() {
            s.release_to(&mut self.router, now);
        }
    }

    /// Monotonic admission totals: the scheduler's when it is armed,
    /// else the engine's intake count (nothing shed).
    fn admission_totals(&self) -> ClassLedger {
        match &self.qos {
            Some(s) => s.totals(),
            None => self.router.overload_totals(),
        }
    }

    /// High-water mark of the frame intake (the scheduler's queue
    /// when it is armed, else the router's largest burst).
    fn admission_peak_depth(&self) -> u64 {
        match &self.qos {
            Some(s) => s.peak_depth(),
            None => self.router.peak_queue_depth(),
        }
    }

    /// Folds the admission-counter movement since `base` into `out`.
    fn note_overload_delta(&mut self, base: ClassLedger, out: &mut StepOutput) {
        let t = self.admission_totals();
        out.overload.absorb(OverloadStats {
            offered: t.offered - base.offered,
            shed: t.shed - base.shed,
            coalesced: t.coalesced - base.coalesced,
            delivered: t.delivered - base.delivered,
            peak_queue_depth: self.admission_peak_depth(),
            shard_restarts: 0,
        });
    }

    /// Ingests a standalone acknowledgement (from sensors whose data
    /// streams are disabled).
    pub fn on_standalone_ack(&mut self, request_id: RequestId, status: AckStatus, now: SimTime) {
        if let Some(archive) = &mut self.archive {
            archive.append(std::iter::once(ArchiveRecord::ack(request_id, status, now)), now);
        }
        self.route_event(ServiceEvent::AckReceived { request_id, status });
        self.pump_held(now);
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Periodic maintenance: reorder-buffer flushes and actuation
    /// retries. Call at [`Garnet::next_deadline`].
    pub fn on_tick(&mut self, now: SimTime) -> StepOutput {
        let mut out = StepOutput::default();
        if let Some(archive) = &mut self.archive {
            archive.append(std::iter::once(ArchiveRecord::tick(now)), now);
        }
        self.route_event(ServiceEvent::FlushReorder);
        self.pump(now, &mut out);
        self.route_event(ServiceEvent::ActuationTick);
        self.pump(now, &mut out);
        self.sweep_quiesce(now, &mut out);
        self.maybe_emit_telemetry(now);
        self.release_held(&mut out);
        debug_assert_eq!(self.check_return(&out, None), Ok(()));
        out
    }

    /// Slows down streams that have run unclaimed past the idle window
    /// (no-op unless quiescence is configured). Derived (virtual)
    /// streams are skipped: there is no radio behind them.
    fn sweep_quiesce(&mut self, now: SimTime, out: &mut StepOutput) {
        let Some(cfg) = self.quiesce else { return };
        let due: Vec<StreamId> = self
            .streams()
            .discover_unclaimed()
            .into_iter()
            .filter(|i| {
                !i.derived
                    && !self.quiesced.contains(&i.stream.to_raw())
                    && now.saturating_since(i.first_seen) >= cfg.idle_after
            })
            .map(|i| i.stream)
            .collect();
        for stream in due {
            self.route_event(ServiceEvent::ActuationRequested {
                origin: ActuationOrigin::Quiesce,
                requester: SYSTEM_SUBSCRIBER,
                priority: 0, // lowest: any real consumer demand overrides
                target: ActuationTarget::Stream(stream),
                command: SensorCommand::SetReportInterval {
                    stream: stream.index(),
                    interval_ms: cfg.slow_interval_ms,
                },
            });
        }
        self.pump(now, out);
    }

    /// Restores a quiesced stream when demand appears; the plan to
    /// transmit lands in `out`.
    fn restore_if_quiesced(&mut self, stream: StreamId, now: SimTime, out: &mut StepOutput) {
        let Some(cfg) = self.quiesce else { return };
        if !self.quiesced.remove(&stream.to_raw()) {
            return;
        }
        // Withdraw the system's slow-rate demand so consumer demands
        // mediate freshly, then restore the working rate.
        self.router.services_mut().control.resource.release_consumer(SYSTEM_SUBSCRIBER);
        self.route_event(ServiceEvent::ActuationRequested {
            origin: ActuationOrigin::Restore,
            requester: SYSTEM_SUBSCRIBER,
            priority: 0,
            target: ActuationTarget::Stream(stream),
            command: SensorCommand::SetReportInterval {
                stream: stream.index(),
                interval_ms: cfg.restore_interval_ms,
            },
        });
        self.pump(now, out);
    }

    /// The earliest instant at which [`Garnet::on_tick`] has work.
    pub fn next_deadline(&self) -> Option<SimTime> {
        // A minimum needs neither the catalogue's order nor a copy of
        // it: fold over the registry where it lies.
        let quiesce_due = self.quiesce.and_then(|cfg| {
            self.streams()
                .iter()
                .filter(|i| !i.claimed && !i.derived && !self.quiesced.contains(&i.stream.to_raw()))
                .map(|i| i.first_seen.saturating_add(cfg.idle_after))
                .min()
        });
        [self.router.next_deadline(), quiesce_due].into_iter().flatten().min()
    }

    /// A consumer (out-of-band, not during `on_data`) requests an
    /// actuation. Token must grant [`Capability::Actuate`].
    pub fn request_actuation(
        &mut self,
        id: SubscriberId,
        token: &Token,
        target: ActuationTarget,
        command: SensorCommand,
        now: SimTime,
    ) -> Result<ActuationOutcome, GarnetError> {
        self.authorize(Some(id), token, Capability::Actuate, now)?;
        let priority = self.consumer(id).ok_or(GarnetError::UnknownConsumer(id))?.priority;
        self.route_event(ServiceEvent::ActuationRequested {
            origin: ActuationOrigin::Api,
            requester: id,
            priority,
            target,
            command,
        });
        self.pump_held(now);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        // Every current service routes an Api chain to a terminal
        // Planned or Denied; a future mis-wired service must surface as
        // a typed error on this recoverable path, not a panic.
        self.api_outcome.take().ok_or(GarnetError::ActuationUnresolved)
    }

    /// Supplies a location hint (token must grant
    /// [`Capability::ProvideHints`]).
    pub fn provide_hint(
        &mut self,
        token: &Token,
        sensor: SensorId,
        position: Point,
        confidence: f64,
        now: SimTime,
    ) -> Result<(), GarnetError> {
        self.authorize(None, token, Capability::ProvideHints, now)?;
        self.route_event(ServiceEvent::Hint { sensor, position, confidence });
        self.pump_held(now);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        Ok(())
    }

    /// Reads a sensor's inferred location (token must grant
    /// [`Capability::ReadLocation`] — location is sensitive, §2).
    pub fn locate(
        &self,
        token: &Token,
        sensor: SensorId,
        now: SimTime,
    ) -> Result<Option<LocationEstimate>, GarnetError> {
        self.authorize(None, token, Capability::ReadLocation, now)?;
        Ok(self.location().estimate(sensor, now))
    }

    /// Registers a policy action with the Super Coordinator.
    pub fn register_coordinator_policy(&mut self, state: u32, action: PolicyAction) {
        self.router.services_mut().control.coordinator.register_policy(state, action);
    }

    /// [`Garnet::pump`] for an entry point with no [`StepOutput`] to
    /// return: the effects wait in `held`.
    fn pump_held(&mut self, now: SimTime) {
        let mut held = std::mem::take(&mut self.held);
        self.pump(now, &mut held);
        self.held = held;
    }

    /// Hands the caller whatever [`Garnet::pump_held`] left waiting.
    /// Nothing is held on the frame path, so the usual cost is this
    /// emptiness check.
    fn release_held(&mut self, out: &mut StepOutput) {
        let held = &self.held;
        if held.control.is_empty() && held.expired_requests.is_empty() {
            return;
        }
        out.merge(std::mem::take(&mut self.held));
    }

    /// Drains the router to quiescence, applying every escaped output.
    fn pump(&mut self, now: SimTime, out: &mut StepOutput) {
        self.pump_engine(now, out);
        // One delivery-drain pass per pump: each rate-limited consumer
        // receives up to its per-call limit from its staged queue, and
        // whatever its callbacks produced is pumped to quiescence (new
        // deliveries to limited consumers stage again for a later call).
        let due = self.delivery.drain();
        if !due.is_empty() {
            for (rid, delivery, depth) in due {
                self.deliver_to(rid, &delivery, depth, now);
            }
            self.pump_engine(now, out);
        }
        // The engine is drained: telemetry depth counts restart from
        // zero here.
        self.router.note_telemetry_quiescent();
    }

    /// The inner engine-drain loop of [`Garnet::pump`]. Each round steps
    /// the router until the first step that escapes anything, applies
    /// that (which may enqueue new events) and steps again, so events a
    /// consumer emits take the queue position they always have; a round
    /// that escapes nothing means quiescence. Every round goes through
    /// the one `escaped` buffer, so draining costs no allocation once it
    /// has grown to a round's size.
    fn pump_engine(&mut self, now: SimTime, out: &mut StepOutput) {
        let mut escaped = std::mem::take(&mut self.escaped);
        loop {
            while escaped.is_empty() && self.router.step(now, &mut escaped) {}
            if escaped.is_empty() {
                break;
            }
            for o in escaped.drain(..) {
                self.apply(o, now, out);
            }
        }
        self.escaped = escaped;
    }

    /// Applies one service output: runs the consumer callback for a
    /// delivery, or interprets an actuation chain's terminal according
    /// to its [`ActuationOrigin`].
    fn apply(&mut self, output: ServiceOutput, now: SimTime, out: &mut StepOutput) {
        match output {
            ServiceOutput::Emit(ev) => self.router.enqueue(ev),
            ServiceOutput::Deliver { recipients, delivery, depth } => {
                // One message, every recipient in match-set order. The
                // set was fixed when the message was routed, so nothing
                // a callback does here changes who else receives it.
                // The set and `consumers` both ascend by id, and no
                // callback can register or deregister a consumer, so
                // one cursor finds every recipient's entry: at the
                // cursor when every consumer receives, by a search of
                // the rest of the list when some do not.
                let mut at = 0;
                for &recipient in recipients.iter() {
                    if self.consumers.get(at).is_some_and(|e| e.id < recipient) {
                        at += self.consumers[at..].partition_point(|e| e.id < recipient);
                    }
                    let Some(entry) = self.consumers.get(at).filter(|e| e.id == recipient) else {
                        continue;
                    };
                    // Per-consumer delivery scheduling: a rate-limited
                    // consumer's copy stages (and coalesces per
                    // subscription) in its own queue — the one place
                    // the message is cloned; everyone else is called at
                    // once with the shared delivery.
                    if entry.drain_limit.is_some() {
                        self.delivery.stage(recipient, delivery.clone(), depth);
                    } else {
                        self.deliver_at(at, &delivery, depth, now);
                    }
                    at += 1;
                }
            }
            ServiceOutput::Planned { origin, plan, .. } => match origin {
                ActuationOrigin::Api => {
                    self.api_outcome = Some(ActuationOutcome::Granted {
                        request_id: plan.request.request_id,
                        plan,
                    });
                }
                ActuationOrigin::Consumer
                | ActuationOrigin::Coordinator
                | ActuationOrigin::Retry => out.control.push(plan),
                ActuationOrigin::Quiesce => {
                    if let ActuationTarget::Stream(s) = plan.request.target {
                        self.quiesced.insert(s.to_raw());
                    }
                    self.quiesce_actions += 1;
                    out.control.push(plan);
                }
                ActuationOrigin::Restore => {
                    self.restore_actions += 1;
                    out.control.push(plan);
                }
            },
            ServiceOutput::Denied { origin, reason, .. } => match origin {
                ActuationOrigin::Api => {
                    self.api_outcome = Some(ActuationOutcome::Denied { reason });
                }
                ActuationOrigin::Consumer | ActuationOrigin::Coordinator => {
                    self.denied_actions += 1;
                }
                // A losing system request (quiesce/restore) or retry is
                // not an error: consumer demand simply outranked it.
                ActuationOrigin::Quiesce | ActuationOrigin::Restore | ActuationOrigin::Retry => {}
            },
            ServiceOutput::Expired(req) => out.expired_requests.push(req),
        }
    }

    fn deliver_to(&mut self, rid: SubscriberId, delivery: &Delivery, depth: u32, now: SimTime) {
        if let Some(at) = self.consumer_index(rid) {
            self.deliver_at(at, delivery, depth, now);
        }
    }

    /// Delivers to the consumer at `consumers[at]`.
    fn deliver_at(&mut self, at: usize, delivery: &Delivery, depth: u32, now: SimTime) {
        let entry = &mut self.consumers[at];
        // The callback sees only its own context: whatever it asks for
        // is queued there and applied after it returns, so nothing can
        // reach `self.consumers` while it runs.
        let mut ctx = ConsumerCtx::new(now);
        entry.consumer.on_data(delivery, &mut ctx);
        let rid = entry.id;
        self.handle_actions(rid, ctx.take_actions(), depth, now);
    }

    /// Converts a consumer's actions into router events (capability
    /// checks happen here, where the consumer's token is known).
    fn handle_actions(
        &mut self,
        rid: SubscriberId,
        actions: Vec<ConsumerAction>,
        depth: u32,
        now: SimTime,
    ) {
        if actions.is_empty() {
            return;
        }
        let (caps, priority) = match self.consumer(rid) {
            Some(e) => (e.token.capabilities(), e.priority),
            None => return,
        };
        for action in actions {
            match action {
                ConsumerAction::PublishDerived { index, payload } => {
                    if depth + 1 > self.max_derived_depth {
                        self.depth_drops += 1;
                        continue;
                    }
                    let Some(at) = self.consumer_index(rid) else { continue };
                    let entry = &mut self.consumers[at];
                    let seq_slot = entry.derived_seq.entry(index.as_u8()).or_default();
                    let seq = *seq_slot;
                    *seq_slot = seq_slot.next();
                    let stream = StreamId::new(entry.virtual_sensor, index);
                    match DataMessage::builder(stream).seq(seq).payload(payload).build() {
                        Ok(msg) => self.route_event(ServiceEvent::Filtered {
                            delivery: Delivery { msg, first_received_at: now, delivered_at: now },
                            depth: depth + 1,
                            row: None,
                        }),
                        Err(_) => self.denied_actions += 1, // oversize payload
                    }
                }
                ConsumerAction::RequestActuation { target, command } => {
                    if !caps.allows(Capability::Actuate) {
                        self.denied_actions += 1;
                        continue;
                    }
                    self.route_event(ServiceEvent::ActuationRequested {
                        origin: ActuationOrigin::Consumer,
                        requester: rid,
                        priority,
                        target,
                        command,
                    });
                }
                ConsumerAction::ReportState(state) => {
                    if !caps.allows(Capability::Coordinate) {
                        self.denied_actions += 1;
                        continue;
                    }
                    self.route_event(ServiceEvent::StateReported { reporter: rid, state });
                }
                ConsumerAction::LocationHint { sensor, position, confidence } => {
                    if !caps.allows(Capability::ProvideHints) {
                        self.denied_actions += 1;
                        continue;
                    }
                    self.route_event(ServiceEvent::Hint { sensor, position, confidence });
                }
            }
        }
    }

    /// Figure 1's Filtering Service, whose counters are the ingest
    /// stage's statistics.
    pub fn filtering(&self) -> &FilteringService {
        self.router.services().ingest.stats()
    }

    /// Figure 1's Dispatching Service, whose counters are the dispatch
    /// stage's statistics.
    pub fn dispatching(&self) -> &DispatchingService {
        self.router.services().dispatch.stats()
    }

    fn control(&self) -> &ControlGraph {
        &self.router.services().control
    }

    /// The Orphanage.
    pub fn orphanage(&self) -> &Orphanage {
        &self.control().orphanage
    }

    /// The Location Service.
    pub fn location(&self) -> &LocationService {
        &self.control().location
    }

    /// The Resource Manager.
    pub fn resource(&self) -> &ResourceManager {
        &self.control().resource
    }

    /// The Actuation Service.
    pub fn actuation(&self) -> &ActuationService {
        &self.control().actuation
    }

    /// The Super Coordinator.
    pub fn coordinator(&self) -> &SuperCoordinator {
        &self.control().coordinator
    }

    /// The stream catalogue.
    pub fn streams(&self) -> &StreamRegistry {
        self.router.services().dispatch.streams()
    }

    /// Streams slowed by demand-driven quiescence.
    pub fn quiesce_action_count(&self) -> u64 {
        self.quiesce_actions
    }

    /// Quiesced streams restored on new demand.
    pub fn restore_action_count(&self) -> u64 {
        self.restore_actions
    }

    /// Derived publications dropped by the depth guard.
    pub fn depth_drop_count(&self) -> u64 {
        self.depth_drops
    }

    /// p99 of tier-depth-at-admission samples. An unbounded intake
    /// records no samples, so this is 0 unless an
    /// [`crate::router::OverloadConfig`] is set.
    pub fn queue_depth_p99(&self) -> u64 {
        self.qos.as_ref().map_or(0, QosScheduler::depth_p99)
    }

    /// Whether the QoS scheduler governs admission (an overload config
    /// is present).
    pub fn qos_active(&self) -> bool {
        self.qos.is_some()
    }

    /// The per-class scheduling ledgers, when the QoS scheduler is
    /// active. Each class holds `offered == shed + delivered` at
    /// quiescence; Control and Actuation never shed.
    pub fn qos_ledgers(&self) -> Option<&ClassLedgers> {
        self.qos.as_ref().map(QosScheduler::ledgers)
    }

    /// Always 0: the admission bound is fixed at
    /// `OverloadConfig::capacity`. Kept for the benchmark's call site.
    pub fn qos_retune_count(&self) -> u64 {
        0
    }

    /// Declares a consumer slow: at most `limit` deliveries reach it per
    /// facade call; the rest stage in its own queue, where same-stream
    /// duplicates coalesce (newest sequence wins) without touching any
    /// other consumer's delivery sequence. `None` removes the limit (the
    /// backlog flushes on the next call). An id that is not a registered
    /// consumer is ignored: no `deregister_consumer` would ever remove
    /// its limit.
    pub fn set_consumer_drain_limit(&mut self, id: SubscriberId, limit: Option<usize>) {
        if let Some(at) = self.consumer_index(id) {
            self.consumers[at].drain_limit = limit;
            self.delivery.set_limit(id, limit);
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// The per-consumer delivery-plane ledger (offered, shed, coalesced,
    /// delivered across all rate-limited consumers). Balanced as
    /// `offered == shed + delivered + backlog`.
    pub fn delivery_ledger(&self) -> &ClassLedger {
        self.delivery.ledger()
    }

    /// Deliveries currently staged for rate-limited consumers.
    pub fn delivery_backlog(&self) -> u64 {
        self.delivery.backlog()
    }

    /// Always `[0; 3]`: no job crosses a thread. Kept for the
    /// benchmark's call site.
    pub fn edge_class_submits(&self) -> [u64; 3] {
        [0; 3]
    }

    /// Builds a metrics snapshot of every service — the operator's
    /// one-call health view. Deterministic name order; see
    /// [`garnet_simkit::MetricsRegistry::report`] for the text form.
    /// `overload.shard_restarts` and `overload.shard_failures` always
    /// read 0; they stay for dashboards that name them.
    ///
    /// Every name follows the `stage.metric` convention and is built by
    /// [`garnet_simkit::metrics::stage_key`]: a lowercase stage
    /// (service or subsystem) and a snake_case metric within it.
    pub fn metrics(&self) -> garnet_simkit::MetricsRegistry {
        let fs = self.filtering();
        let ds = self.dispatching();
        let c = self.control();
        let mut m = garnet_simkit::MetricsRegistry::new();
        let filtering: &[(&str, u64)] = &[
            ("delivered", fs.delivered_count()),
            ("duplicates", fs.duplicate_count()),
            ("crc_failures", fs.crc_failure_count()),
            ("reordered", fs.reordered_count()),
            ("gaps_accepted", fs.gap_count()),
            ("restarts", fs.restart_count()),
            ("streams", fs.stream_count() as u64),
        ];
        let dispatching: &[(&str, u64)] = &[
            ("messages", ds.dispatched_count()),
            ("deliveries", ds.delivery_count()),
            ("unclaimed", ds.unclaimed_count()),
            ("subscribers", ds.subscriber_count() as u64),
        ];
        let mc = ds.match_cache();
        let dispatch: &[(&str, u64)] = &[
            ("match_cache.hits", mc.hits),
            ("match_cache.misses", mc.misses),
            ("match_cache.invalidations", mc.invalidations),
            ("match_cache.resident", mc.resident),
        ];
        let orphanage: &[(&str, u64)] = &[
            ("taken", c.orphanage.total_taken()),
            ("evicted", c.orphanage.total_evicted()),
            ("streams", c.orphanage.stream_count() as u64),
        ];
        let location: &[(&str, u64)] = &[
            ("observations", c.location.observation_count()),
            ("hints", c.location.hint_count()),
            ("tracked_sensors", c.location.tracked_sensors() as u64),
        ];
        let resource: &[(&str, u64)] =
            &[("approved", c.resource.approved_count()), ("denied", c.resource.denied_count())];
        let actuation: &[(&str, u64)] = &[
            ("submitted", c.actuation.submitted_count()),
            ("acknowledged", c.actuation.acknowledged_count()),
            ("timed_out", c.actuation.timeout_count()),
            ("retransmissions", c.actuation.retransmission_count()),
            ("in_flight", c.actuation.in_flight() as u64),
        ];
        let replicator: &[(&str, u64)] = &[
            ("targeted", c.replicator.targeted_count()),
            ("flooded", c.replicator.flooded_count()),
            ("broadcasts", c.replicator.broadcast_count()),
        ];
        let coordinator: &[(&str, u64)] = &[
            ("reports", c.coordinator.report_count()),
            ("reactive_actions", c.coordinator.reactive_action_count()),
            ("anticipatory_actions", c.coordinator.anticipatory_action_count()),
        ];
        let consumers: &[(&str, u64)] = &[
            ("registered", self.consumers.len() as u64),
            ("denied_actions", self.denied_actions),
            ("depth_drops", self.depth_drops),
        ];
        let streams: &[(&str, u64)] = &[("catalogued", self.streams().len() as u64)];
        let t = self.admission_totals();
        let overload: &[(&str, u64)] = &[
            ("offered", t.offered),
            ("shed", t.shed),
            ("coalesced", t.coalesced),
            ("delivered", t.delivered),
            ("peak_queue_depth", self.admission_peak_depth()),
            ("shard_restarts", 0),
            ("shard_failures", 0),
        ];
        for (stage, metrics) in [
            ("filtering", filtering),
            ("dispatching", dispatching),
            ("dispatch", dispatch),
            ("orphanage", orphanage),
            ("location", location),
            ("resource", resource),
            ("actuation", actuation),
            ("replicator", replicator),
            ("coordinator", coordinator),
            ("consumers", consumers),
            ("streams", streams),
            ("overload", overload),
        ] {
            for (metric, value) in metrics {
                m.counter(&stage_key(stage, metric)).add(*value);
            }
        }
        if let Some(archive) = &self.archive {
            let l = archive.ledger();
            for (metric, value) in [
                ("offered", l.offered),
                ("archived", l.archived),
                ("dropped", l.dropped),
                ("flushes", l.flushes),
                ("flush_failures", l.flush_failures),
                ("recovered_records", archive.recovery().records),
            ] {
                m.counter(&stage_key("archive", metric)).add(value);
            }
        }
        // The QoS plane's per-class view: ledgers and the
        // delivery-plane counters. Emitted only when the scheduler is
        // armed.
        if let Some(s) = &self.qos {
            for class in PriorityClass::ALL {
                let l = s.ledgers().class(class);
                for (metric, value) in [
                    ("offered", l.offered),
                    ("shed", l.shed),
                    ("coalesced", l.coalesced),
                    ("delivered", l.delivered),
                ] {
                    m.counter(&stage_key("qos", &format!("{}.{metric}", class.name()))).add(value);
                }
            }
            // Always 0; kept for dashboards that name it.
            m.counter(&stage_key("qos", "retunes")).add(0);
            let dl = self.delivery.ledger();
            for (metric, value) in [
                ("delivery.offered", dl.offered),
                ("delivery.shed", dl.shed),
                ("delivery.coalesced", dl.coalesced),
                ("delivery.delivered", dl.delivered),
                ("delivery.peak_backlog", self.delivery.peak_backlog()),
            ] {
                m.counter(&stage_key("qos", metric)).add(value);
            }
        }
        m.histogram(&stage_key("actuation", "ack_latency_us")).merge(c.actuation.ack_latency());
        // Pipeline latency spans and the admission depth gauge.
        self.router.pipeline_spans().fold_into(&mut m);
        m.gauge(garnet_simkit::metrics::keys::QUEUE_DEPTH)
            .merge(self.router.queue_depth_gauges().total());
        m
    }

    /// Closes the current telemetry window at `now` and returns its
    /// snapshot: counter deltas and rates, latency-quantile summaries,
    /// queue-depth watermarks, the archive ledger, the match-cache hit
    /// rate, and the window's [`crate::telemetry::HealthReport`].
    /// Also appends the snapshot to the rotating JSONL sink when
    /// [`TelemetryConfig::sink_dir`] is configured.
    ///
    /// Windows are explicit: call this on whatever cadence the operator
    /// wants, or set [`TelemetryConfig::interval`] to have the facade
    /// emit automatically as ticks and frame bursts pass the deadline.
    pub fn telemetry(&mut self, now: SimTime) -> TelemetrySnapshot {
        let m = self.metrics();
        self.telemetry.emit(&m, now)
    }

    /// The most recently emitted telemetry snapshot, if any.
    pub fn last_telemetry(&self) -> Option<&TelemetrySnapshot> {
        self.telemetry.last()
    }

    /// The first telemetry-sink I/O error, if any. Sink failures never
    /// disturb the data path — they park here as a sticky diagnostic.
    pub fn telemetry_sink_error(&self) -> Option<&str> {
        self.telemetry.sink_error()
    }

    /// Emits a snapshot if the auto-emit interval has elapsed.
    fn maybe_emit_telemetry(&mut self, now: SimTime) {
        if self.telemetry.due(now) {
            let m = self.metrics();
            self.telemetry.emit(&m, now);
        }
    }

    /// The archive tap's per-record accounting, when
    /// [`GarnetConfig::archive`] is enabled. Appends run inline, so every
    /// offered record is `archived` or `dropped` by the time the call
    /// that offered it returns.
    pub fn archive_ledger(&self) -> Option<crate::archive::ArchiveLedger> {
        self.archive.as_ref().map(ArchiveService::ledger)
    }

    /// The recovery report from opening the archive backend: surviving
    /// record counts, the truncation point (if the log had a torn or
    /// corrupt tail), and per-stream high-water marks.
    pub fn archive_recovery(&self) -> Option<&garnet_store::RecoveryReport> {
        self.archive.as_ref().map(ArchiveService::recovery)
    }

    /// Syncs the archive's store, making every record appended so far
    /// durable.
    ///
    /// # Errors
    ///
    /// [`GarnetError::ArchiveFlushFailed`] when the store fails the sync
    /// or the tap is disabled; delivery is unaffected.
    pub fn flush_archive(&mut self, now: SimTime) -> Result<(), GarnetError> {
        match &mut self.archive {
            Some(archive) => {
                if archive.flush(now) {
                    Ok(())
                } else {
                    Err(GarnetError::ArchiveFlushFailed)
                }
            }
            None => Ok(()),
        }
    }

    /// The archive tap's own flight recorder (separate from the router
    /// tracer, so turning the archive on never moves a router trace
    /// line). Empty while [`GarnetConfig::trace_capacity`] is 0.
    pub fn archive_trace_snapshot(&self) -> TraceSnapshot {
        self.archive.as_ref().map(ArchiveService::trace_snapshot).unwrap_or_default()
    }

    /// Replays recovered archive records through the normal boundary
    /// entry points, in log order: consecutive frame records stamped at
    /// the same instant re-enter as one [`Garnet::on_frames`] burst
    /// (batch size is observably irrelevant — the router is
    /// batch-invariant), ticks as [`Garnet::on_tick`], acks as
    /// [`Garnet::on_standalone_ack`]. Replaying a log into a fresh,
    /// identically-configured facade rebuilds dispatch state
    /// bit-identically.
    pub fn replay_archive(&mut self, records: &[ArchiveRecord]) -> StepOutput {
        let mut out = StepOutput::default();
        let mut burst: Vec<(ReceiverId, f64, FrameBytes)> = Vec::new();
        let mut burst_at: u64 = 0;
        let flush_burst =
            |burst: &mut Vec<(ReceiverId, f64, FrameBytes)>, at: u64, this: &mut Self| {
                if !burst.is_empty() {
                    let output = this.on_frames(std::mem::take(burst), SimTime::from_micros(at));
                    Some(output)
                } else {
                    None
                }
            };
        for record in records {
            match record {
                ArchiveRecord::Frame { at_us, receiver, rssi_bits, frame } => {
                    if !burst.is_empty() && *at_us != burst_at {
                        if let Some(o) = flush_burst(&mut burst, burst_at, self) {
                            out.merge(o);
                        }
                    }
                    burst_at = *at_us;
                    burst.push((
                        ReceiverId::new(*receiver),
                        f64::from_bits(*rssi_bits),
                        frame.clone(),
                    ));
                }
                ArchiveRecord::Tick { at_us } => {
                    if let Some(o) = flush_burst(&mut burst, burst_at, self) {
                        out.merge(o);
                    }
                    out.merge(self.on_tick(SimTime::from_micros(*at_us)));
                }
                ArchiveRecord::Ack { at_us, request_id, status } => {
                    if let Some(o) = flush_burst(&mut burst, burst_at, self) {
                        out.merge(o);
                    }
                    self.on_standalone_ack(
                        RequestId::new(*request_id),
                        *status,
                        SimTime::from_micros(*at_us),
                    );
                }
            }
        }
        if let Some(o) = flush_burst(&mut burst, burst_at, self) {
            out.merge(o);
        }
        // A log that ends in an ack leaves that call's effects held.
        self.release_held(&mut out);
        debug_assert_eq!(self.check_return(&out, None), Ok(()));
        out
    }

    /// The flight recorder's current contents: one record per event hop
    /// the router has traced, chronological, plus per-stage hop
    /// counts; `.to_jsonl()` is the dump format (one record per line,
    /// diffable across runs). Empty while
    /// [`GarnetConfig::trace_capacity`] is 0. See `DESIGN.md`'s
    /// Observability section for the schema.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.router.trace_snapshot()
    }

    /// Shuts the middleware down: pumps to quiescence, retires the
    /// archive tap (syncing its store and returning an
    /// [`ArchiveBackend::Custom`](crate::archive::ArchiveBackend) store
    /// to its slot), then shuts the router down and applies whatever
    /// that released. After this call the facade still answers reads
    /// (statistics, traces, control-plane accessors) and still filters
    /// and delivers new frames, whose archive records count as dropped.
    ///
    /// Dropping a [`Garnet`] without calling this is safe, but discards
    /// in-flight outputs and skips the archive's final sync.
    ///
    /// # Errors
    ///
    /// [`GarnetError::ArchiveFlushFailed`] when the archive's final sync
    /// failed. The router is still shut down cleanly and the returned
    /// error carries no partial output — use [`Garnet::archive_ledger`]
    /// to see which records landed.
    pub fn shutdown(&mut self, now: SimTime) -> Result<StepOutput, GarnetError> {
        let mut out = StepOutput::default();
        self.pump(now, &mut out);
        // Nothing may be stranded in the delivery plane: flush every
        // rate-limited consumer's backlog regardless of drain limits, so
        // its ledger closes balanced (`offered == shed + delivered`).
        for e in &mut self.consumers {
            e.drain_limit = None;
        }
        for (rid, delivery, depth) in self.delivery.drain_all() {
            self.deliver_to(rid, &delivery, depth, now);
        }
        self.pump(now, &mut out);
        // Archive first: its log must capture every input the router
        // processed; the router drains below whatever the sync returned.
        let archive_ok = match &mut self.archive {
            Some(archive) => archive.shutdown(now),
            None => true,
        };
        for o in self.router.shutdown(now) {
            self.apply(o, now, &mut out);
        }
        self.pump(now, &mut out);
        self.release_held(&mut out);
        debug_assert_eq!(self.check_return(&out, None), Ok(()));
        if archive_ok {
            Ok(out)
        } else {
            Err(GarnetError::ArchiveFlushFailed)
        }
    }

    /// Checks the identities the facade's books must satisfy whenever a
    /// public call returns: the router queue and the admission
    /// scheduler's queue are drained, the admission, per-class QoS,
    /// delivery-plane, archive and actuation ledgers each account for
    /// every item they were offered, every drain limit and staged queue
    /// belongs to a registered consumer, and the consumer list ascends by
    /// id (fan-out walks it with one cursor). Debug builds assert it at
    /// the tail of every public `&mut self` entry point.
    pub(crate) fn check_invariants(&self) -> Result<(), Violation> {
        law(self.router.queue_is_empty(), || "the router queue is not empty".into())?;
        let t = self.admission_totals();
        law(t.balanced(), || format!("admission: {t:?}"))?;
        if let Some(s) = &self.qos {
            law(s.is_drained(), || "the admission scheduler still stages frames".into())?;
            for class in PriorityClass::ALL {
                let l = s.ledgers().class(class);
                law(l.balanced(), || format!("qos.{}: {l:?}", class.name()))?;
            }
        }
        let d = self.delivery.ledger();
        let backlog = self.delivery.backlog();
        law(d.offered == d.shed + d.delivered + backlog, || {
            format!("delivery: {d:?} with {backlog} staged")
        })?;
        for id in self.delivery.consumers() {
            law(self.consumer_index(id).is_some(), || {
                format!("delivery schedule holds a limit or queue for departed {id}")
            })?;
        }
        for e in &self.consumers {
            law(e.drain_limit.is_some() == self.delivery.is_limited(e.id), || {
                format!("{}'s entry and the delivery schedule disagree on its limit", e.id)
            })?;
        }
        law(self.consumers.windows(2).all(|w| w[0].id < w[1].id), || {
            "the consumer list does not ascend by id".into()
        })?;
        if let Some(a) = self.archive_ledger() {
            law(a.archived + a.dropped == a.offered, || format!("archive: {a:?}"))?;
        }
        let act = &self.router.services().control.actuation;
        let (submitted, in_flight) = (act.submitted_count(), act.in_flight() as u64);
        let settled = act.acknowledged_count() + act.timeout_count();
        law(submitted == settled + in_flight, || {
            format!("actuation: {submitted} submitted, {settled} settled, {in_flight} in flight")
        })?;
        Ok(())
    }

    /// [`Garnet::check_invariants`], then the call's own admission
    /// ledger on the `out` it returns — balanced, and, for a call handed
    /// `frames` radio frames, offering exactly that many.
    fn check_return(&self, out: &StepOutput, frames: Option<usize>) -> Result<(), Violation> {
        self.check_invariants()?;
        let o = &out.overload;
        law(o.offered == o.shed + o.delivered, || format!("the call's overload: {o:?}"))?;
        match frames {
            Some(n) => law(o.offered == n as u64, || format!("{n} frames handed in: {o:?}")),
            None => Ok(()),
        }
    }
}

/// A facade book that did not balance when a call returned, named by
/// the identity that failed ([`Garnet::check_invariants`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Violation(String);

/// `Ok` when `holds`, else a [`Violation`] described by `what`.
fn law(holds: bool, what: impl FnOnce() -> String) -> Result<(), Violation> {
    if holds {
        Ok(())
    } else {
        Err(Violation(what()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::CountingConsumer;
    use garnet_wire::{DataMessage, StreamIndex};

    fn frame(sensor: u32, idx: u8, seq: u16) -> Vec<u8> {
        let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(idx));
        DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![1, 2, 3])
            .build()
            .unwrap()
            .encode_to_vec()
    }

    fn garnet() -> Garnet {
        Garnet::new(GarnetConfig::default())
    }

    #[test]
    fn end_to_end_frame_to_consumer() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::Sensor(SensorId::new(1).unwrap()), &token).unwrap();
        g.on_frame(ReceiverId::new(0), -50.0, &frame(1, 0, 0), SimTime::ZERO);
        g.on_frame(ReceiverId::new(0), -50.0, &frame(1, 0, 1), SimTime::from_millis(1));
        assert_eq!(g.dispatching().delivery_count(), 2);
        assert_eq!(g.filtering().delivered_count(), 2);
    }

    #[test]
    fn unclaimed_goes_to_orphanage_and_replays_on_subscribe() {
        let mut g = garnet();
        // Nobody subscribed: three messages orphaned.
        for seq in 0..3u16 {
            g.on_frame(
                ReceiverId::new(0),
                -50.0,
                &frame(2, 0, seq),
                SimTime::from_millis(seq as u64),
            );
        }
        assert_eq!(g.orphanage().total_taken(), 3);
        let token = g.issue_default_token("late");
        let id = g.register_consumer(Box::new(CountingConsumer::new("late")), &token, 0).unwrap();
        let stream = StreamId::new(SensorId::new(2).unwrap(), StreamIndex::new(0));
        let (replayed, _) = g.subscribe(id, TopicFilter::Stream(stream), &token).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(g.orphanage().stream_count(), 0);
    }

    #[test]
    fn sensor_filter_claims_all_streams_of_sensor() {
        let mut g = garnet();
        g.on_frame(ReceiverId::new(0), -50.0, &frame(3, 0, 0), SimTime::ZERO);
        g.on_frame(ReceiverId::new(0), -50.0, &frame(3, 1, 0), SimTime::ZERO);
        g.on_frame(ReceiverId::new(0), -50.0, &frame(4, 0, 0), SimTime::ZERO);
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        let (replayed, _) =
            g.subscribe(id, TopicFilter::Sensor(SensorId::new(3).unwrap()), &token).unwrap();
        assert_eq!(replayed, 2);
        assert_eq!(g.orphanage().stream_count(), 1, "sensor 4 stays orphaned");
    }

    #[test]
    fn duplicate_frames_filtered_before_dispatch() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::All, &token).unwrap();
        let f = frame(1, 0, 0);
        g.on_frame(ReceiverId::new(0), -50.0, &f, SimTime::ZERO);
        g.on_frame(ReceiverId::new(1), -60.0, &f, SimTime::ZERO);
        g.on_frame(ReceiverId::new(2), -70.0, &f, SimTime::ZERO);
        assert_eq!(g.dispatching().delivery_count(), 1);
        assert_eq!(g.filtering().duplicate_count(), 2);
    }

    #[test]
    fn unauthorized_subscribe_rejected() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        // A token from a different authority.
        let other = AuthService::new([1u8; 16]).issue(
            Principal::new("mallory"),
            CapabilitySet::all(),
            u64::MAX,
        );
        assert!(matches!(
            g.subscribe(id, TopicFilter::All, &other),
            Err(GarnetError::NotAuthorized { .. })
        ));
    }

    #[test]
    fn derived_streams_flow_to_second_level_consumer() {
        use crate::consumer::{Consumer, ConsumerCtx};

        /// Level-1: averages pairs of readings onto derived stream 0.
        struct Averager {
            values: Vec<u8>,
        }
        impl Consumer for Averager {
            fn name(&self) -> &str {
                "averager"
            }
            fn on_data(&mut self, d: &Delivery, ctx: &mut ConsumerCtx) {
                self.values.extend_from_slice(d.msg.payload());
                if self.values.len() >= 2 {
                    let avg = (self.values.iter().map(|&b| u32::from(b)).sum::<u32>()
                        / self.values.len() as u32) as u8;
                    ctx.publish_derived(StreamIndex::new(0), vec![avg]);
                    self.values.clear();
                }
            }
        }

        let mut g = garnet();
        let token = g.issue_default_token("t");
        let l1 = g.register_consumer(Box::new(Averager { values: Vec::new() }), &token, 0).unwrap();
        let l2 = g.register_consumer(Box::new(CountingConsumer::new("l2")), &token, 0).unwrap();
        let raw = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        g.subscribe(l1, TopicFilter::Stream(raw), &token).unwrap();
        // L2 subscribes to the averager's derived stream.
        let derived = StreamId::new(g.virtual_sensor(l1).unwrap(), StreamIndex::new(0));
        g.subscribe(l2, TopicFilter::Stream(derived), &token).unwrap();

        for seq in 0..4u16 {
            g.on_frame(
                ReceiverId::new(0),
                -50.0,
                &frame(1, 0, seq),
                SimTime::from_millis(seq as u64),
            );
        }
        // 4 raw messages → 2 derived messages, each with 3-byte payloads
        // (frame() sends [1,2,3]) so the averager fires on every message.
        assert!(g.streams().info(derived).is_some(), "derived stream registered");
        let derived_info = g.streams().info(derived).unwrap();
        assert!(derived_info.derived);
        assert!(derived_info.messages >= 2);
        assert!(g.dispatching().delivery_count() >= 6);
    }

    #[test]
    fn derived_depth_guard_stops_loops() {
        use crate::consumer::{Consumer, ConsumerCtx};

        /// Pathological: republishes everything it hears, including its
        /// own derived stream.
        struct Loopy;
        impl Consumer for Loopy {
            fn name(&self) -> &str {
                "loopy"
            }
            fn on_data(&mut self, d: &Delivery, ctx: &mut ConsumerCtx) {
                ctx.publish_derived(StreamIndex::new(0), d.msg.payload().to_vec());
            }
        }

        let mut g = Garnet::new(GarnetConfig { max_derived_depth: 4, ..GarnetConfig::default() });
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(Loopy), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::All, &token).unwrap();
        g.on_frame(ReceiverId::new(0), -50.0, &frame(1, 0, 0), SimTime::ZERO);
        assert_eq!(g.depth_drop_count(), 1);
        // 1 raw + 4 derived levels delivered, then the guard stopped it.
        assert_eq!(g.dispatching().dispatched_count(), 5);
    }

    #[test]
    fn consumer_actuation_flows_through_resource_manager() {
        use crate::consumer::{Consumer, ConsumerCtx};

        struct Actuator;
        impl Consumer for Actuator {
            fn name(&self) -> &str {
                "actuator"
            }
            fn on_data(&mut self, d: &Delivery, ctx: &mut ConsumerCtx) {
                ctx.request_actuation(
                    ActuationTarget::Sensor(d.msg.stream().sensor()),
                    SensorCommand::SetReportInterval {
                        stream: StreamIndex::new(0),
                        interval_ms: 100,
                    },
                );
            }
        }

        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(Actuator), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::All, &token).unwrap();
        let out = g.on_frame(ReceiverId::new(0), -50.0, &frame(1, 0, 0), SimTime::ZERO);
        assert_eq!(out.control.len(), 1);
        assert_eq!(g.actuation().submitted_count(), 1);
        assert_eq!(g.resource().approved_count(), 1);
    }

    #[test]
    fn capability_gates_consumer_actions() {
        use crate::consumer::{Consumer, ConsumerCtx};

        struct Pushy;
        impl Consumer for Pushy {
            fn name(&self) -> &str {
                "pushy"
            }
            fn on_data(&mut self, _d: &Delivery, ctx: &mut ConsumerCtx) {
                ctx.request_actuation(
                    ActuationTarget::Sensor(SensorId::new(1).unwrap()),
                    SensorCommand::Ping,
                );
                ctx.location_hint(SensorId::new(1).unwrap(), Point::ORIGIN, 1.0);
                ctx.report_state(1);
            }
        }

        let mut g = garnet();
        // Subscribe-only token.
        let token = g.auth().issue(
            Principal::new("limited"),
            CapabilitySet::of(&[Capability::Subscribe]),
            u64::MAX,
        );
        let id = g.register_consumer(Box::new(Pushy), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::All, &token).unwrap();
        let out = g.on_frame(ReceiverId::new(0), -50.0, &frame(1, 0, 0), SimTime::ZERO);
        assert!(out.control.is_empty());
        assert_eq!(g.metrics().counter_value("consumers.denied_actions"), 3);
        assert_eq!(g.location().hint_count(), 0);
    }

    #[test]
    fn piggybacked_ack_completes_actuation() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::All, &token).unwrap();
        let outcome = g
            .request_actuation(
                id,
                &token,
                ActuationTarget::Sensor(SensorId::new(1).unwrap()),
                SensorCommand::Ping,
                SimTime::ZERO,
            )
            .unwrap();
        let request_id = match outcome {
            ActuationOutcome::Granted { request_id, .. } => request_id,
            other => panic!("expected grant, got {other:?}"),
        };
        assert_eq!(g.actuation().in_flight(), 1);
        // The sensor's next data message piggy-backs the ack.
        let stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        let acked = DataMessage::builder(stream)
            .seq(SequenceNumber::new(0))
            .ack(request_id)
            .build()
            .unwrap()
            .encode_to_vec();
        g.on_frame(ReceiverId::new(0), -50.0, &acked, SimTime::from_millis(20));
        assert_eq!(g.actuation().in_flight(), 0);
        assert_eq!(g.actuation().acknowledged_count(), 1);
    }

    #[test]
    fn an_ack_released_by_the_reorder_timeout_completes_actuation() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::All, &token).unwrap();
        let target = ActuationTarget::Sensor(SensorId::new(1).unwrap());
        let outcome =
            g.request_actuation(id, &token, target, SensorCommand::Ping, SimTime::ZERO).unwrap();
        let ActuationOutcome::Granted { request_id, .. } = outcome else {
            panic!("expected grant, got {outcome:?}");
        };
        let stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        let frame = |seq: u16, ack: Option<RequestId>| {
            let builder = DataMessage::builder(stream).seq(SequenceNumber::new(seq));
            let builder = match ack {
                Some(request_id) => builder.ack(request_id),
                None => builder,
            };
            builder.build().unwrap().encode_to_vec()
        };
        g.on_frame(ReceiverId::new(0), -50.0, &frame(0, None), SimTime::from_millis(10));
        // Seq 1 never comes: seq 2, carrying the ack, waits in the
        // reorder buffer until the timeout releases it.
        g.on_frame(
            ReceiverId::new(0),
            -50.0,
            &frame(2, Some(request_id)),
            SimTime::from_millis(20),
        );
        assert_eq!(g.actuation().in_flight(), 1, "held behind the gap");
        g.on_tick(SimTime::from_millis(200));
        assert_eq!(g.actuation().acknowledged_count(), 1);
        assert_eq!(g.actuation().in_flight(), 0);
    }

    #[test]
    fn tick_retries_and_expires() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        let _ = g
            .request_actuation(
                id,
                &token,
                ActuationTarget::Sensor(SensorId::new(1).unwrap()),
                SensorCommand::Ping,
                SimTime::ZERO,
            )
            .unwrap();
        // Default: 5s timeout, 2 retries, exponential backoff
        // (deadlines at 5 s, then +10 s, then +20 s).
        let out = g.on_tick(SimTime::from_secs(5));
        assert_eq!(out.control.len(), 1, "first retry");
        let out = g.on_tick(SimTime::from_secs(15));
        assert_eq!(out.control.len(), 1, "second retry");
        let out = g.on_tick(SimTime::from_secs(35));
        assert!(out.control.is_empty());
        assert_eq!(out.expired_requests.len(), 1);
    }

    #[test]
    fn area_targeted_requests_are_granted_unchanged_and_planned_by_area() {
        use crate::resource::Decision;
        use garnet_simkit::TransmitterId;
        use garnet_wire::TargetArea;

        let area = ActuationTarget::Area(TargetArea::new(50.0, 50.0, 10.0));
        let commands = [
            SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms: 250 },
            SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms: 1_000 },
            SensorCommand::Ping,
        ];
        // No sensor profile to check and no per-sensor demand to mediate
        // with: each consumer's command passes as asked, even a second
        // consumer's conflicting interval under the strictest policy.
        let mut rm = ResourceManager::new(MediationPolicy::DenyConflicts);
        for (asker, command) in (1..).zip(commands) {
            let decision = rm.request(SubscriberId::new(asker), 0, &area, &command);
            assert_eq!(decision, Decision::Granted { effective: command });
        }

        let mut g = Garnet::new(GarnetConfig {
            transmitters: vec![
                Transmitter::new(TransmitterId::new(0), Point::new(55.0, 50.0), 20.0),
                Transmitter::new(TransmitterId::new(1), Point::new(500.0, 500.0), 20.0),
            ],
            ..GarnetConfig::default()
        });
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        for command in commands {
            match g.request_actuation(id, &token, area, command, SimTime::ZERO).unwrap() {
                ActuationOutcome::Granted { plan, .. } => {
                    assert_eq!((plan.request.target, plan.request.command), (area, command));
                    assert_eq!(plan.transmitters, [TransmitterId::new(0)]);
                    assert!(!plan.flooded, "the area, not a location estimate, picks the array");
                }
                other => panic!("expected grant, got {other:?}"),
            }
        }
    }

    #[test]
    fn deregister_cleans_up() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::All, &token).unwrap();
        g.deregister_consumer(id).unwrap();
        assert!(matches!(g.deregister_consumer(id), Err(GarnetError::UnknownConsumer(_))));
        // Messages now orphan instead of dispatching.
        g.on_frame(ReceiverId::new(0), -50.0, &frame(1, 0, 0), SimTime::ZERO);
        assert_eq!(g.orphanage().total_taken(), 1);
    }

    #[test]
    fn drain_limit_on_a_departed_or_unknown_consumer_is_ignored() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        g.set_consumer_drain_limit(id, Some(1));
        assert!(g.delivery.is_limited(id));
        g.deregister_consumer(id).unwrap();
        // A departed id, then one never registered: neither may leave a
        // limit that no deregistration would remove.
        for gone in [id, SubscriberId::new(9_999)] {
            g.set_consumer_drain_limit(gone, Some(2));
            assert!(!g.delivery.is_limited(gone));
        }
        assert_eq!(g.delivery.consumers().count(), 0, "no limit is resident");
        assert_eq!(g.check_invariants(), Ok(()));
    }

    #[test]
    fn virtual_sensor_ids_are_distinct_and_high() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let a = g.register_consumer(Box::new(CountingConsumer::new("a")), &token, 0).unwrap();
        let b = g.register_consumer(Box::new(CountingConsumer::new("b")), &token, 0).unwrap();
        let va = g.virtual_sensor(a).unwrap();
        let vb = g.virtual_sensor(b).unwrap();
        assert_ne!(va, vb);
        assert!(va.as_u32() > 0x00F0_0000);
    }

    #[test]
    fn quiescence_slows_unclaimed_streams_and_restores_on_demand() {
        use garnet_simkit::SimDuration;
        let stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        // Demand restores the stream whichever way it is expressed.
        for filter in
            [TopicFilter::Stream(stream), TopicFilter::Sensor(stream.sensor()), TopicFilter::All]
        {
            let mut g = Garnet::new(GarnetConfig {
                quiesce: Some(QuiesceConfig {
                    idle_after: SimDuration::from_secs(30),
                    slow_interval_ms: 60_000,
                    restore_interval_ms: 1_000,
                }),
                ..GarnetConfig::default()
            });
            // An unclaimed stream appears at t=0.
            g.on_frame(ReceiverId::new(0), -50.0, &frame(1, 0, 0), SimTime::ZERO);
            assert_eq!(
                g.next_deadline(),
                Some(SimTime::from_secs(30)),
                "quiesce due time drives the tick schedule"
            );
            // Before the idle window: nothing.
            let out = g.on_tick(SimTime::from_secs(10));
            assert!(out.control.is_empty());
            // Past it: the system slows the stream.
            let out = g.on_tick(SimTime::from_secs(31));
            assert_eq!(out.control.len(), 1);
            assert_eq!(g.quiesce_action_count(), 1);
            match out.control[0].request.command {
                SensorCommand::SetReportInterval { interval_ms, .. } => {
                    assert_eq!(interval_ms, 60_000)
                }
                other => panic!("expected slow-down, got {other:?}"),
            }
            // The sensor acknowledges; otherwise the actuation service would
            // (correctly) retransmit the slow-down.
            g.on_standalone_ack(
                out.control[0].request.request_id,
                garnet_wire::AckStatus::Applied,
                SimTime::from_secs(32),
            );
            // Idempotent: no second slow-down.
            let out = g.on_tick(SimTime::from_secs(60));
            assert!(out.control.is_empty());

            // A subscriber appears: the stream is restored.
            let token = g.issue_default_token("late");
            let id =
                g.register_consumer(Box::new(CountingConsumer::new("late")), &token, 0).unwrap();
            let (_, out) = g.subscribe_at(id, filter, &token, SimTime::from_secs(70)).unwrap();
            assert_eq!(out.control.len(), 1, "{filter:?}");
            assert_eq!(g.restore_action_count(), 1, "{filter:?}");
            match out.control[0].request.command {
                SensorCommand::SetReportInterval { interval_ms, .. } => {
                    assert_eq!(interval_ms, 1_000)
                }
                other => panic!("expected restore, got {other:?}"),
            }
            // Claimed streams are never re-quiesced.
            let out = g.on_tick(SimTime::from_secs(200));
            assert!(out.control.iter().all(|p| !matches!(
                p.request.command,
                SensorCommand::SetReportInterval { interval_ms: 60_000, .. }
            )));
        }
    }

    #[test]
    fn next_deadline_is_the_earliest_unclaimed_stream_in_a_large_catalogue() {
        use garnet_simkit::SimDuration;
        let mut g = Garnet::new(GarnetConfig {
            quiesce: Some(QuiesceConfig {
                idle_after: SimDuration::from_secs(30),
                slow_interval_ms: 60_000,
                restore_interval_ms: 1_000,
            }),
            ..GarnetConfig::default()
        });
        // 1 000 claimed streams, all older than any unclaimed one: none
        // of them may set the deadline.
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        for sensor in 1..=1_000 {
            g.subscribe(id, TopicFilter::Sensor(SensorId::new(sensor).unwrap()), &token).unwrap();
        }
        let claimed: Vec<_> =
            (1..=1_000).map(|sensor| (ReceiverId::new(0), -50.0, frame(sensor, 0, 0))).collect();
        g.on_frames(claimed, SimTime::ZERO);
        assert_eq!(g.next_deadline(), None, "claimed streams are never due");
        // Three unclaimed streams, first seen out of id order.
        for (sensor, seen_s) in [(2_001, 5), (2_002, 3), (2_003, 7)] {
            g.on_frame(ReceiverId::new(0), -50.0, &frame(sensor, 0, 0), SimTime::from_secs(seen_s));
        }
        assert_eq!(g.streams().len(), 1_003);
        assert_eq!(g.next_deadline(), Some(SimTime::from_secs(33)), "earliest first_seen + idle");
        // Quiesce the earliest (and let its sensor acknowledge, so no
        // retransmission deadline remains): it no longer counts.
        let out = g.on_tick(SimTime::from_secs(34));
        assert_eq!(out.control.len(), 1);
        g.on_standalone_ack(
            out.control[0].request.request_id,
            garnet_wire::AckStatus::Applied,
            SimTime::from_secs(34),
        );
        assert_eq!(g.next_deadline(), Some(SimTime::from_secs(35)), "quiesced streams are skipped");
    }

    #[test]
    fn quiescence_skips_derived_streams() {
        use crate::consumer::{Consumer, ConsumerCtx};
        use garnet_simkit::SimDuration;

        struct Repub;
        impl Consumer for Repub {
            fn name(&self) -> &str {
                "repub"
            }
            fn on_data(&mut self, d: &Delivery, ctx: &mut ConsumerCtx) {
                ctx.publish_derived(StreamIndex::new(0), d.msg.payload().to_vec());
            }
        }

        let mut g = Garnet::new(GarnetConfig {
            quiesce: Some(QuiesceConfig {
                idle_after: SimDuration::from_secs(10),
                slow_interval_ms: 60_000,
                restore_interval_ms: 1_000,
            }),
            ..GarnetConfig::default()
        });
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(Repub), &token, 0).unwrap();
        let physical = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        g.subscribe(id, TopicFilter::Stream(physical), &token).unwrap();
        // The derived stream is unclaimed, but virtual — never quiesced.
        g.on_frame(ReceiverId::new(0), -50.0, &frame(1, 0, 0), SimTime::ZERO);
        let out = g.on_tick(SimTime::from_secs(60));
        assert!(out.control.is_empty());
        assert_eq!(g.quiesce_action_count(), 0);
    }

    #[test]
    fn metrics_snapshot_reflects_service_state() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::All, &token).unwrap();
        let f = frame(1, 0, 0);
        g.on_frame(ReceiverId::new(0), -50.0, &f, SimTime::ZERO);
        g.on_frame(ReceiverId::new(1), -55.0, &f, SimTime::ZERO);

        let m = g.metrics();
        assert_eq!(m.counter_value("filtering.delivered"), 1);
        assert_eq!(m.counter_value("filtering.duplicates"), 1);
        assert_eq!(m.counter_value("dispatching.deliveries"), 1);
        assert_eq!(m.counter_value("consumers.registered"), 1);
        assert_eq!(m.counter_value("location.observations"), 0, "no receivers installed");
        let report = m.report();
        assert!(report.contains("filtering.delivered = 1"));
        // Snapshots are point-in-time and reproducible.
        assert_eq!(report, g.metrics().report());
    }

    #[test]
    fn coordinator_policy_fires_through_facade() {
        use crate::consumer::{Consumer, ConsumerCtx};

        /// Reports each delivery's first payload byte as its state.
        struct Reporter;
        impl Consumer for Reporter {
            fn name(&self) -> &str {
                "reporter"
            }
            fn on_data(&mut self, d: &Delivery, ctx: &mut ConsumerCtx) {
                ctx.report_state(u32::from(d.msg.payload()[0]));
            }
        }

        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(Reporter), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::All, &token).unwrap();
        g.register_coordinator_policy(
            2,
            PolicyAction {
                target: ActuationTarget::Sensor(SensorId::new(1).unwrap()),
                command: SensorCommand::SetReportInterval {
                    stream: StreamIndex::new(0),
                    interval_ms: 100,
                },
                priority: 9,
                anticipatable: true,
            },
        );
        let reading = |seq: u16, state: u8| {
            DataMessage::builder(StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0)))
                .seq(SequenceNumber::new(seq))
                .payload(vec![state])
                .build()
                .unwrap()
                .encode_to_vec()
        };
        // Train 1→2, then re-enter 1: predictive mode pre-fires 2's policy.
        g.on_frame(ReceiverId::new(0), -50.0, &reading(0, 1), SimTime::ZERO);
        g.on_frame(ReceiverId::new(0), -50.0, &reading(1, 2), SimTime::from_secs(1));
        let out = g.on_frame(ReceiverId::new(0), -50.0, &reading(2, 1), SimTime::from_secs(2));
        assert_eq!(out.control.len(), 1, "anticipatory actuation dispatched");
        assert_eq!(g.coordinator().anticipatory_action_count(), 1);
    }

    #[test]
    fn facade_run_is_reproducible() {
        // The same frame schedule through two facades: every observable
        // (deliveries, duplicates, orphanage, metrics report) must match
        // exactly.
        fn run() -> (u64, u64, u64, String) {
            let mut g = garnet();
            let token = g.issue_default_token("t");
            let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
            g.subscribe(id, TopicFilter::Sensor(SensorId::new(2).unwrap()), &token).unwrap();
            for seq in 0..20u16 {
                for sensor in 1..=5u32 {
                    // Skip one message per stream to exercise reorder
                    // buffers, and duplicate another.
                    if seq == 7 {
                        continue;
                    }
                    let f = frame(sensor, 0, seq);
                    let t = SimTime::from_millis(u64::from(seq) * 10);
                    g.on_frame(ReceiverId::new(0), -50.0, &f, t);
                    if seq == 3 {
                        g.on_frame(ReceiverId::new(1), -60.0, &f, t);
                    }
                }
            }
            g.on_tick(SimTime::from_secs(30));
            (
                g.filtering().delivered_count(),
                g.filtering().duplicate_count(),
                g.orphanage().total_taken(),
                g.metrics().report(),
            )
        }
        let baseline = run();
        assert_eq!(run(), baseline);
        // Every frame but the 5 duplicates is released (the tick accepts
        // the seq-7 gaps); the 4 unsubscribed sensors' 19 messages each
        // go to the Orphanage.
        assert_eq!((baseline.0, baseline.1, baseline.2), (95, 5, 76));
    }

    #[test]
    fn step_output_merge_is_order_independent() {
        fn plan(id: u32) -> ReplicationPlan {
            ReplicationPlan {
                request: StreamUpdateRequest {
                    request_id: RequestId::new(id),
                    target: ActuationTarget::Sensor(SensorId::new(1).unwrap()),
                    command: SensorCommand::Ping,
                    issued_at_us: 0,
                    priority: 0,
                },
                transmitters: Vec::new(),
                flooded: true,
            }
        }
        let make = |ids: &[u32]| StepOutput {
            control: ids.iter().map(|&i| plan(i)).collect(),
            expired_requests: ids
                .iter()
                .map(|&i| StreamUpdateRequest {
                    request_id: RequestId::new(i),
                    target: ActuationTarget::Sensor(SensorId::new(1).unwrap()),
                    command: SensorCommand::Ping,
                    issued_at_us: 0,
                    priority: 0,
                })
                .collect(),
            ..StepOutput::default()
        };
        let accounted = |ids: &[u32], shard: usize| {
            let mut out = make(ids);
            out.overload = OverloadStats {
                offered: ids.len() as u64,
                shed: 1,
                coalesced: 0,
                delivered: ids.len() as u64 - 1,
                peak_queue_depth: shard as u64 + 3,
                shard_restarts: 0,
            };
            out.shard_failures =
                vec![ShardFailure { shard, seq: ids[0] as u64, reason: "boom".into() }];
            out
        };

        // Shard A produced {1, 4}, shard B produced {2, 3}. Merging in
        // either order yields the canonical ascending sequence.
        let mut ab = accounted(&[1, 4], 0);
        ab.merge(accounted(&[2, 3], 1));
        let mut ba = accounted(&[2, 3], 1);
        ba.merge(accounted(&[1, 4], 0));
        let ids = |o: &StepOutput| -> Vec<u32> {
            o.control.iter().map(|p| p.request.request_id.as_u32()).collect()
        };
        assert_eq!(ids(&ab), vec![1, 2, 3, 4]);
        assert_eq!(ids(&ab), ids(&ba));
        let exp = |o: &StepOutput| -> Vec<u32> {
            o.expired_requests.iter().map(|r| r.request_id.as_u32()).collect()
        };
        assert_eq!(exp(&ab), vec![1, 2, 3, 4]);
        assert_eq!(exp(&ab), exp(&ba));
        // Overload counters sum; peak depth takes the max, not the sum.
        assert_eq!(
            ab.overload,
            OverloadStats {
                offered: 4,
                shed: 2,
                coalesced: 0,
                delivered: 2,
                peak_queue_depth: 4,
                shard_restarts: 0,
            }
        );
        assert_eq!(ab.overload, ba.overload);
        // Shard failures land in (shard, seq) order either way.
        let shards =
            |o: &StepOutput| -> Vec<usize> { o.shard_failures.iter().map(|f| f.shard).collect() };
        assert_eq!(shards(&ab), vec![0, 1]);
        assert_eq!(shards(&ab), shards(&ba));
    }

    fn ping(
        g: &mut Garnet,
        id: SubscriberId,
        token: &Token,
        now: SimTime,
    ) -> Result<(), GarnetError> {
        let target = ActuationTarget::Sensor(SensorId::new(1).unwrap());
        g.request_actuation(id, token, target, SensorCommand::Ping, now).map(drop)
    }

    /// 1 000 subscribes and one actuation request: how many MACs they
    /// cost, and whether every call was granted.
    fn macs_for_calls(g: &mut Garnet, id: SubscriberId, token: &Token) -> u64 {
        let before = g.auth().macs_computed();
        for k in 0..1_000 {
            let sensor = SensorId::new(1 + k % 50).unwrap();
            g.subscribe_at(id, TopicFilter::Sensor(sensor), token, SimTime::ZERO).unwrap();
        }
        ping(g, id, token, SimTime::ZERO).unwrap();
        g.auth().macs_computed() - before
    }

    #[test]
    fn a_consumer_s_own_token_costs_one_mac_and_any_other_one_per_call() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let before = g.auth().macs_computed();
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        assert_eq!(g.auth().macs_computed() - before, 1, "registration verifies in full");
        assert_eq!(macs_for_calls(&mut g, id, &token), 0);
        // A second valid token from the same authority, never registered.
        let second = g.auth().issue(Principal::new("t"), CapabilitySet::all(), u64::MAX - 1);
        assert_eq!(macs_for_calls(&mut g, id, &second), 1_001);
    }

    #[test]
    fn the_registration_token_is_still_refused_where_it_does_not_hold() {
        let mut g = garnet();
        let token = g.issue_default_token("t");
        let id = g.register_consumer(Box::new(CountingConsumer::new("c")), &token, 0).unwrap();
        g.subscribe_at(id, TopicFilter::All, &token, SimTime::ZERO).unwrap();
        ping(&mut g, id, &token, SimTime::ZERO).unwrap();
        for at in [0, 7] {
            let forged = token.with_mac_byte_flipped(at);
            assert_eq!(
                g.subscribe_at(id, TopicFilter::All, &forged, SimTime::ZERO).map(drop),
                Err(GarnetError::NotAuthorized { needed: Capability::Subscribe })
            );
            assert_eq!(
                ping(&mut g, id, &forged, SimTime::ZERO),
                Err(GarnetError::NotAuthorized { needed: Capability::Actuate })
            );
        }
        let subscribe_only =
            g.auth().issue(Principal::new("s"), CapabilitySet::of(&[Capability::Subscribe]), 9);
        let sid =
            g.register_consumer(Box::new(CountingConsumer::new("s")), &subscribe_only, 0).unwrap();
        g.subscribe_at(sid, TopicFilter::All, &subscribe_only, SimTime::ZERO).unwrap();
        assert_eq!(
            ping(&mut g, sid, &subscribe_only, SimTime::ZERO),
            Err(GarnetError::NotAuthorized { needed: Capability::Actuate })
        );
        // A bad token is refused before an unknown consumer is named.
        let unknown = SubscriberId::new(999);
        assert_eq!(
            ping(&mut g, unknown, &token.with_mac_byte_flipped(3), SimTime::ZERO),
            Err(GarnetError::NotAuthorized { needed: Capability::Actuate })
        );
        assert_eq!(
            ping(&mut g, unknown, &token, SimTime::ZERO),
            Err(GarnetError::UnknownConsumer(unknown))
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// The facade's token outcomes as they were when every call
        /// verified its token in full: a bad token first, then an
        /// unknown consumer.
        fn reference(
            g: &Garnet,
            live: bool,
            id: SubscriberId,
            token: &Token,
            needed: Capability,
            now: SimTime,
        ) -> Result<(), GarnetError> {
            if !g.auth().verify(token, now.as_micros(), needed) {
                Err(GarnetError::NotAuthorized { needed })
            } else if !live {
                Err(GarnetError::UnknownConsumer(id))
            } else {
                Ok(())
            }
        }

        proptest! {
            // Arbitrary schedules of registrations, deregistrations,
            // subscribes and actuation requests with tokens that are
            // genuine, short-lived, under-privileged, from another
            // principal, forged in one MAC byte or from another authority,
            // at a clock that crosses the short-lived tokens' expiry: every
            // result equals the reference's, which verifies every token.
            #[test]
            fn remembered_tokens_answer_like_full_verification(
                ops in proptest::collection::vec((0u8..5, 0u8..8, 0u8..7, 0u8..4), 1..60),
            ) {
                let mut g = garnet();
                let auth = AuthService::new([7u8; 16]);
                let all = CapabilitySet::all();
                let subscribe = CapabilitySet::of(&[Capability::Subscribe]);
                let genuine = g.issue_default_token("a");
                let tokens = [
                    genuine.clone(),
                    g.auth().issue(Principal::new("a"), all, 60_000),
                    g.auth().issue(Principal::new("a"), subscribe, u64::MAX),
                    g.auth().issue(Principal::new("b"), all, u64::MAX),
                    g.auth().issue(Principal::new("b"), subscribe, 60_000),
                    genuine.with_mac_byte_flipped(5),
                    auth.issue(Principal::new("a"), all, u64::MAX),
                ];
                // Every id the facade handed out, and whether it is live.
                let mut ids: Vec<(SubscriberId, bool)> = Vec::new();
                let mut now = SimTime::ZERO;
                for (kind, who, which, step) in ops {
                    now = now.saturating_add(garnet_simkit::SimDuration::from_micros(
                        u64::from(step) * 20_000,
                    ));
                    let token = &tokens[usize::from(which)];
                    let (id, live) = ids
                        .get(usize::from(who))
                        .copied()
                        .unwrap_or((SubscriberId::new(1_000 + u32::from(who)), false));
                    match kind {
                        0 => {
                            let consumer = Box::new(CountingConsumer::new("c"));
                            let got = g.register_consumer(consumer, token, 0);
                            if let Ok(new) = &got {
                                ids.push((*new, true));
                            }
                            let at = SimTime::ZERO;
                            let want = reference(&g, true, id, token, Capability::Subscribe, at);
                            prop_assert_eq!(got.map(drop), want);
                        }
                        1 => {
                            let got = g.deregister_consumer(id);
                            prop_assert_eq!(got.is_ok(), live);
                            if let Some(slot) = ids.get_mut(usize::from(who)) {
                                slot.1 = false;
                            }
                        }
                        2 => {
                            let got = g.subscribe_at(id, TopicFilter::All, token, now).map(drop);
                            let want = reference(&g, live, id, token, Capability::Subscribe, now);
                            prop_assert_eq!(got, want);
                        }
                        _ => {
                            let got = ping(&mut g, id, token, now);
                            let want = reference(&g, live, id, token, Capability::Actuate, now);
                            prop_assert_eq!(got, want);
                        }
                    }
                }
            }
        }
    }
}
