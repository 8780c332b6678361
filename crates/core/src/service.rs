//! The sans-io service protocol: typed events between Figure 1's boxes.
//!
//! Every middleware service is a state machine with typed methods of
//! its own; what travels between them is a [`ServiceEvent`], and what a
//! hop produces is a [`ServiceOutput`] — either a further event for a
//! sibling service ([`ServiceOutput::Emit`]) or an effect the facade
//! must carry out (deliver to a consumer, transmit a plan). No service
//! calls another directly: the event [`crate::router::Router`] — the
//! one `match` in its [`crate::router::ControlGraph`] for the control
//! plane — is the only place the paper's arrows exist in code.
//!
//! The facade (`Garnet`) remains the *driver*: it owns the router, pumps
//! it to quiescence after every external input, runs consumer callbacks
//! when a [`ServiceOutput::Deliver`] surfaces, and interprets
//! [`ServiceOutput::Planned`]/[`ServiceOutput::Denied`] according to the
//! [`ActuationOrigin`] stamped on the chain's first event.

use std::sync::Arc;

use garnet_net::SubscriberId;
use garnet_simkit::{geometry::Point, ReceiverId};
use garnet_wire::{
    AckStatus, ActuationTarget, FrameBytes, RequestId, SensorCommand, SensorId, StreamUpdateRequest,
};

use crate::coordinator::ConsumerStateId;
use crate::filtering::{Delivery, Observation};
use crate::replicator::ReplicationPlan;
use crate::resource::DenyReason;
use crate::stream::RowId;

/// Reserved subscriber identity for actions the middleware itself
/// originates (Super Coordinator policies, quiescence sweeps).
pub(crate) const SYSTEM_SUBSCRIBER: SubscriberId = SubscriberId::new(u32::MAX);

/// Priority used for coordinator-originated actuations.
pub(crate) const SYSTEM_PRIORITY: u8 = 200;

/// Who started an actuation chain, and therefore what the facade does
/// with its terminal [`ServiceOutput::Planned`]/[`ServiceOutput::Denied`]:
/// return it to an API caller, transmit it, count a denial, or mark a
/// stream quiesced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActuationOrigin {
    /// `Garnet::request_actuation` — the outcome is returned to the
    /// caller, not queued for transmission.
    Api,
    /// A consumer's `ConsumerCtx::request_actuation` during delivery —
    /// grants transmit, denials count against the consumer.
    Consumer,
    /// A Super Coordinator policy action — grants transmit, denials
    /// count as denied actions.
    Coordinator,
    /// The demand-driven quiescence sweep slowing an idle stream.
    Quiesce,
    /// Restoring a quiesced stream on new demand.
    Restore,
    /// An actuation-service retransmission (no adjudication step).
    Retry,
}

/// An event routed between services.
#[derive(Clone, Debug)]
pub enum ServiceEvent {
    /// Flush reorder buffers whose deadline passed → ingest.
    FlushReorder,
    /// A reconstructed message leaving the ingest stage → dispatch.
    Filtered {
        /// The deduplicated message.
        delivery: Delivery,
        /// Derived-stream depth (0 = straight off the air).
        depth: u32,
        /// The stream's dispatch row, if filtering remembers one; `None`
        /// for reorder flushes and derived republications. Dispatch
        /// checks it before using it.
        row: Option<RowId>,
    },
    /// A message that matched no subscription → orphanage.
    Orphaned(Delivery),
    /// A location-relevant sighting → location service.
    Observed(Observation),
    /// A consumer-supplied position hint → location service.
    Hint {
        /// The sensor.
        sensor: SensorId,
        /// Claimed position.
        position: Point,
        /// Hint weight.
        confidence: f64,
    },
    /// A stream-update acknowledgement (piggy-backed or standalone) →
    /// actuation service.
    AckReceived {
        /// Correlates with the submitted request.
        request_id: RequestId,
        /// How the sensor responded.
        status: AckStatus,
    },
    /// An actuation request entering adjudication → resource manager.
    ActuationRequested {
        /// Which chain this is (determines effect interpretation).
        origin: ActuationOrigin,
        /// On whose behalf.
        requester: SubscriberId,
        /// Mediation priority.
        priority: u8,
        /// Where.
        target: ActuationTarget,
        /// What.
        command: SensorCommand,
    },
    /// A granted command to stamp and track → actuation service.
    Submit {
        /// The chain.
        origin: ActuationOrigin,
        /// On whose behalf.
        requester: SubscriberId,
        /// Mediation priority.
        priority: u8,
        /// Where.
        target: ActuationTarget,
        /// The *effective* command after mediation.
        command: SensorCommand,
    },
    /// A tracked request to broadcast → replicator, which reads the
    /// target's location from the Location Service when it is routed.
    Replicate {
        /// The chain.
        origin: ActuationOrigin,
        /// On whose behalf.
        requester: SubscriberId,
        /// The stamped request.
        request: StreamUpdateRequest,
    },
    /// Retransmit/expire sweep is due → actuation service.
    ActuationTick,
    /// A consumer state change → super coordinator.
    StateReported {
        /// The reporting consumer.
        reporter: SubscriberId,
        /// The state entered.
        state: ConsumerStateId,
    },
}

// Every queued event is this wide; the remembered row fits in padding.
const _: () = assert!(std::mem::size_of::<ServiceEvent>() == 80);

/// One radio frame of a burst on its way to
/// [`crate::router::Router::ingest`] — Figure 1's arrow from the
/// receiver array to the Filtering Service. That arrow is a call, not a
/// [`ServiceEvent`]: frames are handed over, never queued.
#[derive(Clone, Debug)]
pub struct BatchedFrame {
    /// The receiver that heard it.
    pub receiver: ReceiverId,
    /// Received signal strength (dBm).
    pub rssi_dbm: f64,
    /// The encoded frame bytes (shared view of the arrival buffer).
    pub frame: FrameBytes,
}

/// What a service produced: an event for a sibling, or an effect for
/// the facade.
#[derive(Clone, Debug)]
pub enum ServiceOutput {
    /// Route this event onward (the router re-enqueues it).
    Emit(ServiceEvent),
    /// Run the consumer callbacks for one routed message (facade effect:
    /// consumers live outside the service graph). One output per
    /// message whatever its fan-out: the facade walks `recipients` in
    /// order and hands each consumer the one `delivery`.
    Deliver {
        /// Everyone the message matched, ascending id order, never
        /// empty. Fixed at route time — the handle
        /// [`crate::dispatching::DispatchOutcome`] shares with the match
        /// cache — so a subscription change made while the message is
        /// being delivered affects the next message, not this one.
        recipients: Arc<[SubscriberId]>,
        /// The message.
        delivery: Delivery,
        /// Derived-stream depth of the message.
        depth: u32,
    },
    /// An actuation chain ended in a broadcast plan.
    Planned {
        /// The chain.
        origin: ActuationOrigin,
        /// On whose behalf it ran.
        requester: SubscriberId,
        /// The plan to transmit.
        plan: ReplicationPlan,
    },
    /// An actuation chain was refused by the resource manager.
    Denied {
        /// The chain.
        origin: ActuationOrigin,
        /// On whose behalf it ran.
        requester: SubscriberId,
        /// Why.
        reason: DenyReason,
    },
    /// A tracked request exhausted its retries.
    Expired(StreamUpdateRequest),
}
