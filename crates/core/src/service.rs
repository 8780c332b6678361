//! The sans-io service protocol: typed events between Figure 1's boxes.
//!
//! Every middleware service is a state machine that consumes
//! [`ServiceEvent`]s and produces [`ServiceOutput`]s — either further
//! events for sibling services ([`ServiceOutput::Emit`]) or effects the
//! facade must carry out (deliver to a consumer, transmit a plan). The
//! [`GarnetService`] trait is the control-plane services' whole
//! contract (the per-frame stages, ingest and dispatch, hand the router
//! their results without the `Vec` the trait returns); no service calls
//! another directly, so the event [`crate::router::Router`] is the only
//! place the paper's arrows exist in code, and any stage can be swapped
//! for a sharded or threaded implementation without the others noticing.
//!
//! The facade (`Garnet`) remains the *driver*: it owns the router, pumps
//! it to quiescence after every external input, runs consumer callbacks
//! when a [`ServiceOutput::Deliver`] surfaces, and interprets
//! [`ServiceOutput::Planned`]/[`ServiceOutput::Denied`] according to the
//! [`ActuationOrigin`] stamped on the chain's first event.

use std::sync::Arc;

use garnet_net::SubscriberId;
use garnet_radio::geometry::Point;
use garnet_radio::ReceiverId;
use garnet_simkit::SimTime;
use garnet_wire::{
    AckStatus, ActuationTarget, FrameBytes, RequestId, SensorCommand, SensorId, StreamUpdateRequest,
};

use crate::actuation::ActuationService;
use crate::coordinator::{ConsumerStateId, SuperCoordinator};
use crate::filtering::{Delivery, Observation};
use crate::location::{LocationEstimate, LocationService};
use crate::orphanage::Orphanage;
use crate::replicator::{MessageReplicator, ReplicationPlan};
use crate::resource::{Decision, DenyReason, ResourceManager};

/// Reserved subscriber identity for actions the middleware itself
/// originates (Super Coordinator policies, quiescence sweeps).
pub const SYSTEM_SUBSCRIBER: SubscriberId = SubscriberId::new(u32::MAX);

/// Priority used for coordinator-originated actuations.
pub const SYSTEM_PRIORITY: u8 = 200;

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
    /// A raw frame heard by the receiver array → ingest (filtering).
    Frame {
        /// The receiver that heard it.
        receiver: ReceiverId,
        /// Received signal strength (dBm).
        rssi_dbm: f64,
        /// The encoded frame bytes — a shared view of the arrival
        /// buffer; cloning this event never copies the frame.
        frame: FrameBytes,
    },
    /// Flush reorder buffers whose deadline passed → ingest.
    FlushReorder,
    /// A reconstructed message leaving the ingest stage → dispatch.
    Filtered {
        /// The deduplicated message.
        delivery: Delivery,
        /// Derived-stream depth (0 = straight off the air).
        depth: u32,
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
    /// A tracked request to broadcast → replicator. The router enriches
    /// `estimate` with the target sensor's location before delivery (the
    /// location service is a read-dependency of the replicator, made
    /// explicit in the event payload).
    Replicate {
        /// The chain.
        origin: ActuationOrigin,
        /// On whose behalf.
        requester: SubscriberId,
        /// The stamped request.
        request: StreamUpdateRequest,
        /// Target location estimate, filled in by the router.
        estimate: Option<LocationEstimate>,
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

/// One frame of a burst on its way to [`crate::router::Router::admit_frame`].
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

/// A sans-io middleware service: consumes events, emits outputs, and
/// optionally asks to be woken at a deadline.
pub trait GarnetService {
    /// Handles one event addressed to this service. Events a service
    /// does not own are ignored (the router never misroutes; this keeps
    /// the contract total).
    fn handle(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput>;

    /// The earliest instant this service has time-driven work, if any.
    fn next_deadline(&self) -> Option<SimTime> {
        None
    }
}

impl GarnetService for Orphanage {
    fn handle(&mut self, ev: ServiceEvent, _now: SimTime) -> Vec<ServiceOutput> {
        if let ServiceEvent::Orphaned(delivery) = ev {
            self.take_in(&delivery);
        }
        Vec::new()
    }
}

impl GarnetService for LocationService {
    fn handle(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput> {
        match ev {
            ServiceEvent::Observed(obs) => self.observe(&obs),
            ServiceEvent::Hint { sensor, position, confidence } => {
                self.hint(sensor, position, confidence, now)
            }
            _ => {}
        }
        Vec::new()
    }
}

impl GarnetService for ResourceManager {
    fn handle(&mut self, ev: ServiceEvent, _now: SimTime) -> Vec<ServiceOutput> {
        let ServiceEvent::ActuationRequested { origin, requester, priority, target, command } = ev
        else {
            return Vec::new();
        };
        match self.request(requester, priority, &target, &command) {
            Decision::Granted { effective } => vec![ServiceOutput::Emit(ServiceEvent::Submit {
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
}

impl GarnetService for ActuationService {
    fn handle(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput> {
        match ev {
            ServiceEvent::Submit { origin, requester, priority, target, command } => {
                let request = self.submit(target, command, priority, now);
                vec![ServiceOutput::Emit(ServiceEvent::Replicate {
                    origin,
                    requester,
                    request,
                    estimate: None,
                })]
            }
            ServiceEvent::AckReceived { request_id, status } => {
                self.on_ack(request_id, status, now);
                Vec::new()
            }
            ServiceEvent::ActuationTick => {
                let (retransmit, expired) = self.on_tick(now);
                let mut out: Vec<ServiceOutput> = retransmit
                    .into_iter()
                    .map(|request| {
                        ServiceOutput::Emit(ServiceEvent::Replicate {
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
            _ => Vec::new(),
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        ActuationService::next_deadline(self)
    }
}

impl GarnetService for MessageReplicator {
    fn handle(&mut self, ev: ServiceEvent, _now: SimTime) -> Vec<ServiceOutput> {
        let ServiceEvent::Replicate { origin, requester, request, estimate } = ev else {
            return Vec::new();
        };
        let plan = self.plan_with_estimate(request, estimate);
        vec![ServiceOutput::Planned { origin, requester, plan }]
    }
}

impl GarnetService for SuperCoordinator {
    fn handle(&mut self, ev: ServiceEvent, now: SimTime) -> Vec<ServiceOutput> {
        let ServiceEvent::StateReported { reporter, state } = ev else {
            return Vec::new();
        };
        self.report_state(reporter.as_u32(), state, now)
            .into_iter()
            .map(|a| {
                ServiceOutput::Emit(ServiceEvent::ActuationRequested {
                    origin: ActuationOrigin::Coordinator,
                    requester: SYSTEM_SUBSCRIBER,
                    priority: a.action.priority.max(SYSTEM_PRIORITY),
                    target: a.action.target,
                    command: a.action.command,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuation::ActuationConfig;
    use crate::resource::MediationPolicy;
    use garnet_wire::{StreamId, StreamIndex};

    fn target() -> ActuationTarget {
        ActuationTarget::Sensor(SensorId::new(7).unwrap())
    }

    fn command() -> SensorCommand {
        SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms: 500 }
    }

    #[test]
    fn resource_grant_emits_submit() {
        let mut r = ResourceManager::new(MediationPolicy::MergeMax);
        let out = r.handle(
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
        let mut a = ActuationService::new(ActuationConfig::default());
        let out = a.handle(
            ServiceEvent::Submit {
                origin: ActuationOrigin::Consumer,
                requester: SubscriberId::new(1),
                priority: 5,
                target: target(),
                command: command(),
            },
            SimTime::ZERO,
        );
        assert_eq!(a.in_flight(), 1);
        let ServiceOutput::Emit(ServiceEvent::Replicate { request, estimate, .. }) = &out[0] else {
            panic!("expected replicate: {out:?}");
        };
        assert!(estimate.is_none(), "router fills the estimate at routing time");
        // Ack closes the loop through the same entry point.
        let request_id = request.request_id;
        a.handle(
            ServiceEvent::AckReceived { request_id, status: AckStatus::Applied },
            SimTime::from_millis(3),
        );
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.acknowledged_count(), 1);
    }

    #[test]
    fn unowned_events_are_ignored() {
        let mut o = Orphanage::new(Default::default());
        assert!(o.handle(ServiceEvent::FlushReorder, SimTime::ZERO).is_empty());
        let mut l = LocationService::new(Default::default(), &[]);
        assert!(l.handle(ServiceEvent::ActuationTick, SimTime::ZERO).is_empty());
    }

    #[test]
    fn orphanage_takes_in_orphaned_deliveries() {
        let mut o = Orphanage::new(Default::default());
        let msg = garnet_wire::DataMessage::builder(StreamId::from_raw(0x0700)).build().unwrap();
        o.handle(
            ServiceEvent::Orphaned(Delivery {
                msg,
                first_received_at: SimTime::ZERO,
                delivered_at: SimTime::ZERO,
            }),
            SimTime::ZERO,
        );
        assert_eq!(o.total_taken(), 1);
    }
}
