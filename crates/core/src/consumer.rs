//! The consumer-process framework.
//!
//! Consumers are the applications Garnet exists for: "mutually unaware"
//! processes that subscribe to streams, may "generate further derived
//! data streams by performing additional processing on received data"
//! (multi-level consumption, §4.2), may attempt to influence sensors
//! through the actuation path, and — if trusted — report state changes
//! to the Super Coordinator.
//!
//! A consumer implements [`Consumer`]; everything it wants to *do* goes
//! through the [`ConsumerCtx`] handed to each callback, so the framework
//! (not the consumer) enforces authorisation, mediation and loop limits.

use garnet_simkit::{geometry::Point, SimTime};
use garnet_wire::{ActuationTarget, SensorCommand, SensorId, StreamIndex};

use crate::coordinator::ConsumerStateId;
use crate::filtering::Delivery;

/// An action a consumer asked the middleware to perform.
#[derive(Clone, Debug, PartialEq)]
pub enum ConsumerAction {
    /// Publish a message on one of the consumer's derived streams.
    PublishDerived {
        /// Which derived stream (index within the consumer's virtual
        /// sensor).
        index: StreamIndex,
        /// The payload.
        payload: Vec<u8>,
    },
    /// Request a change to sensor behaviour (goes through the Resource
    /// Manager).
    RequestActuation {
        /// Where.
        target: ActuationTarget,
        /// What.
        command: SensorCommand,
    },
    /// Report a state change to the Super Coordinator.
    ReportState(ConsumerStateId),
    /// Supply a location hint for a sensor.
    LocationHint {
        /// The sensor.
        sensor: SensorId,
        /// Where the consumer believes it is.
        position: Point,
        /// Hint weight (see `LocationService::hint`).
        confidence: f64,
    },
}

/// The capability surface consumers act through.
///
/// # Example
///
/// ```
/// use garnet_core::consumer::{Consumer, ConsumerCtx};
/// use garnet_core::filtering::Delivery;
/// use garnet_wire::StreamIndex;
///
/// /// Re-publishes every payload on derived stream 0 (a multi-level
/// /// consumer in miniature).
/// struct Echo;
/// impl Consumer for Echo {
///     fn name(&self) -> &str { "echo" }
///     fn on_data(&mut self, d: &Delivery, ctx: &mut ConsumerCtx) {
///         ctx.publish_derived(StreamIndex::new(0), d.msg.payload().to_vec());
///     }
/// }
/// ```
#[derive(Debug)]
pub struct ConsumerCtx {
    now: SimTime,
    actions: Vec<ConsumerAction>,
}

impl ConsumerCtx {
    /// Creates a context for one callback invocation (middleware
    /// internal; exposed for testing custom consumers).
    pub fn new(now: SimTime) -> Self {
        ConsumerCtx { now, actions: Vec::new() }
    }

    /// The current middleware time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Publishes a message on the consumer's derived stream `index`.
    pub fn publish_derived(&mut self, index: StreamIndex, payload: Vec<u8>) {
        self.actions.push(ConsumerAction::PublishDerived { index, payload });
    }

    /// Asks the middleware to change sensor behaviour.
    pub fn request_actuation(&mut self, target: ActuationTarget, command: SensorCommand) {
        self.actions.push(ConsumerAction::RequestActuation { target, command });
    }

    /// Reports a state change to the Super Coordinator.
    pub fn report_state(&mut self, state: ConsumerStateId) {
        self.actions.push(ConsumerAction::ReportState(state));
    }

    /// Supplies a location hint.
    pub fn location_hint(&mut self, sensor: SensorId, position: Point, confidence: f64) {
        self.actions.push(ConsumerAction::LocationHint { sensor, position, confidence });
    }

    /// Drains the collected actions (middleware internal).
    pub fn take_actions(&mut self) -> Vec<ConsumerAction> {
        std::mem::take(&mut self.actions)
    }
}

/// A consumer process.
///
/// Implementations should be cheap per message; heavy analysis belongs in
/// derived-stream consumers further up the hierarchy (§4.2's multi-level
/// model).
pub trait Consumer {
    /// Stable display name (used in diagnostics and the service
    /// registry).
    fn name(&self) -> &str;

    /// Called for every delivered message the consumer subscribed to.
    fn on_data(&mut self, delivery: &Delivery, ctx: &mut ConsumerCtx);
}

/// A trivial consumer that counts deliveries — the terminal stage of
/// the facade's unit tests.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct CountingConsumer {
    name: String,
    count: u64,
    last_seen: Option<SimTime>,
}

#[cfg(test)]
impl CountingConsumer {
    /// Creates a counting consumer.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        CountingConsumer { name: name.into(), count: 0, last_seen: None }
    }

    /// Deliveries received.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Time of the most recent delivery.
    pub(crate) fn last_seen(&self) -> Option<SimTime> {
        self.last_seen
    }
}

#[cfg(test)]
impl Consumer for CountingConsumer {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_data(&mut self, delivery: &Delivery, _ctx: &mut ConsumerCtx) {
        self.count += 1;
        self.last_seen = Some(delivery.delivered_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_wire::{DataMessage, StreamId};

    fn delivery() -> Delivery {
        Delivery {
            msg: DataMessage::builder(StreamId::from_raw(0x0100)).build().unwrap(),
            first_received_at: SimTime::from_millis(1),
            delivered_at: SimTime::from_millis(2),
        }
    }

    #[test]
    fn ctx_collects_actions_in_order() {
        let mut ctx = ConsumerCtx::new(SimTime::from_secs(1));
        assert_eq!(ctx.now(), SimTime::from_secs(1));
        ctx.publish_derived(StreamIndex::new(0), vec![1]);
        ctx.report_state(7);
        ctx.request_actuation(
            ActuationTarget::Sensor(SensorId::new(1).unwrap()),
            SensorCommand::Ping,
        );
        ctx.location_hint(SensorId::new(2).unwrap(), Point::new(1.0, 2.0), 0.5);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 4);
        assert!(matches!(actions[0], ConsumerAction::PublishDerived { .. }));
        assert!(matches!(actions[1], ConsumerAction::ReportState(7)));
        assert!(matches!(actions[2], ConsumerAction::RequestActuation { .. }));
        assert!(matches!(actions[3], ConsumerAction::LocationHint { .. }));
        assert!(ctx.take_actions().is_empty(), "drained");
    }

    #[test]
    fn counting_consumer_counts() {
        let mut c = CountingConsumer::new("test");
        assert_eq!(c.name(), "test");
        assert_eq!(c.count(), 0);
        let mut ctx = ConsumerCtx::new(SimTime::ZERO);
        c.on_data(&delivery(), &mut ctx);
        c.on_data(&delivery(), &mut ctx);
        assert_eq!(c.count(), 2);
        assert_eq!(c.last_seen(), Some(SimTime::from_millis(2)));
        assert!(ctx.take_actions().is_empty());
    }
}
