//! The simulated sensor/actuator node.
//!
//! "A minimum level of sensor intelligence was assumed to allow for a
//! richer model to be developed, where both simple and sophisticated
//! sensors could coexist" (§5). A [`SensorNode`] is configured with
//! [`SensorCaps`] spanning that spectrum: a *simple* node is
//! transmit-only and ignores every control message; a *sophisticated*
//! node is receive-capable, applies [`SensorCommand`]s, piggy-backs
//! acknowledgements on its next data message (the `UPDATE_ACK` header
//! field of §4.3) and may be location-aware.
//!
//! The node is a pure state machine driven by the harness:
//! [`SensorNode::next_due`] says when it next wants to transmit,
//! [`SensorNode::poll`] produces the due transmissions, and
//! [`SensorNode::handle_request`] applies a received control message.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use bytes::Bytes;
use garnet_simkit::{SimDuration, SimTime};
use garnet_wire::crypto::PayloadKey;
use garnet_wire::{
    AckStatus, DataMessage, HeaderFlags, RequestId, SensorCommand, SensorId, SequenceNumber,
    StreamId, StreamIndex, StreamUpdateRequest,
};

use crate::energy::{EnergyMeter, EnergyModel};
use crate::field::ScalarField;
use crate::geometry::Point;
use crate::mobility::Mobility;
use crate::reading::Reading;

/// Capability profile of a node; the heterogeneity axis of §5/§6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SensorCaps {
    /// Can the node receive control messages at all?
    pub receive_capable: bool,
    /// Does the node know its own position (and stamp it into readings)?
    pub location_aware: bool,
    /// Does the node implement duty-cycle and sleep commands?
    pub supports_power_mgmt: bool,
    /// Does the node implement per-stream payload encryption?
    pub supports_encryption: bool,
    /// Does the node re-broadcast overheard peer frames (§8 multi-hop:
    /// one relay hop, tagged `RELAYED | MULTI_HOP` in the header)?
    pub relay_capable: bool,
}

impl SensorCaps {
    /// A transmit-only "dumb" sensor: broadcasts readings, hears nothing.
    pub const fn simple() -> SensorCaps {
        SensorCaps {
            receive_capable: false,
            location_aware: false,
            supports_power_mgmt: false,
            supports_encryption: false,
            relay_capable: false,
        }
    }

    /// A fully featured send-receive node.
    pub const fn sophisticated() -> SensorCaps {
        SensorCaps {
            receive_capable: true,
            location_aware: true,
            supports_power_mgmt: true,
            supports_encryption: true,
            relay_capable: false,
        }
    }

    /// A relay node: sophisticated, plus re-broadcasting of overheard
    /// peer frames toward the fixed network.
    pub const fn relay() -> SensorCaps {
        SensorCaps {
            receive_capable: true,
            location_aware: false,
            supports_power_mgmt: true,
            supports_encryption: false,
            relay_capable: true,
        }
    }
}

/// Configuration of one internal stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamConfig {
    /// Reporting interval.
    pub interval: SimDuration,
    /// Whether the stream currently publishes.
    pub enabled: bool,
    /// Whether payloads are sealed with the stream key.
    pub encrypted: bool,
}

impl StreamConfig {
    /// An enabled plaintext stream with the given interval.
    pub fn every(interval: SimDuration) -> StreamConfig {
        StreamConfig { interval, enabled: true, encrypted: false }
    }
}

#[derive(Clone, Debug)]
struct StreamState {
    config: StreamConfig,
    next_due: SimTime,
    seq: SequenceNumber,
    key: Option<PayloadKey>,
}

/// A frame leaving a sensor's radio.
#[derive(Clone, Debug, PartialEq)]
pub struct Transmission {
    /// The transmitting node.
    pub sensor: SensorId,
    /// Where the radio was when it transmitted.
    pub origin: Point,
    /// When it transmitted.
    pub at: SimTime,
    /// The encoded data message.
    pub frame: Bytes,
}

/// One simulated sensor/actuator node.
#[derive(Clone, Debug)]
pub struct SensorNode {
    id: SensorId,
    caps: SensorCaps,
    mobility: Mobility,
    streams: BTreeMap<u8, StreamState>,
    duty_permille: u16,
    asleep_until: SimTime,
    meter: EnergyMeter,
    energy_model: EnergyModel,
    pending_acks: VecDeque<RequestId>,
}

impl SensorNode {
    /// Creates a stationary, simple node with no streams; configure with
    /// the `with_*` methods.
    pub fn new(id: SensorId, position: Point) -> SensorNode {
        SensorNode {
            id,
            caps: SensorCaps::simple(),
            mobility: Mobility::Stationary(position),
            streams: BTreeMap::new(),
            duty_permille: 1000,
            asleep_until: SimTime::ZERO,
            meter: EnergyMeter::unlimited(),
            energy_model: EnergyModel::microsensor(),
            pending_acks: VecDeque::new(),
        }
    }

    /// Sets the capability profile.
    #[must_use]
    pub fn with_caps(mut self, caps: SensorCaps) -> SensorNode {
        self.caps = caps;
        self
    }

    /// Sets the mobility model.
    #[must_use]
    pub fn with_mobility(mut self, mobility: Mobility) -> SensorNode {
        self.mobility = mobility;
        self
    }

    /// Adds (or replaces) an internal stream.
    #[must_use]
    pub fn with_stream(mut self, index: StreamIndex, config: StreamConfig) -> SensorNode {
        self.streams.insert(
            index.as_u8(),
            StreamState { config, next_due: SimTime::ZERO, seq: SequenceNumber::ZERO, key: None },
        );
        self
    }

    /// Provisions an encryption key for one stream (done out-of-band at
    /// deployment; the consumer side holds the same key).
    #[must_use]
    pub fn with_stream_key(mut self, index: StreamIndex, key: PayloadKey) -> SensorNode {
        if let Some(s) = self.streams.get_mut(&index.as_u8()) {
            s.key = Some(key);
        }
        self
    }

    /// Sets a finite energy budget.
    #[must_use]
    pub fn with_energy_budget_nj(mut self, budget: u64) -> SensorNode {
        self.meter = EnergyMeter::with_budget_nj(budget);
        self
    }

    /// The node's identity.
    pub fn id(&self) -> SensorId {
        self.id
    }

    /// The capability profile.
    pub fn caps(&self) -> SensorCaps {
        self.caps
    }

    /// The node's position at `t`.
    pub fn position(&self, t: SimTime) -> Point {
        self.mobility.position(t)
    }

    /// The energy ledger.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Total energy consumed (nJ).
    pub fn energy_consumed_nj(&self) -> u64 {
        self.meter.consumed_nj()
    }

    /// The earliest instant at which the node wants to transmit, or
    /// `None` if it never will (all streams disabled, or battery dead).
    pub fn next_due(&self) -> Option<SimTime> {
        if self.meter.is_exhausted() || self.duty_permille == 0 {
            return None;
        }
        self.streams
            .values()
            .filter(|s| s.config.enabled)
            .map(|s| s.next_due.max(self.asleep_until))
            .min()
    }

    /// Produces every transmission due at or before `now`, sampling
    /// `field` at the node's position. Streams catch up at most one
    /// message per poll interval — a sensor that slept does not burst
    /// its backlog (it sensed nothing while asleep).
    pub fn poll(&mut self, now: SimTime, field: &dyn ScalarField) -> Vec<Transmission> {
        if self.meter.is_exhausted() || now < self.asleep_until || self.duty_permille == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let position = self.mobility.position(now);
        let caps = self.caps;
        let duty = self.duty_permille;
        for (&idx, state) in self.streams.iter_mut() {
            if !state.config.enabled || state.next_due > now {
                continue;
            }
            // Sense and build the payload.
            let value = field.sample(position, now);
            let reading = if caps.location_aware {
                Reading::located(value, now, position)
            } else {
                Reading::new(value, now)
            };
            let mut payload = reading.encode();
            let stream_id = StreamId::new(self.id, StreamIndex::new(idx));
            let mut builder = DataMessage::builder(stream_id).seq(state.seq);
            if state.config.encrypted {
                if let Some(key) = &state.key {
                    payload = key.seal(stream_id, state.seq, &payload);
                    builder = builder.flag(HeaderFlags::ENCRYPTED);
                }
            }
            builder = builder.payload(payload);
            if let Some(ack) = self.pending_acks.pop_front() {
                builder = builder.ack(ack);
            }
            let msg = builder.build().expect("payload within limits by construction");
            let frame = Bytes::from(msg.encode_to_vec());
            self.meter.debit_tx(&self.energy_model, frame.len());
            out.push(Transmission { sensor: self.id, origin: position, at: now, frame });
            state.seq = state.seq.next();
            // Schedule the next report strictly after `now` (no bursts).
            let interval = {
                let c = &state.config;
                if duty >= 1000 {
                    c.interval
                } else {
                    SimDuration::from_micros(
                        (c.interval.as_micros() as u128 * 1000 / duty.max(1) as u128)
                            .min(u64::MAX as u128) as u64,
                    )
                }
            };
            state.next_due = now.saturating_add(interval);
            if self.meter.is_exhausted() {
                break;
            }
        }
        out
    }

    /// Delivers a control message to the node's radio. Returns the
    /// acknowledgement status the node will piggy-back, or `None` if the
    /// node is not receive-capable (it never even decodes the frame) or
    /// the request targets a different sensor.
    pub fn handle_request(&mut self, req: &StreamUpdateRequest, now: SimTime) -> Option<AckStatus> {
        if !self.caps.receive_capable || self.meter.is_exhausted() {
            return None;
        }
        // Area targets were resolved by the medium (we were in the area);
        // identity targets must match us.
        match req.target {
            garnet_wire::ActuationTarget::Sensor(id) if id != self.id => return None,
            garnet_wire::ActuationTarget::Stream(s) if s.sensor() != self.id => return None,
            _ => {}
        }
        self.meter.debit_rx(&self.energy_model, req.encoded_len());
        let status = self.apply_command(&req.command, now);
        self.pending_acks.push_back(req.request_id);
        Some(status)
    }

    fn apply_command(&mut self, command: &SensorCommand, now: SimTime) -> AckStatus {
        match *command {
            SensorCommand::SetReportInterval { stream, interval_ms } => {
                if interval_ms == 0 {
                    return AckStatus::ConstraintViolation;
                }
                match self.streams.get_mut(&stream.as_u8()) {
                    Some(s) => {
                        s.config.interval = SimDuration::from_millis(u64::from(interval_ms));
                        // Re-anchor the schedule at the new cadence.
                        s.next_due = now.saturating_add(s.config.interval);
                        AckStatus::Applied
                    }
                    None => AckStatus::Unsupported,
                }
            }
            SensorCommand::EnableStream { stream } => match self.streams.get_mut(&stream.as_u8()) {
                Some(s) => {
                    if !s.config.enabled {
                        s.config.enabled = true;
                        s.next_due = now;
                    }
                    AckStatus::Applied
                }
                None => AckStatus::Unsupported,
            },
            SensorCommand::DisableStream { stream } => {
                match self.streams.get_mut(&stream.as_u8()) {
                    Some(s) => {
                        s.config.enabled = false;
                        AckStatus::Applied
                    }
                    None => AckStatus::Unsupported,
                }
            }
            SensorCommand::SetDutyCycle { permille } => {
                if !self.caps.supports_power_mgmt {
                    return AckStatus::Unsupported;
                }
                if permille > 1000 {
                    return AckStatus::ConstraintViolation;
                }
                self.duty_permille = permille;
                AckStatus::Applied
            }
            SensorCommand::Sleep { duration_ms } => {
                if !self.caps.supports_power_mgmt {
                    return AckStatus::Unsupported;
                }
                self.asleep_until =
                    now.saturating_add(SimDuration::from_millis(u64::from(duration_ms)));
                // Nothing was sensed while asleep; push schedules past the nap.
                for s in self.streams.values_mut() {
                    s.next_due = s.next_due.max(self.asleep_until);
                }
                AckStatus::Deferred
            }
            SensorCommand::Ping => AckStatus::Applied,
            SensorCommand::SetEncryption { stream, enabled } => {
                if !self.caps.supports_encryption {
                    return AckStatus::Unsupported;
                }
                match self.streams.get_mut(&stream.as_u8()) {
                    Some(s) if s.key.is_some() || !enabled => {
                        s.config.encrypted = enabled;
                        AckStatus::Applied
                    }
                    Some(_) => AckStatus::ConstraintViolation, // no key provisioned
                    None => AckStatus::Unsupported,
                }
            }
            // `SensorCommand` is non-exhaustive: future commands arrive
            // here and a simple device reports them unsupported.
            _ => AckStatus::Unsupported,
        }
    }

    /// Offers an overheard peer frame to the node for relaying.
    ///
    /// Returns the relayed transmission if the node is relay-capable,
    /// awake, within budget, the frame decodes, originates from another
    /// sensor, and has not been relayed before (single-hop relaying —
    /// the paper's §8 "initial support"). The relayed copy carries the
    /// `RELAYED | MULTI_HOP` header tags so fixed-network services can
    /// make "intelligent processing decisions".
    pub fn maybe_relay(&mut self, frame: &[u8], now: SimTime) -> Option<Transmission> {
        if !self.caps.relay_capable
            || self.meter.is_exhausted()
            || now < self.asleep_until
            || self.duty_permille == 0
        {
            return None;
        }
        let (msg, _) = DataMessage::decode(frame).ok()?;
        if msg.stream().sensor() == self.id || msg.header().has(HeaderFlags::RELAYED) {
            return None;
        }
        self.meter.debit_rx(&self.energy_model, frame.len());
        let relayed = msg.relayed_copy();
        let out = Bytes::from(relayed.encode_to_vec());
        self.meter.debit_tx(&self.energy_model, out.len());
        Some(Transmission {
            sensor: self.id,
            origin: self.mobility.position(now),
            at: now,
            frame: out,
        })
    }

    /// Current reporting interval of a stream, if it exists (test hook).
    #[cfg(test)]
    pub(crate) fn stream_config(&self, index: StreamIndex) -> Option<&StreamConfig> {
        self.streams.get(&index.as_u8()).map(|s| &s.config)
    }

    /// Number of acknowledgements waiting to piggy-back.
    #[cfg(test)]
    pub(crate) fn pending_ack_count(&self) -> usize {
        self.pending_acks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Uniform;
    use garnet_wire::ActuationTarget;

    fn node() -> SensorNode {
        SensorNode::new(SensorId::new(42).unwrap(), Point::new(1.0, 2.0))
            .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(1)))
    }

    fn request(command: SensorCommand) -> StreamUpdateRequest {
        StreamUpdateRequest {
            request_id: RequestId::new(7),
            target: ActuationTarget::Sensor(SensorId::new(42).unwrap()),
            command,
            issued_at_us: 0,
            priority: 0,
        }
    }

    #[test]
    fn poll_produces_decodable_messages_with_increasing_seq() {
        let mut n = node();
        let field = Uniform(21.5);
        let mut seqs = Vec::new();
        for sec in 0..5u64 {
            let t = SimTime::from_secs(sec);
            for tx in n.poll(t, &field) {
                let (msg, _) = DataMessage::decode(&tx.frame).unwrap();
                assert_eq!(msg.stream().sensor().as_u32(), 42);
                let reading = Reading::decode(msg.payload()).unwrap();
                assert_eq!(reading.value, 21.5);
                seqs.push(msg.seq().as_u16());
            }
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn next_due_tracks_interval() {
        let mut n = node();
        assert_eq!(n.next_due(), Some(SimTime::ZERO));
        n.poll(SimTime::ZERO, &Uniform(0.0));
        assert_eq!(n.next_due(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn disabled_stream_never_due() {
        let mut n = SensorNode::new(SensorId::new(1).unwrap(), Point::ORIGIN).with_stream(
            StreamIndex::new(0),
            StreamConfig { interval: SimDuration::from_secs(1), enabled: false, encrypted: false },
        );
        assert_eq!(n.next_due(), None);
        assert!(n.poll(SimTime::from_secs(10), &Uniform(0.0)).is_empty());
    }

    #[test]
    fn simple_sensor_ignores_requests() {
        let mut n = node(); // simple caps by default
        let r = request(SensorCommand::Ping);
        assert_eq!(n.handle_request(&r, SimTime::ZERO), None);
        assert_eq!(n.pending_ack_count(), 0);
    }

    #[test]
    fn sophisticated_sensor_acks_and_piggybacks() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        let r = request(SensorCommand::Ping);
        assert_eq!(n.handle_request(&r, SimTime::ZERO), Some(AckStatus::Applied));
        assert_eq!(n.pending_ack_count(), 1);
        let txs = n.poll(SimTime::ZERO, &Uniform(0.0));
        let (msg, _) = DataMessage::decode(&txs[0].frame).unwrap();
        assert_eq!(msg.ack(), Some(RequestId::new(7)));
        assert!(msg.header().has(HeaderFlags::UPDATE_ACK));
        assert_eq!(n.pending_ack_count(), 0);
    }

    #[test]
    fn request_for_other_sensor_ignored() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        let mut r = request(SensorCommand::Ping);
        r.target = ActuationTarget::Sensor(SensorId::new(99).unwrap());
        assert_eq!(n.handle_request(&r, SimTime::ZERO), None);
    }

    #[test]
    fn set_interval_reschedules() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        n.poll(SimTime::ZERO, &Uniform(0.0));
        let r = request(SensorCommand::SetReportInterval {
            stream: StreamIndex::new(0),
            interval_ms: 100,
        });
        assert_eq!(n.handle_request(&r, SimTime::from_millis(1)), Some(AckStatus::Applied));
        assert_eq!(
            n.stream_config(StreamIndex::new(0)).unwrap().interval,
            SimDuration::from_millis(100)
        );
        assert_eq!(n.next_due(), Some(SimTime::from_millis(101)));
    }

    #[test]
    fn zero_interval_rejected_as_constraint_violation() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        let r = request(SensorCommand::SetReportInterval {
            stream: StreamIndex::new(0),
            interval_ms: 0,
        });
        assert_eq!(n.handle_request(&r, SimTime::ZERO), Some(AckStatus::ConstraintViolation));
    }

    #[test]
    fn unknown_stream_unsupported() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        let r = request(SensorCommand::EnableStream { stream: StreamIndex::new(200) });
        assert_eq!(n.handle_request(&r, SimTime::ZERO), Some(AckStatus::Unsupported));
    }

    #[test]
    fn disable_then_enable_stream() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        n.handle_request(
            &request(SensorCommand::DisableStream { stream: StreamIndex::new(0) }),
            SimTime::ZERO,
        );
        assert!(n.poll(SimTime::from_secs(5), &Uniform(0.0)).is_empty());
        n.handle_request(
            &request(SensorCommand::EnableStream { stream: StreamIndex::new(0) }),
            SimTime::from_secs(6),
        );
        let txs = n.poll(SimTime::from_secs(6), &Uniform(0.0));
        // One data message; it may carry piggy-backed acks from the two requests.
        assert_eq!(txs.len(), 1);
    }

    #[test]
    fn duty_cycle_stretches_interval() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        n.handle_request(&request(SensorCommand::SetDutyCycle { permille: 500 }), SimTime::ZERO);
        n.poll(SimTime::ZERO, &Uniform(0.0));
        // 1s base interval at 50% duty → next report in 2s.
        assert_eq!(n.next_due(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn duty_cycle_zero_silences_node() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        n.handle_request(&request(SensorCommand::SetDutyCycle { permille: 0 }), SimTime::ZERO);
        assert_eq!(n.next_due(), None);
    }

    #[test]
    fn duty_cycle_over_1000_rejected() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        let st = n.handle_request(
            &request(SensorCommand::SetDutyCycle { permille: 1001 }),
            SimTime::ZERO,
        );
        assert_eq!(st, Some(AckStatus::ConstraintViolation));
    }

    #[test]
    fn power_mgmt_unsupported_on_limited_node() {
        let caps = SensorCaps {
            receive_capable: true,
            location_aware: false,
            supports_power_mgmt: false,
            supports_encryption: false,
            relay_capable: false,
        };
        let mut n = node().with_caps(caps);
        let st = n
            .handle_request(&request(SensorCommand::SetDutyCycle { permille: 100 }), SimTime::ZERO);
        assert_eq!(st, Some(AckStatus::Unsupported));
    }

    #[test]
    fn sleep_defers_and_suppresses_reports() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        let st =
            n.handle_request(&request(SensorCommand::Sleep { duration_ms: 5_000 }), SimTime::ZERO);
        assert_eq!(st, Some(AckStatus::Deferred));
        assert!(n.poll(SimTime::from_secs(3), &Uniform(0.0)).is_empty());
        assert_eq!(n.next_due(), Some(SimTime::from_secs(5)));
        assert!(!n.poll(SimTime::from_secs(5), &Uniform(0.0)).is_empty());
    }

    #[test]
    fn encryption_round_trip_through_poll() {
        let key = PayloadKey::from_bytes([9u8; 16]);
        let mut n =
            node().with_caps(SensorCaps::sophisticated()).with_stream_key(StreamIndex::new(0), key);
        n.handle_request(
            &request(SensorCommand::SetEncryption { stream: StreamIndex::new(0), enabled: true }),
            SimTime::ZERO,
        );
        let txs = n.poll(SimTime::ZERO, &Uniform(7.5));
        let (msg, _) = DataMessage::decode(&txs[0].frame).unwrap();
        assert!(msg.header().has(HeaderFlags::ENCRYPTED));
        // Opaque to anyone without the key…
        assert!(Reading::decode(msg.payload()).is_none());
        // …but the keyed consumer recovers the reading.
        let plain = key.open(msg.stream(), msg.seq(), msg.payload()).unwrap();
        assert_eq!(Reading::decode(&plain).unwrap().value, 7.5);
    }

    #[test]
    fn encryption_without_key_is_constraint_violation() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        let st = n.handle_request(
            &request(SensorCommand::SetEncryption { stream: StreamIndex::new(0), enabled: true }),
            SimTime::ZERO,
        );
        assert_eq!(st, Some(AckStatus::ConstraintViolation));
    }

    #[test]
    fn location_aware_sensor_stamps_position() {
        let mut n = node().with_caps(SensorCaps::sophisticated());
        let txs = n.poll(SimTime::ZERO, &Uniform(0.0));
        let (msg, _) = DataMessage::decode(&txs[0].frame).unwrap();
        let r = Reading::decode(msg.payload()).unwrap();
        assert_eq!(r.position, Some(Point::new(1.0, 2.0)));
    }

    #[test]
    fn energy_budget_silences_exhausted_node() {
        let model = EnergyModel::microsensor();
        let one = model.tx_cost_nj(27); // 9 hdr + 16 reading + 2 crc
        let mut n = node().with_energy_budget_nj(one * 2);
        assert_eq!(n.poll(SimTime::from_secs(0), &Uniform(0.0)).len(), 1);
        assert_eq!(n.poll(SimTime::from_secs(1), &Uniform(0.0)).len(), 1);
        assert_eq!(n.poll(SimTime::from_secs(2), &Uniform(0.0)).len(), 0);
        assert_eq!(n.next_due(), None);
        assert!(n.energy_consumed_nj() >= one * 2);
    }

    #[test]
    fn no_burst_after_gap() {
        // A node polled after a long gap emits one message per stream,
        // not a backlog.
        let mut n = node();
        let txs = n.poll(SimTime::from_secs(100), &Uniform(0.0));
        assert_eq!(txs.len(), 1);
        assert_eq!(n.next_due(), Some(SimTime::from_secs(101)));
    }

    #[test]
    fn relay_rebroadcasts_peer_frames_with_tags() {
        let mut relay = SensorNode::new(SensorId::new(99).unwrap(), Point::new(5.0, 5.0))
            .with_caps(SensorCaps::relay());
        // A frame from another sensor.
        let peer_stream = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
        let frame = DataMessage::builder(peer_stream)
            .seq(SequenceNumber::new(4))
            .payload(vec![1, 2])
            .build()
            .unwrap()
            .encode_to_vec();
        let tx = relay.maybe_relay(&frame, SimTime::from_secs(1)).expect("relays peer frame");
        assert_eq!(tx.sensor.as_u32(), 99, "relay transmits under its own radio");
        assert_eq!(tx.origin, Point::new(5.0, 5.0));
        let (msg, _) = DataMessage::decode(&tx.frame).unwrap();
        assert_eq!(msg.stream(), peer_stream, "stream identity preserved");
        assert_eq!(msg.seq().as_u16(), 4);
        assert!(msg.header().has(HeaderFlags::RELAYED));
        assert!(msg.header().has(HeaderFlags::MULTI_HOP));
        assert!(relay.energy_consumed_nj() > 0, "relaying costs rx + tx energy");
    }

    #[test]
    fn relay_refuses_own_relayed_and_garbage_frames() {
        let mut relay = SensorNode::new(SensorId::new(99).unwrap(), Point::ORIGIN)
            .with_caps(SensorCaps::relay());
        // Its own frame: no echo.
        let own =
            DataMessage::builder(StreamId::new(SensorId::new(99).unwrap(), StreamIndex::new(0)))
                .build()
                .unwrap()
                .encode_to_vec();
        assert!(relay.maybe_relay(&own, SimTime::ZERO).is_none());
        // An already-relayed frame: single-hop only.
        let peer =
            DataMessage::builder(StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0)))
                .build()
                .unwrap();
        let relayed_once = peer.relayed_copy().encode_to_vec();
        assert!(relay.maybe_relay(&relayed_once, SimTime::ZERO).is_none());
        // Garbage bytes: ignored.
        assert!(relay.maybe_relay(&[0u8; 5], SimTime::ZERO).is_none());
        // Non-relay node: ignores everything.
        let mut plain = SensorNode::new(SensorId::new(98).unwrap(), Point::ORIGIN)
            .with_caps(SensorCaps::sophisticated());
        let fresh = peer.encode_to_vec();
        assert!(plain.maybe_relay(&fresh, SimTime::ZERO).is_none());
    }

    #[test]
    fn exhausted_or_sleeping_relay_stays_silent() {
        let peer_frame =
            DataMessage::builder(StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0)))
                .build()
                .unwrap()
                .encode_to_vec();
        let mut broke = SensorNode::new(SensorId::new(99).unwrap(), Point::ORIGIN)
            .with_caps(SensorCaps::relay())
            .with_energy_budget_nj(1);
        // Exhaust it.
        let _ = broke.maybe_relay(&peer_frame, SimTime::ZERO);
        assert!(broke.maybe_relay(&peer_frame, SimTime::ZERO).is_none());

        let mut asleep = SensorNode::new(SensorId::new(97).unwrap(), Point::ORIGIN)
            .with_caps(SensorCaps::relay());
        asleep.handle_request(
            &StreamUpdateRequest {
                request_id: RequestId::new(1),
                target: garnet_wire::ActuationTarget::Sensor(SensorId::new(97).unwrap()),
                command: SensorCommand::Sleep { duration_ms: 10_000 },
                issued_at_us: 0,
                priority: 0,
            },
            SimTime::ZERO,
        );
        assert!(asleep.maybe_relay(&peer_frame, SimTime::from_secs(5)).is_none());
        assert!(asleep.maybe_relay(&peer_frame, SimTime::from_secs(11)).is_some());
    }

    #[test]
    fn multiple_streams_fire_independently() {
        let mut n = SensorNode::new(SensorId::new(5).unwrap(), Point::ORIGIN)
            .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(1)))
            .with_stream(StreamIndex::new(1), StreamConfig::every(SimDuration::from_secs(3)));
        let t0 = n.poll(SimTime::ZERO, &Uniform(0.0));
        assert_eq!(t0.len(), 2);
        let t1 = n.poll(SimTime::from_secs(1), &Uniform(0.0));
        assert_eq!(t1.len(), 1); // only stream 0 due
        let (msg, _) = DataMessage::decode(&t1[0].frame).unwrap();
        assert_eq!(msg.stream().index().as_u8(), 0);
    }
}
