//! Control-plane messages: stream update requests and acknowledgements.
//!
//! "Consumer processes send messages along a return actuation path made
//! available for control messages to be routed to the target sensor in
//! the wireless network" (§4.1). The Actuation Service stamps requests
//! with timestamps and checksums (§4.2) before the Message Replicator
//! broadcasts them through the transmitters covering the target's
//! expected location area.
//!
//! Control messages are rarer than data messages but change sensor
//! behaviour, so they carry a CRC-32 trailer (vs CRC-16 on data).

use core::fmt;

use crate::crc::crc32;
use crate::error::WireError;
use crate::ids::{RequestId, SensorId, StreamId, StreamIndex};

/// A circular geographic target area, in the fixed network's shared
/// coordinate frame (metres).
///
/// Used when the Location Service can only bound a sensor's position:
/// the Message Replicator broadcasts through every transmitter covering
/// the disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TargetArea {
    /// Centre x-coordinate (m).
    pub x: f32,
    /// Centre y-coordinate (m).
    pub y: f32,
    /// Radius (m).
    pub radius: f32,
}

impl TargetArea {
    /// Creates an area; the radius is clamped to be non-negative.
    pub fn new(x: f32, y: f32, radius: f32) -> Self {
        TargetArea { x, y, radius: radius.max(0.0) }
    }
}

/// Where a stream-update request should be delivered.
///
/// Addressing is *location-neutral* for the consumer (§4.2): consumers
/// name sensors or streams; the middleware resolves position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ActuationTarget {
    /// One sensor node (all its streams).
    Sensor(SensorId),
    /// One specific stream of one sensor.
    Stream(StreamId),
    /// Every receive-capable sensor inside an area — used when identity
    /// is unknown or for field-wide reconfiguration.
    Area(TargetArea),
}

/// Commands a consumer may ask a sensor to apply.
///
/// The set mirrors the behaviours the paper's middleware mediates:
/// reporting rate, stream enable/disable, duty cycling and end-to-end
/// payload encryption. Unknown commands received by a simple sensor are
/// acknowledged with [`AckStatus::Unsupported`] — "simple and
/// sophisticated sensors coexist" (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SensorCommand {
    /// Set the reporting interval of one internal stream, in
    /// milliseconds.
    SetReportInterval {
        /// Which internal stream.
        stream: StreamIndex,
        /// New interval between reports (ms); must be non-zero.
        interval_ms: u32,
    },
    /// Begin publishing an internal stream.
    EnableStream {
        /// Which internal stream.
        stream: StreamIndex,
    },
    /// Stop publishing an internal stream.
    DisableStream {
        /// Which internal stream.
        stream: StreamIndex,
    },
    /// Set the radio duty cycle in permille (0–1000).
    SetDutyCycle {
        /// Active fraction, permille.
        permille: u16,
    },
    /// Sleep (radio and sensing off) for a period, then resume.
    Sleep {
        /// Sleep length (ms).
        duration_ms: u32,
    },
    /// No-op that solicits an acknowledgement (liveness probe).
    Ping,
    /// Enable or disable end-to-end payload encryption on a stream.
    SetEncryption {
        /// Which internal stream.
        stream: StreamIndex,
        /// Whether payloads should be encrypted.
        enabled: bool,
    },
}

impl SensorCommand {
    const TAG_SET_REPORT_INTERVAL: u8 = 0;
    const TAG_ENABLE: u8 = 1;
    const TAG_DISABLE: u8 = 2;
    const TAG_DUTY_CYCLE: u8 = 3;
    const TAG_SLEEP: u8 = 4;
    const TAG_PING: u8 = 5;
    const TAG_ENCRYPTION: u8 = 6;

    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            SensorCommand::SetReportInterval { stream, interval_ms } => {
                out.push(Self::TAG_SET_REPORT_INTERVAL);
                out.push(stream.as_u8());
                out.extend_from_slice(&interval_ms.to_be_bytes());
            }
            SensorCommand::EnableStream { stream } => {
                out.push(Self::TAG_ENABLE);
                out.push(stream.as_u8());
            }
            SensorCommand::DisableStream { stream } => {
                out.push(Self::TAG_DISABLE);
                out.push(stream.as_u8());
            }
            SensorCommand::SetDutyCycle { permille } => {
                out.push(Self::TAG_DUTY_CYCLE);
                out.extend_from_slice(&permille.to_be_bytes());
            }
            SensorCommand::Sleep { duration_ms } => {
                out.push(Self::TAG_SLEEP);
                out.extend_from_slice(&duration_ms.to_be_bytes());
            }
            SensorCommand::Ping => out.push(Self::TAG_PING),
            SensorCommand::SetEncryption { stream, enabled } => {
                out.push(Self::TAG_ENCRYPTION);
                out.push(stream.as_u8());
                out.push(u8::from(enabled));
            }
        }
    }

    fn decode(input: &[u8]) -> Result<(SensorCommand, usize), WireError> {
        let need = |n: usize| -> Result<(), WireError> {
            if input.len() < n {
                Err(WireError::Truncated { needed: n, have: input.len() })
            } else {
                Ok(())
            }
        };
        need(1)?;
        match input[0] {
            Self::TAG_SET_REPORT_INTERVAL => {
                need(6)?;
                Ok((
                    SensorCommand::SetReportInterval {
                        stream: StreamIndex::new(input[1]),
                        interval_ms: u32::from_be_bytes([input[2], input[3], input[4], input[5]]),
                    },
                    6,
                ))
            }
            Self::TAG_ENABLE => {
                need(2)?;
                Ok((SensorCommand::EnableStream { stream: StreamIndex::new(input[1]) }, 2))
            }
            Self::TAG_DISABLE => {
                need(2)?;
                Ok((SensorCommand::DisableStream { stream: StreamIndex::new(input[1]) }, 2))
            }
            Self::TAG_DUTY_CYCLE => {
                need(3)?;
                Ok((
                    SensorCommand::SetDutyCycle {
                        permille: u16::from_be_bytes([input[1], input[2]]),
                    },
                    3,
                ))
            }
            Self::TAG_SLEEP => {
                need(5)?;
                Ok((
                    SensorCommand::Sleep {
                        duration_ms: u32::from_be_bytes([input[1], input[2], input[3], input[4]]),
                    },
                    5,
                ))
            }
            Self::TAG_PING => Ok((SensorCommand::Ping, 1)),
            Self::TAG_ENCRYPTION => {
                need(3)?;
                Ok((
                    SensorCommand::SetEncryption {
                        stream: StreamIndex::new(input[1]),
                        enabled: input[2] != 0,
                    },
                    3,
                ))
            }
            other => Err(WireError::UnknownCommand(other)),
        }
    }
}

impl fmt::Display for SensorCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensorCommand::SetReportInterval { stream, interval_ms } => {
                write!(f, "set-interval(stream {stream}, {interval_ms}ms)")
            }
            SensorCommand::EnableStream { stream } => write!(f, "enable(stream {stream})"),
            SensorCommand::DisableStream { stream } => write!(f, "disable(stream {stream})"),
            SensorCommand::SetDutyCycle { permille } => write!(f, "duty-cycle({permille}‰)"),
            SensorCommand::Sleep { duration_ms } => write!(f, "sleep({duration_ms}ms)"),
            SensorCommand::Ping => write!(f, "ping"),
            SensorCommand::SetEncryption { stream, enabled } => {
                write!(f, "encryption(stream {stream}, {enabled})")
            }
        }
    }
}

/// A stream update request: the unit of actuation flowing from consumers
/// through Resource Manager → Actuation Service → Message Replicator →
/// Transmitters → sensor.
///
/// # Example
///
/// ```
/// use garnet_wire::{ActuationTarget, SensorCommand, SensorId, StreamIndex,
///                   StreamUpdateRequest, RequestId};
///
/// # fn main() -> Result<(), garnet_wire::WireError> {
/// let req = StreamUpdateRequest {
///     request_id: RequestId::new(9),
///     target: ActuationTarget::Sensor(SensorId::new(4)?),
///     command: SensorCommand::SetReportInterval {
///         stream: StreamIndex::new(0),
///         interval_ms: 500,
///     },
///     issued_at_us: 1_000_000,
///     priority: 3,
/// };
/// let bytes = req.encode_to_vec();
/// let (back, _) = StreamUpdateRequest::decode(&bytes)?;
/// assert_eq!(back, req);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamUpdateRequest {
    /// Identifier used to correlate sensor acknowledgements; "loosely
    /// comparable to a RETRI" (§7).
    pub request_id: RequestId,
    /// Where the command should land.
    pub target: ActuationTarget,
    /// What the sensor should do.
    pub command: SensorCommand,
    /// Timestamp applied by the Actuation Service (µs of middleware
    /// time); sensors ignore stale requests superseded by newer ones.
    pub issued_at_us: u64,
    /// Consumer priority as granted by the Resource Manager (0 = lowest).
    pub priority: u8,
}

const REQUEST_TYPE: u8 = 0x01;
const ACK_TYPE: u8 = 0x02;

const TARGET_SENSOR: u8 = 0;
const TARGET_STREAM: u8 = 1;
const TARGET_AREA: u8 = 2;

impl StreamUpdateRequest {
    /// Encodes into a fresh byte vector with a CRC-32 trailer.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.push(REQUEST_TYPE);
        out.extend_from_slice(&self.request_id.as_u32().to_be_bytes());
        out.extend_from_slice(&self.issued_at_us.to_be_bytes());
        out.push(self.priority);
        match self.target {
            ActuationTarget::Sensor(id) => {
                out.push(TARGET_SENSOR);
                out.extend_from_slice(&id.as_u32().to_be_bytes());
            }
            ActuationTarget::Stream(id) => {
                out.push(TARGET_STREAM);
                out.extend_from_slice(&id.to_raw().to_be_bytes());
            }
            ActuationTarget::Area(a) => {
                out.push(TARGET_AREA);
                out.extend_from_slice(&a.x.to_be_bytes());
                out.extend_from_slice(&a.y.to_be_bytes());
                out.extend_from_slice(&a.radius.to_be_bytes());
            }
        }
        self.command.encode(&mut out);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Decodes a request, returning it and the bytes consumed.
    ///
    /// # Errors
    ///
    /// Truncation, unknown discriminants, or a CRC-32 mismatch.
    pub fn decode(input: &[u8]) -> Result<(StreamUpdateRequest, usize), WireError> {
        let need = |n: usize| -> Result<(), WireError> {
            if input.len() < n {
                Err(WireError::Truncated { needed: n, have: input.len() })
            } else {
                Ok(())
            }
        };
        need(15)?;
        if input[0] != REQUEST_TYPE {
            return Err(WireError::UnknownCommand(input[0]));
        }
        let request_id =
            RequestId::new(u32::from_be_bytes([input[1], input[2], input[3], input[4]]));
        let issued_at_us = u64::from_be_bytes([
            input[5], input[6], input[7], input[8], input[9], input[10], input[11], input[12],
        ]);
        let priority = input[13];
        let mut off = 14;
        let target = match input[off] {
            TARGET_SENSOR => {
                need(off + 5)?;
                let raw = u32::from_be_bytes([
                    input[off + 1],
                    input[off + 2],
                    input[off + 3],
                    input[off + 4],
                ]);
                off += 5;
                ActuationTarget::Sensor(SensorId::new(raw)?)
            }
            TARGET_STREAM => {
                need(off + 5)?;
                let raw = u32::from_be_bytes([
                    input[off + 1],
                    input[off + 2],
                    input[off + 3],
                    input[off + 4],
                ]);
                off += 5;
                ActuationTarget::Stream(StreamId::from_raw(raw))
            }
            TARGET_AREA => {
                need(off + 13)?;
                let f = |i: usize| {
                    f32::from_be_bytes([input[i], input[i + 1], input[i + 2], input[i + 3]])
                };
                let area = TargetArea { x: f(off + 1), y: f(off + 5), radius: f(off + 9) };
                off += 13;
                ActuationTarget::Area(area)
            }
            other => return Err(WireError::UnknownTarget(other)),
        };
        let (command, used) = SensorCommand::decode(&input[off..])?;
        off += used;
        need(off + 4)?;
        let expected =
            u32::from_be_bytes([input[off], input[off + 1], input[off + 2], input[off + 3]]);
        let actual = crc32(&input[..off]);
        if expected != actual {
            return Err(WireError::BadChecksum { expected, actual });
        }
        Ok((StreamUpdateRequest { request_id, target, command, issued_at_us, priority }, off + 4))
    }

    /// Total encoded size in bytes (radio cost of the actuation path).
    pub fn encoded_len(&self) -> usize {
        self.encode_to_vec().len()
    }
}

/// Outcome reported by a sensor for a stream update request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AckStatus {
    /// The command was applied.
    Applied,
    /// The sensor does not implement this command (simple device).
    Unsupported,
    /// The command violated a device-local constraint.
    ConstraintViolation,
    /// The command was accepted but will take effect later (e.g. after a
    /// sleep period ends).
    Deferred,
}

impl AckStatus {
    fn to_byte(self) -> u8 {
        match self {
            AckStatus::Applied => 0,
            AckStatus::Unsupported => 1,
            AckStatus::ConstraintViolation => 2,
            AckStatus::Deferred => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(AckStatus::Applied),
            1 => Ok(AckStatus::Unsupported),
            2 => Ok(AckStatus::ConstraintViolation),
            3 => Ok(AckStatus::Deferred),
            other => Err(WireError::UnknownAckStatus(other)),
        }
    }
}

/// A standalone acknowledgement message for a stream update request.
///
/// Receive-capable sensors usually piggy-back acks on their next data
/// message (the `UPDATE_ACK` header field); this standalone form exists
/// for sensors whose streams are disabled or sleeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamUpdateAck {
    /// The request being acknowledged.
    pub request_id: RequestId,
    /// The sensor acknowledging.
    pub sensor: SensorId,
    /// What happened.
    pub status: AckStatus,
}

impl StreamUpdateAck {
    /// Encodes into a fresh byte vector with a CRC-32 trailer.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(14);
        out.push(ACK_TYPE);
        out.extend_from_slice(&self.request_id.as_u32().to_be_bytes());
        out.extend_from_slice(&self.sensor.as_u32().to_be_bytes());
        out.push(self.status.to_byte());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Decodes an acknowledgement, returning it and the bytes consumed.
    ///
    /// # Errors
    ///
    /// Truncation, unknown discriminants, or a CRC-32 mismatch.
    pub fn decode(input: &[u8]) -> Result<(StreamUpdateAck, usize), WireError> {
        const LEN: usize = 14;
        if input.len() < LEN {
            return Err(WireError::Truncated { needed: LEN, have: input.len() });
        }
        if input[0] != ACK_TYPE {
            return Err(WireError::UnknownCommand(input[0]));
        }
        let request_id =
            RequestId::new(u32::from_be_bytes([input[1], input[2], input[3], input[4]]));
        let sensor = SensorId::new(u32::from_be_bytes([input[5], input[6], input[7], input[8]]))?;
        let status = AckStatus::from_byte(input[9])?;
        let expected = u32::from_be_bytes([input[10], input[11], input[12], input[13]]);
        let actual = crc32(&input[..10]);
        if expected != actual {
            return Err(WireError::BadChecksum { expected, actual });
        }
        Ok((StreamUpdateAck { request_id, sensor, status }, LEN))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request(target: ActuationTarget, command: SensorCommand) -> StreamUpdateRequest {
        StreamUpdateRequest {
            request_id: RequestId::new(0xDEAD_0001),
            target,
            command,
            issued_at_us: 123_456_789,
            priority: 7,
        }
    }

    #[test]
    fn request_round_trip_all_targets() {
        let targets = [
            ActuationTarget::Sensor(SensorId::new(42).unwrap()),
            ActuationTarget::Stream(StreamId::from_raw(0x0102_0304)),
            ActuationTarget::Area(TargetArea::new(10.5, -3.25, 100.0)),
        ];
        for t in targets {
            let req = sample_request(t, SensorCommand::Ping);
            let bytes = req.encode_to_vec();
            let (back, used) = StreamUpdateRequest::decode(&bytes).unwrap();
            assert_eq!(back, req);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn request_round_trip_all_commands() {
        let commands = [
            SensorCommand::SetReportInterval { stream: StreamIndex::new(3), interval_ms: 250 },
            SensorCommand::EnableStream { stream: StreamIndex::new(0) },
            SensorCommand::DisableStream { stream: StreamIndex::new(255) },
            SensorCommand::SetDutyCycle { permille: 125 },
            SensorCommand::Sleep { duration_ms: 60_000 },
            SensorCommand::Ping,
            SensorCommand::SetEncryption { stream: StreamIndex::new(9), enabled: true },
            SensorCommand::SetEncryption { stream: StreamIndex::new(9), enabled: false },
        ];
        for c in commands {
            let req = sample_request(ActuationTarget::Sensor(SensorId::new(1).unwrap()), c);
            let bytes = req.encode_to_vec();
            let (back, _) = StreamUpdateRequest::decode(&bytes).unwrap();
            assert_eq!(back.command, c);
        }
    }

    #[test]
    fn request_corruption_detected() {
        let req = sample_request(
            ActuationTarget::Stream(StreamId::from_raw(55)),
            SensorCommand::SetDutyCycle { permille: 500 },
        );
        let clean = req.encode_to_vec();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            match StreamUpdateRequest::decode(&bad) {
                Err(_) => {}
                Ok((r, _)) => assert_eq!(r, req, "byte {i} flip produced different request"),
            }
        }
    }

    #[test]
    fn request_truncation_detected() {
        let req =
            sample_request(ActuationTarget::Sensor(SensorId::new(1).unwrap()), SensorCommand::Ping);
        let bytes = req.encode_to_vec();
        for cut in 0..bytes.len() {
            assert!(StreamUpdateRequest::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn ack_round_trip() {
        for status in [
            AckStatus::Applied,
            AckStatus::Unsupported,
            AckStatus::ConstraintViolation,
            AckStatus::Deferred,
        ] {
            let ack = StreamUpdateAck {
                request_id: RequestId::new(88),
                sensor: SensorId::new(0x00FF_FFFF).unwrap(),
                status,
            };
            let bytes = ack.encode_to_vec();
            let (back, used) = StreamUpdateAck::decode(&bytes).unwrap();
            assert_eq!(back, ack);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn ack_rejects_bad_status_and_type() {
        let ack = StreamUpdateAck {
            request_id: RequestId::new(1),
            sensor: SensorId::new(1).unwrap(),
            status: AckStatus::Applied,
        };
        let mut bytes = ack.encode_to_vec();
        bytes[0] = 0x7F;
        assert!(matches!(StreamUpdateAck::decode(&bytes), Err(WireError::UnknownCommand(0x7F))));
    }

    #[test]
    fn negative_radius_clamped() {
        assert_eq!(TargetArea::new(0.0, 0.0, -5.0).radius, 0.0);
    }

    #[test]
    fn command_display_is_informative() {
        let s = SensorCommand::SetReportInterval { stream: StreamIndex::new(2), interval_ms: 100 }
            .to_string();
        assert!(s.contains("100ms"));
        assert_eq!(SensorCommand::Ping.to_string(), "ping");
    }

    #[test]
    fn unknown_command_tag_rejected() {
        let req =
            sample_request(ActuationTarget::Sensor(SensorId::new(1).unwrap()), SensorCommand::Ping);
        let mut bytes = req.encode_to_vec();
        // Command tag sits after type(1)+reqid(4)+ts(8)+prio(1)+target(1+4).
        bytes[19] = 200;
        assert!(matches!(
            StreamUpdateRequest::decode(&bytes),
            Err(WireError::UnknownCommand(200)) | Err(WireError::BadChecksum { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_target() -> impl Strategy<Value = ActuationTarget> {
        prop_oneof![
            (0u32..=0x00FF_FFFF).prop_map(|s| ActuationTarget::Sensor(SensorId::new(s).unwrap())),
            any::<u32>().prop_map(|r| ActuationTarget::Stream(StreamId::from_raw(r))),
            (-1e4f32..1e4, -1e4f32..1e4, 0f32..1e4)
                .prop_map(|(x, y, r)| ActuationTarget::Area(TargetArea::new(x, y, r))),
        ]
    }

    fn arb_command() -> impl Strategy<Value = SensorCommand> {
        prop_oneof![
            (any::<u8>(), 1u32..1_000_000).prop_map(|(s, i)| SensorCommand::SetReportInterval {
                stream: StreamIndex::new(s),
                interval_ms: i
            }),
            any::<u8>().prop_map(|s| SensorCommand::EnableStream { stream: StreamIndex::new(s) }),
            any::<u8>().prop_map(|s| SensorCommand::DisableStream { stream: StreamIndex::new(s) }),
            (0u16..=1000).prop_map(|p| SensorCommand::SetDutyCycle { permille: p }),
            any::<u32>().prop_map(|d| SensorCommand::Sleep { duration_ms: d }),
            Just(SensorCommand::Ping),
            (any::<u8>(), any::<bool>()).prop_map(|(s, e)| SensorCommand::SetEncryption {
                stream: StreamIndex::new(s),
                enabled: e
            }),
        ]
    }

    proptest! {
        #[test]
        fn request_round_trip(
            id in any::<u32>(),
            target in arb_target(),
            command in arb_command(),
            ts in any::<u64>(),
            prio in any::<u8>(),
        ) {
            let req = StreamUpdateRequest {
                request_id: RequestId::new(id),
                target,
                command,
                issued_at_us: ts,
                priority: prio,
            };
            let bytes = req.encode_to_vec();
            let (back, used) = StreamUpdateRequest::decode(&bytes).unwrap();
            prop_assert_eq!(back, req);
            prop_assert_eq!(used, bytes.len());
        }

        #[test]
        fn request_bit_flip_never_misdecodes(
            target in arb_target(),
            command in arb_command(),
            byte in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let req = StreamUpdateRequest {
                request_id: RequestId::new(1),
                target,
                command,
                issued_at_us: 42,
                priority: 0,
            };
            let clean = req.encode_to_vec();
            let mut bad = clean.clone();
            let i = byte.index(bad.len());
            bad[i] ^= 1 << bit;
            if let Ok((r, _)) = StreamUpdateRequest::decode(&bad) {
                prop_assert_eq!(r, req);
            }
        }
    }
}
