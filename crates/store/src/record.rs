//! The archive record codec.
//!
//! Every boundary input the facade accepts becomes one record:
//!
//! ```text
//!   ┌───────┬──────┬──────────┬────────────────┬─────────┐
//!   │ magic │ kind │ body len │ body           │ CRC-32  │
//!   │ 1 B   │ 1 B  │ 4 B LE   │ body-len bytes │ 4 B LE  │
//!   └───────┴──────┴──────────┴────────────────┴─────────┘
//! ```
//!
//! The CRC-32 (ISO-HDLC, shared with `garnet-wire`'s control messages)
//! covers everything before the trailer, so a torn write, a bit flip
//! or a short read anywhere in the record is detected on decode — a
//! corrupt record never surfaces as a decoded frame. Frame payloads are
//! stored as the exact wire bytes ([`FrameBytes`]), so replaying a
//! record re-offers the *identical* frame the radio delivered,
//! including its own CRC-16 trailer.

use garnet_simkit::SimTime;
use garnet_wire::crc::crc32;
use garnet_wire::{peek_stream, AckStatus, FrameBytes, RequestId, StreamId};

/// First byte of every record.
pub(crate) const RECORD_MAGIC: u8 = 0xA7;
/// Fixed prefix: magic, kind, body length.
pub(crate) const RECORD_HEADER_LEN: usize = 6;
/// CRC-32 trailer.
pub(crate) const RECORD_TRAILER_LEN: usize = 4;

const KIND_FRAME: u8 = 1;
const KIND_TICK: u8 = 2;
const KIND_ACK: u8 = 3;

/// Why a record failed to decode. Every variant means "stop here": the
/// recovery scan truncates the segment at the record's start offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The buffer ends before the record does (torn write / short read).
    Truncated,
    /// The first byte is not [`RECORD_MAGIC`].
    BadMagic(u8),
    /// Unknown record kind.
    BadKind(u8),
    /// The CRC-32 trailer does not match the record bytes.
    BadCrc,
    /// The body length is inconsistent with the record kind.
    BadBody,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record truncated"),
            RecordError::BadMagic(b) => write!(f, "bad record magic 0x{b:02X}"),
            RecordError::BadKind(k) => write!(f, "unknown record kind {k}"),
            RecordError::BadCrc => write!(f, "record CRC mismatch"),
            RecordError::BadBody => write!(f, "record body inconsistent with its kind"),
        }
    }
}

impl std::error::Error for RecordError {}

/// One archived boundary input.
#[derive(Clone, Debug, PartialEq)]
pub enum ArchiveRecord {
    /// One frame of an admitted burst, with its arrival context — the
    /// exact arguments a replay feeds back into `Garnet::on_frames`.
    Frame {
        /// Simulated arrival time, µs.
        at_us: u64,
        /// The receiver that heard it (raw id).
        receiver: u32,
        /// Received signal strength, as IEEE-754 bits (exact round-trip).
        rssi_bits: u64,
        /// The encoded wire frame (shared slice; appending never copies).
        frame: FrameBytes,
    },
    /// One `Garnet::on_tick` maintenance call (reorder flushes and
    /// actuation retries change delivery order, so replay must repeat
    /// them at the same instants).
    Tick {
        /// Simulated time of the tick, µs.
        at_us: u64,
    },
    /// One standalone acknowledgement.
    Ack {
        /// Simulated arrival time, µs.
        at_us: u64,
        /// The acknowledged request.
        request_id: u32,
        /// How the sensor responded.
        status: AckStatus,
    },
}

fn ack_status_byte(status: AckStatus) -> u8 {
    match status {
        AckStatus::Applied => 0,
        AckStatus::Unsupported => 1,
        AckStatus::ConstraintViolation => 2,
        AckStatus::Deferred => 3,
    }
}

fn ack_status_from_byte(b: u8) -> Result<AckStatus, RecordError> {
    match b {
        0 => Ok(AckStatus::Applied),
        1 => Ok(AckStatus::Unsupported),
        2 => Ok(AckStatus::ConstraintViolation),
        3 => Ok(AckStatus::Deferred),
        _ => Err(RecordError::BadBody),
    }
}

impl ArchiveRecord {
    /// Builds a frame record from the facade's ingest arguments.
    pub fn frame(receiver: u32, rssi_dbm: f64, frame: FrameBytes, now: SimTime) -> ArchiveRecord {
        ArchiveRecord::Frame {
            at_us: now.as_micros(),
            receiver,
            rssi_bits: rssi_dbm.to_bits(),
            frame,
        }
    }

    /// Builds a tick record.
    pub fn tick(now: SimTime) -> ArchiveRecord {
        ArchiveRecord::Tick { at_us: now.as_micros() }
    }

    /// Builds a standalone-ack record.
    pub fn ack(request_id: RequestId, status: AckStatus, now: SimTime) -> ArchiveRecord {
        ArchiveRecord::Ack { at_us: now.as_micros(), request_id: request_id.as_u32(), status }
    }

    /// The archived frame's stream id, when this is a frame record whose
    /// header is peekable — the `(StreamId, seq)` key's first half.
    pub fn stream(&self) -> Option<StreamId> {
        match self {
            ArchiveRecord::Frame { frame, .. } => peek_stream(frame),
            _ => None,
        }
    }

    /// The archived frame's sequence number, when peekable — the key's
    /// second half.
    #[cfg(test)]
    pub(crate) fn seq(&self) -> Option<u16> {
        match self {
            ArchiveRecord::Frame { frame, .. } => garnet_wire::peek_seq(frame).map(|s| s.as_u16()),
            _ => None,
        }
    }

    fn kind(&self) -> u8 {
        match self {
            ArchiveRecord::Frame { .. } => KIND_FRAME,
            ArchiveRecord::Tick { .. } => KIND_TICK,
            ArchiveRecord::Ack { .. } => KIND_ACK,
        }
    }

    fn body_len(&self) -> usize {
        match self {
            ArchiveRecord::Frame { frame, .. } => 20 + frame.len(),
            ArchiveRecord::Tick { .. } => 8,
            ArchiveRecord::Ack { .. } => 13,
        }
    }

    /// The record's full encoded length, header and trailer included.
    pub fn encoded_len(&self) -> usize {
        RECORD_HEADER_LEN + self.body_len() + RECORD_TRAILER_LEN
    }

    /// Appends the encoded record to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(RECORD_MAGIC);
        out.push(self.kind());
        out.extend_from_slice(&(self.body_len() as u32).to_le_bytes());
        match self {
            ArchiveRecord::Frame { at_us, receiver, rssi_bits, frame } => {
                out.extend_from_slice(&at_us.to_le_bytes());
                out.extend_from_slice(&receiver.to_le_bytes());
                out.extend_from_slice(&rssi_bits.to_le_bytes());
                out.extend_from_slice(frame);
            }
            ArchiveRecord::Tick { at_us } => out.extend_from_slice(&at_us.to_le_bytes()),
            ArchiveRecord::Ack { at_us, request_id, status } => {
                out.extend_from_slice(&at_us.to_le_bytes());
                out.extend_from_slice(&request_id.to_le_bytes());
                out.push(ack_status_byte(*status));
            }
        }
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// The encoded record as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes one record from the front of `buf`, returning it and the
    /// number of bytes consumed. Any mismatch — truncation, bad magic,
    /// bad kind, bad CRC, a body inconsistent with its kind — is an
    /// error; no partial record ever decodes.
    pub fn decode(buf: &[u8]) -> Result<(ArchiveRecord, usize), RecordError> {
        let (view, used) = RecordView::parse(buf)?;
        Ok((view.to_record(), used))
    }
}

/// One validated record, borrowed from the bytes it was parsed from:
/// everything [`ArchiveRecord::decode`] checks, before anything is
/// copied. The recovery scan walks a segment as views, so counting a
/// log never materialises it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RecordView<'a> {
    /// See [`ArchiveRecord::Frame`]; `frame` points into the segment.
    Frame { at_us: u64, receiver: u32, rssi_bits: u64, frame: &'a [u8] },
    /// See [`ArchiveRecord::Tick`].
    Tick { at_us: u64 },
    /// See [`ArchiveRecord::Ack`].
    Ack { at_us: u64, request_id: u32, status: AckStatus },
}

/// The first `N` bytes of a record body as a fixed-width field, and the
/// rest; a body too short for the field is [`RecordError::BadBody`].
fn take<const N: usize>(body: &[u8]) -> Result<(&[u8; N], &[u8]), RecordError> {
    body.split_first_chunk::<N>().ok_or(RecordError::BadBody)
}

impl<'a> RecordView<'a> {
    /// Validates one record at the front of `buf` — header, length,
    /// CRC, then kind and body, in that order — returning the view and
    /// the number of bytes the record occupies.
    pub(crate) fn parse(buf: &'a [u8]) -> Result<(RecordView<'a>, usize), RecordError> {
        if buf.len() < RECORD_HEADER_LEN {
            return Err(RecordError::Truncated);
        }
        if buf[0] != RECORD_MAGIC {
            return Err(RecordError::BadMagic(buf[0]));
        }
        let kind = buf[1];
        let body_len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
        let total = RECORD_HEADER_LEN + body_len + RECORD_TRAILER_LEN;
        if buf.len() < total {
            return Err(RecordError::Truncated);
        }
        let crc_off = RECORD_HEADER_LEN + body_len;
        let stored = u32::from_le_bytes([
            buf[crc_off],
            buf[crc_off + 1],
            buf[crc_off + 2],
            buf[crc_off + 3],
        ]);
        if crc32(&buf[..crc_off]) != stored {
            return Err(RecordError::BadCrc);
        }
        let body = &buf[RECORD_HEADER_LEN..crc_off];
        let view = match kind {
            KIND_FRAME => {
                let (at_us, rest) = take::<8>(body)?;
                let (receiver, rest) = take::<4>(rest)?;
                let (rssi_bits, frame) = take::<8>(rest)?;
                RecordView::Frame {
                    at_us: u64::from_le_bytes(*at_us),
                    receiver: u32::from_le_bytes(*receiver),
                    rssi_bits: u64::from_le_bytes(*rssi_bits),
                    frame,
                }
            }
            KIND_TICK => {
                let (at_us, []) = take::<8>(body)? else {
                    return Err(RecordError::BadBody);
                };
                RecordView::Tick { at_us: u64::from_le_bytes(*at_us) }
            }
            KIND_ACK => {
                let (at_us, rest) = take::<8>(body)?;
                let (request_id, &[status]) = take::<4>(rest)? else {
                    return Err(RecordError::BadBody);
                };
                RecordView::Ack {
                    at_us: u64::from_le_bytes(*at_us),
                    request_id: u32::from_le_bytes(*request_id),
                    status: ack_status_from_byte(status)?,
                }
            }
            other => return Err(RecordError::BadKind(other)),
        };
        Ok((view, total))
    }

    /// The owned record: copies a frame's wire bytes out of the segment.
    pub(crate) fn to_record(self) -> ArchiveRecord {
        match self {
            RecordView::Frame { at_us, receiver, rssi_bits, frame } => ArchiveRecord::Frame {
                at_us,
                receiver,
                rssi_bits,
                frame: FrameBytes::copy_from_slice(frame),
            },
            RecordView::Tick { at_us } => ArchiveRecord::Tick { at_us },
            RecordView::Ack { at_us, request_id, status } => {
                ArchiveRecord::Ack { at_us, request_id, status }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> ArchiveRecord {
        ArchiveRecord::Frame {
            at_us: 12_345,
            receiver: 3,
            rssi_bits: (-51.25f64).to_bits(),
            frame: FrameBytes::copy_from_slice(&[9, 8, 7, 6, 5]),
        }
    }

    #[test]
    fn all_kinds_round_trip() {
        for rec in [
            sample_frame(),
            ArchiveRecord::Tick { at_us: 99 },
            ArchiveRecord::Ack { at_us: 7, request_id: 42, status: AckStatus::Deferred },
        ] {
            let bytes = rec.encode();
            assert_eq!(bytes.len(), rec.encoded_len());
            let (back, used) = ArchiveRecord::decode(&bytes).unwrap();
            assert_eq!(back, rec);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_frame().encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    ArchiveRecord::decode(&corrupt).is_err(),
                    "flip at byte {byte} bit {bit} decoded silently"
                );
            }
        }
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = sample_frame().encode();
        for cut in 0..bytes.len() {
            assert!(
                ArchiveRecord::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded silently"
            );
        }
    }

    #[test]
    fn decode_consumes_exactly_one_record_from_a_run() {
        let mut buf = sample_frame().encode();
        let second = ArchiveRecord::Tick { at_us: 1 };
        second.encode_into(&mut buf);
        let (first, used) = ArchiveRecord::decode(&buf).unwrap();
        assert_eq!(first, sample_frame());
        let (next, _) = ArchiveRecord::decode(&buf[used..]).unwrap();
        assert_eq!(next, second);
    }

    #[test]
    fn frame_key_peeks_stream_and_seq_from_wire_bytes() {
        use garnet_wire::{DataMessage, SensorId, SequenceNumber, StreamIndex};
        let stream = StreamId::new(SensorId::new(5).unwrap(), StreamIndex::new(1));
        let wire = DataMessage::builder(stream)
            .seq(SequenceNumber::new(77))
            .payload(vec![1])
            .build()
            .unwrap()
            .encode_to_vec();
        let rec = ArchiveRecord::frame(0, -40.0, FrameBytes::from(wire), SimTime::from_micros(10));
        assert_eq!(rec.stream(), Some(stream));
        assert_eq!(rec.seq(), Some(77));
        assert_eq!(ArchiveRecord::Tick { at_us: 0 }.stream(), None);
    }
}
