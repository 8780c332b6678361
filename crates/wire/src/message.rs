//! The Garnet data message (Figure 2) and its binary codec.
//!
//! Fixed part (9 bytes, big-endian, exactly the published bit offsets
//! 0/8/40/56/72):
//!
//! | bytes | field |
//! |---|---|
//! | 0 | [`MsgHeader`] |
//! | 1–4 | packed [`StreamId`] |
//! | 5–6 | [`SequenceNumber`] |
//! | 7–8 | payload size |
//!
//! If the header carries [`HeaderFlags::UPDATE_ACK`] a 4-byte
//! [`RequestId`] acknowledgement field follows (the "stream update
//! request acknowledgement field … expected to appear in data messages
//! generated by receive-capable sensors", §4.3). Then the opaque payload,
//! then a CRC-16 trailer over everything preceding it.

use bytes::{BufMut, Bytes, BytesMut};

use crate::crc::crc16;
use crate::error::WireError;
use crate::header::{HeaderFlags, MsgHeader};
use crate::ids::{RequestId, SequenceNumber, StreamId};

/// Largest payload a data message can carry (the paper's "payloads of
/// 64K bytes": the 16-bit size field).
pub const MAX_PAYLOAD_LEN: usize = u16::MAX as usize;

/// Size of the fixed header region (Fig. 2 bits 0..72).
pub(crate) const FIXED_HEADER_LEN: usize = 9;

/// Size of the optional acknowledgement field.
const ACK_FIELD_LEN: usize = 4;

/// Size of the CRC-16 trailer.
const TRAILER_LEN: usize = 2;

/// A shared-slice handle to one encoded frame.
///
/// Frames travel the hot path (receiver array → filtering → dispatch →
/// consumers) as refcounted views of the arrival buffer: cloning a
/// `FrameBytes` — and slicing the decoded payload out of one — bumps a
/// reference count instead of copying bytes. This is the carrier type
/// the batch ingest APIs (`Garnet::on_frames`, `Router::ingest`) use
/// end to end.
pub type FrameBytes = Bytes;

/// The fully validated fixed part of an encoded frame: every bounds and
/// structure check [`DataMessage::decode`] performs *except* the CRC,
/// done once.
///
/// This is the single validation point of the decode path, and the
/// filtering stage is its one caller on the ingest path: it parses each
/// frame's header, charges a frame that fails `parse` its error, and
/// finishes the rest with [`DataMessage::decode_validated`] without
/// re-checking lengths or re-reading fields. Nothing is handed down
/// from admission: the stages in front of filtering read only what
/// they need with the decode-free [`peek_stream`] / [`peek_seq`] — the
/// overload tier peeks stream id and sequence number once per offered
/// frame to coalesce — and those work on corrupt frames too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    header: MsgHeader,
    stream: StreamId,
    seq: SequenceNumber,
    ack: Option<RequestId>,
    payload_len: usize,
    total_len: usize,
}

impl FrameHeader {
    /// Parses and validates the fixed header at the front of `frame`:
    /// length of the fixed region, version byte, and that the frame
    /// holds the declared ack field, payload and CRC trailer in full.
    ///
    /// # Errors
    ///
    /// * [`WireError::Truncated`] — `frame` is shorter than the message
    ///   it declares.
    /// * [`WireError::UnsupportedVersion`] — unknown header version.
    pub fn parse(frame: &[u8]) -> Result<FrameHeader, WireError> {
        if frame.len() < FIXED_HEADER_LEN {
            return Err(WireError::Truncated { needed: FIXED_HEADER_LEN, have: frame.len() });
        }
        let header = MsgHeader::from_byte(frame[0])?;
        let stream =
            StreamId::from_raw(u32::from_be_bytes([frame[1], frame[2], frame[3], frame[4]]));
        let seq = SequenceNumber::new(u16::from_be_bytes([frame[5], frame[6]]));
        let payload_len = u16::from_be_bytes([frame[7], frame[8]]) as usize;

        let has_ack = header.has(HeaderFlags::UPDATE_ACK);
        let ack_len = if has_ack { ACK_FIELD_LEN } else { 0 };
        let total_len = FIXED_HEADER_LEN + ack_len + payload_len + TRAILER_LEN;
        if frame.len() < total_len {
            return Err(WireError::Truncated { needed: total_len, have: frame.len() });
        }
        let ack = if has_ack {
            Some(RequestId::new(u32::from_be_bytes([
                frame[FIXED_HEADER_LEN],
                frame[FIXED_HEADER_LEN + 1],
                frame[FIXED_HEADER_LEN + 2],
                frame[FIXED_HEADER_LEN + 3],
            ])))
        } else {
            None
        };
        Ok(FrameHeader { header, stream, seq, ack, payload_len, total_len })
    }

    /// The stream this frame claims to belong to (shard key).
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The claimed per-stream sequence number (coalescing key).
    pub fn seq(&self) -> SequenceNumber {
        self.seq
    }

    /// The acknowledged stream-update request, if any.
    #[cfg(test)]
    pub(crate) fn ack(&self) -> Option<RequestId> {
        self.ack
    }

    /// Declared payload length in bytes.
    #[cfg(test)]
    pub(crate) fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Byte offset of the payload within the frame.
    pub(crate) fn payload_offset(&self) -> usize {
        self.total_len - TRAILER_LEN - self.payload_len
    }

    /// Total encoded length of the message, CRC trailer included.
    #[cfg(test)]
    pub(crate) fn total_len(&self) -> usize {
        self.total_len
    }
}

/// A complete Garnet data message.
///
/// Construct with [`DataMessage::builder`]; the builder keeps the
/// header-flag/body invariants (ack field ⇔ `UPDATE_ACK` flag) impossible
/// to violate. The payload is [`Bytes`], so fan-out to thousands of
/// subscribers clones a reference count, not the data.
///
/// # Example
///
/// ```
/// use garnet_wire::{DataMessage, HeaderFlags, RequestId, StreamId};
///
/// # fn main() -> Result<(), garnet_wire::WireError> {
/// let msg = DataMessage::builder(StreamId::from_raw(0x0000_1203))
///     .payload(vec![1, 2, 3])
///     .ack(RequestId::new(77)) // sensor acknowledges an update request
///     .flag(HeaderFlags::RELAYED)
///     .build()?;
/// assert!(msg.header().has(HeaderFlags::UPDATE_ACK));
/// assert_eq!(msg.ack(), Some(RequestId::new(77)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DataMessage {
    header: MsgHeader,
    stream: StreamId,
    seq: SequenceNumber,
    ack: Option<RequestId>,
    payload: Bytes,
}

impl DataMessage {
    /// Starts building a message for `stream`.
    pub fn builder(stream: StreamId) -> DataMessageBuilder {
        DataMessageBuilder {
            stream,
            seq: SequenceNumber::ZERO,
            flags: HeaderFlags::NONE,
            ack: None,
            payload: Bytes::new(),
        }
    }

    /// The message header (version + flags).
    pub fn header(&self) -> MsgHeader {
        self.header
    }

    /// The stream this message belongs to.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The per-stream sequence number.
    pub fn seq(&self) -> SequenceNumber {
        self.seq
    }

    /// The acknowledged stream-update request, if any.
    pub fn ack(&self) -> Option<RequestId> {
        self.ack
    }

    /// The opaque payload.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Returns a copy tagged with [`HeaderFlags::RELAYED`] and
    /// [`HeaderFlags::MULTI_HOP`] — the §8 "initial support … by tagging
    /// the message header to reflect multi-hop and relayed data
    /// messages". Stream, sequence, acknowledgement and payload are
    /// unchanged, so the Filtering Service deduplicates a relayed copy
    /// against the direct one by `(StreamID, sequence)` as usual.
    #[must_use]
    pub fn relayed_copy(&self) -> DataMessage {
        DataMessage {
            header: self.header.with_flag(HeaderFlags::RELAYED).with_flag(HeaderFlags::MULTI_HOP),
            stream: self.stream,
            seq: self.seq,
            ack: self.ack,
            payload: self.payload.clone(),
        }
    }

    /// Total encoded size in bytes, including the CRC trailer. This is
    /// the per-message radio cost used by the energy model and by the
    /// RETRI comparison (E6).
    pub(crate) fn encoded_len(&self) -> usize {
        FIXED_HEADER_LEN
            + if self.ack.is_some() { ACK_FIELD_LEN } else { 0 }
            + self.payload.len()
            + TRAILER_LEN
    }

    /// Encodes into `buf`, appending exactly [`DataMessage::encoded_len`]
    /// bytes.
    pub(crate) fn encode(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.reserve(self.encoded_len());
        buf.put_u8(self.header.to_byte());
        buf.put_u32(self.stream.to_raw());
        buf.put_u16(self.seq.as_u16());
        buf.put_u16(self.payload.len() as u16);
        if let Some(ack) = self.ack {
            buf.put_u32(ack.as_u32());
        }
        buf.extend_from_slice(&self.payload);
        let crc = crc16(&buf[start..]);
        buf.put_u16(crc);
    }

    /// Encodes into a fresh byte vector.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.to_vec()
    }

    /// Decodes one message from the front of `input`, returning it and
    /// the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// * [`WireError::Truncated`] — `input` does not yet contain a whole
    ///   message (streaming callers should read more and retry).
    /// * [`WireError::UnsupportedVersion`] — unknown header version.
    /// * [`WireError::BadChecksum`] — the CRC trailer does not match.
    pub fn decode(input: &[u8]) -> Result<(DataMessage, usize), WireError> {
        let hdr = FrameHeader::parse(input)?;
        Self::check_crc(input, &hdr)?;
        let off = hdr.payload_offset();
        let payload = Bytes::copy_from_slice(&input[off..off + hdr.payload_len]);
        Ok((Self::assemble(&hdr, payload), hdr.total_len))
    }

    /// Zero-copy twin of [`DataMessage::decode`]: the payload is sliced
    /// out of `frame` as a shared view instead of copied, so the decoded
    /// message keeps the arrival buffer alive and costs a refcount.
    ///
    /// This is the hot-path decode: every frame entering the middleware
    /// through `on_frames` is decoded this way. Errors are identical to
    /// [`DataMessage::decode`] on the same bytes.
    pub fn decode_frame(frame: &FrameBytes) -> Result<(DataMessage, usize), WireError> {
        let hdr = FrameHeader::parse(frame)?;
        let msg = Self::decode_validated(frame, &hdr)?;
        Ok((msg, hdr.total_len))
    }

    /// Finishes a zero-copy decode from an already-validated header:
    /// checks the CRC and slices the payload out of `frame` without
    /// re-validating lengths or re-reading header fields.
    ///
    /// `hdr` must come from [`FrameHeader::parse`] over this same
    /// `frame` — the filtering stage parses, then finishes here.
    ///
    /// # Errors
    ///
    /// [`WireError::BadChecksum`] — the CRC trailer does not match.
    pub fn decode_validated(
        frame: &FrameBytes,
        hdr: &FrameHeader,
    ) -> Result<DataMessage, WireError> {
        Self::check_crc(frame, hdr)?;
        let off = hdr.payload_offset();
        Ok(Self::assemble(hdr, frame.slice(off..off + hdr.payload_len)))
    }

    fn check_crc(input: &[u8], hdr: &FrameHeader) -> Result<(), WireError> {
        let crc_at = hdr.total_len - TRAILER_LEN;
        let expected = u16::from_be_bytes([input[crc_at], input[crc_at + 1]]);
        let actual = crc16(&input[..crc_at]);
        if expected != actual {
            return Err(WireError::BadChecksum {
                expected: u32::from(expected),
                actual: u32::from(actual),
            });
        }
        Ok(())
    }

    fn assemble(hdr: &FrameHeader, payload: Bytes) -> DataMessage {
        DataMessage { header: hdr.header, stream: hdr.stream, seq: hdr.seq, ack: hdr.ack, payload }
    }
}

/// Incremental constructor for [`DataMessage`]; see
/// [`DataMessage::builder`].
#[derive(Clone, Debug)]
pub struct DataMessageBuilder {
    stream: StreamId,
    seq: SequenceNumber,
    flags: HeaderFlags,
    ack: Option<RequestId>,
    payload: Bytes,
}

impl DataMessageBuilder {
    /// Sets the per-stream sequence number (default `0`).
    pub fn seq(mut self, seq: SequenceNumber) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the opaque payload (default empty).
    pub fn payload(mut self, payload: impl Into<Bytes>) -> Self {
        self.payload = payload.into();
        self
    }

    /// Attaches a stream-update acknowledgement; the `UPDATE_ACK` header
    /// flag is set automatically.
    pub fn ack(mut self, request: RequestId) -> Self {
        self.ack = Some(request);
        self
    }

    /// Sets an additional header flag. Setting
    /// [`HeaderFlags::UPDATE_ACK`] here without [`Self::ack`] is rejected
    /// by [`Self::build`], preserving the flag/body invariant.
    pub fn flag(mut self, flag: HeaderFlags) -> Self {
        self.flags |= flag;
        self
    }

    /// Finishes the message.
    ///
    /// # Errors
    ///
    /// * [`WireError::PayloadTooLarge`] — payload exceeds 64KiB − 1.
    /// * [`WireError::FlagBodyMismatch`] — `UPDATE_ACK` flag set manually
    ///   without an acknowledgement value.
    pub fn build(self) -> Result<DataMessage, WireError> {
        if self.payload.len() > MAX_PAYLOAD_LEN {
            return Err(WireError::PayloadTooLarge(self.payload.len()));
        }
        let mut flags = self.flags;
        if self.ack.is_some() {
            flags |= HeaderFlags::UPDATE_ACK;
        } else if flags.contains(HeaderFlags::UPDATE_ACK) {
            return Err(WireError::FlagBodyMismatch("update-ack flag set without an ack value"));
        }
        Ok(DataMessage {
            header: MsgHeader::with_flags(flags),
            stream: self.stream,
            seq: self.seq,
            ack: self.ack,
            payload: self.payload,
        })
    }
}

/// Reads the stream id out of an encoded frame without decoding or
/// CRC-checking it.
///
/// Callers that need only the stream a frame claims use this instead of
/// a decode: the QoS scheduler's coalescing key, the flight recorder's
/// per-frame attribution, and the archive's record attribution and
/// per-stream recovery report. A corrupt frame yields the stream id it
/// claims, which is all those need. Returns `None` only when the frame
/// is shorter than the fixed header's stream field.
pub fn peek_stream(frame: &[u8]) -> Option<StreamId> {
    if frame.len() < 5 {
        return None;
    }
    Some(StreamId::from_raw(u32::from_be_bytes([frame[1], frame[2], frame[3], frame[4]])))
}

/// Whether `frame` would decode: its fixed header parses and its CRC
/// trailer matches. Nothing is copied or sliced.
///
/// The QoS scheduler asks this of both frames of a coalescing
/// collision: a corrupt frame never keeps or takes a slot, and only an
/// intact loser tells the filtering stage to stop waiting for its
/// sequence number.
pub fn frame_is_intact(frame: &[u8]) -> bool {
    FrameHeader::parse(frame).is_ok_and(|hdr| DataMessage::check_crc(frame, &hdr).is_ok())
}

/// Reads the sequence number out of an encoded frame without decoding
/// or CRC-checking it.
///
/// The companion of [`peek_stream`]: the QoS scheduler keeps only the
/// newest staged frame per stream, and archive recovery reports each
/// stream's high-water sequence number. Returns `None` when the frame is
/// shorter than the fixed header's sequence field; a corrupt frame
/// yields whatever its claimed sequence bytes say, which is fine — the
/// scheduler orders only intact frames by it, and a corrupt one fails
/// CRC downstream regardless.
pub fn peek_seq(frame: &[u8]) -> Option<SequenceNumber> {
    if frame.len() < 7 {
        return None;
    }
    Some(SequenceNumber::new(u16::from_be_bytes([frame[5], frame[6]])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SensorId, StreamIndex};

    fn stream() -> StreamId {
        StreamId::new(SensorId::new(0x00AB_CDEF).unwrap(), StreamIndex::new(0x12))
    }

    #[test]
    fn round_trip_minimal() {
        let msg = DataMessage::builder(stream()).build().unwrap();
        let bytes = msg.encode_to_vec();
        assert_eq!(bytes.len(), FIXED_HEADER_LEN + TRAILER_LEN);
        let (back, used) = DataMessage::decode(&bytes).unwrap();
        assert_eq!(back, msg);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn round_trip_with_payload_and_ack() {
        let msg = DataMessage::builder(stream())
            .seq(SequenceNumber::new(0xBEEF))
            .payload(vec![9u8; 300])
            .ack(RequestId::new(0xCAFE_BABE))
            .flag(HeaderFlags::FUSED)
            .build()
            .unwrap();
        let bytes = msg.encode_to_vec();
        let (back, used) = DataMessage::decode(&bytes).unwrap();
        assert_eq!(back, msg);
        assert_eq!(used, FIXED_HEADER_LEN + 4 + 300 + TRAILER_LEN);
        assert_eq!(back.ack(), Some(RequestId::new(0xCAFE_BABE)));
        assert!(back.header().has(HeaderFlags::FUSED));
        assert!(back.header().has(HeaderFlags::UPDATE_ACK));
    }

    #[test]
    fn peek_stream_reads_id_without_decoding() {
        let msg = DataMessage::builder(stream()).build().unwrap();
        let mut bytes = msg.encode_to_vec();
        assert_eq!(peek_stream(&bytes), Some(stream()));
        // Corrupt the CRC: the peek still reads the claimed stream id,
        // even though a full decode now fails.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(DataMessage::decode(&bytes).is_err());
        assert_eq!(peek_stream(&bytes), Some(stream()));
        // Too short to carry a stream id at all.
        assert_eq!(peek_stream(&bytes[..4]), None);
    }

    #[test]
    fn peek_seq_reads_sequence_without_decoding() {
        let msg = DataMessage::builder(stream()).seq(SequenceNumber::new(0xBEEF)).build().unwrap();
        let mut bytes = msg.encode_to_vec();
        assert_eq!(peek_seq(&bytes), Some(SequenceNumber::new(0xBEEF)));
        // A corrupt CRC does not stop the peek.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(DataMessage::decode(&bytes).is_err());
        assert_eq!(peek_seq(&bytes), Some(SequenceNumber::new(0xBEEF)));
        // Too short to carry a sequence number.
        assert_eq!(peek_seq(&bytes[..6]), None);
    }

    #[test]
    fn wire_layout_matches_figure_2_bit_offsets() {
        let msg = DataMessage::builder(stream())
            .seq(SequenceNumber::new(0x0102))
            .payload(b"zz".as_slice())
            .build()
            .unwrap();
        let bytes = msg.encode_to_vec();
        // bit 0..8: header
        assert_eq!(bytes[0], MsgHeader::new().to_byte());
        // bit 8..40: StreamID
        assert_eq!(&bytes[1..5], &0xABCD_EF12u32.to_be_bytes());
        // bit 40..56: sequence
        assert_eq!(&bytes[5..7], &[0x01, 0x02]);
        // bit 56..72: payload size
        assert_eq!(&bytes[7..9], &[0x00, 0x02]);
        // bit 72..: payload
        assert_eq!(&bytes[9..11], b"zz");
    }

    #[test]
    fn max_payload_accepted_oversize_rejected() {
        let ok = DataMessage::builder(stream()).payload(vec![0u8; MAX_PAYLOAD_LEN]).build();
        assert!(ok.is_ok());
        let err = DataMessage::builder(stream()).payload(vec![0u8; MAX_PAYLOAD_LEN + 1]).build();
        assert_eq!(err.unwrap_err(), WireError::PayloadTooLarge(MAX_PAYLOAD_LEN + 1));
    }

    #[test]
    fn max_payload_round_trips() {
        let msg =
            DataMessage::builder(stream()).payload(vec![0xA5u8; MAX_PAYLOAD_LEN]).build().unwrap();
        let bytes = msg.encode_to_vec();
        let (back, _) = DataMessage::decode(&bytes).unwrap();
        assert_eq!(back.payload().len(), MAX_PAYLOAD_LEN);
    }

    #[test]
    fn manual_update_ack_flag_without_value_rejected() {
        let err = DataMessage::builder(stream()).flag(HeaderFlags::UPDATE_ACK).build();
        assert!(matches!(err, Err(WireError::FlagBodyMismatch(_))));
    }

    #[test]
    fn truncation_reports_needed_bytes() {
        let msg = DataMessage::builder(stream()).payload(vec![1u8; 10]).build().unwrap();
        let bytes = msg.encode_to_vec();
        for cut in 0..bytes.len() {
            match DataMessage::decode(&bytes[..cut]) {
                Err(WireError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut);
                    assert!(needed <= bytes.len());
                }
                other => panic!("cut={cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        let msg = DataMessage::builder(stream())
            .seq(SequenceNumber::new(7))
            .payload(b"hello".as_slice())
            .build()
            .unwrap();
        let clean = msg.encode_to_vec();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            match DataMessage::decode(&bad) {
                Err(_) => {}
                Ok((m, _)) => {
                    // A flip in the size field may lengthen the message so
                    // that decode sees truncation instead — but it must
                    // never *succeed* with different content.
                    assert_eq!(m, msg, "corrupted byte {i} decoded to different message");
                }
            }
        }
    }

    #[test]
    fn decode_consumes_only_one_message() {
        let a = DataMessage::builder(stream()).seq(SequenceNumber::new(1)).build().unwrap();
        let b = DataMessage::builder(stream()).seq(SequenceNumber::new(2)).build().unwrap();
        let mut buf = a.encode_to_vec();
        buf.extend(b.encode_to_vec());
        let (first, used) = DataMessage::decode(&buf).unwrap();
        assert_eq!(first, a);
        let (second, _) = DataMessage::decode(&buf[used..]).unwrap();
        assert_eq!(second, b);
    }

    #[test]
    fn encoded_len_matches_actual() {
        for (payload, ack) in [(0usize, false), (5, false), (5, true), (1000, true)] {
            let mut b = DataMessage::builder(stream()).payload(vec![0u8; payload]);
            if ack {
                b = b.ack(RequestId::new(1));
            }
            let msg = b.build().unwrap();
            assert_eq!(msg.encode_to_vec().len(), msg.encoded_len());
        }
    }

    #[test]
    fn relayed_copy_tags_header_and_round_trips() {
        let msg = DataMessage::builder(stream())
            .seq(SequenceNumber::new(7))
            .payload(b"reading".as_slice())
            .ack(RequestId::new(3))
            .flag(HeaderFlags::ENCRYPTED)
            .build()
            .unwrap();
        let relayed = msg.relayed_copy();
        assert!(relayed.header().has(HeaderFlags::RELAYED));
        assert!(relayed.header().has(HeaderFlags::MULTI_HOP));
        assert!(relayed.header().has(HeaderFlags::ENCRYPTED), "existing flags preserved");
        assert_eq!(relayed.stream(), msg.stream());
        assert_eq!(relayed.seq(), msg.seq());
        assert_eq!(relayed.ack(), msg.ack());
        assert_eq!(relayed.payload(), msg.payload());
        let bytes = relayed.encode_to_vec();
        let (back, _) = DataMessage::decode(&bytes).unwrap();
        assert_eq!(back, relayed);
        // Relaying a relayed copy is idempotent on the flags.
        assert_eq!(relayed.relayed_copy().header(), relayed.header());
    }

    #[test]
    fn payload_fanout_shares_storage() {
        let msg = DataMessage::builder(stream()).payload(vec![1u8; 4096]).build().unwrap();
        let a = msg.clone();
        let b = msg.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(a.payload().as_ptr(), b.payload().as_ptr());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::SensorId;
    use proptest::prelude::*;

    fn arb_message() -> impl Strategy<Value = DataMessage> {
        (
            0u32..=0x00FF_FFFF,
            any::<u8>(),
            any::<u16>(),
            proptest::option::of(any::<u32>()),
            proptest::collection::vec(any::<u8>(), 0..2048),
            proptest::bool::ANY,
            proptest::bool::ANY,
        )
            .prop_map(|(sensor, index, seq, ack, payload, fused, relayed)| {
                let stream = StreamId::new(
                    SensorId::new(sensor).expect("generated within range"),
                    crate::ids::StreamIndex::new(index),
                );
                let mut b =
                    DataMessage::builder(stream).seq(SequenceNumber::new(seq)).payload(payload);
                if let Some(a) = ack {
                    b = b.ack(RequestId::new(a));
                }
                if fused {
                    b = b.flag(HeaderFlags::FUSED);
                }
                if relayed {
                    b = b.flag(HeaderFlags::RELAYED | HeaderFlags::MULTI_HOP);
                }
                b.build().expect("valid by construction")
            })
    }

    proptest! {
        #[test]
        fn encode_decode_round_trip(msg in arb_message()) {
            let bytes = msg.encode_to_vec();
            let (back, used) = DataMessage::decode(&bytes).unwrap();
            prop_assert_eq!(back, msg);
            prop_assert_eq!(used, bytes.len());
        }

        #[test]
        fn single_bit_corruption_never_yields_different_message(
            msg in arb_message(),
            byte in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let clean = msg.encode_to_vec();
            let mut bad = clean.clone();
            let i = byte.index(bad.len());
            bad[i] ^= 1 << bit;
            if let Ok((m, _)) = DataMessage::decode(&bad) {
                prop_assert_eq!(m, msg);
            }
        }

        /// Fuzz the validated-header fast path against the legacy
        /// decode on arbitrary (mostly garbage) byte strings: the two
        /// must agree exactly, `FrameHeader::parse` must never panic,
        /// and a parse success must mean decode only has the CRC left
        /// to reject.
        #[test]
        fn validated_header_agrees_with_decode_on_garbage(
            raw in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let frame = FrameBytes::from(raw.clone());
            let legacy = DataMessage::decode(&raw);
            match FrameHeader::parse(&raw) {
                Err(e) => {
                    // Header rejection is exactly decode's rejection.
                    prop_assert_eq!(legacy.unwrap_err(), e);
                }
                Ok(hdr) => {
                    prop_assert!(hdr.total_len() <= raw.len());
                    prop_assert_eq!(
                        hdr.payload_offset() + hdr.payload_len(),
                        hdr.total_len() - 2,
                    );
                    match (legacy, DataMessage::decode_validated(&frame, &hdr)) {
                        (Ok((a, used)), Ok(b)) => {
                            prop_assert_eq!(&a, &b);
                            prop_assert_eq!(used, hdr.total_len());
                            prop_assert_eq!(a.stream(), hdr.stream());
                            prop_assert_eq!(a.seq(), hdr.seq());
                            prop_assert_eq!(a.ack(), hdr.ack());
                        }
                        (Err(a), Err(b)) => {
                            // Past a valid header only the CRC can fail.
                            prop_assert!(matches!(a, WireError::BadChecksum { .. }));
                            prop_assert_eq!(a, b);
                        }
                        (a, b) => {
                            prop_assert!(false,
                                "decode {:?} disagrees with validated path {:?}", a, b);
                        }
                    }
                }
            }
        }

        /// A mutated valid frame never panics either path and never
        /// yields different messages from the copy and zero-copy
        /// decoders, and `frame_is_intact` says whether it decodes.
        #[test]
        fn mutated_frame_paths_stay_consistent(
            msg in arb_message(),
            flips in proptest::collection::vec((any::<prop::sample::Index>(), 0u8..8), 0..6),
            cut in any::<prop::sample::Index>(),
        ) {
            let mut bad = msg.encode_to_vec();
            for (byte, bit) in flips {
                let i = byte.index(bad.len());
                bad[i] ^= 1 << bit;
            }
            bad.truncate(cut.index(bad.len() + 1));
            let frame = FrameBytes::from(bad.clone());
            prop_assert_eq!(frame_is_intact(&bad), DataMessage::decode_frame(&frame).is_ok());
            match (DataMessage::decode(&bad), DataMessage::decode_frame(&frame)) {
                (Ok((a, ua)), Ok((b, ub))) => {
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(ua, ub);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => {
                    prop_assert!(false,
                        "decode {:?} disagrees with decode_frame {:?}", a, b);
                }
            }
        }

        /// The zero-copy decode really is zero-copy: the payload view
        /// points into the arrival buffer.
        #[test]
        fn decode_frame_payload_shares_the_arrival_buffer(msg in arb_message()) {
            let frame = FrameBytes::from(msg.encode_to_vec());
            let (back, _) = DataMessage::decode_frame(&frame).unwrap();
            prop_assert_eq!(back.payload().as_ref(), msg.payload().as_ref());
            if !back.payload().is_empty() {
                let hdr = FrameHeader::parse(&frame).unwrap();
                let expect = unsafe { frame.as_ptr().add(hdr.payload_offset()) };
                prop_assert_eq!(back.payload().as_ptr(), expect);
            }
        }

        #[test]
        fn prefix_never_decodes(msg in arb_message()) {
            let bytes = msg.encode_to_vec();
            // Any strict prefix is either truncated or (rarely, if the
            // payload-size field makes a shorter message parse) must fail
            // the checksum — it must never produce a *different* message.
            for cut in [bytes.len().saturating_sub(1), bytes.len() / 2, 1] {
                if cut >= bytes.len() { continue; }
                match DataMessage::decode(&bytes[..cut]) {
                    Err(_) => {}
                    Ok((m, _)) => prop_assert_eq!(m, msg.clone()),
                }
            }
        }
    }
}
