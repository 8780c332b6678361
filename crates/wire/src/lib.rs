//! The Garnet wire format: data messages, control messages and framing.
//!
//! This crate implements Figure 2 of the paper exactly as published:
//!
//! ```text
//! bit #   0        8                40        56         72
//!         +--------+----------------+---------+----------+-----------------+
//!         | Msg    |   StreamID     | Sequence| Payload  |    PAYLOAD      |
//!         | Header |  (24b sensor + |  (16b)  | Size(16b)|    (opaque)     |
//!         |  (8b)  |   8b stream)   |         |          |                 |
//!         +--------+----------------+---------+----------+-----------------+
//! ```
//!
//! giving the paper's headline capacities: **16.7M sensors** (24-bit
//! [`SensorId`]), **256 internal streams per sensor** (8-bit
//! [`StreamIndex`]), **64K sequence counts** (16-bit [`SequenceNumber`]
//! with RFC-1982 serial arithmetic so streams survive wraparound) and
//! **64KiB payloads** (16-bit payload size). The payload is opaque to the
//! whole infrastructure, which is what lets consumers layer end-to-end
//! encryption on top (see [`crypto`]).
//!
//! The paper notes "we do not indicate the usual checksums"; they exist in
//! the implementation as a CRC-16/CCITT trailer on data messages and a
//! CRC-32 trailer on (rarer, more consequential) control messages.
//!
//! # Example
//!
//! ```
//! use garnet_wire::{DataMessage, SensorId, StreamId, StreamIndex, SequenceNumber};
//!
//! # fn main() -> Result<(), garnet_wire::WireError> {
//! let stream = StreamId::new(SensorId::new(0xABCDE)?, StreamIndex::new(3));
//! let msg = DataMessage::builder(stream)
//!     .seq(SequenceNumber::new(41))
//!     .payload(b"21.5C".as_slice())
//!     .build()?;
//! let bytes = msg.encode_to_vec();
//! let (decoded, used) = DataMessage::decode(&bytes)?;
//! assert_eq!(decoded, msg);
//! assert_eq!(used, bytes.len());
//! # Ok(())
//! # }
//! ```

// Decode reads bytes off the radio, so outside its tests nothing here may
// panic by unwrap, expect or panic!.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub(crate) mod control;
pub mod crc;
pub mod crypto;
pub(crate) mod error;
pub(crate) mod header;
pub(crate) mod ids;
pub(crate) mod message;

pub use control::{
    AckStatus, ActuationTarget, SensorCommand, StreamUpdateAck, StreamUpdateRequest, TargetArea,
};
pub use error::WireError;
pub use header::{HeaderFlags, MsgHeader, WIRE_VERSION};
pub use ids::{RequestId, SensorId, SequenceNumber, StreamId, StreamIndex};
pub use message::{
    frame_is_intact, peek_seq, peek_stream, DataMessage, DataMessageBuilder, FrameBytes,
    FrameHeader, MAX_PAYLOAD_LEN,
};
