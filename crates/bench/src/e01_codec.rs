//! E1 — Figure 2 codec: encode/decode round-trip cost across payload
//! sizes.
//!
//! Regenerates the message-format figure as a table of wire sizes and
//! verifies header overhead is the constant 11 bytes (9-byte fixed
//! header + 2-byte CRC) the format promises, independent of payload.

use garnet_wire::{DataMessage, SequenceNumber, StreamId};

use crate::table::{n, Table};

/// One measured point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodecPoint {
    /// Payload bytes.
    pub payload_len: usize,
    /// Total encoded bytes.
    pub encoded_len: usize,
    /// Header + trailer overhead bytes.
    pub overhead: usize,
}

/// The payload sizes the experiment sweeps (up to the 64 KiB wire
/// limit).
pub(crate) const PAYLOAD_SIZES: [usize; 8] = [0, 8, 16, 64, 256, 1024, 8192, 65535];

/// Builds a message with the given payload size.
pub(crate) fn sample_message(payload_len: usize) -> DataMessage {
    DataMessage::builder(StreamId::from_raw(0x00AB_CD01))
        .seq(SequenceNumber::new(12_345))
        .payload(vec![0x5Au8; payload_len])
        .build()
        .expect("payload within limits")
}

/// Runs the sweep.
pub fn run() -> (Vec<CodecPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E1 — Fig. 2 message codec (encode/decode round-trip)",
        &["payload B", "encoded B", "overhead B", "round-trip"],
    );
    for &len in &PAYLOAD_SIZES {
        let msg = sample_message(len);
        let bytes = msg.encode_to_vec();
        let (back, used) = DataMessage::decode(&bytes).expect("round trip");
        assert_eq!(back, msg);
        assert_eq!(used, bytes.len());
        let point =
            CodecPoint { payload_len: len, encoded_len: bytes.len(), overhead: bytes.len() - len };
        table.row(&[n(len as u64), n(bytes.len() as u64), n(point.overhead as u64), "ok".into()]);
        points.push(point);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_constant_11_bytes() {
        let (points, _) = run();
        assert_eq!(points.len(), PAYLOAD_SIZES.len());
        for p in &points {
            assert_eq!(p.overhead, 11, "payload {}", p.payload_len);
        }
    }

    #[test]
    fn table_renders() {
        let (_, t) = run();
        let s = t.render();
        assert!(s.contains("65535"));
    }
}
