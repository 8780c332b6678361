//! E14 — end-to-end payload encryption overhead (§9's "high-level
//! abstraction of data streams supporting end-to-end encryption").
//!
//! The payload is opaque to the infrastructure (§4.3), so sealing costs
//! nothing anywhere except the two ends. The sweep measures the wire
//! overhead (a constant 8-byte tag) across payload sizes and checks
//! that every sealed payload opens; it does not time the cipher —
//! `perfbench` is the only thing that times our code.

use garnet_wire::crypto::PayloadKey;
use garnet_wire::{SequenceNumber, StreamId};

use crate::table::{n, Table};

/// One payload-size point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CryptoPoint {
    /// Plaintext bytes.
    pub payload_len: usize,
    /// Sealed bytes.
    pub sealed_len: usize,
    /// Wire overhead (bytes).
    pub overhead: usize,
}

/// The fixed key every row seals with.
pub(crate) fn bench_key() -> PayloadKey {
    PayloadKey::from_bytes(*b"garnet-e14-bench")
}

/// Seals one payload of `payload_len` bytes and opens it again.
pub(crate) fn run_point(payload_len: usize) -> CryptoPoint {
    let key = bench_key();
    let stream = StreamId::from_raw(0x0000_0100);
    let seq = SequenceNumber::new(7);
    let plaintext = vec![0x42u8; payload_len];
    let sealed = key.seal(stream, seq, &plaintext);
    assert_eq!(key.open(stream, seq, &sealed).expect("authentic"), plaintext);
    CryptoPoint { payload_len, sealed_len: sealed.len(), overhead: sealed.len() - payload_len }
}

/// Runs the payload sweep.
pub fn run() -> (Vec<CryptoPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E14 — end-to-end encryption: wire overhead (XTEA-CTR + CBC-MAC)",
        &["payload B", "sealed B", "overhead B"],
    );
    for &len in &[16usize, 64, 256, 1024, 8192] {
        let p = run_point(len);
        table.row(&[n(p.payload_len as u64), n(p.sealed_len as u64), n(p.overhead as u64)]);
        points.push(p);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_wire::crypto::TAG_LEN;

    #[test]
    fn overhead_is_constant_tag() {
        let (points, _) = run();
        for p in &points {
            assert_eq!(p.overhead, TAG_LEN, "payload {}", p.payload_len);
        }
    }
}
