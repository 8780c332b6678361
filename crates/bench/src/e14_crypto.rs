//! E14 — end-to-end payload encryption overhead (§9's "high-level
//! abstraction of data streams supporting end-to-end encryption").
//!
//! The payload is opaque to the infrastructure (§4.3), so sealing costs
//! nothing anywhere except the two ends. The sweep measures the wire
//! overhead (a constant 8-byte tag) and the seal/open throughput across
//! payload sizes.

use garnet_wire::crypto::PayloadKey;
use garnet_wire::{SequenceNumber, StreamId};

use crate::table::{f2, n, Table};

/// One payload-size point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CryptoPoint {
    /// Plaintext bytes.
    pub payload_len: usize,
    /// Sealed bytes.
    pub sealed_len: usize,
    /// Wire overhead (bytes).
    pub overhead: usize,
    /// Seal throughput (MiB/s, wall clock).
    pub seal_mib_s: f64,
    /// Open throughput (MiB/s, wall clock).
    pub open_mib_s: f64,
}

/// The fixed key every row seals with.
pub fn bench_key() -> PayloadKey {
    PayloadKey::from_bytes(*b"garnet-e14-bench")
}

/// Runs one payload size with `iters` iterations.
pub fn run_point(payload_len: usize, iters: u32) -> CryptoPoint {
    let key = bench_key();
    let stream = StreamId::from_raw(0x0000_0100);
    let plaintext = vec![0x42u8; payload_len];

    let start = std::time::Instant::now();
    let mut sealed = Vec::new();
    for i in 0..iters {
        sealed = key.seal(stream, SequenceNumber::new(i as u16), &plaintext);
        std::hint::black_box(&sealed);
    }
    let seal_elapsed = start.elapsed().as_secs_f64();

    let start = std::time::Instant::now();
    for _ in 0..iters {
        let opened =
            key.open(stream, SequenceNumber::new((iters - 1) as u16), &sealed).expect("authentic");
        std::hint::black_box(&opened);
    }
    let open_elapsed = start.elapsed().as_secs_f64();

    let total_bytes = payload_len as f64 * f64::from(iters);
    CryptoPoint {
        payload_len,
        sealed_len: sealed.len(),
        overhead: sealed.len() - payload_len,
        seal_mib_s: total_bytes / (1024.0 * 1024.0) / seal_elapsed.max(1e-9),
        open_mib_s: total_bytes / (1024.0 * 1024.0) / open_elapsed.max(1e-9),
    }
}

/// Runs the payload sweep.
pub fn run() -> (Vec<CryptoPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E14 — end-to-end encryption: overhead & throughput (XTEA-CTR + CBC-MAC)",
        &["payload B", "sealed B", "overhead B", "seal MiB/s", "open MiB/s"],
    );
    for &len in &[16usize, 64, 256, 1024, 8192] {
        let p = run_point(len, 2_000);
        table.row(&[
            n(p.payload_len as u64),
            n(p.sealed_len as u64),
            n(p.overhead as u64),
            f2(p.seal_mib_s),
            f2(p.open_mib_s),
        ]);
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

    #[test]
    fn throughput_is_positive() {
        let p = run_point(256, 100);
        assert!(p.seal_mib_s > 0.0);
        assert!(p.open_mib_s > 0.0);
    }
}
