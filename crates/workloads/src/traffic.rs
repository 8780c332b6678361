//! Synthetic message traffic for microbenchmarks.
//!
//! The codec, filtering and dispatch experiments need controlled streams
//! of wire messages with known rates, payload sizes and disturbance
//! patterns (duplication, reordering, corruption) — without paying for a
//! full radio simulation. [`TrafficGen`] produces them deterministically
//! from a seed.

use bytes::Bytes;
use garnet_simkit::{SimDuration, SimRng, SimTime};
use garnet_wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex, WireError};

/// A generated frame with its arrival time and source receiver tag.
#[derive(Clone, Debug)]
pub struct ArrivingFrame {
    /// When the frame reaches the fixed network.
    pub at: SimTime,
    /// Which receiver heard it (for filtering/location experiments).
    pub receiver: u32,
    /// Encoded bytes.
    pub frame: Bytes,
}

/// Deterministic traffic generator.
#[derive(Debug)]
pub struct TrafficGen {
    rng: SimRng,
}

impl TrafficGen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TrafficGen { rng: SimRng::seed(seed) }
    }

    /// Builds one data message.
    fn message(stream: StreamId, seq: u16, payload_len: usize) -> Result<DataMessage, WireError> {
        DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![0xA5u8; payload_len])
            .build()
    }

    /// An in-order burst of `n` encoded frames on one stream, arriving
    /// every `gap`, each heard by `copies` overlapping receivers
    /// (duplication), with probability `reorder_prob` of each adjacent
    /// pair swapping.
    ///
    /// # Errors
    ///
    /// A `sensor` past [`SensorId::MAX`], or a `payload_len` past the
    /// wire's payload limit.
    pub fn burst(
        &mut self,
        sensor: u32,
        n: u16,
        payload_len: usize,
        gap: SimDuration,
        copies: u32,
        reorder_prob: f64,
    ) -> Result<Vec<ArrivingFrame>, WireError> {
        let stream = StreamId::new(SensorId::new(sensor)?, StreamIndex::new(0));
        let mut frames: Vec<ArrivingFrame> = Vec::with_capacity(n as usize * copies as usize);
        for seq in 0..n {
            let bytes = Bytes::from(Self::message(stream, seq, payload_len)?.encode_to_vec());
            let base = SimTime::ZERO + gap * u64::from(seq);
            for c in 0..copies {
                frames.push(ArrivingFrame {
                    at: base.saturating_add(SimDuration::from_micros(u64::from(c) * 10)),
                    receiver: c,
                    frame: bytes.clone(),
                });
            }
        }
        // Local reordering: swap adjacent frames with the given
        // probability (models receiver-path jitter).
        let mut i = 0;
        while i + 1 < frames.len() {
            if self.rng.chance(reorder_prob) {
                let t_a = frames[i].at;
                let t_b = frames[i + 1].at;
                frames[i].at = t_b;
                frames[i + 1].at = t_a;
                frames.swap(i, i + 1);
            }
            i += 2;
        }
        Ok(frames)
    }

    /// Flips one random bit in a fraction `corruption_rate` of the
    /// frames (the CRC-rejection workload).
    pub fn corrupt(&mut self, frames: &mut [ArrivingFrame], corruption_rate: f64) -> usize {
        let mut corrupted = 0;
        for f in frames.iter_mut() {
            if self.rng.chance(corruption_rate) && !f.frame.is_empty() {
                let mut bytes = f.frame.to_vec();
                let i = self.rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << self.rng.below(8);
                f.frame = Bytes::from(bytes);
                corrupted += 1;
            }
        }
        corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_produces_decodable_duplicated_frames() {
        let mut g = TrafficGen::new(2);
        let frames = g.burst(1, 10, 16, SimDuration::from_millis(10), 3, 0.0).unwrap();
        assert_eq!(frames.len(), 30);
        for f in &frames {
            let (msg, _) = DataMessage::decode(&f.frame).unwrap();
            assert_eq!(msg.stream().sensor().as_u32(), 1);
            assert_eq!(msg.payload().len(), 16);
        }
        // Copies share receiver tags 0..3.
        assert!(frames.iter().any(|f| f.receiver == 2));
    }

    #[test]
    fn reordering_preserves_multiset() {
        let mut g = TrafficGen::new(3);
        let ordered = g.burst(1, 50, 8, SimDuration::from_millis(1), 1, 0.0).unwrap();
        let mut g2 = TrafficGen::new(3);
        let shuffled = g2.burst(1, 50, 8, SimDuration::from_millis(1), 1, 0.9).unwrap();
        let mut a: Vec<&[u8]> = ordered.iter().map(|f| f.frame.as_ref()).collect();
        let mut b: Vec<&[u8]> = shuffled.iter().map(|f| f.frame.as_ref()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_ne!(
            ordered.iter().map(|f| f.frame.clone()).collect::<Vec<_>>(),
            shuffled.iter().map(|f| f.frame.clone()).collect::<Vec<_>>(),
            "with p=0.9 some pair must have swapped"
        );
    }

    #[test]
    fn out_of_range_input_is_an_error() {
        let mut g = TrafficGen::new(5);
        let gap = SimDuration::from_millis(1);
        assert!(g.burst(SensorId::MAX.as_u32() + 1, 1, 8, gap, 1, 0.0).is_err());
        assert!(g.burst(1, 1, usize::from(u16::MAX) + 1, gap, 1, 0.0).is_err());
    }

    #[test]
    fn corruption_rate_roughly_matches() {
        let mut g = TrafficGen::new(4);
        let mut frames = g.burst(1, 1000, 16, SimDuration::from_millis(1), 1, 0.0).unwrap();
        let n = g.corrupt(&mut frames, 0.3);
        assert!((200..400).contains(&n), "corrupted {n}/1000");
        // Corrupted frames fail CRC.
        let failures = frames.iter().filter(|f| DataMessage::decode(&f.frame).is_err()).count();
        assert_eq!(failures, n);
    }
}
