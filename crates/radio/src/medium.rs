//! The unreliable wireless medium.
//!
//! Connects transmitting sensors to the fixed receiver array (uplink) and
//! fixed transmitters to receive-capable sensors (downlink). The medium
//! produces exactly the pathologies the paper's middleware services
//! absorb: loss (mobility out of range, fading), duplication (overlapping
//! receivers), variable latency, and — optionally — bit corruption that
//! the wire CRC must catch.
//!
//! The path-loss model is not the medium's: it belongs to the
//! deployment (`GarnetConfig::propagation`), whose Location Service
//! inverts the same model, so every call takes it as an argument.

use bytes::Bytes;
use garnet_simkit::geometry::Point;
use garnet_simkit::{Propagation, Receiver, ReceiverId, SimDuration, SimRng, SimTime, Transmitter};

/// One frame as heard by one receiver. The same transmission heard by
/// `k` overlapping receivers produces `k` `Reception`s — the duplication
/// the Filtering Service removes.
#[derive(Clone, Debug, PartialEq)]
pub struct Reception {
    /// Which receiver heard the frame.
    pub receiver: ReceiverId,
    /// When the frame arrived at the fixed network.
    pub received_at: SimTime,
    /// Received signal strength (dBm), for location inference.
    pub rssi_dbm: f64,
    /// The frame bytes as received (possibly corrupted in flight; the
    /// wire CRC decides).
    pub frame: Bytes,
}

/// Medium parameters: everything about a link but its path loss.
#[derive(Clone, Debug)]
pub struct Medium {
    /// Fixed per-hop latency (front-end processing, framing).
    pub base_latency: SimDuration,
    /// Uniform extra latency in `[0, jitter)` added per reception.
    pub jitter: SimDuration,
    /// Probability that a delivered frame suffers one flipped bit
    /// (residual channel errors below the PHY's FEC).
    pub bit_flip_prob: f64,
}

impl Medium {
    /// A medium that adds nothing to the path-loss model: fixed latency,
    /// no jitter, no corruption.
    pub fn ideal() -> Medium {
        Medium {
            base_latency: SimDuration::from_micros(500),
            jitter: SimDuration::ZERO,
            bit_flip_prob: 0.0,
        }
    }

    /// An 802.11b-flavoured outdoor medium with jitter and rare residual
    /// bit errors (pair it with [`Propagation::wifi_outdoor`]).
    pub fn wifi_outdoor() -> Medium {
        Medium {
            base_latency: SimDuration::from_micros(800),
            jitter: SimDuration::from_micros(400),
            bit_flip_prob: 1e-3,
        }
    }

    fn arrival(&self, sent_at: SimTime, rng: &mut SimRng) -> SimTime {
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(rng.below(self.jitter.as_micros().max(1)))
        };
        sent_at.saturating_add(self.base_latency).saturating_add(jitter)
    }

    fn maybe_corrupt(&self, frame: &Bytes, rng: &mut SimRng) -> Bytes {
        if self.bit_flip_prob > 0.0 && !frame.is_empty() && rng.chance(self.bit_flip_prob) {
            let mut bytes = frame.to_vec();
            let i = rng.below(bytes.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            bytes[i] ^= 1 << bit;
            Bytes::from(bytes)
        } else {
            frame.clone()
        }
    }

    /// Propagates one sensor transmission to the receiver array.
    ///
    /// Every receiver whose nominal range covers the origin, within the
    /// model's practical range, rolls `propagation` independently; each
    /// success yields a [`Reception`]. Zero receptions = the message is
    /// lost (§4.2: roaming "may cause data messages to be lost"); two or
    /// more = duplication for the Filtering Service.
    pub fn uplink(
        &self,
        origin: Point,
        frame: &Bytes,
        receivers: &[Receiver],
        propagation: &Propagation,
        sent_at: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Reception> {
        let mut out = Vec::new();
        let practical = propagation.practical_range();
        for r in receivers {
            let d = origin.distance_to(r.position());
            if d > r.range_m().min(practical) {
                continue;
            }
            if let Some(rssi) = propagation.deliver(d, rng) {
                out.push(Reception {
                    receiver: r.id(),
                    received_at: self.arrival(sent_at, rng),
                    rssi_dbm: rssi,
                    frame: self.maybe_corrupt(frame, rng),
                });
            }
        }
        out
    }

    /// Propagates a transmission from `peer_positions[sender]` to the
    /// other *peer sensors* (the §8 multi-hop substrate): every one
    /// within `peer_range_m` whose `propagation` roll succeeds overhears
    /// the frame. Returns the indices into `peer_positions` (excluding
    /// `sender`) with arrival times. Whether a hearer relays is its own
    /// decision (`SensorNode::maybe_relay`).
    pub fn overhear(
        &self,
        sender: usize,
        peer_positions: &[Point],
        peer_range_m: f64,
        propagation: &Propagation,
        sent_at: SimTime,
        rng: &mut SimRng,
    ) -> Vec<(usize, SimTime)> {
        let mut out = Vec::new();
        let Some(&origin) = peer_positions.get(sender) else {
            return out;
        };
        for (i, &p) in peer_positions.iter().enumerate() {
            if i == sender {
                continue;
            }
            let d = origin.distance_to(p);
            if d > peer_range_m {
                continue;
            }
            if propagation.deliver(d, rng).is_some() {
                out.push((i, self.arrival(sent_at, rng)));
            }
        }
        out
    }

    /// Broadcasts a control frame from one fixed transmitter. Returns
    /// the indices (into `sensor_positions`) of the sensors whose radios
    /// hear it under `propagation`, with per-sensor arrival times.
    ///
    /// Whether a hearing sensor *acts* is its own business
    /// (`SensorNode::handle_request` checks capability and identity).
    pub fn downlink(
        &self,
        tx: &Transmitter,
        sensor_positions: &[Point],
        propagation: &Propagation,
        sent_at: SimTime,
        rng: &mut SimRng,
    ) -> Vec<(usize, SimTime)> {
        let mut out = Vec::new();
        for (i, &p) in sensor_positions.iter().enumerate() {
            let d = tx.position().distance_to(p);
            if d > tx.range_m() {
                continue;
            }
            if propagation.deliver(d, rng).is_some() {
                out.push((i, self.arrival(sent_at, rng)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_simkit::TransmitterId;

    fn frame() -> Bytes {
        Bytes::from_static(b"0123456789abcdef")
    }

    #[test]
    fn overlapping_receivers_duplicate() {
        let prop = Propagation::UnitDisk { range_m: 100.0 };
        let medium = Medium::ideal();
        let receivers = vec![
            Receiver::new(ReceiverId::new(0), Point::new(0.0, 0.0), 100.0),
            Receiver::new(ReceiverId::new(1), Point::new(60.0, 0.0), 100.0),
            Receiver::new(ReceiverId::new(2), Point::new(500.0, 0.0), 100.0),
        ];
        let mut rng = SimRng::seed(1);
        let hits = medium.uplink(
            Point::new(30.0, 0.0),
            &frame(),
            &receivers,
            &prop,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].receiver, ReceiverId::new(0));
        assert_eq!(hits[1].receiver, ReceiverId::new(1));
    }

    #[test]
    fn out_of_range_is_lost() {
        let prop = Propagation::UnitDisk { range_m: 50.0 };
        let medium = Medium::ideal();
        let receivers = vec![Receiver::new(ReceiverId::new(0), Point::ORIGIN, 50.0)];
        let mut rng = SimRng::seed(2);
        let hits = medium.uplink(
            Point::new(80.0, 0.0),
            &frame(),
            &receivers,
            &prop,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn latency_includes_base_and_bounded_jitter() {
        let prop = Propagation::UnitDisk { range_m: 100.0 };
        let mut medium = Medium::ideal();
        medium.jitter = SimDuration::from_micros(200);
        let receivers = vec![Receiver::new(ReceiverId::new(0), Point::ORIGIN, 100.0)];
        let mut rng = SimRng::seed(3);
        for _ in 0..100 {
            let hits = medium.uplink(
                Point::ORIGIN,
                &frame(),
                &receivers,
                &prop,
                SimTime::from_secs(1),
                &mut rng,
            );
            let dt = hits[0].received_at - SimTime::from_secs(1);
            assert!(dt >= SimDuration::from_micros(500));
            assert!(dt < SimDuration::from_micros(700));
        }
    }

    #[test]
    fn corruption_rate_close_to_configured() {
        let prop = Propagation::UnitDisk { range_m: 100.0 };
        let mut medium = Medium::ideal();
        medium.bit_flip_prob = 0.3;
        let receivers = vec![Receiver::new(ReceiverId::new(0), Point::ORIGIN, 100.0)];
        let mut rng = SimRng::seed(4);
        let f = frame();
        let mut corrupted = 0;
        let n = 5000;
        for _ in 0..n {
            let hits = medium.uplink(Point::ORIGIN, &f, &receivers, &prop, SimTime::ZERO, &mut rng);
            if hits[0].frame != f {
                corrupted += 1;
            }
        }
        let rate = corrupted as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "rate={rate}");
    }

    #[test]
    fn corrupted_frames_flip_exactly_one_bit() {
        let prop = Propagation::UnitDisk { range_m: 100.0 };
        let mut medium = Medium::ideal();
        medium.bit_flip_prob = 1.0;
        let receivers = vec![Receiver::new(ReceiverId::new(0), Point::ORIGIN, 100.0)];
        let mut rng = SimRng::seed(5);
        let f = frame();
        let hits = medium.uplink(Point::ORIGIN, &f, &receivers, &prop, SimTime::ZERO, &mut rng);
        let diff: u32 = hits[0].frame.iter().zip(f.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn downlink_reaches_sensors_in_range() {
        let prop = Propagation::UnitDisk { range_m: 100.0 };
        let medium = Medium::ideal();
        let tx = Transmitter::new(TransmitterId::new(0), Point::ORIGIN, 100.0);
        let positions = vec![Point::new(10.0, 0.0), Point::new(99.0, 0.0), Point::new(150.0, 0.0)];
        let mut rng = SimRng::seed(6);
        let reached = medium.downlink(&tx, &positions, &prop, SimTime::ZERO, &mut rng);
        let idx: Vec<usize> = reached.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, vec![0, 1]);
        for &(_, at) in &reached {
            assert!(at > SimTime::ZERO);
        }
    }

    #[test]
    fn lossy_propagation_loses_some_uplinks() {
        let prop = Propagation::wifi_outdoor();
        let medium = Medium::wifi_outdoor();
        let receivers = vec![Receiver::new(ReceiverId::new(0), Point::ORIGIN, 400.0)];
        let mut rng = SimRng::seed(7);
        let f = frame();
        // At 150 m the outdoor model is in its lossy fringe (the 50%
        // point sits near 100 m): some frames arrive, some do not.
        let delivered = (0..2000)
            .filter(|_| {
                !medium
                    .uplink(Point::new(150.0, 0.0), &f, &receivers, &prop, SimTime::ZERO, &mut rng)
                    .is_empty()
            })
            .count();
        assert!(delivered > 0, "nothing delivered at 150m");
        assert!(delivered < 2000, "nothing lost at 150m");
    }

    #[test]
    fn overhear_excludes_sender_and_respects_range() {
        let prop = Propagation::UnitDisk { range_m: 500.0 };
        let medium = Medium::ideal();
        let positions = vec![
            Point::new(0.0, 0.0),  // sender
            Point::new(30.0, 0.0), // near peer
            Point::new(90.0, 0.0), // far peer (outside peer range)
        ];
        let mut rng = SimRng::seed(8);
        let heard = medium.overhear(0, &positions, 50.0, &prop, SimTime::ZERO, &mut rng);
        let idx: Vec<usize> = heard.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, vec![1], "only the in-range peer, never the sender");
        for &(_, at) in &heard {
            assert!(at > SimTime::ZERO);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let prop = Propagation::wifi_outdoor();
        let medium = Medium::wifi_outdoor();
        let receivers = Receiver::grid(Point::ORIGIN, 3, 3, 150.0, 300.0);
        let run = |seed: u64| {
            let mut rng = SimRng::seed(seed);
            let mut log = Vec::new();
            for i in 0..50 {
                let p = Point::new(i as f64 * 7.0, i as f64 * 3.0);
                let hits = medium.uplink(
                    p,
                    &frame(),
                    &receivers,
                    &prop,
                    SimTime::from_millis(i),
                    &mut rng,
                );
                log.push(hits.len());
            }
            log
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
