//! E15 — multi-hop relaying (§8 future work, implemented).
//!
//! "Exploration of the implications of supporting multi-hop routing
//! within the sensor network … Initial support has been provided by
//! tagging the message header to reflect multi-hop and relayed data
//! messages" (§8). The experiment deploys sensors at increasing distance
//! beyond the receiver horizon with a chain-adjacent relay node and
//! measures delivery with relaying off vs on, plus the energy the relay
//! pays for the coverage extension.

use garnet_core::middleware::GarnetConfig;
use garnet_radio::field::Uniform;
use garnet_radio::geometry::Point;
use garnet_radio::{
    Medium, Propagation, Receiver, ReceiverId, SensorCaps, SensorNode, StreamConfig,
};
use garnet_simkit::{SimDuration, SimTime};
use garnet_wire::{SensorId, StreamIndex};
use garnet_workloads::pipeline::{PipelineConfig, PipelineSim};

use crate::table::{f2, n, Table};

/// One distance point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultihopPoint {
    /// Source distance from the receiver (m); receiver range is 100 m.
    pub source_distance_m: f64,
    /// Deliveries without relaying.
    pub delivered_without: u64,
    /// Deliveries with relaying enabled.
    pub delivered_with: u64,
    /// Relay transmissions spent.
    pub relay_tx: u64,
    /// Relay energy spent (µJ).
    pub relay_energy_uj: f64,
}

const RECEIVER_RANGE: f64 = 100.0;
const PEER_RANGE: f64 = 120.0;
const HORIZON_S: u64 = 60;

/// Runs one source distance, with and without relaying. The relay sits
/// halfway between the source and the receiver.
pub(crate) fn run_point(source_distance_m: f64, seed: u64) -> MultihopPoint {
    let run = |peer_range: Option<f64>| {
        let receivers = vec![Receiver::new(ReceiverId::new(0), Point::ORIGIN, RECEIVER_RANGE)];
        let cfg = PipelineConfig {
            seed,
            medium: Medium::ideal(),
            garnet: GarnetConfig {
                receivers,
                propagation: Propagation::UnitDisk { range_m: 400.0 },
                ..GarnetConfig::default()
            },
            peer_range_m: peer_range,
        };
        let mut sim = PipelineSim::new(cfg, Box::new(Uniform(1.0)));
        sim.add_sensor(
            SensorNode::new(SensorId::new(1).unwrap(), Point::new(source_distance_m, 0.0))
                .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(1))),
        );
        let relay_idx = sim.add_sensor(
            SensorNode::new(SensorId::new(2).unwrap(), Point::new(source_distance_m / 2.0, 0.0))
                .with_caps(SensorCaps::relay()),
        );
        sim.run_until(SimTime::from_secs(HORIZON_S));
        let relay_energy = sim.sensors()[relay_idx].energy_consumed_nj();
        (sim.garnet().filtering().delivered_count(), sim.relayed_transmission_count(), relay_energy)
    };
    let (delivered_without, _, _) = run(None);
    let (delivered_with, relay_tx, relay_energy_nj) = run(Some(PEER_RANGE));
    MultihopPoint {
        source_distance_m,
        delivered_without,
        delivered_with,
        relay_tx,
        relay_energy_uj: relay_energy_nj as f64 / 1000.0,
    }
}

/// Runs the distance sweep.
pub fn run() -> (Vec<MultihopPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E15 — §8 multi-hop relaying: coverage beyond the receiver horizon (range 100 m)",
        &["source at m", "delivered (no relay)", "delivered (relay)", "relay tx", "relay µJ"],
    );
    for &d in &[80.0f64, 120.0, 160.0, 200.0, 260.0] {
        let p = run_point(d, 0xE15);
        table.row(&[
            f2(p.source_distance_m),
            n(p.delivered_without),
            n(p.delivered_with),
            n(p.relay_tx),
            f2(p.relay_energy_uj),
        ]);
        points.push(p);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_rescues_out_of_range_sources() {
        let (points, _) = run();
        for p in &points {
            if p.source_distance_m <= RECEIVER_RANGE {
                // In range: relaying changes nothing material.
                assert!(p.delivered_without >= HORIZON_S - 1);
            } else if p.source_distance_m / 2.0 <= RECEIVER_RANGE.min(PEER_RANGE) {
                // Rescuable: out of receiver range, relay in both ranges.
                assert_eq!(p.delivered_without, 0, "at {}", p.source_distance_m);
                assert!(
                    p.delivered_with >= HORIZON_S - 1,
                    "relay must carry {} m source: {}",
                    p.source_distance_m,
                    p.delivered_with
                );
                assert!(p.relay_tx > 0);
                assert!(p.relay_energy_uj > 0.0);
            }
        }
    }

    #[test]
    fn beyond_relay_reach_stays_dark() {
        // Source at 260 m: relay at 130 m is itself out of receiver
        // range, so even the relayed copy dies.
        let p = run_point(260.0, 1);
        assert_eq!(p.delivered_with, 0);
    }

    #[test]
    fn in_range_source_pays_no_relay_penalty() {
        let p = run_point(80.0, 2);
        // Direct copy delivered; relayed duplicates are absorbed by the
        // filtering service, so delivery count is identical.
        assert_eq!(p.delivered_without, p.delivered_with);
    }
}
