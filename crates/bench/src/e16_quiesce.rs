//! E16 — demand-driven quiescence (§8 "predictive resource management
//! strategies based on … system-inferred changes to data usage
//! patterns", implemented).
//!
//! A field of sensors transmits; only a fraction has any subscriber.
//! With quiescence on, the middleware infers the unclaimed streams from
//! its own catalogue and slows them down through the ordinary actuation
//! path, then restores a stream the moment a late subscriber claims it.
//! The metric is the sensor fleet's radio energy over the run — what a
//! battery budget actually buys.

use garnet_core::middleware::{GarnetConfig, QuiesceConfig};
use garnet_core::TopicFilter;
use garnet_radio::field::Uniform;
use garnet_radio::geometry::Point;
use garnet_radio::{
    Medium, Propagation, Receiver, SensorCaps, SensorNode, StreamConfig, Transmitter,
};
use garnet_simkit::{SimDuration, SimTime};
use garnet_wire::{SensorId, StreamIndex};
use garnet_workloads::pipeline::{PipelineConfig, PipelineSim, SharedCountConsumer};

use crate::table::{f2, n, Table};

/// Results of one configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuiescePoint {
    /// Whether quiescence was enabled.
    pub enabled: bool,
    /// Total fleet radio energy (mJ).
    pub fleet_energy_mj: f64,
    /// Energy of the unclaimed half of the fleet (mJ).
    pub unclaimed_energy_mj: f64,
    /// Messages delivered to the subscribed consumer (must not change).
    pub delivered_to_consumer: u64,
    /// Quiesce actions taken.
    pub quiesce_actions: u64,
    /// Restore actions taken.
    pub restore_actions: u64,
}

const SENSORS: u32 = 12;
const HORIZON_S: u64 = 1_800;

/// Runs one configuration: half the sensors subscribed, half unclaimed.
pub(crate) fn run_point(enabled: bool, seed: u64) -> QuiescePoint {
    let receivers = Receiver::grid(Point::ORIGIN, 2, 2, 200.0, 300.0);
    let transmitters = Transmitter::grid(Point::ORIGIN, 2, 2, 200.0, 300.0);
    let quiesce = enabled.then_some(QuiesceConfig {
        idle_after: SimDuration::from_secs(120),
        slow_interval_ms: 300_000, // 5 min instead of 5 s
        restore_interval_ms: 5_000,
    });
    let config = PipelineConfig {
        seed,
        medium: Medium::ideal(Propagation::UnitDisk { range_m: 300.0 }),
        garnet: GarnetConfig { receivers, transmitters, quiesce, ..GarnetConfig::default() },
        peer_range_m: None,
    };
    let mut sim = PipelineSim::new(config, Box::new(Uniform(3.0)));
    for i in 0..SENSORS {
        sim.add_sensor(
            SensorNode::new(
                SensorId::new(i + 1).unwrap(),
                Point::new(50.0 + f64::from(i % 4) * 80.0, 50.0 + f64::from(i / 4) * 80.0),
            )
            .with_caps(SensorCaps::sophisticated())
            .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(5))),
        );
    }

    // One consumer watches the first half of the fleet.
    let token = sim.garnet_mut().issue_default_token("half-watcher");
    let (consumer, count) = SharedCountConsumer::new("half-watcher");
    let id = sim.garnet_mut().register_consumer(Box::new(consumer), &token, 0).unwrap();
    for s in 1..=SENSORS / 2 {
        sim.garnet_mut()
            .subscribe(id, TopicFilter::Sensor(SensorId::new(s).unwrap()), &token)
            .unwrap();
    }

    sim.run_until(SimTime::from_secs(HORIZON_S));
    let fleet: u64 = sim.sensors().iter().map(|s| s.energy_consumed_nj()).sum();
    let unclaimed: u64 =
        sim.sensors()[(SENSORS / 2) as usize..].iter().map(|s| s.energy_consumed_nj()).sum();
    QuiescePoint {
        enabled,
        fleet_energy_mj: fleet as f64 / 1e6,
        unclaimed_energy_mj: unclaimed as f64 / 1e6,
        delivered_to_consumer: count.load(std::sync::atomic::Ordering::Relaxed),
        quiesce_actions: sim.garnet().quiesce_action_count(),
        restore_actions: sim.garnet().restore_action_count(),
    }
}

/// Runs both configurations.
pub fn run() -> (QuiescePoint, QuiescePoint, Table) {
    let off = run_point(false, 0xE16);
    let on = run_point(true, 0xE16);
    let mut table = Table::new(
        "E16 — demand-driven quiescence: fleet energy, half the streams unclaimed (30 min)",
        &["quiesce", "fleet mJ", "unclaimed-half mJ", "delivered to consumer", "quiesce actions"],
    );
    for p in [&off, &on] {
        table.row(&[
            p.enabled.to_string(),
            f2(p.fleet_energy_mj),
            f2(p.unclaimed_energy_mj),
            n(p.delivered_to_consumer),
            n(p.quiesce_actions),
        ]);
    }
    (off, on, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescence_saves_unclaimed_energy_without_hurting_consumers() {
        let (off, on, _) = run();
        assert_eq!(off.quiesce_actions, 0);
        assert_eq!(on.quiesce_actions, u64::from(SENSORS / 2), "every unclaimed stream slowed");
        assert!(
            on.unclaimed_energy_mj < off.unclaimed_energy_mj * 0.35,
            "unclaimed half should spend far less: {} vs {}",
            on.unclaimed_energy_mj,
            off.unclaimed_energy_mj
        );
        // The subscribed half keeps delivering at full rate (allow the
        // small difference from control-message reception energy).
        let ratio = on.delivered_to_consumer as f64 / off.delivered_to_consumer as f64;
        assert!(ratio > 0.99, "consumer deliveries unaffected: ratio={ratio}");
    }

    #[test]
    fn late_subscription_restores_a_quiesced_stream() {
        let receivers = Receiver::grid(Point::ORIGIN, 2, 2, 200.0, 300.0);
        let transmitters = Transmitter::grid(Point::ORIGIN, 2, 2, 200.0, 300.0);
        let config = PipelineConfig {
            seed: 5,
            medium: Medium::ideal(Propagation::UnitDisk { range_m: 300.0 }),
            garnet: GarnetConfig {
                receivers,
                transmitters,
                quiesce: Some(QuiesceConfig {
                    idle_after: SimDuration::from_secs(60),
                    slow_interval_ms: 600_000,
                    restore_interval_ms: 5_000,
                }),
                ..GarnetConfig::default()
            },
            peer_range_m: None,
        };
        let mut sim = PipelineSim::new(config, Box::new(Uniform(1.0)));
        sim.add_sensor(
            SensorNode::new(SensorId::new(1).unwrap(), Point::new(100.0, 100.0))
                .with_caps(SensorCaps::sophisticated())
                .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(5))),
        );
        // Run unclaimed well past the idle window: it gets quiesced.
        sim.run_until(SimTime::from_secs(600));
        assert_eq!(sim.garnet().quiesce_action_count(), 1);
        let tx_at_quiesce = sim.transmission_count();

        // Subscribe late: the stream is restored to 5 s reporting.
        let token = sim.garnet_mut().issue_default_token("late");
        let (consumer, count) = SharedCountConsumer::new("late");
        let id = sim.garnet_mut().register_consumer(Box::new(consumer), &token, 0).unwrap();
        let now = sim.now();
        let (_, out) = sim
            .garnet_mut()
            .subscribe_at(
                id,
                TopicFilter::Stream(garnet_wire::StreamId::new(
                    SensorId::new(1).unwrap(),
                    StreamIndex::new(0),
                )),
                &token,
                now,
            )
            .unwrap();
        sim.carry_out(out);
        sim.run_until(SimTime::from_secs(900));
        assert_eq!(sim.garnet().restore_action_count(), 1);
        let live = count.load(std::sync::atomic::Ordering::Relaxed);
        // 300 s at 5 s intervals ≈ 60 messages (replay adds a few more).
        assert!(live >= 55, "restored stream delivers at full rate: {live}");
        assert!(sim.transmission_count() > tx_at_quiesce + 55);
    }
}
