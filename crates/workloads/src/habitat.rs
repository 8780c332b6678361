//! Habitat-monitoring scenario: a grid of simple sensors on a study
//! plot.
//!
//! Modelled on the Great Duck Island-style deployment of Mainwaring et
//! al. (the paper's §7 comparison): dozens of low-power, transmit-only
//! nodes report microclimate readings at a slow fixed cadence; a small
//! number of gateway receivers ring the plot. This is the *degenerate*
//! scenario of §5 ("specific, degenerate scenarios, where some subset of
//! the overall functionality was provided") — no actuation path is
//! exercised, which makes it the clean substrate for throughput and
//! filtering experiments.

use crate::pipeline::{PipelineConfig, PipelineSim};
use garnet_core::middleware::GarnetConfig;
use garnet_radio::field::{Diurnal, DynField};
use garnet_radio::geometry::Point;
use garnet_radio::{
    Medium, Propagation, Receiver, SensorCaps, SensorNode, StreamConfig, Transmitter,
};
use garnet_simkit::SimDuration;
use garnet_wire::{SensorId, StreamIndex};

/// Parameters of a habitat deployment.
#[derive(Clone, Debug)]
pub struct HabitatScenario {
    /// Sensors per grid side (total = side²).
    pub grid_side: usize,
    /// Metres between adjacent sensors.
    pub spacing_m: f64,
    /// Reporting interval per sensor.
    pub report_interval: SimDuration,
    /// Receivers per grid side (overlaid coarser grid).
    pub receiver_side: usize,
    /// Receiver listening range.
    pub receiver_range_m: f64,
    /// Physical-layer seed.
    pub seed: u64,
}

impl Default for HabitatScenario {
    fn default() -> Self {
        HabitatScenario {
            grid_side: 6,
            spacing_m: 20.0,
            report_interval: SimDuration::from_secs(30),
            receiver_side: 3,
            receiver_range_m: 120.0,
            seed: 0xDA7A,
        }
    }
}

impl HabitatScenario {
    /// Total sensor count.
    pub fn sensor_count(&self) -> usize {
        self.grid_side * self.grid_side
    }

    /// The diurnal temperature field over the plot.
    pub(crate) fn field(&self) -> DynField {
        Box::new(Diurnal { mean: 12.0, amplitude: 8.0, period_s: 86_400.0, gx: 0.01 })
    }

    /// Builds the sensor population (simple, transmit-only nodes).
    ///
    /// # Panics
    ///
    /// If `grid_side²` exceeds [`SensorId::MAX`].
    #[expect(
        clippy::expect_used,
        reason = "sensor ids run 1..=grid_side², inside the 2^24 id space for any grid that fits in memory"
    )]
    pub fn sensors(&self) -> Vec<SensorNode> {
        let mut out = Vec::with_capacity(self.sensor_count());
        let mut id = 1u32;
        for j in 0..self.grid_side {
            for i in 0..self.grid_side {
                out.push(
                    SensorNode::new(
                        SensorId::new(id).expect("habitat ids stay small"),
                        Point::new(i as f64 * self.spacing_m, j as f64 * self.spacing_m),
                    )
                    .with_caps(SensorCaps::simple())
                    .with_stream(StreamIndex::new(0), StreamConfig::every(self.report_interval)),
                );
                id += 1;
            }
        }
        out
    }

    /// Builds the receiver ring (a coarser overlaid grid).
    pub(crate) fn receivers(&self) -> Vec<Receiver> {
        let extent = (self.grid_side.saturating_sub(1)) as f64 * self.spacing_m;
        let spacing = if self.receiver_side > 1 {
            extent / (self.receiver_side - 1) as f64
        } else {
            extent.max(1.0)
        };
        Receiver::grid(
            Point::ORIGIN,
            self.receiver_side,
            self.receiver_side,
            spacing,
            self.receiver_range_m,
        )
    }

    /// Assembles a ready-to-run pipeline (no transmitters: the scenario
    /// is uplink-only, like the real deployment).
    pub fn build(&self) -> PipelineSim {
        let receivers = self.receivers();
        let config = PipelineConfig {
            seed: self.seed,
            medium: Medium::ideal(),
            garnet: GarnetConfig {
                receivers,
                propagation: Propagation::UnitDisk { range_m: self.receiver_range_m },
                transmitters: Vec::<Transmitter>::new(),
                ..GarnetConfig::default()
            },
            peer_range_m: None,
        };
        let mut sim = PipelineSim::new(config, self.field());
        for s in self.sensors() {
            sim.add_sensor(s);
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SharedCountConsumer;
    use garnet_core::TopicFilter;
    use garnet_simkit::SimTime;
    use std::sync::atomic::Ordering;

    #[test]
    fn default_scenario_has_expected_shape() {
        let s = HabitatScenario::default();
        assert_eq!(s.sensor_count(), 36);
        assert_eq!(s.sensors().len(), 36);
        assert_eq!(s.receivers().len(), 9);
        // All sensors are simple (transmit-only).
        assert!(s.sensors().iter().all(|n| !n.caps().receive_capable));
    }

    #[test]
    fn sensors_have_unique_ids_and_grid_positions() {
        let s = HabitatScenario { grid_side: 3, ..HabitatScenario::default() };
        let sensors = s.sensors();
        let mut ids: Vec<u32> = sensors.iter().map(|n| n.id().as_u32()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 9);
        assert_eq!(sensors[8].position(SimTime::ZERO), Point::new(40.0, 40.0));
    }

    #[test]
    fn pipeline_delivers_habitat_data() {
        let scenario = HabitatScenario {
            grid_side: 3,
            report_interval: SimDuration::from_secs(5),
            ..HabitatScenario::default()
        };
        let mut sim = scenario.build();
        let token = sim.garnet_mut().issue_default_token("ecologist");
        let (consumer, count) = SharedCountConsumer::new("ecologist");
        let id = sim.garnet_mut().register_consumer(Box::new(consumer), &token, 0).unwrap();
        sim.garnet_mut().subscribe(id, TopicFilter::All, &token).unwrap();
        sim.run_until(SimTime::from_secs(60));
        // 9 sensors × (one report every 5s over 60s) ≈ 9 × 13 (incl. t=0).
        let delivered = count.load(Ordering::Relaxed);
        assert!(delivered >= 9 * 12, "delivered={delivered}");
        // Unit-disk coverage with overlap: duplicates happened and were
        // removed.
        assert!(sim.garnet().filtering().duplicate_count() > 0);
    }
}
