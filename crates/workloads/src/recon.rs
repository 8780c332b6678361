//! Military reconnaissance scenario: mobile targets crossing a mixed
//! sensor field.
//!
//! §1 lists "military reconnaissance" beside environmental monitoring as
//! the motivating deployments. Here, emitting targets (vehicles) follow
//! waypoint tracks across a field of mostly simple acoustic sensors,
//! with a minority of sophisticated send-receive nodes. A
//! [`TargetDetector`] consumer thresholds the readings, publishes a
//! derived *detections* stream (multi-level consumption, §4.2) and
//! supplies location hints for the loudest sensor — it knows where its
//! sensors are from the site survey, exercising §5's "a consumer may be
//! able to infer, or otherwise acquire, knowledge of the location of a
//! sensor which is not itself location-aware".

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::pipeline::{PipelineConfig, PipelineSim};
use garnet_core::consumer::{Consumer, ConsumerCtx};
use garnet_core::filtering::Delivery;
use garnet_core::middleware::GarnetConfig;
use garnet_radio::field::DynField;
use garnet_radio::geometry::{Point, Rect};
use garnet_radio::{
    Medium, Mobility, Propagation, Reading, Receiver, SensorCaps, SensorNode, StreamConfig,
    Transmitter,
};
use garnet_simkit::{SimDuration, SimRng, SimTime};
use garnet_wire::{SensorId, StreamIndex};

/// An emitting target moving through the field.
#[derive(Clone, Debug)]
pub struct Target {
    /// Its track.
    pub mobility: Mobility,
    /// Peak signature amplitude.
    pub amplitude: f64,
    /// Signature spread (m).
    pub sigma_m: f64,
}

/// The combined signature field of all targets.
#[derive(Debug)]
pub(crate) struct TargetField {
    /// The targets.
    pub targets: Vec<Target>,
    /// Ambient background level.
    pub background: f64,
}

impl garnet_radio::ScalarField for TargetField {
    fn sample(&self, p: Point, t: SimTime) -> f64 {
        self.background
            + self
                .targets
                .iter()
                .map(|tg| {
                    let c = tg.mobility.position(t);
                    tg.amplitude * (-p.distance_sq(c) / (2.0 * tg.sigma_m * tg.sigma_m)).exp()
                })
                .sum::<f64>()
    }
}

/// One recorded detection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// The sensor that heard the target.
    pub sensor: SensorId,
    /// The reading value.
    pub strength: f64,
    /// When it was delivered.
    pub at_us: u64,
}

/// A consumer that thresholds readings into a derived detections stream.
#[derive(Debug)]
pub struct TargetDetector {
    name: String,
    threshold: f64,
    sensor_positions: HashMap<u32, Point>,
    detections: Arc<Mutex<Vec<Detection>>>,
    in_contact: bool,
}

impl TargetDetector {
    /// Creates a detector with the site survey (sensor positions) and a
    /// detection threshold; returns the shared detection log.
    pub fn new(
        name: impl Into<String>,
        threshold: f64,
        survey: impl IntoIterator<Item = (SensorId, Point)>,
    ) -> (TargetDetector, Arc<Mutex<Vec<Detection>>>) {
        let detections = Arc::new(Mutex::new(Vec::new()));
        (
            TargetDetector {
                name: name.into(),
                threshold,
                sensor_positions: survey.into_iter().map(|(s, p)| (s.as_u32(), p)).collect(),
                detections: Arc::clone(&detections),
                in_contact: false,
            },
            detections,
        )
    }
}

/// Coordinator state: no contact.
pub(crate) const STATE_QUIET: u32 = 10;
/// Coordinator state: target contact.
pub(crate) const STATE_CONTACT: u32 = 11;

impl Consumer for TargetDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_data(&mut self, delivery: &Delivery, ctx: &mut ConsumerCtx) {
        let Some(reading) = Reading::decode(delivery.msg.payload()) else {
            return;
        };
        let sensor = delivery.msg.stream().sensor();
        let hit = reading.value >= self.threshold;
        if hit {
            self.detections.lock().unwrap_or_else(PoisonError::into_inner).push(Detection {
                sensor,
                strength: reading.value,
                at_us: ctx.now().as_micros(),
            });
            // Publish onto the derived detections stream (index 0).
            ctx.publish_derived(StreamIndex::new(0), reading.encode());
            // The detector knows the site survey: hint the middleware
            // about the (not location-aware) sensor's position.
            if let Some(&pos) = self.sensor_positions.get(&sensor.as_u32()) {
                ctx.location_hint(sensor, pos, 5.0);
            }
        }
        if hit != self.in_contact {
            self.in_contact = hit;
            ctx.report_state(if hit { STATE_CONTACT } else { STATE_QUIET });
        }
    }
}

/// Parameters of a reconnaissance deployment.
#[derive(Clone, Debug)]
pub struct ReconScenario {
    /// Field side length (m); sensors scatter uniformly.
    pub field_side_m: f64,
    /// Number of simple (transmit-only) sensors.
    pub simple_sensors: usize,
    /// Number of sophisticated (send-receive) sensors.
    pub sophisticated_sensors: usize,
    /// Reporting interval.
    pub report_interval: SimDuration,
    /// Targets crossing the field.
    pub targets: Vec<Target>,
    /// Seed for placement and physics.
    pub seed: u64,
}

impl Default for ReconScenario {
    fn default() -> Self {
        let crossing = Mobility::Waypoints(vec![
            (0, Point::new(-100.0, 250.0)),
            (120_000_000, Point::new(600.0, 250.0)),
        ]);
        ReconScenario {
            field_side_m: 500.0,
            simple_sensors: 20,
            sophisticated_sensors: 5,
            report_interval: SimDuration::from_secs(5),
            targets: vec![Target { mobility: crossing, amplitude: 80.0, sigma_m: 60.0 }],
            seed: 0x5EC0,
        }
    }
}

impl ReconScenario {
    /// The target signature field.
    pub(crate) fn field(&self) -> DynField {
        Box::new(TargetField { targets: self.targets.clone(), background: 1.0 })
    }

    /// Scatters the sensor population uniformly (deterministic per
    /// seed). Ids `1..=simple` are simple; the rest sophisticated.
    ///
    /// # Panics
    ///
    /// If the two sensor counts together exceed [`SensorId::MAX`].
    #[expect(
        clippy::expect_used,
        reason = "sensor ids run 1..=simple + sophisticated, inside the 2^24 id space for any field that fits in memory"
    )]
    pub fn sensors(&self) -> Vec<SensorNode> {
        let mut rng = SimRng::seed(self.seed).fork("placement");
        let bounds = Rect::square(self.field_side_m);
        let mut out = Vec::new();
        let total = self.simple_sensors + self.sophisticated_sensors;
        for i in 0..total {
            let pos = Point::new(
                bounds.min.x + rng.next_f64() * bounds.width(),
                bounds.min.y + rng.next_f64() * bounds.height(),
            );
            let caps = if i < self.simple_sensors {
                SensorCaps::simple()
            } else {
                SensorCaps::sophisticated()
            };
            out.push(
                SensorNode::new(SensorId::new(i as u32 + 1).expect("small ids"), pos)
                    .with_caps(caps)
                    .with_stream(StreamIndex::new(0), StreamConfig::every(self.report_interval)),
            );
        }
        out
    }

    /// The site survey: sensor id → surveyed position.
    pub fn survey(&self) -> Vec<(SensorId, Point)> {
        self.sensors().iter().map(|s| (s.id(), s.position(SimTime::ZERO))).collect()
    }

    /// Masts at the field corners and centre.
    pub(crate) fn masts(&self) -> (Vec<Receiver>, Vec<Transmitter>) {
        let half = self.field_side_m / 2.0;
        let range = self.field_side_m * 0.8;
        let spots = [
            Point::new(0.0, 0.0),
            Point::new(self.field_side_m, 0.0),
            Point::new(0.0, self.field_side_m),
            Point::new(self.field_side_m, self.field_side_m),
            Point::new(half, half),
        ];
        let rx = spots
            .iter()
            .enumerate()
            .map(|(i, &p)| Receiver::new(garnet_radio::ReceiverId::new(i as u32), p, range))
            .collect();
        let tx = spots
            .iter()
            .enumerate()
            .map(|(i, &p)| Transmitter::new(garnet_radio::TransmitterId::new(i as u32), p, range))
            .collect();
        (rx, tx)
    }

    /// Assembles the closed-loop pipeline.
    pub fn build(&self) -> PipelineSim {
        let (receivers, transmitters) = self.masts();
        let config = PipelineConfig {
            seed: self.seed,
            medium: Medium::ideal(Propagation::UnitDisk { range_m: self.field_side_m * 0.8 }),
            garnet: GarnetConfig { receivers, transmitters, ..GarnetConfig::default() },
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
    use garnet_core::TopicFilter;
    use garnet_radio::ScalarField;

    #[test]
    fn target_field_peaks_at_target() {
        let field = TargetField {
            targets: vec![Target {
                mobility: Mobility::Stationary(Point::new(100.0, 100.0)),
                amplitude: 50.0,
                sigma_m: 20.0,
            }],
            background: 1.0,
        };
        assert!((field.sample(Point::new(100.0, 100.0), SimTime::ZERO) - 51.0).abs() < 1e-9);
        assert!(field.sample(Point::new(300.0, 300.0), SimTime::ZERO) < 1.1);
    }

    #[test]
    fn sensor_population_mixes_capabilities() {
        let s = ReconScenario::default();
        let sensors = s.sensors();
        assert_eq!(sensors.len(), 25);
        let simple = sensors.iter().filter(|n| !n.caps().receive_capable).count();
        assert_eq!(simple, 20);
        // Placement is deterministic.
        let again = s.sensors();
        assert_eq!(
            sensors.iter().map(|n| n.position(SimTime::ZERO)).collect::<Vec<_>>(),
            again.iter().map(|n| n.position(SimTime::ZERO)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn detector_logs_detections_and_hints() {
        let scenario = ReconScenario { seed: 9, ..ReconScenario::default() };
        let mut sim = scenario.build();
        let token = sim.garnet_mut().issue_default_token("recon");
        let (detector, detections) = TargetDetector::new("recon", 10.0, scenario.survey());
        let id = sim.garnet_mut().register_consumer(Box::new(detector), &token, 3).unwrap();
        // Subscribe to the physical sensors only — an All subscription
        // would loop the detector's own derived stream back into it.
        for (sensor, _) in scenario.survey() {
            sim.garnet_mut().subscribe(id, TopicFilter::Sensor(sensor), &token).unwrap();
        }
        // Target crosses over two minutes; run it through.
        sim.run_until(SimTime::from_secs(120));
        let log = detections.lock().unwrap();
        assert!(!log.is_empty(), "the crossing target must be detected");
        assert!(log.iter().all(|d| d.strength >= 10.0));
        // Hints flowed into the location service.
        assert!(sim.garnet().location().hint_count() > 0);
        // The derived detections stream exists (orphaned, since nobody
        // subscribed to it).
        assert!(sim.garnet().orphanage().total_taken() > 0);
    }
}
