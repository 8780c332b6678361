//! The Location Service: inferred sensor positions.
//!
//! Two design choices from §5 shape this service. *Inferred location
//! data*: positions are estimated "without the active involvement of the
//! sensors" from which receivers heard them and how loudly, so simple
//! sensors need no GPS. *Generality of location information processing*:
//! consumers that happen to know where a sensor is "may supply location
//! hints instead" — and those hints fuse with the inferred estimate.
//!
//! The estimator is an RSSI-weighted centroid over recent observations:
//! each sighting contributes the receiver's position weighted by
//! 1/estimated-distance (nearer receivers know more), hints contribute
//! their own position at the supplied confidence. Uncertainty is
//! reported as the weighted RMS spread plus the strongest sighting's
//! estimated range, giving the Message Replicator a disk to cover.
//!
//! Location data is sensitive (§2): reads are gated by the
//! `ReadLocation` capability at the middleware facade.

use std::collections::{HashMap, VecDeque};

use garnet_simkit::geometry::{weighted_centroid, Point};
use garnet_simkit::{Propagation, Receiver, ReceiverId, SimDuration, SimTime};
use garnet_wire::SensorId;

use crate::filtering::Observation;

/// Sightings/hints older than this are ignored.
const MAX_AGE: SimDuration = SimDuration::from_secs(60);

/// Only the loudest (nearest-estimated) sightings contribute to an
/// estimate; far receivers carry little information and would drag the
/// centroid toward the grid centre.
const MAX_SIGHTINGS_USED: usize = 8;

/// Location Service tuning. The path-loss model it inverts is not a
/// setting of its own: it is the deployment's, the one the radios obey
/// (`GarnetConfig::propagation`), handed to [`LocationService::new`].
#[derive(Clone, Debug)]
pub struct LocationConfig {
    /// Sightings retained per sensor.
    pub max_observations: usize,
}

impl Default for LocationConfig {
    fn default() -> Self {
        LocationConfig { max_observations: 32 }
    }
}

/// A position estimate with uncertainty.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocationEstimate {
    /// Best-guess position.
    pub position: Point,
    /// Radius (m) within which the sensor is believed to be.
    pub radius_m: f64,
    /// Instant of the most recent evidence.
    pub freshest_evidence: SimTime,
    /// Number of sightings/hints that contributed.
    pub evidence_count: usize,
}

#[derive(Clone, Debug)]
enum Evidence {
    Sighting { receiver_pos: Point, est_distance_m: f64, at: SimTime },
    Hint { position: Point, confidence: f64, at: SimTime },
}

impl Evidence {
    fn at(&self) -> SimTime {
        match self {
            Evidence::Sighting { at, .. } | Evidence::Hint { at, .. } => *at,
        }
    }
}

/// The Location Service.
///
/// # Example
///
/// ```
/// use garnet_core::location::{LocationConfig, LocationService};
/// use garnet_core::filtering::Observation;
/// use garnet_simkit::{geometry::Point, Propagation, Receiver, ReceiverId, SimTime};
/// use garnet_wire::SensorId;
///
/// let receivers = vec![
///     Receiver::new(ReceiverId::new(0), Point::new(0.0, 0.0), 200.0),
///     Receiver::new(ReceiverId::new(1), Point::new(100.0, 0.0), 200.0),
/// ];
/// // The deployment's radios: a 200 m disk, whose RSSI ramp reads
/// // -60 dBm at half the range.
/// let propagation = Propagation::UnitDisk { range_m: 200.0 };
/// let mut loc = LocationService::new(LocationConfig::default(), &receivers, propagation);
/// let sensor = SensorId::new(4)?;
/// loc.observe(&Observation {
///     sensor,
///     receiver: ReceiverId::new(0),
///     rssi_dbm: -60.0,
///     at: SimTime::ZERO,
/// });
/// let est = loc.estimate(sensor, SimTime::ZERO).unwrap();
/// assert_eq!(est.evidence_count, 1);
/// // One sighting: the estimate sits on the receiver, and its disk
/// // reaches the 100 m the model inverts -60 dBm to.
/// assert!((est.radius_m - 100.0).abs() < 1e-9);
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct LocationService {
    config: LocationConfig,
    propagation: Propagation,
    receiver_positions: HashMap<ReceiverId, Point>,
    evidence: HashMap<SensorId, VecDeque<Evidence>>,
    observations_taken: u64,
    hints_taken: u64,
}

impl LocationService {
    /// Creates the service with the fixed receiver installation plan and
    /// the propagation model those receivers hear through; each sighting's
    /// RSSI is turned into a distance by inverting that model.
    pub fn new(config: LocationConfig, receivers: &[Receiver], propagation: Propagation) -> Self {
        LocationService {
            config,
            propagation,
            receiver_positions: receivers.iter().map(|r| (r.id(), r.position())).collect(),
            evidence: HashMap::new(),
            observations_taken: 0,
            hints_taken: 0,
        }
    }

    fn push(&mut self, sensor: SensorId, e: Evidence) {
        let q = self.evidence.entry(sensor).or_default();
        if q.len() == self.config.max_observations {
            q.pop_front();
        }
        q.push_back(e);
    }

    /// Ingests a sighting from the Filtering Service.
    ///
    /// Sightings from receivers missing from the installation plan are
    /// ignored (they cannot contribute a position).
    pub fn observe(&mut self, obs: &Observation) {
        let Some(&receiver_pos) = self.receiver_positions.get(&obs.receiver) else {
            return;
        };
        let est_distance_m = self.propagation.estimate_distance(obs.rssi_dbm);
        self.push(obs.sensor, Evidence::Sighting { receiver_pos, est_distance_m, at: obs.at });
        self.observations_taken += 1;
    }

    /// Ingests a consumer-supplied hint. `confidence` is the weight of
    /// this hint relative to one sighting at ~1 m estimated distance;
    /// values in `(0, 10]` are sensible, and it is clamped to that range.
    pub fn hint(&mut self, sensor: SensorId, position: Point, confidence: f64, at: SimTime) {
        let confidence = confidence.clamp(f64::MIN_POSITIVE, 10.0);
        self.push(sensor, Evidence::Hint { position, confidence, at });
        self.hints_taken += 1;
    }

    /// Estimates the position of `sensor` from evidence no older than
    /// `MAX_AGE` before `now`. `None` when there is no fresh evidence
    /// at all.
    pub fn estimate(&self, sensor: SensorId, now: SimTime) -> Option<LocationEstimate> {
        let q = self.evidence.get(&sensor)?;
        let oldest_allowed = if now.as_micros() > MAX_AGE.as_micros() {
            SimTime::from_micros(now.as_micros() - MAX_AGE.as_micros())
        } else {
            SimTime::ZERO
        };

        let mut sightings: Vec<(Point, f64)> = Vec::new(); // (pos, est distance)
        let mut weighted: Vec<(Point, f64)> = Vec::new();
        let mut freshest = SimTime::ZERO;
        let mut best_range = f64::INFINITY;
        for e in q.iter().filter(|e| e.at() >= oldest_allowed) {
            freshest = freshest.max(e.at());
            match *e {
                Evidence::Sighting { receiver_pos, est_distance_m, .. } => {
                    sightings.push((receiver_pos, est_distance_m));
                    best_range = best_range.min(est_distance_m);
                }
                Evidence::Hint { position, confidence, .. } => {
                    weighted.push((position, confidence));
                    best_range = best_range.min(5.0); // a hint is precise
                }
            }
        }
        // Keep only the loudest sightings; weight by inverse-square
        // estimated distance so near receivers dominate.
        sightings.sort_by(|a, b| a.1.total_cmp(&b.1));
        sightings.truncate(MAX_SIGHTINGS_USED);
        for (pos, d) in sightings {
            weighted.push((pos, 1.0 / (d * d).max(1.0)));
        }
        let position = weighted_centroid(&weighted)?;
        // Weighted RMS spread of the evidence around the centroid.
        let total_w: f64 = weighted.iter().map(|(_, w)| w).sum();
        let spread = (weighted.iter().map(|(p, w)| w * p.distance_sq(position)).sum::<f64>()
            / total_w)
            .sqrt();
        Some(LocationEstimate {
            position,
            radius_m: (spread + best_range).max(1.0),
            freshest_evidence: freshest,
            evidence_count: weighted.len(),
        })
    }

    /// Sightings ingested so far.
    pub(crate) fn observation_count(&self) -> u64 {
        self.observations_taken
    }

    /// Hints ingested so far.
    pub fn hint_count(&self) -> u64 {
        self.hints_taken
    }

    /// Number of sensors with any retained evidence.
    pub(crate) fn tracked_sensors(&self) -> usize {
        self.evidence.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn receivers() -> Vec<Receiver> {
        vec![
            Receiver::new(ReceiverId::new(0), Point::new(0.0, 0.0), 300.0),
            Receiver::new(ReceiverId::new(1), Point::new(100.0, 0.0), 300.0),
            Receiver::new(ReceiverId::new(2), Point::new(50.0, 100.0), 300.0),
        ]
    }

    fn svc() -> LocationService {
        LocationService::new(LocationConfig::default(), &receivers(), Propagation::wifi_outdoor())
    }

    fn sensor() -> SensorId {
        SensorId::new(9).unwrap()
    }

    fn obs(rx: u32, rssi: f64, at_s: u64) -> Observation {
        Observation {
            sensor: sensor(),
            receiver: ReceiverId::new(rx),
            rssi_dbm: rssi,
            at: SimTime::from_secs(at_s),
        }
    }

    #[test]
    fn no_evidence_no_estimate() {
        let loc = svc();
        assert!(loc.estimate(sensor(), SimTime::ZERO).is_none());
    }

    #[test]
    fn single_sighting_estimates_near_receiver() {
        let mut loc = svc();
        loc.observe(&obs(1, -45.0, 0));
        let est = loc.estimate(sensor(), SimTime::ZERO).unwrap();
        assert!(est.position.distance_to(Point::new(100.0, 0.0)) < 1e-6);
        assert_eq!(est.evidence_count, 1);
        assert!(est.radius_m > 0.0);
    }

    #[test]
    fn multiple_sightings_pull_toward_loudest() {
        let mut loc = svc();
        // Much louder at receiver 0 → estimate nearer (0,0) than (100,0).
        loc.observe(&obs(0, -40.0, 0));
        loc.observe(&obs(1, -80.0, 0));
        let est = loc.estimate(sensor(), SimTime::ZERO).unwrap();
        assert!(est.position.x < 50.0, "estimate {:?} should lean toward rx0", est.position);
    }

    #[test]
    fn centroid_inside_receiver_hull() {
        let mut loc = svc();
        loc.observe(&obs(0, -60.0, 0));
        loc.observe(&obs(1, -60.0, 0));
        loc.observe(&obs(2, -60.0, 0));
        let est = loc.estimate(sensor(), SimTime::ZERO).unwrap();
        assert!(est.position.x > 0.0 && est.position.x < 100.0);
        assert!(est.position.y > 0.0 && est.position.y < 100.0);
        assert_eq!(est.evidence_count, 3);
    }

    #[test]
    fn hints_sharpen_the_estimate() {
        let mut loc = svc();
        loc.observe(&obs(0, -70.0, 0));
        let before = loc.estimate(sensor(), SimTime::ZERO).unwrap();
        // A confident consumer hint at the true position.
        loc.hint(sensor(), Point::new(20.0, 5.0), 5.0, SimTime::ZERO);
        let after = loc.estimate(sensor(), SimTime::ZERO).unwrap();
        assert!(
            after.position.distance_to(Point::new(20.0, 5.0))
                < before.position.distance_to(Point::new(20.0, 5.0))
        );
        assert_eq!(loc.hint_count(), 1);
    }

    #[test]
    fn stale_evidence_expires() {
        let mut loc = svc();
        loc.observe(&obs(0, -50.0, 0));
        assert!(loc.estimate(sensor(), SimTime::from_secs(59)).is_some());
        assert!(loc.estimate(sensor(), SimTime::from_secs(61)).is_none());
    }

    #[test]
    fn fresh_evidence_outlives_stale() {
        let mut loc = svc();
        loc.observe(&obs(0, -50.0, 0));
        loc.observe(&obs(1, -50.0, 100));
        let est = loc.estimate(sensor(), SimTime::from_secs(120)).unwrap();
        assert_eq!(est.evidence_count, 1, "only the fresh sighting counts");
        assert!(est.position.distance_to(Point::new(100.0, 0.0)) < 1e-6);
        assert_eq!(est.freshest_evidence, SimTime::from_secs(100));
    }

    #[test]
    fn unknown_receiver_ignored() {
        let mut loc = svc();
        loc.observe(&Observation {
            sensor: sensor(),
            receiver: ReceiverId::new(99),
            rssi_dbm: -40.0,
            at: SimTime::ZERO,
        });
        assert_eq!(loc.observation_count(), 0);
        assert!(loc.estimate(sensor(), SimTime::ZERO).is_none());
    }

    #[test]
    fn evidence_ring_is_bounded() {
        let mut loc = LocationService::new(
            LocationConfig { max_observations: 4 },
            &receivers(),
            Propagation::wifi_outdoor(),
        );
        for i in 0..20 {
            loc.observe(&obs((i % 3) as u32, -50.0, i));
        }
        let est = loc.estimate(sensor(), SimTime::from_secs(20)).unwrap();
        assert!(est.evidence_count <= 4);
    }

    #[test]
    fn hint_confidence_is_clamped() {
        let mut loc = svc();
        loc.hint(sensor(), Point::new(1.0, 1.0), -5.0, SimTime::ZERO);
        loc.hint(sensor(), Point::new(1.0, 1.0), 1e9, SimTime::ZERO);
        let est = loc.estimate(sensor(), SimTime::ZERO).unwrap();
        assert_eq!(est.position, Point::new(1.0, 1.0));
    }

    #[test]
    fn sensors_tracked_independently() {
        let mut loc = svc();
        loc.observe(&obs(0, -50.0, 0));
        let other = SensorId::new(77).unwrap();
        loc.hint(other, Point::new(9.0, 9.0), 1.0, SimTime::ZERO);
        assert_eq!(loc.tracked_sensors(), 2);
        assert_eq!(loc.estimate(other, SimTime::ZERO).unwrap().position, Point::new(9.0, 9.0));
    }

    #[test]
    fn localization_error_shrinks_with_receiver_density() {
        // The E9 effect in miniature: more receivers hearing the sensor
        // → estimate closer to ground truth.
        use garnet_simkit::SimRng;
        let truth = Point::new(42.0, 33.0);
        let prop = Propagation::wifi_outdoor();
        let mut rng = SimRng::seed(5);

        let error_with = |grid: Vec<Receiver>, rng: &mut SimRng| -> f64 {
            // Ring large enough to hold every receiver's sightings —
            // otherwise the densest grid evicts its own early evidence.
            let config = LocationConfig { max_observations: 512 };
            let mut loc = LocationService::new(config, &grid, prop);
            for r in &grid {
                let d = truth.distance_to(r.position());
                for _ in 0..4 {
                    if let Some(rssi) = prop.deliver(d, rng) {
                        loc.observe(&Observation {
                            sensor: sensor(),
                            receiver: r.id(),
                            rssi_dbm: rssi,
                            at: SimTime::ZERO,
                        });
                    }
                }
            }
            loc.estimate(sensor(), SimTime::ZERO)
                .map(|e| e.position.distance_to(truth))
                .unwrap_or(1e9)
        };

        let sparse = Receiver::grid(Point::ORIGIN, 2, 2, 100.0, 300.0);
        let dense = Receiver::grid(Point::ORIGIN, 5, 5, 25.0, 300.0);
        let e_sparse = error_with(sparse, &mut rng);
        let e_dense = error_with(dense, &mut rng);
        assert!(
            e_dense < e_sparse,
            "dense grid should localise better: dense={e_dense:.1} sparse={e_sparse:.1}"
        );
    }
}
