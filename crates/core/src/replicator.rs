//! The Message Replicator: area-targeted downlink transmission.
//!
//! "The Message Replicator determines the expected location area of the
//! target sensor. Based on the location area, the appropriate set of
//! Transmitters broadcast the request" (§4.2). This is where inferred
//! location pays for itself (§5: location "is a refinement which is
//! required to reduce transmission costs when forwarding control
//! messages"): with a good estimate only the transmitters covering the
//! target's disk fire; with none, the replicator floods every
//! transmitter. Experiment E9 measures the saving.

use garnet_simkit::geometry::Disk;
use garnet_simkit::{SimTime, Transmitter, TransmitterId};
use garnet_wire::{ActuationTarget, StreamUpdateRequest, TargetArea};

use crate::location::{LocationEstimate, LocationService};

/// A replication plan: which transmitters broadcast a request.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicationPlan {
    /// The request to broadcast.
    pub request: StreamUpdateRequest,
    /// The chosen transmitters (name-ordered by id).
    pub transmitters: Vec<TransmitterId>,
    /// True when the plan fell back to flooding (no usable location).
    pub flooded: bool,
}

/// The Message Replicator.
///
/// # Example
///
/// ```
/// use garnet_core::replicator::MessageReplicator;
/// use garnet_simkit::{geometry::Point, Transmitter, TransmitterId};
///
/// let transmitters = Transmitter::grid(Point::ORIGIN, 3, 3, 100.0, 80.0);
/// let replicator = MessageReplicator::new(transmitters);
/// assert_eq!(replicator.transmitter_count(), 9);
/// ```
#[derive(Debug)]
pub struct MessageReplicator {
    transmitters: Vec<Transmitter>,
    targeted: u64,
    flooded: u64,
    broadcasts: u64,
}

impl MessageReplicator {
    /// Creates a replicator over the installed transmitter array.
    pub fn new(mut transmitters: Vec<Transmitter>) -> Self {
        transmitters.sort_by_key(|t| t.id().as_u32());
        MessageReplicator { transmitters, targeted: 0, flooded: 0, broadcasts: 0 }
    }

    /// Number of installed transmitters.
    pub fn transmitter_count(&self) -> usize {
        self.transmitters.len()
    }

    fn covering(&self, area: Disk) -> Vec<TransmitterId> {
        self.transmitters
            .iter()
            .filter(|t| t.coverage().intersects(&area))
            .map(|t| t.id())
            .collect()
    }

    fn all(&self) -> Vec<TransmitterId> {
        self.transmitters.iter().map(|t| t.id()).collect()
    }

    /// Plans the broadcast of `request`. Sensor- and stream-targeted
    /// requests consult the Location Service; area-targeted requests use
    /// their explicit area. A missing or empty-coverage estimate floods.
    pub fn plan(
        &mut self,
        request: StreamUpdateRequest,
        location: &LocationService,
        now: SimTime,
    ) -> ReplicationPlan {
        let disk = |e: LocationEstimate| Disk::new(e.position, e.radius_m);
        let area = match request.target {
            ActuationTarget::Area(TargetArea { x, y, radius }) => Some(Disk::new(
                garnet_simkit::geometry::Point::new(f64::from(x), f64::from(y)),
                f64::from(radius),
            )),
            ActuationTarget::Sensor(sensor) => location.estimate(sensor, now).map(disk),
            ActuationTarget::Stream(stream) => location.estimate(stream.sensor(), now).map(disk),
        };

        let (transmitters, flooded) = match area {
            Some(disk) => {
                let covering = self.covering(disk);
                if covering.is_empty() {
                    (self.all(), true)
                } else {
                    (covering, false)
                }
            }
            None => (self.all(), true),
        };

        if flooded {
            self.flooded += 1;
        } else {
            self.targeted += 1;
        }
        self.broadcasts += transmitters.len() as u64;
        ReplicationPlan { request, transmitters, flooded }
    }

    /// Requests that used a targeted (non-flood) plan.
    pub(crate) fn targeted_count(&self) -> u64 {
        self.targeted
    }

    /// Requests that fell back to flooding.
    pub(crate) fn flooded_count(&self) -> u64 {
        self.flooded
    }

    /// Total transmitter activations (the downlink cost metric of E9).
    pub fn broadcast_count(&self) -> u64 {
        self.broadcasts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filtering::Observation;
    use crate::location::LocationConfig;
    use garnet_simkit::geometry::Point;
    use garnet_simkit::{Propagation, Receiver, ReceiverId};
    use garnet_wire::{RequestId, SensorCommand, SensorId};

    fn request(target: ActuationTarget) -> StreamUpdateRequest {
        StreamUpdateRequest {
            request_id: RequestId::new(1),
            target,
            command: SensorCommand::Ping,
            issued_at_us: 0,
            priority: 0,
        }
    }

    fn setup() -> (MessageReplicator, LocationService) {
        // 3x3 transmitter grid, spacing 100, range 80 (disjoint disks).
        let transmitters = Transmitter::grid(Point::ORIGIN, 3, 3, 100.0, 80.0);
        let receivers = Receiver::grid(Point::ORIGIN, 3, 3, 100.0, 150.0);
        let replicator = MessageReplicator::new(transmitters);
        let location = LocationService::new(
            LocationConfig::default(),
            &receivers,
            Propagation::wifi_outdoor(),
        );
        (replicator, location)
    }

    #[test]
    fn unknown_sensor_floods() {
        let (mut r, loc) = setup();
        let plan = r.plan(
            request(ActuationTarget::Sensor(SensorId::new(7).unwrap())),
            &loc,
            SimTime::ZERO,
        );
        assert!(plan.flooded);
        assert_eq!(plan.transmitters.len(), 9);
        assert_eq!(r.flooded_count(), 1);
        assert_eq!(r.broadcast_count(), 9);
    }

    #[test]
    fn located_sensor_targets_few_transmitters() {
        let (mut r, mut loc) = setup();
        let sensor = SensorId::new(7).unwrap();
        // Strong sighting at receiver 0 (corner): the estimate is near
        // (0,0) with a modest radius.
        for _ in 0..4 {
            loc.observe(&Observation {
                sensor,
                receiver: ReceiverId::new(0),
                rssi_dbm: -45.0,
                at: SimTime::ZERO,
            });
        }
        let plan = r.plan(request(ActuationTarget::Sensor(sensor)), &loc, SimTime::ZERO);
        assert!(!plan.flooded);
        assert!(
            plan.transmitters.len() < 9,
            "targeted plan used {} transmitters",
            plan.transmitters.len()
        );
        assert!(plan.transmitters.contains(&TransmitterId::new(0)));
        assert_eq!(r.targeted_count(), 1);
    }

    #[test]
    fn area_target_uses_explicit_disk() {
        let (mut r, loc) = setup();
        // Small disk around the centre transmitter at (100, 100).
        let plan = r.plan(
            request(ActuationTarget::Area(TargetArea::new(100.0, 100.0, 10.0))),
            &loc,
            SimTime::ZERO,
        );
        assert!(!plan.flooded);
        assert_eq!(plan.transmitters, vec![TransmitterId::new(4)]);
    }

    #[test]
    fn area_outside_coverage_floods() {
        let (mut r, loc) = setup();
        let plan = r.plan(
            request(ActuationTarget::Area(TargetArea::new(10_000.0, 10_000.0, 5.0))),
            &loc,
            SimTime::ZERO,
        );
        assert!(plan.flooded);
        assert_eq!(plan.transmitters.len(), 9);
    }

    #[test]
    fn stream_target_resolves_via_sensor() {
        let (mut r, mut loc) = setup();
        let sensor = SensorId::new(8).unwrap();
        loc.hint(sensor, Point::new(200.0, 200.0), 5.0, SimTime::ZERO);
        let stream = garnet_wire::StreamId::new(sensor, garnet_wire::StreamIndex::new(0));
        let plan = r.plan(request(ActuationTarget::Stream(stream)), &loc, SimTime::ZERO);
        assert!(!plan.flooded);
        assert!(
            plan.transmitters.contains(&TransmitterId::new(8)),
            "corner transmitter at (200,200)"
        );
    }

    #[test]
    fn transmitters_sorted_by_id() {
        let mut ts = Transmitter::grid(Point::ORIGIN, 2, 2, 100.0, 300.0);
        ts.reverse();
        let mut r = MessageReplicator::new(ts);
        let loc = LocationService::new(LocationConfig::default(), &[], Propagation::wifi_outdoor());
        let plan = r.plan(
            request(ActuationTarget::Area(TargetArea::new(50.0, 50.0, 10.0))),
            &loc,
            SimTime::ZERO,
        );
        let ids: Vec<u32> = plan.transmitters.iter().map(|t| t.as_u32()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }
}
