//! E9 — inferred location: accuracy vs receiver density, the effect of
//! consumer hints, and the downlink transmissions saved by targeting.
//!
//! §5: location inference exists "to reduce transmission costs when
//! forwarding control messages to sensors", and consumer hints add
//! information the infrastructure cannot see. The sweep measures (a)
//! mean localisation error against receiver grid density, with and
//! without hints; (b) the Message Replicator's transmitter activations
//! for a location-targeted request vs the flood fallback.

use garnet_core::filtering::Observation;
use garnet_core::location::LocationService;
use garnet_core::replicator::MessageReplicator;
use garnet_radio::geometry::Point;
use garnet_radio::{Propagation, Receiver, Transmitter};
use garnet_simkit::{SimRng, SimTime};
use garnet_wire::{ActuationTarget, RequestId, SensorCommand, SensorId, StreamUpdateRequest};

use crate::table::{f2, n, Table};

/// One density point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocationPoint {
    /// Receivers per grid side.
    pub grid_side: usize,
    /// Mean localisation error without hints (m).
    pub error_m: f64,
    /// Mean localisation error with one consumer hint (m).
    pub error_with_hint_m: f64,
    /// Transmitter activations for a targeted request.
    pub targeted_broadcasts: u64,
    /// Transmitter activations when flooding (no location).
    pub flooded_broadcasts: u64,
}

const FIELD_SIDE: f64 = 200.0;

fn survey_positions(rng: &mut SimRng, count: usize) -> Vec<Point> {
    (0..count)
        .map(|_| Point::new(rng.next_f64() * FIELD_SIDE, rng.next_f64() * FIELD_SIDE))
        .collect()
}

/// Runs one grid-density point, averaging over `truth_positions`.
pub(crate) fn run_point(grid_side: usize, seed: u64) -> LocationPoint {
    let mut rng = SimRng::seed(seed);
    let spacing = FIELD_SIDE / (grid_side.max(2) - 1) as f64;
    let receivers = Receiver::grid(Point::ORIGIN, grid_side, grid_side, spacing, 400.0);
    let transmitters =
        Transmitter::grid(Point::ORIGIN, grid_side, grid_side, spacing, spacing * 0.9);
    // One model for both sides: the receivers' delivery rolls below and
    // the Location Service's inversion of the RSSI they report.
    let prop = Propagation::wifi_outdoor();
    let truths = survey_positions(&mut rng.fork("truths"), 20);

    let mut err_sum = 0.0;
    let mut err_hint_sum = 0.0;
    let mut samples = 0u32;
    let mut replicator = MessageReplicator::new(transmitters.clone());
    let mut flood_replicator = MessageReplicator::new(transmitters);
    let empty_location = LocationService::new(&receivers, prop);

    for (si, &truth) in truths.iter().enumerate() {
        let sensor = SensorId::new(si as u32 + 1).unwrap();
        let mut loc = LocationService::new(&receivers, prop);
        // Each receiver rolls reception of 4 transmissions.
        for r in &receivers {
            let d = truth.distance_to(r.position());
            for _ in 0..4 {
                if let Some(rssi) = prop.deliver(d, &mut rng) {
                    loc.observe(&Observation {
                        sensor,
                        receiver: r.id(),
                        rssi_dbm: rssi,
                        at: SimTime::ZERO,
                    });
                }
            }
        }
        let Some(est) = loc.estimate(sensor, SimTime::ZERO) else {
            continue;
        };
        err_sum += est.position.distance_to(truth);

        // A consumer hint near the truth (site survey with 5 m noise).
        let hint = Point::new(
            truth.x + rng.standard_normal() * 5.0,
            truth.y + rng.standard_normal() * 5.0,
        );
        loc.hint(sensor, hint, 5.0, SimTime::ZERO);
        let est_hint = loc.estimate(sensor, SimTime::ZERO).expect("evidence present");
        err_hint_sum += est_hint.position.distance_to(truth);
        samples += 1;

        // Replication cost: targeted vs flooded.
        let req = StreamUpdateRequest {
            request_id: RequestId::new(si as u32),
            target: ActuationTarget::Sensor(sensor),
            command: SensorCommand::Ping,
            issued_at_us: 0,
            priority: 0,
        };
        replicator.plan(req, &loc, SimTime::ZERO);
        flood_replicator.plan(req, &empty_location, SimTime::ZERO);
    }

    LocationPoint {
        grid_side,
        error_m: err_sum / f64::from(samples.max(1)),
        error_with_hint_m: err_hint_sum / f64::from(samples.max(1)),
        targeted_broadcasts: replicator.broadcast_count(),
        flooded_broadcasts: flood_replicator.broadcast_count(),
    }
}

/// Runs the density sweep.
pub fn run() -> (Vec<LocationPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E9 — inferred location: error vs receiver density; hints; targeted vs flooded downlink",
        &["grid", "receivers", "err m", "err+hint m", "targeted tx", "flooded tx"],
    );
    for &side in &[2usize, 3, 5, 8] {
        let p = run_point(side, 0xE9);
        table.row(&[
            format!("{side}x{side}"),
            n((side * side) as u64),
            f2(p.error_m),
            f2(p.error_with_hint_m),
            n(p.targeted_broadcasts),
            n(p.flooded_broadcasts),
        ]);
        points.push(p);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_improves_accuracy() {
        let sparse = run_point(2, 1);
        let dense = run_point(8, 1);
        assert!(
            dense.error_m < sparse.error_m,
            "dense {} vs sparse {}",
            dense.error_m,
            sparse.error_m
        );
    }

    #[test]
    fn hints_improve_accuracy() {
        for side in [2usize, 5] {
            let p = run_point(side, 2);
            assert!(
                p.error_with_hint_m < p.error_m,
                "grid {side}: hint {} vs {}",
                p.error_with_hint_m,
                p.error_m
            );
        }
    }

    #[test]
    fn targeting_saves_downlink_transmissions() {
        let p = run_point(5, 3);
        assert!(
            p.targeted_broadcasts < p.flooded_broadcasts,
            "targeted {} vs flooded {}",
            p.targeted_broadcasts,
            p.flooded_broadcasts
        );
    }
}
