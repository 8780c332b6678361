//! Sensor mobility models.
//!
//! "In our model, mobile sensors transmit data over an unreliable
//! wireless medium to a fixed network infrastructure" (§3). Mobility is
//! what makes sensors "occasionally roam outside the reception zone"
//! (§4.2) and what gives the Location Service something to infer.
//!
//! A [`Mobility`] value is a *pure function of time*: `position(t)` may
//! be queried at any instant, in any order, with no hidden state — which
//! keeps the discrete-event simulation deterministic and lets services
//! replay history.

use garnet_simkit::{SimRng, SimTime};

use crate::geometry::{Point, Rect};

/// A trajectory through the deployment plane.
#[derive(Clone, Debug, PartialEq)]
pub enum Mobility {
    /// A fixed installation (mast-mounted, staked).
    Stationary(Point),
    /// Piecewise-linear movement through timestamped waypoints (µs of
    /// sim time, position). Before the first waypoint the position is
    /// the first point; after the last it is the last point.
    Waypoints(Vec<(u64, Point)>),
    /// A closed circular orbit (animal collar, patrol drone).
    Orbit {
        /// Centre of the orbit.
        center: Point,
        /// Orbit radius (m).
        radius: f64,
        /// Time for one full revolution (µs); must be non-zero.
        period_us: u64,
        /// Starting angle (radians).
        phase: f64,
    },
}

impl Mobility {
    /// Builds a random-waypoint trajectory: the node repeatedly picks a
    /// uniform destination in `bounds` and walks there at `speed_mps`.
    /// Waypoints are generated to cover `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps <= 0`.
    pub fn random_waypoint(
        bounds: Rect,
        speed_mps: f64,
        horizon: SimTime,
        rng: &mut SimRng,
    ) -> Mobility {
        assert!(speed_mps > 0.0, "speed must be positive");
        let mut t = 0u64;
        let mut here = Point::new(
            bounds.min.x + rng.next_f64() * bounds.width(),
            bounds.min.y + rng.next_f64() * bounds.height(),
        );
        let mut pts = vec![(t, here)];
        while t < horizon.as_micros() {
            let dest = Point::new(
                bounds.min.x + rng.next_f64() * bounds.width(),
                bounds.min.y + rng.next_f64() * bounds.height(),
            );
            let dist = here.distance_to(dest);
            let travel_us = (dist / speed_mps * 1e6).ceil().max(1.0) as u64;
            t += travel_us;
            pts.push((t, dest));
            here = dest;
        }
        Mobility::Waypoints(pts)
    }

    /// The position at instant `t`.
    pub fn position(&self, t: SimTime) -> Point {
        match self {
            Mobility::Stationary(p) => *p,
            Mobility::Waypoints(pts) => {
                let t_us = t.as_micros();
                match pts.iter().position(|&(wt, _)| wt > t_us) {
                    // Before or at the first waypoint.
                    Some(0) => pts[0].1,
                    // Between waypoints i-1 and i: interpolate.
                    Some(i) => {
                        let (t0, p0) = pts[i - 1];
                        let (t1, p1) = pts[i];
                        let frac = (t_us - t0) as f64 / (t1 - t0) as f64;
                        p0.lerp(p1, frac)
                    }
                    // Past the final waypoint.
                    None => pts.last().map(|&(_, p)| p).unwrap_or(Point::ORIGIN),
                }
            }
            Mobility::Orbit { center, radius, period_us, phase } => {
                let period = (*period_us).max(1);
                let frac = (t.as_micros() % period) as f64 / period as f64;
                let angle = phase + frac * std::f64::consts::TAU;
                Point::new(center.x + radius * angle.cos(), center.y + radius * angle.sin())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_simkit::SimDuration;

    #[test]
    fn stationary_never_moves() {
        let m = Mobility::Stationary(Point::new(3.0, 4.0));
        assert_eq!(m.position(SimTime::ZERO), Point::new(3.0, 4.0));
        assert_eq!(m.position(SimTime::from_secs(100)), Point::new(3.0, 4.0));
    }

    #[test]
    fn waypoints_interpolate_linearly() {
        let m = Mobility::Waypoints(vec![
            (0, Point::new(0.0, 0.0)),
            (1_000_000, Point::new(10.0, 0.0)),
            (2_000_000, Point::new(10.0, 20.0)),
        ]);
        assert_eq!(m.position(SimTime::from_micros(500_000)), Point::new(5.0, 0.0));
        assert_eq!(m.position(SimTime::from_micros(1_500_000)), Point::new(10.0, 10.0));
    }

    #[test]
    fn waypoints_clamp_outside_range() {
        let m = Mobility::Waypoints(vec![
            (1_000_000, Point::new(1.0, 1.0)),
            (2_000_000, Point::new(2.0, 2.0)),
        ]);
        assert_eq!(m.position(SimTime::ZERO), Point::new(1.0, 1.0));
        assert_eq!(m.position(SimTime::from_secs(10)), Point::new(2.0, 2.0));
    }

    #[test]
    fn orbit_returns_to_start_each_period() {
        let m = Mobility::Orbit {
            center: Point::ORIGIN,
            radius: 5.0,
            period_us: 1_000_000,
            phase: 0.0,
        };
        let p0 = m.position(SimTime::ZERO);
        let p1 = m.position(SimTime::from_secs(1));
        assert!((p0.x - p1.x).abs() < 1e-9 && (p0.y - p1.y).abs() < 1e-9);
        assert!((p0.x - 5.0).abs() < 1e-9);
        // Quarter period: 90 degrees around.
        let q = m.position(SimTime::from_micros(250_000));
        assert!(q.x.abs() < 1e-9 && (q.y - 5.0).abs() < 1e-9);
    }

    #[test]
    fn random_waypoint_stays_in_bounds_and_respects_speed() {
        let bounds = Rect::square(100.0);
        let mut rng = SimRng::seed(77);
        let horizon = SimTime::from_secs(600);
        let m = Mobility::random_waypoint(bounds, 2.0, horizon, &mut rng);

        let mut t = SimTime::ZERO;
        let mut prev = m.position(t);
        while t < horizon {
            let next_t = t + SimDuration::from_secs(1);
            let next = m.position(next_t);
            let inside = (0.0..=100.0).contains(&next.x) && (0.0..=100.0).contains(&next.y);
            assert!(inside, "left bounds at {next_t}: {next:?}");
            let moved = prev.distance_to(next);
            assert!(moved <= 2.0 + 1e-6, "exceeded speed: {moved} m in 1s");
            prev = next;
            t = next_t;
        }
    }

    #[test]
    fn random_waypoint_is_deterministic_per_seed() {
        let bounds = Rect::square(50.0);
        let horizon = SimTime::from_secs(60);
        let a = Mobility::random_waypoint(bounds, 1.5, horizon, &mut SimRng::seed(3));
        let b = Mobility::random_waypoint(bounds, 1.5, horizon, &mut SimRng::seed(3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn random_waypoint_rejects_zero_speed() {
        let _ = Mobility::random_waypoint(
            Rect::square(10.0),
            0.0,
            SimTime::from_secs(1),
            &mut SimRng::seed(1),
        );
    }
}
