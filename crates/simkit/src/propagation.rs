//! Radio propagation models: delivery probability and received signal
//! strength as functions of distance.
//!
//! Two models are provided. [`Propagation::UnitDisk`] is the classic
//! analytic idealisation (certain delivery inside a range, nothing
//! outside) useful for isolating middleware behaviour from channel
//! noise. [`Propagation::LogDistance`] is the standard log-distance path
//! loss model with shadowing, matching the 802.11b-class links of the
//! paper's testbed; it also yields an RSSI from which the Location
//! Service can estimate distance ([`Propagation::estimate_distance`]).

use crate::SimRng;

/// A propagation model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Propagation {
    /// Deterministic delivery within `range_m`, none beyond.
    UnitDisk {
        /// Reception range (m).
        range_m: f64,
    },
    /// Log-distance path loss with Gaussian shadowing.
    ///
    /// `PL(d) = pl0_db + 10·n·log10(d/d0) + X`, `X ~ N(0, shadowing_db²)`.
    /// A frame is delivered iff received power `tx_power_dbm − PL(d)`
    /// clears `sensitivity_dbm`.
    LogDistance {
        /// Transmit power (dBm); 802.11b-class ≈ 15 dBm.
        tx_power_dbm: f64,
        /// Path loss at the reference distance of 1 m (dB); ~40 dB at
        /// 2.4 GHz.
        pl0_db: f64,
        /// Path-loss exponent; 2 = free space, 3–4 = cluttered outdoor.
        exponent: f64,
        /// Standard deviation of log-normal shadowing (dB).
        shadowing_db: f64,
        /// Receiver sensitivity (dBm); ~-85 dBm for 802.11b at 11 Mb/s.
        sensitivity_dbm: f64,
    },
}

impl Propagation {
    /// A log-distance model with 802.11b-flavoured defaults.
    pub fn wifi_outdoor() -> Propagation {
        Propagation::LogDistance {
            tx_power_dbm: 15.0,
            pl0_db: 40.0,
            exponent: 3.0,
            shadowing_db: 4.0,
            sensitivity_dbm: -85.0,
        }
    }

    /// Mean received power (dBm) at `distance_m`, before shadowing.
    /// For [`Propagation::UnitDisk`] a synthetic linear ramp is returned
    /// so that RSSI-weighted location inference still works.
    pub(crate) fn mean_rssi_dbm(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(0.1);
        match *self {
            Propagation::UnitDisk { range_m } => {
                // -30 dBm touching the receiver, -90 dBm at the range edge.
                -30.0 - 60.0 * (d / range_m.max(0.1)).min(2.0)
            }
            Propagation::LogDistance { tx_power_dbm, pl0_db, exponent, .. } => {
                tx_power_dbm - pl0_db - 10.0 * exponent * (d).log10()
            }
        }
    }

    /// Draws whether a frame at `distance_m` is delivered and, if so, the
    /// observed RSSI (with shadowing applied).
    pub fn deliver(&self, distance_m: f64, rng: &mut SimRng) -> Option<f64> {
        match *self {
            Propagation::UnitDisk { range_m } => {
                if distance_m <= range_m {
                    Some(self.mean_rssi_dbm(distance_m))
                } else {
                    None
                }
            }
            Propagation::LogDistance { shadowing_db, sensitivity_dbm, .. } => {
                let rssi = self.mean_rssi_dbm(distance_m) + rng.standard_normal() * shadowing_db;
                if rssi >= sensitivity_dbm {
                    Some(rssi)
                } else {
                    None
                }
            }
        }
    }

    /// Inverts the mean path loss: the distance (m) at which
    /// `mean_rssi_dbm` would equal `rssi_dbm`. Used for location
    /// inference; shadowing makes this an *estimate*.
    pub fn estimate_distance(&self, rssi_dbm: f64) -> f64 {
        match *self {
            Propagation::UnitDisk { range_m } => {
                (((-30.0 - rssi_dbm) / 60.0) * range_m).clamp(0.0, 2.0 * range_m)
            }
            Propagation::LogDistance { tx_power_dbm, pl0_db, exponent, .. } => {
                let pl = tx_power_dbm - pl0_db - rssi_dbm;
                10f64.powf(pl / (10.0 * exponent)).max(0.1)
            }
        }
    }

    /// The distance beyond which delivery is impossible (unit disk) or
    /// has under ~2% probability (log-distance, 2σ margin). Used to prune
    /// receiver candidates.
    pub fn practical_range(&self) -> f64 {
        match *self {
            Propagation::UnitDisk { range_m } => range_m,
            Propagation::LogDistance {
                tx_power_dbm,
                pl0_db,
                exponent,
                shadowing_db,
                sensitivity_dbm,
            } => {
                let margin_db = tx_power_dbm - pl0_db - sensitivity_dbm + 2.0 * shadowing_db;
                10f64.powf(margin_db / (10.0 * exponent))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_disk_is_sharp() {
        let p = Propagation::UnitDisk { range_m: 50.0 };
        let mut rng = SimRng::seed(1);
        assert!(p.deliver(49.9, &mut rng).is_some());
        assert!(p.deliver(50.0, &mut rng).is_some());
        assert!(p.deliver(50.1, &mut rng).is_none());
    }

    #[test]
    fn unit_disk_rssi_decreases_with_distance() {
        let p = Propagation::UnitDisk { range_m: 100.0 };
        assert!(p.mean_rssi_dbm(10.0) > p.mean_rssi_dbm(50.0));
        assert!(p.mean_rssi_dbm(50.0) > p.mean_rssi_dbm(99.0));
    }

    #[test]
    fn log_distance_delivery_probability_falls_with_distance() {
        let p = Propagation::wifi_outdoor();
        let mut rng = SimRng::seed(42);
        let rate = |d: f64, rng: &mut SimRng| {
            (0..2000).filter(|_| p.deliver(d, rng).is_some()).count() as f64 / 2000.0
        };
        let near = rate(10.0, &mut rng);
        let mid = rate(100.0, &mut rng);
        let far = rate(1000.0, &mut rng);
        assert!(near > 0.99, "near={near}");
        assert!(mid > near - 0.5 && mid <= near);
        assert!(far < 0.05, "far={far}");
        assert!(near >= mid && mid >= far);
    }

    #[test]
    fn practical_range_bounds_delivery() {
        let p = Propagation::wifi_outdoor();
        let r = p.practical_range();
        let mut rng = SimRng::seed(9);
        let hits = (0..2000).filter(|_| p.deliver(r * 1.5, &mut rng).is_some()).count();
        assert!(hits < 40, "delivery beyond practical range should be rare, got {hits}/2000");
    }

    #[test]
    fn zero_distance_does_not_blow_up() {
        let p = Propagation::wifi_outdoor();
        assert!(p.mean_rssi_dbm(0.0).is_finite());
        let u = Propagation::UnitDisk { range_m: 10.0 };
        assert!(u.mean_rssi_dbm(0.0).is_finite());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Any model the Location Service may be handed: the outdoor preset
    /// and an 80 m disk, any disk, and any log-distance model with a
    /// path-loss exponent of at least 1.5 whose link budget is positive.
    fn model() -> impl Strategy<Value = Propagation> {
        prop_oneof![
            Just(Propagation::wifi_outdoor()),
            Just(Propagation::UnitDisk { range_m: 80.0 }),
            (0.1f64..1e4).prop_map(|range_m| Propagation::UnitDisk { range_m }),
            (0f64..30.0, 20f64..60.0, 1.5f64..6.0, 0f64..10.0, -110f64..-70.0).prop_map(
                |(tx_power_dbm, pl0_db, exponent, shadowing_db, sensitivity_dbm)| {
                    Propagation::LogDistance {
                        tx_power_dbm,
                        pl0_db,
                        exponent,
                        shadowing_db,
                        sensitivity_dbm,
                    }
                }
            ),
        ]
    }

    proptest! {
        /// The Location Service's inversion is exact on the mean: for
        /// every model, a distance inside the model's reach reads back
        /// as itself (the disk's ramp up to twice its range, the
        /// log-distance curve up to its practical range).
        #[test]
        fn estimate_distance_inverts_mean_rssi(p in model(), at in 0f64..1.0) {
            let reach = match p {
                Propagation::UnitDisk { range_m } => 2.0 * range_m,
                Propagation::LogDistance { .. } => p.practical_range(),
            };
            let d = 0.1 + at * (reach - 0.1);
            let est = p.estimate_distance(p.mean_rssi_dbm(d));
            prop_assert!((est - d).abs() <= 1e-9 * d, "{p:?}: d={d} est={est}");
        }
    }
}
