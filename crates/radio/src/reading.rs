//! The payload carried by simulated sensors: one scalar reading.
//!
//! Garnet treats payloads as opaque (§4.3); this is the *application*
//! convention our simulated sensors and example consumers agree on. Real
//! deployments would define their own payload schemata — nothing in the
//! middleware depends on this format.

use garnet_simkit::SimTime;

use crate::geometry::Point;

/// One sensed sample: a value plus the instant it was sensed, and
/// optionally the sensing position (only for location-aware sensors).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// The sampled field value.
    pub value: f64,
    /// When the sample was taken (µs of simulation time).
    pub sensed_at_us: u64,
    /// The sensing position, if the sensor is location-aware.
    pub position: Option<Point>,
}

impl Reading {
    /// Encoded size without position.
    pub(crate) const BASE_LEN: usize = 16;
    /// Encoded size with position.
    pub(crate) const LOCATED_LEN: usize = 32;

    /// Creates a reading without position.
    pub fn new(value: f64, sensed_at: SimTime) -> Self {
        Reading { value, sensed_at_us: sensed_at.as_micros(), position: None }
    }

    /// Creates a reading tagged with the sensing position.
    pub(crate) fn located(value: f64, sensed_at: SimTime, position: Point) -> Self {
        Reading { value, sensed_at_us: sensed_at.as_micros(), position: Some(position) }
    }

    /// Encodes to the agreed payload bytes (16 or 32 bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(if self.position.is_some() {
            Self::LOCATED_LEN
        } else {
            Self::BASE_LEN
        });
        out.extend_from_slice(&self.value.to_be_bytes());
        out.extend_from_slice(&self.sensed_at_us.to_be_bytes());
        if let Some(p) = self.position {
            out.extend_from_slice(&p.x.to_be_bytes());
            out.extend_from_slice(&p.y.to_be_bytes());
        }
        out
    }

    /// Decodes a payload produced by [`Reading::encode`].
    ///
    /// Returns `None` if the payload has neither the base nor the located
    /// length (e.g. it belongs to a different application or is
    /// encrypted).
    pub fn decode(payload: &[u8]) -> Option<Reading> {
        let f64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&payload[i..i + 8]);
            f64::from_be_bytes(b)
        };
        let u64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&payload[i..i + 8]);
            u64::from_be_bytes(b)
        };
        match payload.len() {
            Self::BASE_LEN => {
                Some(Reading { value: f64_at(0), sensed_at_us: u64_at(8), position: None })
            }
            Self::LOCATED_LEN => Some(Reading {
                value: f64_at(0),
                sensed_at_us: u64_at(8),
                position: Some(Point::new(f64_at(16), f64_at(24))),
            }),
            _ => None,
        }
    }

    /// The sensing instant as a [`SimTime`].
    pub fn sensed_at(&self) -> SimTime {
        SimTime::from_micros(self.sensed_at_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_round_trip() {
        let r = Reading::new(21.625, SimTime::from_millis(1500));
        let bytes = r.encode();
        assert_eq!(bytes.len(), Reading::BASE_LEN);
        assert_eq!(Reading::decode(&bytes), Some(r));
    }

    #[test]
    fn located_round_trip() {
        let r = Reading::located(-4.5, SimTime::from_secs(3), Point::new(12.0, -7.5));
        let bytes = r.encode();
        assert_eq!(bytes.len(), Reading::LOCATED_LEN);
        assert_eq!(Reading::decode(&bytes), Some(r));
    }

    #[test]
    fn wrong_length_is_none() {
        assert_eq!(Reading::decode(&[0u8; 15]), None);
        assert_eq!(Reading::decode(&[0u8; 17]), None);
        assert_eq!(Reading::decode(&[]), None);
    }

    #[test]
    fn special_float_values_survive() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 0.0, -0.0] {
            let r = Reading::new(v, SimTime::ZERO);
            let back = Reading::decode(&r.encode()).unwrap();
            assert_eq!(back.value.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn sensed_at_accessor() {
        let r = Reading::new(0.0, SimTime::from_micros(777));
        assert_eq!(r.sensed_at(), SimTime::from_micros(777));
    }
}
