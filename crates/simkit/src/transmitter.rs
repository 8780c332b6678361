//! Fixed-network transmitters for the return actuation path.
//!
//! "Based on the location area, the appropriate set of Transmitters
//! broadcast the request, whereupon it may be received by the sensor
//! node" (§4.2). The Message Replicator chooses which transmitters to
//! drive; the trade-off between flooding every transmitter and targeting
//! the inferred location area is experiment E9.

use core::fmt;

use crate::geometry::{Disk, Point};

/// Identifier of one fixed transmitter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransmitterId(u32);

impl TransmitterId {
    /// Creates a transmitter id.
    pub const fn new(raw: u32) -> Self {
        TransmitterId(raw)
    }

    /// The raw value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for TransmitterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TransmitterId({})", self.0)
    }
}

impl fmt::Display for TransmitterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// One fixed transmitter installation.
#[derive(Clone, Debug, PartialEq)]
pub struct Transmitter {
    id: TransmitterId,
    position: Point,
    range_m: f64,
}

impl Transmitter {
    /// Creates a transmitter at `position` with broadcast range `range_m`.
    pub fn new(id: TransmitterId, position: Point, range_m: f64) -> Self {
        Transmitter { id, position, range_m: range_m.max(0.0) }
    }

    /// The transmitter's identity.
    pub fn id(&self) -> TransmitterId {
        self.id
    }

    /// Installation position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Broadcast range (m).
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// The broadcast coverage disk.
    pub fn coverage(&self) -> Disk {
        Disk::new(self.position, self.range_m)
    }

    /// Lays out an `nx × ny` grid of transmitters (usually co-located
    /// with the receiver grid).
    pub fn grid(
        origin: Point,
        nx: usize,
        ny: usize,
        spacing_m: f64,
        range_m: f64,
    ) -> Vec<Transmitter> {
        let ids = (0..).map(TransmitterId::new);
        ids.zip(origin.lattice(nx, ny, spacing_m))
            .map(|(id, p)| Transmitter::new(id, p, range_m))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_and_accessors() {
        let t = Transmitter::new(TransmitterId::new(1), Point::new(5.0, 5.0), 100.0);
        assert!(t.coverage().contains(Point::new(50.0, 5.0)));
        assert!(!t.coverage().contains(Point::new(200.0, 5.0)));
        assert_eq!(t.id().to_string(), "tx1");
    }

    #[test]
    fn grid_matches_receiver_layout() {
        let ts = Transmitter::grid(Point::ORIGIN, 3, 2, 100.0, 120.0);
        assert_eq!(ts.len(), 6);
        assert_eq!(ts[5].position(), Point::new(200.0, 100.0));
    }
}
