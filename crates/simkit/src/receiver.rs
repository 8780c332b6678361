//! Fixed-network receivers.
//!
//! "These are arranged such that their effective receiving areas may
//! overlap. Such coverage improves data reception but causes potential
//! duplication of data messages" (§4.2). Each reception is tagged with
//! the hearing receiver and an RSSI — the raw material from which the
//! Location Service infers sensor positions "without the active
//! involvement of the sensors" (§5).

use core::fmt;

use crate::geometry::Point;

/// Identifier of one fixed receiver.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReceiverId(u32);

impl ReceiverId {
    /// Creates a receiver id.
    pub const fn new(raw: u32) -> Self {
        ReceiverId(raw)
    }

    /// The raw value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ReceiverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReceiverId({})", self.0)
    }
}

impl fmt::Display for ReceiverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rx{}", self.0)
    }
}

/// One fixed receiver installation.
#[derive(Clone, Debug, PartialEq)]
pub struct Receiver {
    id: ReceiverId,
    position: Point,
    range_m: f64,
}

impl Receiver {
    /// Creates a receiver at `position` with nominal listening range
    /// `range_m` (propagation may further limit actual reception).
    pub fn new(id: ReceiverId, position: Point, range_m: f64) -> Self {
        Receiver { id, position, range_m: range_m.max(0.0) }
    }

    /// The receiver's identity.
    pub fn id(&self) -> ReceiverId {
        self.id
    }

    /// Installation position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Nominal listening range (m).
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// The nominal coverage disk.
    #[cfg(test)]
    pub(crate) fn coverage(&self) -> crate::geometry::Disk {
        crate::geometry::Disk::new(self.position, self.range_m)
    }

    /// Lays out an `nx × ny` grid of receivers with the given spacing,
    /// starting at `origin`. `range_m > spacing` yields the overlapping
    /// coverage of §4.2.
    pub fn grid(
        origin: Point,
        nx: usize,
        ny: usize,
        spacing_m: f64,
        range_m: f64,
    ) -> Vec<Receiver> {
        let ids = (0..).map(ReceiverId::new);
        ids.zip(origin.lattice(nx, ny, spacing_m))
            .map(|(id, p)| Receiver::new(id, p, range_m))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_disk_matches_parameters() {
        let r = Receiver::new(ReceiverId::new(7), Point::new(10.0, 20.0), 30.0);
        let d = r.coverage();
        assert_eq!(d.center, Point::new(10.0, 20.0));
        assert_eq!(d.radius, 30.0);
        assert_eq!(r.id().as_u32(), 7);
    }

    #[test]
    fn negative_range_clamped() {
        let r = Receiver::new(ReceiverId::new(0), Point::ORIGIN, -5.0);
        assert_eq!(r.range_m(), 0.0);
    }

    #[test]
    fn grid_has_unique_ids_and_positions() {
        let rs = Receiver::grid(Point::ORIGIN, 4, 3, 50.0, 80.0);
        assert_eq!(rs.len(), 12);
        let mut ids: Vec<u32> = rs.iter().map(|r| r.id().as_u32()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
        assert_eq!(rs[0].position(), Point::ORIGIN);
        assert_eq!(rs[11].position(), Point::new(150.0, 100.0));
    }

    #[test]
    fn grid_overlap_when_range_exceeds_spacing() {
        let rs = Receiver::grid(Point::ORIGIN, 2, 1, 50.0, 80.0);
        assert!(rs[0].coverage().intersects(&rs[1].coverage()));
        let sparse = Receiver::grid(Point::ORIGIN, 2, 1, 200.0, 80.0);
        assert!(!sparse[0].coverage().intersects(&sparse[1].coverage()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ReceiverId::new(3).to_string(), "rx3");
    }
}
