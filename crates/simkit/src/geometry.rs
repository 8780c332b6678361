//! Planar geometry for the sensor field: points, disks and rectangles.
//!
//! The deployment plane uses metres in an arbitrary fixed frame shared by
//! receivers, transmitters and the Location Service.

use core::fmt;

/// A point (or free vector) in the deployment plane, metres.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting (m).
    pub x: f64,
    /// Northing (m).
    pub y: f64,
}

impl Point {
    /// The origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance_to(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Squared distance (avoids the square root on hot paths).
    pub fn distance_sq(self, other: Point) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    /// `t` outside `[0,1]` extrapolates.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }

    /// The `nx × ny` lattice of points `spacing_m` apart with `self` at
    /// its lower-left corner, row by row: an antenna grid's positions.
    pub(crate) fn lattice(
        self,
        nx: usize,
        ny: usize,
        spacing_m: f64,
    ) -> impl Iterator<Item = Point> {
        (0..ny).flat_map(move |j| {
            let y = self.y + j as f64 * spacing_m;
            (0..nx).map(move |i| Point::new(self.x + i as f64 * spacing_m, y))
        })
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}m, {:.1}m)", self.x, self.y)
    }
}

/// A closed disk: the coverage area of a receiver or transmitter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Disk {
    /// Centre of the disk.
    pub center: Point,
    /// Radius (m); never negative.
    pub radius: f64,
}

impl Disk {
    /// Creates a disk; the radius is clamped to be non-negative.
    pub fn new(center: Point, radius: f64) -> Self {
        Disk { center, radius: radius.max(0.0) }
    }

    /// True if `p` lies inside or on the boundary.
    #[cfg(test)]
    pub(crate) fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// True if the two disks share at least one point.
    pub fn intersects(&self, other: &Disk) -> bool {
        let d = self.center.distance_to(other.center);
        d <= self.radius + other.radius
    }
}

/// An axis-aligned rectangle: deployment bounds for mobility models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    pub(crate) fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A square of side `side` with its lower-left corner at the origin.
    pub fn square(side: f64) -> Self {
        Rect::new(Point::ORIGIN, Point::new(side, side))
    }

    /// True if `p` lies inside or on the boundary.
    #[cfg(test)]
    pub(crate) fn contains(&self, p: Point) -> bool {
        (self.min.x..=self.max.x).contains(&p.x) && (self.min.y..=self.max.y).contains(&p.y)
    }

    /// Width (m).
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (m).
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }
}

/// Weighted centroid of a set of points; the primitive the Location
/// Service uses to infer a sensor's position from receiver observations.
///
/// Returns `None` for an empty set or all-zero weights.
pub fn weighted_centroid(points: &[(Point, f64)]) -> Option<Point> {
    let total: f64 = points.iter().map(|(_, w)| w.max(0.0)).sum();
    if points.is_empty() || total <= 0.0 {
        return None;
    }
    let mut x = 0.0;
    let mut y = 0.0;
    for (p, w) in points {
        let w = w.max(0.0);
        x += p.x * w;
        y += p.y * w;
    }
    Some(Point::new(x / total, y / total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, -5.0));
    }

    #[test]
    fn disk_contains_boundary() {
        let d = Disk::new(Point::ORIGIN, 5.0);
        assert!(d.contains(Point::new(5.0, 0.0)));
        assert!(d.contains(Point::new(3.0, 3.9)));
        assert!(!d.contains(Point::new(5.1, 0.0)));
    }

    #[test]
    fn disk_negative_radius_clamped() {
        let d = Disk::new(Point::ORIGIN, -1.0);
        assert_eq!(d.radius, 0.0);
        assert!(d.contains(Point::ORIGIN));
    }

    #[test]
    fn disk_intersection() {
        let a = Disk::new(Point::new(0.0, 0.0), 3.0);
        let b = Disk::new(Point::new(5.0, 0.0), 2.0);
        let c = Disk::new(Point::new(10.0, 0.0), 1.0);
        assert!(a.intersects(&b)); // tangent
        assert!(!a.intersects(&c));
    }

    #[test]
    fn rect_normalises_corners() {
        let r = Rect::new(Point::new(5.0, -1.0), Point::new(-2.0, 7.0));
        assert_eq!(r.min, Point::new(-2.0, -1.0));
        assert_eq!(r.max, Point::new(5.0, 7.0));
        assert_eq!(r.width(), 7.0);
        assert_eq!(r.height(), 8.0);
    }

    #[test]
    fn rect_contains_its_boundary() {
        let r = Rect::square(10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert_eq!(weighted_centroid(&[]), None);
        assert_eq!(weighted_centroid(&[(Point::ORIGIN, 0.0)]), None);
    }

    #[test]
    fn centroid_unweighted_is_mean() {
        let pts = [
            (Point::new(0.0, 0.0), 1.0),
            (Point::new(10.0, 0.0), 1.0),
            (Point::new(5.0, 9.0), 1.0),
        ];
        let c = weighted_centroid(&pts).unwrap();
        assert!((c.x - 5.0).abs() < 1e-12);
        assert!((c.y - 3.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_weights_pull() {
        let pts = [(Point::new(0.0, 0.0), 3.0), (Point::new(10.0, 0.0), 1.0)];
        let c = weighted_centroid(&pts).unwrap();
        assert!((c.x - 2.5).abs() < 1e-12);
    }

    #[test]
    fn centroid_ignores_negative_weights() {
        let pts = [(Point::new(0.0, 0.0), 1.0), (Point::new(10.0, 0.0), -5.0)];
        let c = weighted_centroid(&pts).unwrap();
        assert_eq!(c, Point::new(0.0, 0.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn distance_is_symmetric(ax in -1e4f64..1e4, ay in -1e4f64..1e4, bx in -1e4f64..1e4, by in -1e4f64..1e4) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-9);
        }

        #[test]
        fn triangle_inequality(ax in -1e3f64..1e3, ay in -1e3f64..1e3, bx in -1e3f64..1e3, by in -1e3f64..1e3, cx in -1e3f64..1e3, cy in -1e3f64..1e3) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9);
        }

        #[test]
        fn centroid_lies_in_bounding_box(
            pts in proptest::collection::vec(((-1e3f64..1e3), (-1e3f64..1e3), (0.01f64..10.0)), 1..20)
        ) {
            let weighted: Vec<(Point, f64)> = pts.iter().map(|&(x, y, w)| (Point::new(x, y), w)).collect();
            let c = weighted_centroid(&weighted).unwrap();
            let minx = weighted.iter().map(|(p, _)| p.x).fold(f64::INFINITY, f64::min);
            let maxx = weighted.iter().map(|(p, _)| p.x).fold(f64::NEG_INFINITY, f64::max);
            let miny = weighted.iter().map(|(p, _)| p.y).fold(f64::INFINITY, f64::min);
            let maxy = weighted.iter().map(|(p, _)| p.y).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(c.x >= minx - 1e-9 && c.x <= maxx + 1e-9);
            prop_assert!(c.y >= miny - 1e-9 && c.y <= maxy + 1e-9);
        }
    }
}
