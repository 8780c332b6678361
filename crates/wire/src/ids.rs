//! Identifier newtypes for sensors, streams, sequence numbers and
//! actuation requests.
//!
//! The composite `StreamID` field of Figure 2 "implicitly identifies the
//! source of the message, while the end destinations are inferred" (§5,
//! *delayed delivery decision-making*). The 32-bit field splits as a
//! 24-bit [`SensorId`] and an 8-bit [`StreamIndex`], yielding the paper's
//! capacity claims of 16.7M sensors and 256 internal streams per sensor.
//!
//! Sequence numbers are 16-bit and therefore *wrap*: long-lived streams
//! exceed 64K messages quickly, so comparisons use RFC 1982 serial-number
//! arithmetic ([`SequenceNumber::serial_cmp`]), exactly as DNS and TCP do.

use core::fmt;

use crate::error::WireError;

/// A 24-bit sensor (node) identifier: `0 ..= 16_777_215`.
///
/// The paper: "Our Java-based proof-of-concept implementation supports up
/// to 16.7M sensors".
///
/// # Example
///
/// ```
/// use garnet_wire::SensorId;
///
/// let id = SensorId::new(1_000_000)?;
/// assert_eq!(id.as_u32(), 1_000_000);
/// assert!(SensorId::new(0x0100_0000).is_err()); // 25 bits: rejected
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SensorId(u32);

impl SensorId {
    /// The largest valid sensor id (`2^24 - 1` = 16,777,215 — the paper's
    /// "16.7M sensors").
    pub const MAX: SensorId = SensorId(0x00FF_FFFF);

    /// Creates a sensor id, rejecting values that do not fit in 24 bits.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidSensorId`] if `raw > SensorId::MAX`.
    pub const fn new(raw: u32) -> Result<Self, WireError> {
        if raw > Self::MAX.0 {
            Err(WireError::InvalidSensorId(raw))
        } else {
            Ok(SensorId(raw))
        }
    }

    /// The identifier as a `u32` (always `<= 0x00FF_FFFF`).
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SensorId({:#08x})", self.0)
    }
}

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{:06x}", self.0)
    }
}

impl TryFrom<u32> for SensorId {
    type Error = WireError;
    fn try_from(raw: u32) -> Result<Self, WireError> {
        SensorId::new(raw)
    }
}

impl From<SensorId> for u32 {
    fn from(id: SensorId) -> u32 {
        id.0
    }
}

/// An 8-bit internal stream index within one sensor: `0 ..= 255`.
///
/// The paper: "256 internal-streams/sensor". A multi-instrument node
/// (temperature, humidity, battery telemetry, …) publishes each reading
/// series under its own index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamIndex(u8);

impl StreamIndex {
    /// The largest stream index (255; every `u8` is valid).
    pub const MAX: StreamIndex = StreamIndex(255);

    /// Creates a stream index; all 256 values are valid.
    pub const fn new(raw: u8) -> Self {
        StreamIndex(raw)
    }

    /// The index as a `u8`.
    pub const fn as_u8(self) -> u8 {
        self.0
    }
}

impl fmt::Debug for StreamIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StreamIndex({})", self.0)
    }
}

impl fmt::Display for StreamIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u8> for StreamIndex {
    fn from(raw: u8) -> Self {
        StreamIndex(raw)
    }
}

impl From<StreamIndex> for u8 {
    fn from(i: StreamIndex) -> u8 {
        i.0
    }
}

/// The composite 32-bit StreamID of Figure 2: a [`SensorId`] in the upper
/// 24 bits and a [`StreamIndex`] in the lower 8.
///
/// A `StreamId` names one logical data stream for its whole lifetime —
/// the property that makes RETRI-style ephemeral identifiers unsuitable
/// for Garnet (§7).
///
/// # Example
///
/// ```
/// use garnet_wire::{SensorId, StreamId, StreamIndex};
///
/// let s = StreamId::new(SensorId::new(7)?, StreamIndex::new(2));
/// assert_eq!(s.to_raw(), (7 << 8) | 2);
/// assert_eq!(StreamId::from_raw(s.to_raw()), s);
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId {
    sensor: SensorId,
    index: StreamIndex,
}

impl StreamId {
    /// Combines a sensor id and a stream index.
    pub const fn new(sensor: SensorId, index: StreamIndex) -> Self {
        StreamId { sensor, index }
    }

    /// Reconstructs a stream id from its packed 32-bit wire form. Every
    /// `u32` is a valid packed stream id, so this is total.
    pub const fn from_raw(raw: u32) -> Self {
        StreamId { sensor: SensorId(raw >> 8), index: StreamIndex((raw & 0xFF) as u8) }
    }

    /// Packs into the 32-bit wire representation.
    pub const fn to_raw(self) -> u32 {
        (self.sensor.0 << 8) | self.index.0 as u32
    }

    /// The originating sensor.
    pub const fn sensor(self) -> SensorId {
        self.sensor
    }

    /// The internal stream index within the sensor.
    pub const fn index(self) -> StreamIndex {
        self.index
    }
}

impl fmt::Debug for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StreamId({}/{})", self.sensor, self.index)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.sensor, self.index)
    }
}

/// A 16-bit wrapping sequence number with RFC 1982 serial arithmetic.
///
/// "Sequence or timing information is conveyed to allow messages to be
/// correctly ordered and duplicates removed" (§4.3). With only 64K values
/// the counter wraps within minutes at realistic rates, so ordering uses
/// serial-number comparison: `a` precedes `b` iff the signed 16-bit
/// distance from `a` to `b` is positive. Values exactly `2^15` apart are
/// incomparable (`SequenceNumber::serial_cmp` returns `None`).
///
/// # Example
///
/// ```
/// use garnet_wire::SequenceNumber;
///
/// let near_wrap = SequenceNumber::new(65_535);
/// let wrapped = near_wrap.next();
/// assert_eq!(wrapped, SequenceNumber::new(0));
/// assert!(wrapped.is_after(near_wrap)); // wraparound-aware ordering
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SequenceNumber(u16);

impl SequenceNumber {
    /// The zero sequence number (start of a stream).
    pub const ZERO: SequenceNumber = SequenceNumber(0);

    /// Creates a sequence number; every `u16` is valid.
    pub const fn new(raw: u16) -> Self {
        SequenceNumber(raw)
    }

    /// The raw 16-bit value.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// The successor, wrapping `65535 -> 0`.
    pub const fn next(self) -> SequenceNumber {
        SequenceNumber(self.0.wrapping_add(1))
    }

    /// The signed serial distance from `self` to `other`, i.e. how far
    /// forward `other` is. Positive means `other` is newer. The value
    /// `i16::MIN` (distance exactly 2^15) is the ambiguous antipode.
    pub const fn distance_to(self, other: SequenceNumber) -> i16 {
        other.0.wrapping_sub(self.0) as i16
    }

    /// RFC 1982 comparison. `None` when the two values are exactly 2^15
    /// apart and therefore unordered.
    pub(crate) fn serial_cmp(self, other: SequenceNumber) -> Option<core::cmp::Ordering> {
        use core::cmp::Ordering;
        let d = self.distance_to(other);
        if d == 0 {
            Some(Ordering::Equal)
        } else if d == i16::MIN {
            None
        } else if d > 0 {
            Some(Ordering::Less)
        } else {
            Some(Ordering::Greater)
        }
    }

    /// True if `self` is strictly newer than `other` in serial order.
    /// The ambiguous antipode compares as *not* newer (conservative: a
    /// filtering service treats it as stale/duplicate rather than
    /// delivering potentially reordered data).
    pub fn is_after(self, other: SequenceNumber) -> bool {
        matches!(other.serial_cmp(self), Some(core::cmp::Ordering::Less))
    }
}

impl fmt::Debug for SequenceNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Seq({})", self.0)
    }
}

impl fmt::Display for SequenceNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u16> for SequenceNumber {
    fn from(raw: u16) -> Self {
        SequenceNumber(raw)
    }
}

impl From<SequenceNumber> for u16 {
    fn from(s: SequenceNumber) -> u16 {
        s.0
    }
}

/// Identifier of a stream-update (actuation) request, "issued to consumer
/// processes and used in sensor-level acknowledgements" (§7 — the field
/// the paper calls "loosely comparable to a RETRI").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(u32);

impl RequestId {
    /// Creates a request id from a raw value.
    pub const fn new(raw: u32) -> Self {
        RequestId(raw)
    }

    /// The raw 32-bit value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The next request id, wrapping (allocation is middleware-local).
    pub const fn next(self) -> RequestId {
        RequestId(self.0.wrapping_add(1))
    }
}

impl fmt::Debug for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RequestId({})", self.0)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::cmp::Ordering;

    #[test]
    fn sensor_id_accepts_full_24_bit_space() {
        assert!(SensorId::new(0).is_ok());
        assert!(SensorId::new(0x00FF_FFFF).is_ok());
        assert_eq!(SensorId::MAX.as_u32(), 16_777_215); // the paper's 16.7M
    }

    #[test]
    fn sensor_id_rejects_25_bits() {
        assert_eq!(SensorId::new(0x0100_0000), Err(WireError::InvalidSensorId(0x0100_0000)));
        assert!(SensorId::try_from(u32::MAX).is_err());
    }

    #[test]
    fn stream_id_packs_and_unpacks() {
        let s = StreamId::new(SensorId::new(0x00AB_CDEF).unwrap(), StreamIndex::new(0x42));
        assert_eq!(s.to_raw(), 0xABCD_EF42);
        let back = StreamId::from_raw(0xABCD_EF42);
        assert_eq!(back, s);
        assert_eq!(back.sensor().as_u32(), 0x00AB_CDEF);
        assert_eq!(back.index().as_u8(), 0x42);
    }

    #[test]
    fn stream_id_round_trips_entire_u32_space_sampled() {
        for raw in (0..=u32::MAX).step_by(104_729) {
            assert_eq!(StreamId::from_raw(raw).to_raw(), raw);
        }
        assert_eq!(StreamId::from_raw(u32::MAX).to_raw(), u32::MAX);
    }

    #[test]
    fn display_formats() {
        let s = StreamId::new(SensorId::new(0xABC).unwrap(), StreamIndex::new(7));
        assert_eq!(s.to_string(), "s000abc/7");
        assert_eq!(SequenceNumber::new(9).to_string(), "#9");
        assert_eq!(RequestId::new(3).to_string(), "r3");
    }

    #[test]
    fn sequence_successor_wraps() {
        assert_eq!(SequenceNumber::new(65_535).next(), SequenceNumber::new(0));
    }

    #[test]
    fn serial_ordering_near_wrap() {
        let a = SequenceNumber::new(65_530);
        let b = SequenceNumber::new(5);
        assert!(b.is_after(a), "5 follows 65530 after wrap");
        assert!(!a.is_after(b));
        assert_eq!(a.serial_cmp(b), Some(Ordering::Less));
        assert_eq!(b.serial_cmp(a), Some(Ordering::Greater));
    }

    #[test]
    fn serial_ordering_plain() {
        let a = SequenceNumber::new(100);
        let b = SequenceNumber::new(200);
        assert!(b.is_after(a));
        assert_eq!(a.serial_cmp(a), Some(Ordering::Equal));
        assert_eq!(a.distance_to(b), 100);
        assert_eq!(b.distance_to(a), -100);
    }

    #[test]
    fn serial_antipode_is_unordered_and_not_after() {
        let a = SequenceNumber::new(0);
        let b = SequenceNumber::new(32_768);
        assert_eq!(a.serial_cmp(b), None);
        assert_eq!(b.serial_cmp(a), None);
        assert!(!a.is_after(b));
        assert!(!b.is_after(a));
    }

    #[test]
    fn serial_cmp_is_antisymmetric_on_sample() {
        for i in (0..=u16::MAX).step_by(251) {
            for j in (0..=u16::MAX).step_by(499) {
                let a = SequenceNumber::new(i);
                let b = SequenceNumber::new(j);
                match (a.serial_cmp(b), b.serial_cmp(a)) {
                    (Some(Ordering::Less), Some(Ordering::Greater))
                    | (Some(Ordering::Greater), Some(Ordering::Less))
                    | (Some(Ordering::Equal), Some(Ordering::Equal))
                    | (None, None) => {}
                    other => panic!("asymmetric serial_cmp for {i},{j}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn request_id_wraps() {
        assert_eq!(RequestId::new(u32::MAX).next(), RequestId::new(0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn stream_id_raw_round_trip(raw in any::<u32>()) {
            prop_assert_eq!(StreamId::from_raw(raw).to_raw(), raw);
        }

        #[test]
        fn sensor_id_new_matches_mask(raw in any::<u32>()) {
            let ok = SensorId::new(raw).is_ok();
            prop_assert_eq!(ok, raw <= 0x00FF_FFFF);
        }

        #[test]
        fn serial_distance_is_negation(a in any::<u16>(), b in any::<u16>()) {
            let sa = SequenceNumber::new(a);
            let sb = SequenceNumber::new(b);
            let d1 = sa.distance_to(sb);
            let d2 = sb.distance_to(sa);
            if d1 != i16::MIN {
                prop_assert_eq!(d1, -d2);
            } else {
                prop_assert_eq!(d2, i16::MIN);
            }
        }

        #[test]
        fn is_after_is_irreflexive_and_asymmetric(a in any::<u16>(), b in any::<u16>()) {
            let sa = SequenceNumber::new(a);
            let sb = SequenceNumber::new(b);
            prop_assert!(!sa.is_after(sa));
            if sa.is_after(sb) {
                prop_assert!(!sb.is_after(sa));
            }
        }

        #[test]
        fn successor_is_always_after(a in any::<u16>()) {
            let s = SequenceNumber::new(a);
            prop_assert!(s.next().is_after(s));
        }

        #[test]
        fn advance_within_half_window_preserves_order(a in any::<u16>(), n in 1u16..32_767) {
            let s = SequenceNumber::new(a);
            prop_assert!(SequenceNumber::new(a.wrapping_add(n)).is_after(s));
        }
    }
}
