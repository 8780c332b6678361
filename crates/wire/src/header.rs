//! The 8-bit message header of Figure 2.
//!
//! "The message header provides version information and includes
//! bit-fields which flag additional capabilities and information such as
//! the presence of other data fields, and fused or relayed data" (§4.3).
//!
//! Layout (most significant bit first):
//!
//! ```text
//!   bit 7..6   version            (2 bits, currently 1)
//!   bit 5      FUSED              payload carries fused multi-sensor data
//!   bit 4      RELAYED            message was relayed by another node
//!   bit 3      MULTI_HOP          message travelled more than one hop
//!   bit 2      UPDATE_ACK         a stream-update acknowledgement field
//!                                 (4-byte RequestId) follows the fixed
//!                                 header — generated by receive-capable
//!                                 sensors (§4.3)
//!   bit 1      ENCRYPTED          payload is end-to-end encrypted
//!   bit 0      reserved           must be zero in version 1
//! ```
//!
//! The RELAYED/MULTI_HOP flags implement §8's "initial support … by
//! tagging the message header to reflect multi-hop and relayed data
//! messages to facilitate intelligent processing decisions".

use core::fmt;
use core::ops::{BitAnd, BitOr, BitOrAssign};

use crate::error::WireError;

/// The wire protocol version this crate speaks.
pub const WIRE_VERSION: u8 = 1;

const VERSION_SHIFT: u8 = 6;
const FLAG_MASK: u8 = 0b0011_1111;
const RESERVED_MASK: u8 = 0b0000_0001;

/// The capability/annotation flag bits of the message header.
///
/// Combined with `|`, tested with [`HeaderFlags::contains`].
///
/// # Example
///
/// ```
/// use garnet_wire::HeaderFlags;
///
/// let flags = HeaderFlags::FUSED | HeaderFlags::ENCRYPTED;
/// assert!(flags.contains(HeaderFlags::FUSED));
/// assert!(!flags.contains(HeaderFlags::RELAYED));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HeaderFlags(u8);

impl HeaderFlags {
    /// No flags set.
    pub(crate) const NONE: HeaderFlags = HeaderFlags(0);
    /// Payload carries fused (aggregated) multi-sensor data.
    pub const FUSED: HeaderFlags = HeaderFlags(0b0010_0000);
    /// Message was relayed by another sensor node.
    pub const RELAYED: HeaderFlags = HeaderFlags(0b0001_0000);
    /// Message travelled more than one wireless hop.
    pub const MULTI_HOP: HeaderFlags = HeaderFlags(0b0000_1000);
    /// A stream-update acknowledgement field follows the fixed header.
    pub const UPDATE_ACK: HeaderFlags = HeaderFlags(0b0000_0100);
    /// Payload is end-to-end encrypted (opaque even to trusted services).
    pub const ENCRYPTED: HeaderFlags = HeaderFlags(0b0000_0010);

    /// All flag bits that version 1 defines.
    #[cfg(test)]
    pub(crate) const ALL: HeaderFlags = HeaderFlags(0b0011_1110);

    /// True if every bit of `other` is set in `self`.
    pub const fn contains(self, other: HeaderFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no flags are set.
    pub(crate) const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for HeaderFlags {
    type Output = HeaderFlags;
    fn bitor(self, rhs: HeaderFlags) -> HeaderFlags {
        HeaderFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for HeaderFlags {
    fn bitor_assign(&mut self, rhs: HeaderFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for HeaderFlags {
    type Output = HeaderFlags;
    fn bitand(self, rhs: HeaderFlags) -> HeaderFlags {
        HeaderFlags(self.0 & rhs.0)
    }
}

impl fmt::Debug for HeaderFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "HeaderFlags(NONE)");
        }
        let mut names = Vec::new();
        for (flag, name) in [
            (HeaderFlags::FUSED, "FUSED"),
            (HeaderFlags::RELAYED, "RELAYED"),
            (HeaderFlags::MULTI_HOP, "MULTI_HOP"),
            (HeaderFlags::UPDATE_ACK, "UPDATE_ACK"),
            (HeaderFlags::ENCRYPTED, "ENCRYPTED"),
        ] {
            if self.contains(flag) {
                names.push(name);
            }
        }
        write!(f, "HeaderFlags({})", names.join("|"))
    }
}

/// The complete 8-bit message header: version + flags.
///
/// # Example
///
/// ```
/// use garnet_wire::{HeaderFlags, MsgHeader, WIRE_VERSION};
///
/// let h = MsgHeader::with_flags(HeaderFlags::RELAYED | HeaderFlags::MULTI_HOP);
/// assert_eq!(h.version(), WIRE_VERSION);
/// let byte = h.to_byte();
/// assert_eq!(MsgHeader::from_byte(byte)?, h);
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgHeader {
    version: u8,
    flags: HeaderFlags,
}

impl Default for MsgHeader {
    fn default() -> Self {
        MsgHeader::new()
    }
}

impl MsgHeader {
    /// A version-1 header with no flags.
    pub const fn new() -> Self {
        MsgHeader { version: WIRE_VERSION, flags: HeaderFlags::NONE }
    }

    /// A version-1 header with the given flags.
    pub const fn with_flags(flags: HeaderFlags) -> Self {
        MsgHeader { version: WIRE_VERSION, flags }
    }

    /// The protocol version (2 bits on the wire).
    pub const fn version(self) -> u8 {
        self.version
    }

    /// Returns a copy with `flag` additionally set.
    #[must_use]
    pub(crate) fn with_flag(mut self, flag: HeaderFlags) -> Self {
        self.flags |= flag;
        self
    }

    /// True if `flag` is set.
    pub const fn has(self, flag: HeaderFlags) -> bool {
        self.flags.contains(flag)
    }

    /// Packs into the single wire byte.
    pub const fn to_byte(self) -> u8 {
        (self.version << VERSION_SHIFT) | self.flags.0
    }

    /// Parses the wire byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnsupportedVersion`] for any version other than
    /// [`WIRE_VERSION`], including a version-1 byte with the reserved bit
    /// set (future versions will use it; v1 parsers must not guess).
    pub const fn from_byte(byte: u8) -> Result<Self, WireError> {
        let version = byte >> VERSION_SHIFT;
        if version != WIRE_VERSION || byte & RESERVED_MASK != 0 {
            return Err(WireError::UnsupportedVersion(version));
        }
        Ok(MsgHeader { version, flags: HeaderFlags(byte & FLAG_MASK & !RESERVED_MASK) })
    }
}

impl fmt::Debug for MsgHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MsgHeader(v{}, {:?})", self.version, self.flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_header_is_version_1_no_flags() {
        let h = MsgHeader::new();
        assert_eq!(h.version(), 1);
        assert_eq!(h.to_byte(), 0b0100_0000);
    }

    #[test]
    fn flags_round_trip_through_byte() {
        let all = [
            HeaderFlags::NONE,
            HeaderFlags::FUSED,
            HeaderFlags::RELAYED,
            HeaderFlags::MULTI_HOP,
            HeaderFlags::UPDATE_ACK,
            HeaderFlags::ENCRYPTED,
            HeaderFlags::ALL,
            HeaderFlags::FUSED | HeaderFlags::ENCRYPTED,
        ];
        for flags in all {
            let h = MsgHeader::with_flags(flags);
            assert_eq!(MsgHeader::from_byte(h.to_byte()).unwrap(), h);
        }
    }

    #[test]
    fn rejects_other_versions() {
        for v in [0u8, 2, 3] {
            let byte = v << VERSION_SHIFT;
            assert_eq!(MsgHeader::from_byte(byte), Err(WireError::UnsupportedVersion(v)));
        }
    }

    #[test]
    fn rejects_reserved_bit() {
        let byte = (WIRE_VERSION << VERSION_SHIFT) | 1;
        assert!(MsgHeader::from_byte(byte).is_err());
    }

    #[test]
    fn contains_and_is_empty() {
        let f = HeaderFlags::FUSED | HeaderFlags::MULTI_HOP;
        assert!(f.contains(HeaderFlags::FUSED));
        assert!(f.contains(HeaderFlags::MULTI_HOP));
        assert!(f.contains(HeaderFlags::FUSED | HeaderFlags::MULTI_HOP));
        assert!(!f.contains(HeaderFlags::ALL));
        assert!(!f.is_empty());
        assert!(HeaderFlags::NONE.is_empty());
    }

    #[test]
    fn with_flag_accumulates() {
        let h = MsgHeader::new().with_flag(HeaderFlags::RELAYED).with_flag(HeaderFlags::UPDATE_ACK);
        assert!(h.has(HeaderFlags::RELAYED));
        assert!(h.has(HeaderFlags::UPDATE_ACK));
        assert!(!h.has(HeaderFlags::FUSED));
    }

    #[test]
    fn debug_lists_flag_names() {
        let s = format!("{:?}", HeaderFlags::FUSED | HeaderFlags::ENCRYPTED);
        assert!(s.contains("FUSED"));
        assert!(s.contains("ENCRYPTED"));
        assert_eq!(format!("{:?}", HeaderFlags::NONE), "HeaderFlags(NONE)");
    }

    #[test]
    fn all_byte_values_either_parse_or_error() {
        let mut ok = 0;
        for byte in 0..=u8::MAX {
            match MsgHeader::from_byte(byte) {
                Ok(h) => {
                    assert_eq!(h.to_byte(), byte);
                    ok += 1;
                }
                Err(WireError::UnsupportedVersion(_)) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // 1 version * 32 flag combinations (5 flag bits, reserved clear).
        assert_eq!(ok, 32);
    }
}
