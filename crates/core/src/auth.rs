//! Principal authentication and capability tokens.
//!
//! "Simple, flexible and secure mechanisms for accessing the data" is one
//! of the paper's four delivery requirements (§1), and location data in
//! particular "may be regarded as sensitive and should be protected by
//! additional security mechanisms" (§2). Garnet services therefore check
//! a capability token before serving a consumer.
//!
//! Tokens are MAC-signed by the issuing [`AuthService`] (the MAC reuses
//! the wire crate's keyed XTEA-CBC-MAC), so any service holding the
//! verification key can check a token locally without a round trip.
//! [`AuthService::verify`] checks a token in full: expiry and capability
//! first ([`Token::admits`]), then the MAC, compared in constant time.
//! A MAC is a function of the token's fields under the node's fixed key,
//! so a token identical to one already verified ([`Token::same_as`]) is
//! as authentic as that one: the facade keeps each consumer's verified
//! registration token and, when the consumer presents it again, checks
//! only [`Token::admits`] — one MAC per consumer, not one per call.

use core::fmt;
use garnet_wire::crypto::PayloadKey;
use garnet_wire::{SequenceNumber, StreamId};

/// A named security principal (a consumer process or service instance).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Principal(String);

impl Principal {
    /// Creates a principal from its registered name.
    pub fn new(name: impl Into<String>) -> Self {
        Principal(name.into())
    }

    /// The registered name.
    pub(crate) fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Principal({})", self.0)
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Principal {
    fn from(s: &str) -> Self {
        Principal::new(s)
    }
}

/// One grantable right.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Capability {
    /// Subscribe to data streams.
    Subscribe,
    /// Issue stream update (actuation) requests.
    Actuate,
    /// Supply location hints to the Location Service (§4.2).
    ProvideHints,
    /// Read inferred locations (sensitive; §2).
    ReadLocation,
    /// Report state-change information to the Super Coordinator and be
    /// treated as a "trusted application" able to pre-warn of changing
    /// needs (§9).
    Coordinate,
    /// Administer the middleware (register services, issue tokens).
    Admin,
}

impl Capability {
    const ALL: [Capability; 6] = [
        Capability::Subscribe,
        Capability::Actuate,
        Capability::ProvideHints,
        Capability::ReadLocation,
        Capability::Coordinate,
        Capability::Admin,
    ];

    fn bit(self) -> u8 {
        match self {
            Capability::Subscribe => 1 << 0,
            Capability::Actuate => 1 << 1,
            Capability::ProvideHints => 1 << 2,
            Capability::ReadLocation => 1 << 3,
            Capability::Coordinate => 1 << 4,
            Capability::Admin => 1 << 5,
        }
    }
}

/// A set of capabilities, packed for cheap copying and MAC'ing.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct CapabilitySet(u8);

impl CapabilitySet {
    /// Builds a set from individual capabilities.
    pub fn of(caps: &[Capability]) -> Self {
        CapabilitySet(caps.iter().fold(0, |acc, c| acc | c.bit()))
    }

    /// Every capability (operator tooling).
    pub fn all() -> Self {
        CapabilitySet::of(&Capability::ALL)
    }

    /// True if `cap` is in the set.
    pub(crate) fn allows(self, cap: Capability) -> bool {
        self.0 & cap.bit() != 0
    }

    fn bits(self) -> u8 {
        self.0
    }
}

impl fmt::Debug for CapabilitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = Capability::ALL
            .iter()
            .filter(|c| self.allows(**c))
            .map(|c| match c {
                Capability::Subscribe => "Subscribe",
                Capability::Actuate => "Actuate",
                Capability::ProvideHints => "ProvideHints",
                Capability::ReadLocation => "ReadLocation",
                Capability::Coordinate => "Coordinate",
                Capability::Admin => "Admin",
            })
            .collect();
        write!(
            f,
            "CapabilitySet({})",
            if names.is_empty() { "∅".to_owned() } else { names.join("|") }
        )
    }
}

/// A signed grant: *principal P holds capabilities C until expiry E*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    principal: Principal,
    caps: CapabilitySet,
    expires_at_us: u64,
    mac: [u8; 8],
}

impl Token {
    /// The principal this token authenticates.
    pub(crate) fn principal(&self) -> &Principal {
        &self.principal
    }

    /// The granted capabilities.
    pub(crate) fn capabilities(&self) -> CapabilitySet {
        self.caps
    }

    /// True if the token is unexpired at `now_us` and grants `needed`:
    /// the half of [`AuthService::verify`] that needs no key.
    pub(crate) fn admits(&self, now_us: u64, needed: Capability) -> bool {
        now_us < self.expires_at_us && self.caps.allows(needed)
    }

    /// True if `other` carries this token's principal, capabilities,
    /// expiry and MAC, the MAC compared in constant time.
    pub(crate) fn same_as(&self, other: &Token) -> bool {
        self.principal == other.principal
            && self.caps == other.caps
            && self.expires_at_us == other.expires_at_us
            && macs_equal(&self.mac, &other.mac)
    }
}

#[cfg(test)]
impl Token {
    /// This token with bit 0 of MAC byte `at` flipped: a forgery that
    /// differs from the genuine token in one place only.
    pub(crate) fn with_mac_byte_flipped(&self, at: usize) -> Token {
        let mut forged = self.clone();
        forged.mac[at] ^= 0x01;
        forged
    }
}

/// Compares two MACs by folding their XOR, so the time taken does not
/// depend on where they first differ.
fn macs_equal(a: &[u8; 8], b: &[u8; 8]) -> bool {
    let diff = a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y));
    core::hint::black_box(diff) == 0
}

/// Issues and verifies capability tokens.
///
/// # Example
///
/// ```
/// use garnet_core::{AuthService, Capability, CapabilitySet, Principal};
///
/// let auth = AuthService::new([3u8; 16]);
/// let token = auth.issue(
///     Principal::new("flood-watch"),
///     CapabilitySet::of(&[Capability::Subscribe, Capability::Actuate]),
///     1_000_000, // expires at t = 1s
/// );
/// assert!(auth.verify(&token, 500_000, Capability::Subscribe));
/// assert!(!auth.verify(&token, 500_000, Capability::Admin)); // not granted
/// assert!(!auth.verify(&token, 2_000_000, Capability::Subscribe)); // expired
/// ```
pub struct AuthService {
    key: PayloadKey,
    /// MACs computed so far, issuing and verifying alike.
    #[cfg(test)]
    macs: std::sync::atomic::AtomicU64,
}

impl AuthService {
    /// Creates an authority from 16 bytes of key material.
    pub fn new(key: [u8; 16]) -> Self {
        AuthService {
            key: PayloadKey::from_bytes(key),
            #[cfg(test)]
            macs: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// How many MACs this authority has computed.
    #[cfg(test)]
    pub(crate) fn macs_computed(&self) -> u64 {
        self.macs.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The token MAC: the tag [`PayloadKey::seal`] would append to the
    /// canonical encoding `name || 0 || caps || expiry (big-endian)` in
    /// a fixed context, computed over the parts in place. The NUL
    /// separates the name from the fields a name cannot meaningfully
    /// contain.
    fn compute_mac(
        &self,
        principal: &Principal,
        caps: CapabilitySet,
        expires_at_us: u64,
    ) -> [u8; 8] {
        #[cfg(test)]
        self.macs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let parts: [&[u8]; 3] =
            [principal.name().as_bytes(), &[0, caps.bits()], &expires_at_us.to_be_bytes()];
        self.key.seal_tag(StreamId::from_raw(0), SequenceNumber::ZERO, &parts)
    }

    /// Issues a token for `principal` with `caps`, valid until
    /// `expires_at_us` (µs of middleware time).
    pub fn issue(&self, principal: Principal, caps: CapabilitySet, expires_at_us: u64) -> Token {
        let mac = self.compute_mac(&principal, caps, expires_at_us);
        Token { principal, caps, expires_at_us, mac }
    }

    /// Verifies that `token` is authentic, unexpired at `now_us`, and
    /// grants `needed`.
    pub fn verify(&self, token: &Token, now_us: u64, needed: Capability) -> bool {
        if !token.admits(now_us, needed) {
            return false;
        }
        let expected = self.compute_mac(&token.principal, token.caps, token.expires_at_us);
        macs_equal(&expected, &token.mac)
    }
}

impl fmt::Debug for AuthService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AuthService(key hidden)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auth() -> AuthService {
        AuthService::new(*b"garnet-auth-key!")
    }

    #[test]
    fn issue_and_verify_happy_path() {
        let a = auth();
        let t = a.issue(Principal::new("p1"), CapabilitySet::of(&[Capability::Subscribe]), 1000);
        assert!(a.verify(&t, 0, Capability::Subscribe));
        assert_eq!(t.principal().name(), "p1");
    }

    #[test]
    fn expiry_is_exclusive() {
        let a = auth();
        let t = a.issue(Principal::new("p"), CapabilitySet::all(), 1000);
        assert!(a.verify(&t, 999, Capability::Admin));
        assert!(!a.verify(&t, 1000, Capability::Admin));
        assert!(!a.verify(&t, 1001, Capability::Admin));
    }

    #[test]
    fn missing_capability_denied() {
        let a = auth();
        let t = a.issue(Principal::new("p"), CapabilitySet::of(&[Capability::Subscribe]), 1000);
        for cap in [Capability::Actuate, Capability::Admin, Capability::ReadLocation] {
            assert!(!a.verify(&t, 0, cap));
        }
    }

    #[test]
    fn forged_capabilities_rejected() {
        let a = auth();
        let t = a.issue(Principal::new("p"), CapabilitySet::of(&[Capability::Subscribe]), 1000);
        // Attacker inflates the capability set without re-MACing.
        let forged = Token { caps: CapabilitySet::all(), ..t };
        assert!(!a.verify(&forged, 0, Capability::Admin));
        assert!(!a.verify(&forged, 0, Capability::Subscribe), "tampered token must fail entirely");
    }

    #[test]
    fn forged_expiry_rejected() {
        let a = auth();
        let t = a.issue(Principal::new("p"), CapabilitySet::all(), 1000);
        let forged = Token { expires_at_us: u64::MAX, ..t };
        assert!(!a.verify(&forged, 5000, Capability::Subscribe));
    }

    #[test]
    fn a_mac_wrong_in_its_first_or_last_byte_is_refused() {
        let a = auth();
        let t = a.issue(Principal::new("p"), CapabilitySet::all(), 1000);
        for at in [0, 7] {
            let forged = t.with_mac_byte_flipped(at);
            assert!(!a.verify(&forged, 0, Capability::Subscribe), "byte {at}");
            assert!(!t.same_as(&forged), "byte {at}");
        }
        assert!(t.same_as(&t.clone()));
    }

    #[test]
    fn same_as_compares_every_field() {
        let a = auth();
        let t = a.issue(Principal::new("p"), CapabilitySet::all(), 1000);
        let others = [
            a.issue(Principal::new("q"), CapabilitySet::all(), 1000),
            a.issue(Principal::new("p"), CapabilitySet::of(&[Capability::Subscribe]), 1000),
            a.issue(Principal::new("p"), CapabilitySet::all(), 999),
        ];
        for other in &others {
            assert!(!t.same_as(other), "{other:?}");
        }
    }

    #[test]
    fn token_from_other_authority_rejected() {
        let a = auth();
        let b = AuthService::new(*b"different-key-!!");
        let t = b.issue(Principal::new("p"), CapabilitySet::all(), 1000);
        assert!(!a.verify(&t, 0, Capability::Subscribe));
    }

    #[test]
    fn principal_name_is_bound() {
        let a = auth();
        let t = a.issue(Principal::new("alice"), CapabilitySet::all(), 1000);
        let stolen = Token { principal: Principal::new("bob"), ..t };
        assert!(!a.verify(&stolen, 0, Capability::Subscribe));
    }

    #[test]
    fn capability_set_operations() {
        let s = CapabilitySet::of(&[Capability::Subscribe, Capability::ProvideHints]);
        assert!(s.allows(Capability::Subscribe));
        assert!(!s.allows(Capability::Actuate));
        assert!(!CapabilitySet::default().allows(Capability::Subscribe));
    }

    #[test]
    fn debug_output_lists_caps_and_hides_keys() {
        let s = format!("{:?}", CapabilitySet::of(&[Capability::Actuate]));
        assert!(s.contains("Actuate"));
        assert_eq!(format!("{:?}", CapabilitySet::default()), "CapabilitySet(∅)");
        assert_eq!(format!("{:?}", auth()), "AuthService(key hidden)");
    }

    /// MACs computed by sealing the canonical encoding into a buffer
    /// and keeping the tag: tokens issued that way still verify.
    #[test]
    fn macs_are_byte_identical_to_the_sealed_encoding() {
        let a = auth();
        let long = "a-principal-name-that-is-comfortably-longer-than-sixty-four-bytes-long";
        let cases = [
            (
                "p1",
                CapabilitySet::of(&[Capability::Subscribe]),
                1000,
                u64::to_be_bytes(0xce31_c7ab_237c_885c),
            ),
            (long, CapabilitySet::all(), u64::MAX, u64::to_be_bytes(0x31c5_db28_7778_e0bd)),
            ("", CapabilitySet::default(), 0, u64::to_be_bytes(0xd90b_2c8c_0e9d_5ca8)),
        ];
        for (name, caps, expires_at_us, mac) in cases {
            assert_eq!(a.issue(Principal::new(name), caps, expires_at_us).mac, mac, "{name:?}");
        }
    }

    #[test]
    fn name_separator_prevents_concatenation_confusion() {
        // ("ab", caps=c) must not MAC equal to ("a", "b..."-ish splice).
        let a = auth();
        let t1 = a.issue(Principal::new("ab"), CapabilitySet::default(), 7);
        let t2 = a.issue(Principal::new("a"), CapabilitySet::default(), 7);
        assert_ne!(t1.mac, t2.mac);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A MAC equals the tag of the sealed canonical encoding, for
        /// names on both sides of a block boundary and of 64 bytes.
        #[test]
        fn mac_is_the_tag_of_the_sealed_encoding(
            key in any::<[u8; 16]>(),
            name in "[ -~]{0,100}",
            bits in 0u8..64,
            expires_at_us in any::<u64>(),
        ) {
            let auth = AuthService::new(key);
            let mut encoding = name.as_bytes().to_vec();
            encoding.extend_from_slice(&[0, bits]);
            encoding.extend_from_slice(&expires_at_us.to_be_bytes());
            let sealed =
                PayloadKey::from_bytes(key).seal(StreamId::from_raw(0), SequenceNumber::ZERO, &encoding);
            let mac = auth.compute_mac(&Principal::new(name), CapabilitySet(bits), expires_at_us);
            prop_assert_eq!(&mac[..], &sealed[sealed.len() - 8..]);
        }
    }
}
