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
}

impl AuthService {
    /// Creates an authority from 16 bytes of key material.
    pub fn new(key: [u8; 16]) -> Self {
        AuthService { key: PayloadKey::from_bytes(key) }
    }

    fn mac_input(principal: &Principal, caps: CapabilitySet, expires_at_us: u64) -> Vec<u8> {
        let mut data = Vec::with_capacity(principal.name().len() + 16);
        data.extend_from_slice(principal.name().as_bytes());
        data.push(0); // separator: names cannot contain NUL meaningfully
        data.push(caps.bits());
        data.extend_from_slice(&expires_at_us.to_be_bytes());
        data
    }

    fn compute_mac(
        &self,
        principal: &Principal,
        caps: CapabilitySet,
        expires_at_us: u64,
    ) -> [u8; 8] {
        // Reuse the keyed MAC by sealing a canonical encoding in a fixed
        // context and keeping only the 8-byte tag.
        let data = Self::mac_input(principal, caps, expires_at_us);
        let sealed = self.key.seal(StreamId::from_raw(0), SequenceNumber::ZERO, &data);
        let mut mac = [0u8; 8];
        mac.copy_from_slice(&sealed[sealed.len() - 8..]);
        mac
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
        if now_us >= token.expires_at_us {
            return false;
        }
        if !token.caps.allows(needed) {
            return false;
        }
        let expected = self.compute_mac(&token.principal, token.caps, token.expires_at_us);
        expected == token.mac
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

    #[test]
    fn name_separator_prevents_concatenation_confusion() {
        // ("ab", caps=c) must not MAC equal to ("a", "b..."-ish splice).
        let a = auth();
        let t1 = a.issue(Principal::new("ab"), CapabilitySet::default(), 7);
        let t2 = a.issue(Principal::new("a"), CapabilitySet::default(), 7);
        assert_ne!(t1.mac, t2.mac);
    }
}
