//! Simulated wireless sensor field for the Garnet reproduction.
//!
//! The paper's prototype attached real iPAQ/notebook "sensors" over IEEE
//! 802.11b; this crate substitutes a deterministic discrete-event model of
//! the same physical layer so every experiment is reproducible from a
//! seed. It models exactly the phenomena Garnet's fixed-network services
//! exist to absorb:
//!
//! * **mobility** — "sensors are expected to occasionally roam outside
//!   the reception zone, which may cause data messages to be lost" (§4.2);
//! * **overlapping receivers** — "their effective receiving areas may
//!   overlap … improves data reception but causes potential duplication
//!   of data messages" (§4.2);
//! * **unreliable links** — probabilistic loss and optional bit
//!   corruption (caught by the wire CRC);
//! * **heterogeneous sensors** — transmit-only vs send-receive nodes,
//!   location-aware or not, with per-stream configuration that actuation
//!   requests can change (§5 "simple and sophisticated sensors coexist");
//! * **energy** — a per-bit transmit/receive cost model used by the
//!   RETRI comparison (experiment E6).
//!
//! The antenna plan — [`geometry`], [`Receiver`], [`Transmitter`],
//! [`Propagation`] — is `garnet-simkit`'s, shared with the middleware,
//! and re-exported here because [`Medium`] and [`Reception`] are typed
//! by it.
//!
//! # Example
//!
//! ```
//! use garnet_radio::{Medium, Propagation, Receiver, ReceiverId, geometry::Point};
//! use garnet_simkit::{SimRng, SimTime};
//! use bytes::Bytes;
//!
//! let medium = Medium::ideal(Propagation::UnitDisk { range_m: 100.0 });
//! let receivers = vec![
//!     Receiver::new(ReceiverId::new(0), Point::new(0.0, 0.0), 100.0),
//!     Receiver::new(ReceiverId::new(1), Point::new(50.0, 0.0), 100.0),
//! ];
//! let mut rng = SimRng::seed(1);
//! let hits = medium.uplink(
//!     Point::new(25.0, 0.0),
//!     &bytes::Bytes::from_static(b"frame"),
//!     &receivers,
//!     SimTime::ZERO,
//!     &mut rng,
//! );
//! assert_eq!(hits.len(), 2); // both receivers hear it: duplication
//! ```

// Every experiment's frames come from this field: outside its tests,
// nothing here may panic by unwrap, expect or panic!.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub(crate) mod energy;
pub mod field;
pub(crate) mod medium;
pub(crate) mod mobility;
pub(crate) mod reading;
pub mod sensor;

pub use energy::{EnergyMeter, EnergyModel};
pub use field::ScalarField;
pub use garnet_simkit::geometry;
pub use garnet_simkit::{Propagation, Receiver, ReceiverId, Transmitter, TransmitterId};
pub use medium::{Medium, Reception};
pub use mobility::Mobility;
pub use reading::Reading;
pub use sensor::{SensorCaps, SensorNode, StreamConfig};
