//! The fixed-network substrate beneath the Garnet middleware.
//!
//! "At the fixed network, the data is consumed by applications which use
//! typical advertising, discovery, registration, authentication and
//! publish/subscribe mechanisms to identify, subscribe to, and receive
//! data streams of interest. … Unless otherwise indicated, communication
//! is based on asynchronous message exchange" (§3).
//!
//! This crate provides those five mechanisms:
//!
//! * [`registry`] — service **advertising**, **discovery** and
//!   **registration**;
//! * [`auth`] — principal **authentication** via MAC-signed capability
//!   tokens;
//! * [`pubsub`] — the **publish/subscribe** subscription table that the
//!   Dispatching Service consults;
//! * [`bus`] — asynchronous message exchange between services, with a
//!   threaded driver over `std::sync::mpsc` for live deployments
//!   (experiments use the deterministic `garnet-simkit` event queue
//!   instead) and the supervised `ShardPool` the middleware's filtering
//!   shards run on under `DriverKind::Threaded`;
//! * [`archiver`] — the background writer that drains pre-encoded
//!   archive records into a `garnet-store` log without ever blocking
//!   frame delivery.
//!
//! No async runtime is used: the paper's asynchrony is plain message
//! passing, which channels model directly and deterministically.

pub mod archiver;
pub mod auth;
pub mod bus;
pub mod pubsub;
pub mod registry;

pub use archiver::{Archiver, ArchiverCounters, ArchiverShutdown, FlushOutcome};
pub use auth::{AuthService, Capability, CapabilitySet, Principal, Token};
pub use bus::{
    BusError, EdgeClass, ShardFailure, ShardPool, Stage, SupervisionConfig, ThreadedBus,
};
pub use pubsub::{
    DispatchCacheConfig, IdMap, MatchCache, MatchCacheStats, SubscriberId, SubscriptionTable,
    TopicFilter,
};
pub use registry::{ServiceDescriptor, ServiceKind, ServiceRegistry};
