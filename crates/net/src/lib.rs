//! The fixed-network substrate beneath the Garnet middleware.
//!
//! "At the fixed network, the data is consumed by applications which use
//! typical advertising, discovery, registration, authentication and
//! publish/subscribe mechanisms to identify, subscribe to, and receive
//! data streams of interest. … Unless otherwise indicated, communication
//! is based on asynchronous message exchange" (§3).
//!
//! This crate provides those five mechanisms, and a thread pool nothing
//! in the middleware uses:
//!
//! * [`registry`] — service **advertising**, **discovery** and
//!   **registration**;
//! * [`auth`] — principal **authentication** via MAC-signed capability
//!   tokens;
//! * [`pubsub`] — the **publish/subscribe** subscription table that the
//!   Dispatching Service consults;
//! * [`pool`] — `ShardPool`, kept only for the benchmark's round-trip
//!   probe, and `ShardFailure`, which `garnet-core`'s `StepOutput`
//!   names; both go with the next `benchmark` change.
//!
//! No async runtime is used: the paper's asynchrony is plain message
//! passing, which `std::sync::mpsc` channels model directly; a live
//! deployment wires its threads to the facade with them (see the
//! `threaded_deployment` example).

pub mod auth;
pub mod pool;
pub mod pubsub;
pub mod registry;

pub use auth::{AuthService, Capability, CapabilitySet, Principal, Token};
pub use pool::{ShardFailure, ShardPool, Stage};
pub use pubsub::{
    DispatchCacheConfig, IdMap, MatchCache, MatchCacheStats, SubscriberId, SubscriptionTable,
    TopicFilter,
};
pub use registry::{ServiceDescriptor, ServiceKind, ServiceRegistry};
