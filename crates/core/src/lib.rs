//! Garnet: data-stream-centric middleware for wireless sensor networks.
//!
//! This crate is the paper's primary contribution — the middleware layer
//! of Figure 1. Data flows up from the receiver array through the
//! [`filtering`] service (duplicate elimination and stream
//! reconstruction) to the [`dispatching`] service, which delivers it to
//! mutually-unaware consumer processes; unclaimed data lands in the
//! [`orphanage`]. Control flows back down: consumer actuation requests
//! are mediated by the [`resource`] manager against the other consumers'
//! demands, stamped by the [`actuation`] service, and targeted by the
//! [`replicator`] using positions inferred by the [`location`] service. The [`coordinator`] (Super Coordinator) watches consumer
//! state changes and can *anticipate* needs, invoking resource-manager
//! policy ahead of demand. The fixed-network mechanisms of §3 live here
//! too, beside the services that use them: the publish/subscribe table
//! and its match cache inside [`dispatching`] ([`SubscriptionTable`],
//! [`dispatching::DispatchingService`]), and the facade's capability
//! tokens ([`AuthService`]).
//!
//! All services are sans-io state machines with typed methods of their
//! own; the [`router::Router`] calls the two data-plane stages directly
//! — a burst of radio frames is filtered by the call that brings it
//! ([`router::Router::ingest`]), so only what filtering released is
//! ever queued, with no buffer in between — and hands every control
//! event to the one service that owns it in a single `match`
//! ([`router::ControlGraph`]), threading the typed
//! [`service::ServiceEvent`]s between them over a FIFO queue.
//! [`middleware::Garnet`] is a thin facade that owns that router, steps
//! it to quiescence and hosts the consumers. [`router::ShardedIngest`]
//! is Figure 1's one Filtering Service and [`router::ShardedDispatch`]
//! its one Dispatching Service beside the one stream catalogue; every
//! stage, the archive tap included, runs on the facade's thread, and
//! this crate starts no thread. The intake is unbounded: the one place a
//! frame is shed, coalesced or held back is [`qos::QosScheduler`], at
//! the facade boundary. The antenna plan (receiver and transmitter
//! positions) comes from `garnet-simkit`; the simulated radio field and
//! the closed loop over it (`garnet_workloads::pipeline`) are not linked.
//!
//! # Quickstart
//!
//! ```
//! use garnet_core::middleware::{Garnet, GarnetConfig};
//! use garnet_core::consumer::{Consumer, ConsumerCtx};
//! use garnet_core::filtering::Delivery;
//! use garnet_core::TopicFilter;
//! use garnet_wire::SensorId;
//!
//! struct Printer(u64);
//! impl Consumer for Printer {
//!     fn name(&self) -> &str { "printer" }
//!     fn on_data(&mut self, _d: &Delivery, _ctx: &mut ConsumerCtx) { self.0 += 1; }
//! }
//!
//! let mut garnet = Garnet::new(GarnetConfig::default());
//! let token = garnet.issue_default_token("printer");
//! let id = garnet.register_consumer(Box::new(Printer(0)), &token, 0).unwrap();
//! garnet.subscribe(id, TopicFilter::Sensor(SensorId::new(1).unwrap()), &token).unwrap();
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod actuation;
pub mod archive;
pub(crate) mod auth;
pub mod consumer;
pub mod coordinator;
pub mod dispatching;
pub mod driver;
pub mod filtering;
pub mod location;
pub mod middleware;
pub mod orphanage;
pub(crate) mod qos;
pub mod replicator;
pub mod resource;
pub mod router;
pub mod service;
pub mod stream;
pub mod telemetry;
mod trace;

pub use archive::{store_slot, ArchiveBackend, ArchiveConfig, StoreSlot};
pub use auth::{AuthService, Capability, CapabilitySet, Principal, Token};
pub use dispatching::pubsub::{
    DispatchCacheConfig, MatchCacheStats, SubscriberId, SubscriptionTable, TopicFilter,
};
pub use driver::DriverKind;
pub use qos::{
    DeliverySchedule, FrameOffer, PriorityClass, QosConfig, QosMode, QosScheduler, Release,
};
pub use service::{ServiceEvent, ServiceOutput};
