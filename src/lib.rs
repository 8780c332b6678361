//! # Garnet
//!
//! A data-stream-centric middleware for distributing data originating in
//! wireless sensor networks — a from-scratch Rust reproduction of
//! *St Ville & Dickman, "Garnet: A Middleware Architecture for
//! Distributing Data Streams Originating in Wireless Sensor Networks"*,
//! ICDCS Workshops 2003.
//!
//! This crate is the facade: it re-exports the whole workspace under one
//! name. The layering (bottom-up):
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`simkit`] | `garnet-simkit` | deterministic discrete-event kernel; the antenna plan (geometry, receivers, transmitters, propagation) |
//! | [`wire`] | `garnet-wire` | Fig. 2 message format, control messages, CRC, crypto |
//! | [`radio`] | `garnet-radio` | simulated wireless field: medium, sensors, mobility, energy |
//! | [`store`] | `garnet-store` | durable frame archive: segmented CRC-checked log, crash recovery, fault injection |
//! | [`core`] | `garnet-core` | **the middleware**: filtering, dispatching (with the pub/sub table), orphanage, location, resource manager, actuation, replication, coordination; registry and auth |
//! | [`baselines`] | `garnet-baselines` | §7 comparators: RETRI, Fjords, CORIE |
//! | [`workloads`] | `garnet-workloads` | the `PipelineSim` closed loop (radio field + middleware); habitat / water-course / recon scenarios |
//!
//! `garnet-net` is not re-exported: it only keeps four `garnet-core`
//! names at their old paths for the benchmark package.
//!
//! # Quickstart
//!
//! ```
//! use garnet::workloads::pipeline::SharedCountConsumer;
//! use garnet::core::TopicFilter;
//! use garnet::simkit::SimTime;
//! use garnet::workloads::HabitatScenario;
//! use std::sync::atomic::Ordering;
//!
//! // A 3×3 study plot reporting every 5 s.
//! let scenario = HabitatScenario {
//!     grid_side: 3,
//!     report_interval: garnet::simkit::SimDuration::from_secs(5),
//!     ..HabitatScenario::default()
//! };
//! let mut sim = scenario.build();
//!
//! // Register a consumer and subscribe to everything.
//! let token = sim.garnet_mut().issue_default_token("app");
//! let (consumer, count) = SharedCountConsumer::new("app");
//! let id = sim.garnet_mut().register_consumer(Box::new(consumer), &token, 0).unwrap();
//! sim.garnet_mut().subscribe(id, TopicFilter::All, &token).unwrap();
//!
//! sim.run_until(SimTime::from_secs(30));
//! assert!(count.load(Ordering::Relaxed) > 0);
//! ```
//!
//! See `examples/` for the runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

pub use garnet_baselines as baselines;
pub use garnet_core as core;
pub use garnet_radio as radio;
pub use garnet_simkit as simkit;
pub use garnet_store as store;
pub use garnet_wire as wire;
pub use garnet_workloads as workloads;
