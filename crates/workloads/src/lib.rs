//! Scenario and workload generators for the Garnet experiments.
//!
//! [`pipeline`] is the closed loop every scenario runs on: the simulated
//! radio field of `garnet-radio` wired to the `garnet-core` middleware.
//! Each other module builds a deployment the paper motivates:
//!
//! * `habitat` — habitat monitoring (Mainwaring et al., cited as the
//!   §7 comparison and the §1 motivation): a grid of simple,
//!   transmit-only temperature sensors over a study plot.
//! * [`watercourse`] — the paper's flagship scenario (§6.1): gauging
//!   stations along a river, flood waves propagating downstream, and a
//!   flood-watch consumer whose state changes drive the Super
//!   Coordinator's predictive actuation.
//! * [`recon`] — military reconnaissance (§1): mobile targets crossing a
//!   field of mixed simple/sophisticated sensors.
//! * `traffic` — synthetic message traffic with controlled rates and
//!   payload sizes for microbenchmarks.
//! * `query` — Fjords-style continuous queries hosted as a Garnet
//!   consumer, publishing results as derived streams.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub(crate) mod habitat;
pub mod pipeline;
pub(crate) mod query;
pub mod recon;
pub(crate) mod traffic;
pub mod watercourse;

pub use habitat::HabitatScenario;
pub use query::ContinuousQueryConsumer;
pub use recon::ReconScenario;
pub use traffic::TrafficGen;
pub use watercourse::{FloodWatch, WatercourseScenario};
