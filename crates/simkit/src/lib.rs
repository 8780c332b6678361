//! Deterministic discrete-event simulation kernel for the Garnet reproduction.
//!
//! Every experiment in this repository runs on this kernel so results are
//! exactly reproducible from a seed. The kernel provides:
//!
//! * [`time`] — a microsecond-resolution simulated clock ([`SimTime`],
//!   [`SimDuration`]).
//! * [`event`] — a deterministic, stable-ordered event queue
//!   ([`EventQueue`]) and a ready-to-use driver loop ([`Simulation`]).
//! * [`rng`] — seedable, dependency-light pseudo-random generators
//!   ([`SimRng`]) with a stable stream-splitting discipline so adding a new
//!   random consumer does not perturb existing draws.
//! * [`metrics`] — counters and log-bucketed histograms used by all
//!   experiments to report latency and throughput percentiles.
//! * [`trace`] — a flight recorder ([`Tracer`]) capturing one compact
//!   record per service-event hop; in every build, off until it is
//!   given a non-zero capacity.
//! * [`geometry`], [`Receiver`], [`Transmitter`] and [`Propagation`] —
//!   the antenna plan: planar geometry, the fixed receiver and
//!   transmitter installations, and the path-loss model that turns an
//!   RSSI into a distance. The middleware's location service and
//!   replicator read them, and so does the simulated radio field, so
//!   they live here rather than in either.
//!
//! # Example
//!
//! ```
//! use garnet_simkit::{Simulation, SimDuration};
//!
//! let mut sim: Simulation<&'static str> = Simulation::new();
//! sim.schedule_in(SimDuration::from_millis(5), "later");
//! sim.schedule_in(SimDuration::from_millis(1), "sooner");
//! let mut order = Vec::new();
//! while let Some((t, ev)) = sim.next_event() {
//!     order.push((t.as_micros(), ev));
//! }
//! assert_eq!(order, vec![(1_000, "sooner"), (5_000, "later")]);
//! ```

// Every experiment and the middleware run on this kernel: outside its
// tests, nothing here may panic by unwrap, expect or panic!.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub(crate) mod event;
pub mod geometry;
pub mod metrics;
pub(crate) mod propagation;
pub(crate) mod receiver;
pub(crate) mod rng;
pub(crate) mod time;
pub mod trace;
pub(crate) mod transmitter;

pub use event::{EventQueue, Simulation};
pub use metrics::{stage_key, Counter, Gauge, Histogram, MetricsRegistry};
pub use propagation::Propagation;
pub use receiver::{Receiver, ReceiverId};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceConfig, Tracer};
pub use transmitter::{Transmitter, TransmitterId};
