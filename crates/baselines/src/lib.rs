//! Baseline comparators from the paper's related-work section (§7).
//!
//! The paper positions Garnet against three systems; each module here
//! implements the relevant mechanism so the benchmark suite can
//! regenerate the comparison:
//!
//! * [`retri`] — Elson & Estrin's Random Ephemeral TRansaction
//!   Identifiers: fewer identifier bits per message at the cost of
//!   collisions that grow with transaction density. The paper argues the
//!   ephemeral ids are "inappropriate" for Garnet's stable StreamIDs;
//!   experiment E6 quantifies both sides.
//! * [`querydb`] — a miniature Fjords-style (Madden & Franklin)
//!   continuous-query engine with and without a shared sensor proxy;
//!   experiment E7 reproduces "the sharing resulted in significant
//!   improvements to their ability to handle simultaneous queries".
//! * [`coupled`] — CORIE-style (Steere et al.) tightly-coupled delivery,
//!   where "at most a few competing applications" connect directly to
//!   the sensor output; experiment E8 shows where the coupling breaks
//!   down as consumers multiply.

// The comparators share the experiments' tables with the middleware:
// outside their tests, nothing here may panic by unwrap, expect or
// panic!.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod coupled;
pub mod querydb;
pub mod retri;
