//! The paper's tables: experiments E1–E16 regenerate every quantitative
//! claim and comparison the paper makes (see `DESIGN.md` §5 for the
//! experiment index, and `EXPERIMENTS.md` for paper-vs-measured).
//!
//! Each `eNN_*` module computes one experiment's rows and the
//! `experiments` binary prints them all. What our own code costs —
//! frames/s, latency, the per-layer budget — is `perfbench/`'s to say
//! (`BENCHMARK.json`), not this crate's.

pub mod e01_codec;
pub mod e02_capacity;
pub mod e03_pipeline;
pub mod e04_filtering;
pub mod e05_dispatch;
pub mod e06_retri;
pub mod e07_fjords;
pub mod e08_coupling;
pub mod e09_location;
pub mod e10_predictive;
pub mod e11_mediation;
pub mod e12_orphanage;
pub mod e13_multilevel;
pub mod e14_crypto;
pub mod e15_multihop;
pub mod e16_quiesce;
pub(crate) mod table;
