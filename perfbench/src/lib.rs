//! The Garnet benchmark: sensor→consumer throughput and latency on
//! seven named workloads, with a per-layer budget. See `PERF.md`.

pub mod alloc;
pub mod gen;
pub mod layers;
pub mod onecore;
pub mod report;
pub mod rig;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;
