//! What is left of the fixed-network crate: the names the benchmark
//! package imports from it.
//!
//! The registry, authentication and publish/subscribe mechanisms of §3
//! are `garnet-core`'s, beside the services that use them; this crate
//! re-exports the four of their types that the benchmark names here, and
//! keeps `ShardPool`, which only the benchmark's hand-off probe runs.
//! Both go with the next `benchmark` change, which deletes the crate.

mod pool;

pub use garnet_core::{DispatchCacheConfig, SubscriberId, Token, TopicFilter};
pub use pool::ShardPool;
