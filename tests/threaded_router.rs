//! Pooled ingest ≡ inline ingest: the FIFO router over filtering shards
//! on worker threads must produce exactly the output stream of the same
//! router over inline shards, at every shard count, on every run. This
//! is the router-level analogue of `determinism.rs`.

mod common;

use common::{drive, router, schedule, Boundary};
use garnet::core::filtering::FilterConfig;
use garnet::core::router::ShardedIngest;
use garnet::net::DispatchCacheConfig;

/// The schedule's escaped outputs over `ingest`, fingerprinted in order.
fn outputs(sched: &[Boundary], ingest: ShardedIngest) -> Vec<String> {
    let mut router = router(ingest, DispatchCacheConfig::default(), 0);
    drive(&mut router, sched).iter().map(|o| format!("{o:?}")).collect()
}

/// The reference: filtering inline, on the router's thread.
fn reference_outputs(sched: &[Boundary]) -> Vec<String> {
    outputs(sched, ShardedIngest::new(FilterConfig::default(), 1))
}

/// The same schedule with the filtering shards on worker threads.
fn threaded_outputs(sched: &[Boundary], ingest: usize) -> Vec<String> {
    outputs(sched, ShardedIngest::pooled(FilterConfig::default(), ingest))
}

#[test]
fn threaded_router_matches_single_threaded_router() {
    let sched = schedule(40);
    let want = reference_outputs(&sched);
    assert!(
        want.iter().any(|o| o.starts_with("Deliver")),
        "schedule must exercise deliveries, got {want:?}"
    );
    let got = threaded_outputs(&sched, 1);
    assert_eq!(got, want, "one pooled shard diverged from the inline router");
}

#[test]
fn threaded_router_output_is_shard_count_invariant() {
    let sched = schedule(40);
    let base = threaded_outputs(&sched, 1);
    assert_eq!(threaded_outputs(&sched, 4), base, "4 pooled shards diverged from 1");
}

#[test]
fn threaded_router_is_deterministic_across_runs() {
    let sched = schedule(40);
    let a = threaded_outputs(&sched, 4);
    let b = threaded_outputs(&sched, 4);
    assert_eq!(a, b);
}
