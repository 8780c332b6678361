//! The two stage-counter snapshots, and the benchmark's shim over the
//! [`Router`].
//!
//! There is one engine: the FIFO [`Router`], which [`crate::Garnet`] owns
//! and pumps on the caller's thread, filtering included. [`DriverKind`],
//! [`RouterDriver`], [`FifoDriver`] and [`ThreadedDriver`] exist for
//! `perfbench/` alone, which may not be edited outside a `benchmark` PR;
//! they go with the next one (CHANGELOG, "To delete with the next
//! `benchmark` PR").

use garnet_net::{SubscriberId, TopicFilter};
use garnet_simkit::{Histogram, SimTime};

use crate::filtering::{FilterConfig, FilteringService};
use crate::router::{
    ControlGraph, OverloadConfig, Router, Services, ShardedDispatch, ShardedIngest,
};
use crate::service::{BatchedFrame, ServiceEvent, ServiceOutput};

/// Accepted for the benchmark's call sites; has no effect: both kinds
/// run the one [`Router`], filtering included, on the caller's thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DriverKind {
    /// The default.
    #[default]
    Fifo,
    /// Identical to [`DriverKind::Fifo`].
    Threaded,
}

/// Ingest-stage counters, snapshotted by value
/// ([`ShardedIngest::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FilterStats {
    pub(crate) delivered: u64,
    pub(crate) duplicates: u64,
    pub(crate) crc_failures: u64,
    pub(crate) reordered: u64,
    pub(crate) gaps: u64,
    pub(crate) restarts: u64,
    pub(crate) streams: usize,
}

impl FilterStats {
    /// Snapshot of a filtering service's counters.
    pub(crate) fn of(filter: &FilteringService) -> Self {
        FilterStats {
            delivered: filter.delivered_count(),
            duplicates: filter.duplicate_count(),
            crc_failures: filter.crc_failure_count(),
            reordered: filter.reordered_count(),
            gaps: filter.gap_count(),
            restarts: filter.restart_count(),
            streams: filter.stream_count(),
        }
    }

    /// Messages released downstream.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Duplicate frames eliminated.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Frames rejected by CRC/decode.
    pub fn crc_failure_count(&self) -> u64 {
        self.crc_failures
    }

    /// Frames buffered out of order.
    pub fn reordered_count(&self) -> u64 {
        self.reordered
    }

    /// Gaps accepted.
    pub fn gap_count(&self) -> u64 {
        self.gaps
    }

    /// Stream restarts detected.
    pub(crate) fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// Streams tracked.
    pub fn stream_count(&self) -> usize {
        self.streams
    }
}

/// Dispatch-stage counters, snapshotted by value
/// ([`ShardedDispatch::stats`]).
#[derive(Clone, Debug, Default)]
pub struct DispatchStats {
    pub(crate) dispatched: u64,
    pub(crate) deliveries: u64,
    pub(crate) unclaimed: u64,
    pub(crate) fanout: Histogram,
    pub(crate) subscribers: usize,
    pub(crate) match_cache: garnet_net::MatchCacheStats,
}

impl DispatchStats {
    /// Messages routed.
    pub fn dispatched_count(&self) -> u64 {
        self.dispatched
    }

    /// Total (message, subscriber) deliveries.
    pub fn delivery_count(&self) -> u64 {
        self.deliveries
    }

    /// Messages that matched nobody.
    pub fn unclaimed_count(&self) -> u64 {
        self.unclaimed
    }

    /// Distribution of per-message fan-out.
    pub fn fanout(&self) -> &Histogram {
        &self.fanout
    }

    /// Distinct subscribers with live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers
    }

    /// Match-cache counters.
    pub fn match_cache(&self) -> garnet_net::MatchCacheStats {
        self.match_cache
    }
}

/// The ten [`Router`] calls the benchmark's bare-engine replay makes,
/// as a trait it can box. Nothing in this repository goes through it:
/// [`crate::Garnet`] owns its `Router` and calls it directly.
pub trait RouterDriver: std::fmt::Debug {
    /// Queues one boundary event — the control path: never shed.
    fn push_event(&mut self, ev: ServiceEvent, now: SimTime);

    /// [`Router::ingest`]: filters the burst and queues what it released
    /// for [`RouterDriver::pump`]. The returned `Vec` is always empty: it
    /// is kept for the benchmark's call site, which iterates it, and has
    /// no effect.
    fn admit_frames(&mut self, frames: Vec<BatchedFrame>, now: SimTime) -> Vec<ServiceOutput>;

    /// Steps the router until a step escapes something, returning what
    /// escaped in canonical order: the caller applies it (which may
    /// push new events) and calls again. An empty batch means
    /// quiescence.
    fn pump(&mut self, now: SimTime) -> Vec<ServiceOutput>;

    /// Allocates a fresh subscriber identity.
    fn register_subscriber(&mut self) -> SubscriberId;

    /// Adds a subscription. Returns true if new.
    fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool;

    /// Removes one subscription.
    fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool;

    /// Removes every subscription of a departing subscriber, returning
    /// how many it held.
    fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize;

    /// The earliest time-driven deadline across services.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Turns latency-span and depth-gauge recording on or off (on by
    /// default).
    fn set_telemetry_recording(&mut self, enabled: bool);

    /// [`Router::shutdown`]: drains in-flight work, returning the
    /// outputs released on the way out.
    fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput>;
}

/// The [`Router`] behind [`RouterDriver`] — the benchmark's constructor
/// for [`DriverKind::Fifo`].
#[derive(Debug)]
pub struct FifoDriver {
    router: Router,
}

impl FifoDriver {
    /// Wraps a router over the given services.
    ///
    /// * `_overload` — accepted for the benchmark's call site; has no effect.
    /// * `_batch` — accepted for the benchmark's call site; has no effect.
    pub fn new(services: Services, _overload: Option<OverloadConfig>, _batch: bool) -> Self {
        FifoDriver { router: Router::new(services) }
    }
}

impl RouterDriver for FifoDriver {
    fn push_event(&mut self, ev: ServiceEvent, _now: SimTime) {
        self.router.enqueue(ev);
    }

    fn admit_frames(&mut self, frames: Vec<BatchedFrame>, now: SimTime) -> Vec<ServiceOutput> {
        self.router.ingest(frames, now);
        Vec::new()
    }

    fn pump(&mut self, now: SimTime) -> Vec<ServiceOutput> {
        let mut out = Vec::new();
        while out.is_empty() && self.router.step(now, &mut out) {}
        out
    }

    fn register_subscriber(&mut self) -> SubscriberId {
        self.router.services_mut().dispatch.register_subscriber()
    }

    fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.router.services_mut().dispatch.subscribe(subscriber, filter)
    }

    fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.router.services_mut().dispatch.unsubscribe(subscriber, filter)
    }

    fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize {
        self.router.services_mut().dispatch.unsubscribe_all(subscriber)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.router.next_deadline()
    }

    fn set_telemetry_recording(&mut self, enabled: bool) {
        self.router.set_telemetry_recording(enabled);
    }

    fn shutdown(&mut self, now: SimTime) -> Vec<ServiceOutput> {
        self.router.shutdown(now)
    }
}

/// The benchmark's constructor for [`DriverKind::Threaded`], which
/// builds the same [`FifoDriver`] as [`DriverKind::Fifo`].
#[derive(Debug)]
pub struct ThreadedDriver;

impl ThreadedDriver {
    /// A [`FifoDriver`] over services built from the arguments.
    ///
    /// * `_ingest_shards` — accepted for the benchmark's call site; has no effect.
    /// * `_dispatch_shards` — accepted for the benchmark's call site; has no effect.
    /// * `_overload` — accepted for the benchmark's call site; has no effect.
    /// * `_batch` — accepted for the benchmark's call site; has no effect.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        config: FilterConfig,
        _ingest_shards: usize,
        _dispatch_shards: usize,
        control: ControlGraph,
        _overload: Option<OverloadConfig>,
        _batch: bool,
        cache: garnet_net::DispatchCacheConfig,
    ) -> FifoDriver {
        let services = Services {
            ingest: ShardedIngest::new(config, 1),
            dispatch: ShardedDispatch::with_cache(1, cache),
            control,
        };
        FifoDriver::new(services, None, true)
    }
}
