//! The benchmark's shim over the [`Router`].
//!
//! There is one engine: the FIFO [`Router`], which [`crate::middleware::Garnet`] owns
//! and pumps on the caller's thread, filtering included. [`DriverKind`],
//! [`RouterDriver`], [`FifoDriver`] and [`ThreadedDriver`] exist for
//! `perfbench/` alone, which may not be edited outside a `benchmark` PR;
//! they go with the next one (CHANGELOG, "To delete with the next
//! `benchmark` PR").

use garnet_simkit::SimTime;

use crate::dispatching::pubsub::{DispatchCacheConfig, SubscriberId, TopicFilter};
use crate::filtering::FilterConfig;
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

/// The ten [`Router`] calls the benchmark's bare-engine replay makes,
/// as a trait it can box. Nothing in this repository goes through it:
/// [`crate::middleware::Garnet`] owns its `Router` and calls it directly.
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
        cache: DispatchCacheConfig,
    ) -> FifoDriver {
        let services = Services {
            ingest: ShardedIngest::new(config, 1),
            dispatch: ShardedDispatch::with_cache(1, cache),
            control,
        };
        FifoDriver::new(services, None, true)
    }
}
