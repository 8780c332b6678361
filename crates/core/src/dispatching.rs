//! The Dispatching Service: delivery of filtered data to subscribers.
//!
//! "Filtered data is then forwarded to the Dispatching Service for
//! delivery to subscribed consumer processes" (§4.2). Consumers are
//! mutually unaware, so the dispatcher is the *only* place that knows who
//! receives what; a message matching no subscription is *unclaimed* and
//! is handed to the Orphanage by the middleware facade.
//!
//! The service wraps its publish/subscribe [`SubscriptionTable`]
//! (the `pubsub` submodule, with the match cache) with
//! subscriber-id allocation and dispatch accounting (fan-out and
//! unclaimed-rate are the E5 metrics), and catalogues every stream it
//! routes in its [`StreamRegistry`]. Each stream has one row there,
//! holding its catalogue entry and its [`MatchCache`] slot. Routing a
//! cache-resident stream whose [`RowId`] the caller remembers is one
//! bounds-checked index, one epoch compare and one `Arc` refcount bump
//! while the table is unchanged — no hashing and no allocation; a
//! caller without the `RowId` pays one keyed lookup more, and the
//! stream's first route after a subscription change also reads its two
//! key-range stamps (`perfbench`'s `churn-fanout` prices the
//! difference).

pub(crate) mod pubsub;

use std::sync::Arc;

use garnet_simkit::Histogram;
use garnet_wire::StreamId;

use crate::stream::{RowId, StreamInfo, StreamRegistry};
use pubsub::{DispatchCacheConfig, MatchCache, MatchCacheStats, SubscriberId};
use pubsub::{SubscriptionTable, TopicFilter};

/// The result of routing one message.
#[derive(Clone, Debug, PartialEq)]
pub struct DispatchOutcome {
    /// Matching subscribers, ascending id order, shared with the match
    /// cache (cloning the outcome is a refcount bump).
    pub recipients: Arc<[SubscriberId]>,
    /// True if nobody matched (→ Orphanage).
    pub unclaimed: bool,
    /// True if the match cache (re)built this set — a cold stream or a
    /// subscription mutation since the last route. Always false when
    /// the cache is disabled.
    pub rebuilt: bool,
}

/// The Dispatching Service.
///
/// # Example
///
/// ```
/// use garnet_core::dispatching::DispatchingService;
/// use garnet_core::TopicFilter;
/// use garnet_wire::StreamId;
///
/// let mut dispatch = DispatchingService::new();
/// let alice = dispatch.register_subscriber();
/// dispatch.subscribe(alice, TopicFilter::All);
/// let outcome = dispatch.route(StreamId::from_raw(0x0100));
/// assert_eq!(&*outcome.recipients, &[alice]);
/// assert!(!outcome.unclaimed);
/// ```
#[derive(Debug, Default)]
pub struct DispatchingService {
    table: SubscriptionTable,
    cache: MatchCache,
    /// One row per routed stream: its catalogue entry and its slot in
    /// `cache`.
    streams: StreamRegistry,
    next_subscriber: u32,
    dispatched: u64,
    deliveries: u64,
    unclaimed: u64,
    fanout: Histogram,
}

impl DispatchingService {
    /// Creates the service with the default match-cache configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the service with an explicit match-cache configuration.
    pub fn with_cache(cache: DispatchCacheConfig) -> Self {
        DispatchingService { cache: MatchCache::new(cache), ..Self::default() }
    }

    /// Allocates a fresh subscriber identity.
    pub fn register_subscriber(&mut self) -> SubscriberId {
        let id = SubscriberId::new(self.next_subscriber);
        self.next_subscriber += 1;
        id
    }

    /// Adds a subscription. Returns true if new.
    pub fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.table.subscribe(subscriber, filter)
    }

    /// Removes one subscription.
    pub fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        self.table.unsubscribe(subscriber, filter)
    }

    /// Removes every subscription of a departing consumer.
    pub fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize {
        self.table.unsubscribe_all(subscriber)
    }

    /// Routes one message, recording fan-out statistics.
    pub fn route(&mut self, stream: StreamId) -> DispatchOutcome {
        self.route_row(stream, None).0
    }

    /// [`DispatchingService::route`], also handing back the stream's
    /// catalogue entry from the same row — the dispatch stage counts
    /// the message in it. A stream routed here for the first time gets
    /// an entry with no message counted yet.
    ///
    /// `hint` is the stream's [`RowId`] if the caller remembers one: it
    /// is used only if it names a row of this service's catalogue that
    /// holds `stream`, and then the route hashes nothing. Otherwise the
    /// row is found by key and its `RowId` returned third, for the
    /// caller to remember.
    // Inlined, as is the row lookup: out of line, the two calls cost a
    // third of a warm route.
    #[inline]
    pub(crate) fn route_row(
        &mut self,
        stream: StreamId,
        hint: Option<RowId>,
    ) -> (DispatchOutcome, &mut StreamInfo, Option<RowId>) {
        let (row, looked_up) = self.streams.row_at(stream, hint);
        let (recipients, rebuilt) = self.cache.resolve(&self.table, stream, &mut row.matched);
        self.dispatched += 1;
        self.deliveries += recipients.len() as u64;
        self.fanout.record(recipients.len() as u64);
        let unclaimed = recipients.is_empty();
        if unclaimed {
            self.unclaimed += 1;
        }
        (DispatchOutcome { recipients, unclaimed, rebuilt }, &mut row.info, looked_up)
    }

    /// The stream catalogue: every stream routed so far.
    pub(crate) fn streams(&self) -> &StreamRegistry {
        &self.streams
    }

    /// Marks a catalogued stream claimed/unclaimed as subscriptions come
    /// and go ([`StreamRegistry::set_claimed`]).
    pub(crate) fn set_claimed(&mut self, stream: StreamId, claimed: bool) {
        self.streams.set_claimed(stream, claimed);
    }

    /// Peeks the match set without accounting (used by claim logic).
    pub(crate) fn would_deliver(&self, stream: StreamId) -> bool {
        !self.table.is_unclaimed(stream)
    }

    /// Messages routed.
    pub(crate) fn dispatched_count(&self) -> u64 {
        self.dispatched
    }

    /// Total (message, subscriber) deliveries.
    pub(crate) fn delivery_count(&self) -> u64 {
        self.deliveries
    }

    /// Messages that matched nobody.
    pub(crate) fn unclaimed_count(&self) -> u64 {
        self.unclaimed
    }

    /// Distribution of per-message fan-out.
    pub(crate) fn fanout(&self) -> &Histogram {
        &self.fanout
    }

    /// Counters of this service's match cache.
    pub(crate) fn cache_stats(&self) -> MatchCacheStats {
        self.cache.stats()
    }

    /// Distinct subscribers with live subscriptions.
    pub(crate) fn subscriber_count(&self) -> usize {
        self.table.subscriber_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_wire::{SensorId, StreamIndex};

    fn stream(sensor: u32) -> StreamId {
        StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0))
    }

    #[test]
    fn register_allocates_distinct_ids() {
        let mut d = DispatchingService::new();
        let a = d.register_subscriber();
        let b = d.register_subscriber();
        assert_ne!(a, b);
    }

    #[test]
    fn route_to_matching_subscribers() {
        let mut d = DispatchingService::new();
        let a = d.register_subscriber();
        let b = d.register_subscriber();
        d.subscribe(a, TopicFilter::Sensor(SensorId::new(1).unwrap()));
        d.subscribe(b, TopicFilter::All);
        let out = d.route(stream(1));
        assert_eq!(&*out.recipients, &[a, b]);
        let out = d.route(stream(2));
        assert_eq!(&*out.recipients, &[b]);
    }

    #[test]
    fn unclaimed_counted() {
        let mut d = DispatchingService::new();
        let out = d.route(stream(9));
        assert!(out.unclaimed);
        assert_eq!(d.unclaimed_count(), 1);
        assert_eq!(d.dispatched_count(), 1);
        assert_eq!(d.delivery_count(), 0);
    }

    #[test]
    fn fanout_statistics() {
        let mut d = DispatchingService::new();
        for _ in 0..10 {
            let s = d.register_subscriber();
            d.subscribe(s, TopicFilter::Stream(stream(1)));
        }
        d.route(stream(1));
        d.route(stream(2));
        assert_eq!(d.fanout().max(), 10);
        assert_eq!(d.fanout().min(), 0);
        assert_eq!(d.delivery_count(), 10);
    }

    #[test]
    fn unsubscribe_all_cleans_up() {
        let mut d = DispatchingService::new();
        let a = d.register_subscriber();
        d.subscribe(a, TopicFilter::All);
        d.subscribe(a, TopicFilter::Stream(stream(1)));
        assert_eq!(d.unsubscribe_all(a), 2);
        assert!(d.route(stream(1)).unclaimed);
        assert_eq!(d.subscriber_count(), 0);
    }

    #[test]
    fn would_deliver_does_not_account() {
        let mut d = DispatchingService::new();
        let a = d.register_subscriber();
        d.subscribe(a, TopicFilter::Stream(stream(1)));
        assert!(d.would_deliver(stream(1)));
        assert!(!d.would_deliver(stream(2)));
        assert_eq!(d.dispatched_count(), 0);
    }

    #[test]
    fn repeat_routes_hit_the_cache_and_stay_correct() {
        let mut d = DispatchingService::new();
        let a = d.register_subscriber();
        d.subscribe(a, TopicFilter::Stream(stream(1)));
        assert!(d.route(stream(1)).rebuilt, "first route builds cold");
        assert!(!d.route(stream(1)).rebuilt, "second route hits");
        // A mutation stales the entry; the next route rebuilds and sees
        // the new subscriber.
        let b = d.register_subscriber();
        d.subscribe(b, TopicFilter::Sensor(SensorId::new(1).unwrap()));
        let out = d.route(stream(1));
        assert!(out.rebuilt);
        assert_eq!(&*out.recipients, &[a, b]);
        let s = d.cache_stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 1, 1));
    }

    #[test]
    fn routing_catalogues_each_stream_once() {
        let mut d = DispatchingService::new();
        let a = d.register_subscriber();
        d.subscribe(a, TopicFilter::Stream(stream(1)));
        for _ in 0..3 {
            d.route(stream(1));
            d.route(stream(2));
        }
        // One row per stream, holding both the catalogue entry and the
        // match-cache slot: two streams, two rows, two resident sets.
        assert_eq!(d.streams().len(), 2);
        assert_eq!(d.cache_stats().resident, 2);
        assert_eq!(d.streams().info(stream(2)).map(|i| i.claimed), Some(false));
        let (outcome, info, _) = d.route_row(stream(1), None);
        info.note(8, garnet_simkit::SimTime::from_millis(3), false);
        info.claimed = !outcome.unclaimed;
        let info = d.streams().info(stream(1)).unwrap();
        assert_eq!((info.messages, info.payload_bytes, info.claimed), (1, 8, true));
    }
}
