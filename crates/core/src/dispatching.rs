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
//! subscriber-id allocation and dispatch accounting (deliveries and
//! unclaimed-rate are the E5 metrics), and catalogues every stream it
//! routes in its [`StreamRegistry`]. Each stream has one row there,
//! holding its catalogue entry and its match-cache slot. A subscription
//! write that changes the table marks stale exactly the slots it
//! changes: the one row of a `Stream` filter, every row of a `Sensor`
//! filter (the registry lists each sensor's rows), and, for `All`, one
//! counter in the cache that every slot compares against. Routing a
//! cache-resident stream whose [`RowId`] the caller remembers is one
//! bounds-checked index, one compare and one `Arc` refcount bump —
//! no hashing and no allocation, whatever was written since; a caller
//! without the `RowId` pays one keyed lookup more (`perfbench`'s
//! `churn-fanout` prices writes beside routes).

pub(crate) mod pubsub;

use std::sync::Arc;

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
        let changed = self.table.subscribe(subscriber, filter);
        if changed {
            self.stale(filter);
        }
        changed
    }

    /// Removes one subscription.
    pub fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        let changed = self.table.unsubscribe(subscriber, filter);
        if changed {
            self.stale(filter);
        }
        changed
    }

    /// Removes every subscription of a departing consumer.
    pub fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize {
        let removed = self.table.unsubscribe_all(subscriber);
        for &filter in &removed {
            self.stale(filter);
        }
        removed.len()
    }

    /// Marks stale every cached match set a write on `filter` changed.
    fn stale(&mut self, filter: TopicFilter) {
        match filter {
            TopicFilter::Stream(s) => self.streams.stale_stream(s),
            TopicFilter::Sensor(id) => self.streams.stale_sensor(id),
            TopicFilter::All => self.cache.note_all_write(),
        }
    }

    /// Routes one message, recording dispatch statistics.
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
    // Inlined into `Router::step`, while the row lookup it calls,
    // `StreamRegistry::row_at`, stays a symbol of its own despite its
    // hint: tests/golden/frame_path.txt holds both dispositions.
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

    /// Counters of this service's match cache.
    pub fn match_cache(&self) -> MatchCacheStats {
        self.cache.stats()
    }

    /// Distinct subscribers with live subscriptions.
    pub fn subscriber_count(&self) -> usize {
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
        assert_eq!(d.route(stream(1)).recipients.len(), 10);
        assert!(d.route(stream(2)).recipients.is_empty());
        assert_eq!((d.dispatched_count(), d.delivery_count()), (2, 10));
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
        let first = d.route(stream(1));
        assert!(first.rebuilt, "first route builds cold");
        let second = d.route(stream(1));
        assert!(!second.rebuilt, "second route hits");
        assert!(Arc::ptr_eq(&first.recipients, &second.recipients), "a hit shares the slice");
        // A mutation stales the entry; the next route rebuilds and sees
        // the new subscriber.
        let b = d.register_subscriber();
        d.subscribe(b, TopicFilter::Sensor(SensorId::new(1).unwrap()));
        let out = d.route(stream(1));
        assert!(out.rebuilt);
        assert_eq!(&*out.recipients, &[a, b]);
        let s = d.match_cache();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 1, 1));
    }

    #[test]
    fn a_write_stales_only_the_rows_it_changes() {
        let mut d = DispatchingService::new();
        let ids: Vec<SubscriberId> = (0..4).map(|_| d.register_subscriber()).collect();
        let sensor = |raw| TopicFilter::Sensor(SensorId::new(raw).unwrap());
        let sibling = StreamId::new(SensorId::new(5).unwrap(), StreamIndex::new(1));
        d.subscribe(ids[0], sensor(5));
        d.subscribe(ids[1], sensor(9));
        for s in [stream(5), sibling, stream(9)] {
            assert!(d.route(s).rebuilt, "cold");
        }
        // A write on sensor 9 stales sensor 9's row and no other.
        d.subscribe(ids[2], sensor(9));
        assert!(!d.route(stream(5)).rebuilt, "an unrelated write staled sensor 5");
        assert!(!d.route(sibling).rebuilt);
        let out = d.route(stream(9));
        assert!(out.rebuilt);
        assert_eq!(&*out.recipients, &ids[1..3]);
        // A write on one stream stales that stream's row, not its
        // sibling's; repeating it changes nothing and stales nothing.
        d.subscribe(ids[3], TopicFilter::Stream(stream(5)));
        assert!(!d.subscribe(ids[3], TopicFilter::Stream(stream(5))));
        assert!(!d.route(sibling).rebuilt);
        assert_eq!(&*d.route(stream(5)).recipients, &[ids[0], ids[3]]);
        assert!(!d.route(stream(5)).rebuilt);
        // A departure stales the rows of every filter it held.
        assert_eq!(d.unsubscribe_all(ids[0]), 1);
        assert!(d.route(sibling).recipients.is_empty());
        assert_eq!(&*d.route(stream(5)).recipients, &[ids[3]]);
        assert!(!d.route(stream(9)).rebuilt);
        // An `All` write stales every row.
        d.subscribe(ids[0], TopicFilter::All);
        for s in [stream(5), sibling, stream(9)] {
            let out = d.route(s);
            assert!(out.rebuilt);
            assert!(out.recipients.contains(&ids[0]));
        }
        let s = d.match_cache();
        assert_eq!((s.misses, s.invalidations, s.resident), (3, 7, 3));
    }

    #[test]
    fn disabled_cache_rebuilds_quietly() {
        let mut d = DispatchingService::with_cache(DispatchCacheConfig::disabled());
        let a = d.register_subscriber();
        d.subscribe(a, TopicFilter::All);
        let out = d.route(stream(1));
        assert_eq!(&*out.recipients, &[a]);
        assert!(!out.rebuilt, "disabled caches never report rebuilds");
        d.subscribe(a, TopicFilter::Stream(stream(1)));
        assert!(!d.route(stream(1)).rebuilt);
        assert_eq!(d.match_cache(), MatchCacheStats::default());
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
        assert_eq!(d.match_cache().resident, 2);
        assert_eq!(d.streams().info(stream(2)).map(|i| i.claimed), Some(false));
        let (outcome, info, _) = d.route_row(stream(1), None);
        info.note(8, garnet_simkit::SimTime::from_millis(3), false);
        info.claimed = !outcome.unclaimed;
        let info = d.streams().info(stream(1)).unwrap();
        assert_eq!((info.messages, info.payload_bytes, info.claimed), (1, 8, true));
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use garnet_wire::{SensorId, StreamIndex};
    use proptest::prelude::*;

    /// Streams `0..2` of sensors `0..3`: a key space small enough that
    /// writes and routes keep meeting.
    fn arb_stream() -> impl Strategy<Value = StreamId> {
        (0u32..3, 0u8..2)
            .prop_map(|(s, i)| StreamId::new(SensorId::new(s).unwrap(), StreamIndex::new(i)))
    }

    fn arb_filter() -> impl Strategy<Value = TopicFilter> {
        prop_oneof![
            arb_stream().prop_map(TopicFilter::Stream),
            (0u32..3).prop_map(|s| TopicFilter::Sensor(SensorId::new(s).unwrap())),
            Just(TopicFilter::All),
        ]
    }

    /// The rule the cache's counts are held to, computed from stamps
    /// kept here: an epoch bumped by every write that changes the table,
    /// the epoch of the last such write per stream, per sensor and for
    /// the `All` set, and the epoch each resident stream's set was built
    /// at. A route is a hit iff its stream's set was built at or after
    /// the last write that could change it.
    #[derive(Default)]
    struct BuildEpochRule {
        epoch: u64,
        all: u64,
        sensors: BTreeMap<u32, u64>,
        streams: BTreeMap<u32, u64>,
        built: BTreeMap<u32, u64>,
        stats: MatchCacheStats,
    }

    impl BuildEpochRule {
        fn write(&mut self, filter: TopicFilter) {
            self.epoch += 1;
            match filter {
                TopicFilter::Stream(s) => {
                    self.streams.insert(s.to_raw(), self.epoch);
                }
                TopicFilter::Sensor(id) => {
                    self.sensors.insert(id.as_u32(), self.epoch);
                }
                TopicFilter::All => self.all = self.epoch,
            }
        }

        /// Counts one route of `stream`; true on a hit.
        fn route(&mut self, stream: StreamId) -> bool {
            let sensor = self.sensors.get(&stream.sensor().as_u32()).copied().unwrap_or(0);
            let exact = self.streams.get(&stream.to_raw()).copied().unwrap_or(0);
            let stamp = self.all.max(sensor).max(exact);
            let hit = match self.built.get(&stream.to_raw()) {
                Some(&built) if built >= stamp => {
                    self.stats.hits += 1;
                    true
                }
                Some(_) => {
                    self.stats.invalidations += 1;
                    false
                }
                None => {
                    self.stats.misses += 1;
                    false
                }
            };
            if !hit {
                self.built.insert(stream.to_raw(), self.epoch);
            }
            self.stats.resident = self.built.len() as u64;
            hit
        }
    }

    proptest! {
        /// Subscribes, unsubscribes, departures and routes interleaved
        /// at random, through a cached service and a cache-off one:
        /// every route is the table's match, and the cached service's
        /// hit / miss / invalidation counts are the build-epoch rule's —
        /// so a write stales exactly the sets it changes, no more (a
        /// spurious invalidation) and no less (a stale hit).
        #[test]
        fn route_agrees_with_the_table_and_the_build_epoch_rule(
            ops in proptest::collection::vec((0u8..4, 0u32..6, arb_filter(), arb_stream()), 0..80),
        ) {
            let mut cached = DispatchingService::new();
            let mut off = DispatchingService::with_cache(DispatchCacheConfig::disabled());
            for _ in 0..6 {
                cached.register_subscriber();
                off.register_subscriber();
            }
            let mut rule = BuildEpochRule::default();
            // What each subscriber holds, to stamp what a departure removes.
            let mut held: BTreeMap<SubscriberId, BTreeSet<TopicFilter>> = BTreeMap::new();
            for (op, id, filter, stream) in ops {
                let sub = SubscriberId::new(id);
                match op {
                    0 => {
                        let changed = cached.subscribe(sub, filter);
                        prop_assert_eq!(off.subscribe(sub, filter), changed);
                        prop_assert_eq!(held.entry(sub).or_default().insert(filter), changed);
                        if changed {
                            rule.write(filter);
                        }
                    }
                    1 => {
                        let changed = cached.unsubscribe(sub, filter);
                        prop_assert_eq!(off.unsubscribe(sub, filter), changed);
                        let had = held.get_mut(&sub).is_some_and(|fs| fs.remove(&filter));
                        prop_assert_eq!(had, changed);
                        if changed {
                            rule.write(filter);
                        }
                    }
                    2 => {
                        let gone = held.remove(&sub).unwrap_or_default();
                        prop_assert_eq!(cached.unsubscribe_all(sub), gone.len());
                        prop_assert_eq!(off.unsubscribe_all(sub), gone.len());
                        for filter in gone {
                            rule.write(filter);
                        }
                    }
                    _ => {
                        let hit = rule.route(stream);
                        let want = cached.table.match_subscribers(stream);
                        let out = cached.route(stream);
                        prop_assert_eq!(&*out.recipients, want.as_slice());
                        prop_assert_eq!(out.rebuilt, !hit);
                        prop_assert_eq!(cached.match_cache(), rule.stats);
                        prop_assert_eq!(&*off.route(stream).recipients, want.as_slice());
                    }
                }
            }
        }
    }
}
