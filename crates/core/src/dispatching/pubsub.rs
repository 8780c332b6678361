//! The publish/subscribe subscription table.
//!
//! "Consumer processes use a publish/subscribe mechanism to access data
//! streams, which permits un-configured data streams to be detected"
//! (§4.2). The table maps a published [`StreamId`] to the set of
//! subscribers that should receive it; an empty match is exactly the
//! "unclaimed data" signal that routes a message to the Orphanage.
//!
//! Filters come in three granularities: one stream, every stream of one
//! sensor, or everything (wiretaps, loggers, the Orphanage itself).
//! Matching is O(subscribers-on-topic), not O(all-subscribers), so
//! dispatch cost scales with fan-out rather than population — the
//! property experiment E5 measures.
//!
//! Subscription tables mutate orders of magnitude less often than
//! frames arrive, so the dispatch stage memoises the resolved match set
//! per stream as a shared `Arc<[SubscriberId]>` slice: a `MatchCache`
//! holds the policy and the counters, and each stream's `MatchSlot`
//! sits in that stream's row of the Dispatching Service's catalogue.
//! The table itself keeps no record of its writes. The Dispatching
//! Service, which owns both the table and the rows, marks stale exactly
//! the slots a write changes (one stream's row, every row of one
//! sensor) and counts writes to the `All` set in the cache, so a hit is
//! two compares and one refcount bump on the row the caller already
//! found — no hashing, no allocation, no set union.
//! `perfbench`'s `churn-fanout` workload prices it
//! (`net.pubsub.cache_hit_share`, `cache_invalidations`,
//! `write_ns_per_op`; the metrics keep the `net.` prefix of this
//! module's old crate until the benchmark is next revised).
//!
//! Maps keyed by a stream or sensor id keep std's keyed hasher: those
//! ids arrive in radio frames, which a hostile transmitter can forge to
//! collide. A [`SubscriberId`] is allocated here and never read off the
//! air, so maps keyed by one use the unkeyed [`IdMap`].

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use core::fmt;
use garnet_wire::{SensorId, StreamId};

/// Identifier of one subscriber (assigned by the Dispatching Service at
/// registration).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriberId(u32);

/// A hash map keyed by [`SubscriberId`] under [`IdHasher`]. Subscriber
/// ids are handed out sequentially at registration and no frame can
/// choose one, so these maps need no per-process key. The key type is
/// fixed here so the alias cannot carry a radio-supplied key.
pub(crate) type IdMap<V> = HashMap<SubscriberId, V, BuildHasherDefault<IdHasher>>;

/// The unkeyed hasher behind [`IdMap`]: one multiply by the 64-bit
/// golden ratio per word, which spreads sequential ids over both the
/// bucket bits (low) and the tag bits (high) of the table.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(Self::K);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(Self::K);
    }
}

impl SubscriberId {
    /// Creates a subscriber id.
    pub const fn new(raw: u32) -> Self {
        SubscriberId(raw)
    }

    /// The raw value.
    pub(crate) const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for SubscriberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SubscriberId({})", self.0)
    }
}

impl fmt::Display for SubscriberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// What a subscription matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TopicFilter {
    /// Exactly one stream.
    Stream(StreamId),
    /// Every internal stream of one sensor.
    Sensor(SensorId),
    /// Every stream in the system.
    All,
}

impl TopicFilter {
    /// True if the filter matches `stream`.
    pub(crate) fn matches(&self, stream: StreamId) -> bool {
        match *self {
            TopicFilter::Stream(s) => s == stream,
            TopicFilter::Sensor(id) => stream.sensor() == id,
            TopicFilter::All => true,
        }
    }
}

/// Inserts `id` into an ascending-sorted vec; `true` if it was new.
fn sorted_insert(set: &mut Vec<SubscriberId>, id: SubscriberId) -> bool {
    match set.binary_search(&id) {
        Ok(_) => false,
        Err(pos) => {
            set.insert(pos, id);
            true
        }
    }
}

/// Removes `id` from an ascending-sorted vec; `true` if it was present.
fn sorted_remove(set: &mut Vec<SubscriberId>, id: SubscriberId) -> bool {
    match set.binary_search(&id) {
        Ok(pos) => {
            set.remove(pos);
            true
        }
        Err(_) => false,
    }
}

/// The subscription table.
///
/// The hot indexes (`by_stream`, `by_sensor`, `all`) are
/// ascending-sorted vecs behind hash maps: lookups never walk a tree,
/// and the sorted-on-insert invariant keeps every match set in the
/// deterministic ascending-id order that dispatch relies on.
///
/// # Example
///
/// ```
/// use garnet_core::{SubscriberId, SubscriptionTable, TopicFilter};
/// use garnet_wire::{SensorId, StreamId};
///
/// let mut table = SubscriptionTable::new();
/// let alice = SubscriberId::new(1);
/// table.subscribe(alice, TopicFilter::Sensor(SensorId::new(7)?));
/// let stream = StreamId::from_raw((7 << 8) | 0);
/// assert_eq!(table.match_subscribers(stream), vec![alice]);
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SubscriptionTable {
    by_stream: HashMap<u32, Vec<SubscriberId>>,
    by_sensor: HashMap<u32, Vec<SubscriberId>>,
    all: Vec<SubscriberId>,
    // Reverse index so unsubscribe-all is O(own subscriptions).
    filters: BTreeMap<SubscriberId, BTreeSet<TopicFilter>>,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a subscription. Returns `true` if it was new.
    pub fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        let inserted = match filter {
            TopicFilter::Stream(s) => {
                sorted_insert(self.by_stream.entry(s.to_raw()).or_default(), subscriber)
            }
            TopicFilter::Sensor(id) => {
                sorted_insert(self.by_sensor.entry(id.as_u32()).or_default(), subscriber)
            }
            TopicFilter::All => sorted_insert(&mut self.all, subscriber),
        };
        let reverse_inserted = self.filters.entry(subscriber).or_default().insert(filter);
        debug_assert_eq!(
            inserted, reverse_inserted,
            "forward and reverse indexes disagree on subscribe({subscriber}, {filter:?})"
        );
        inserted
    }

    /// Removes one subscription. Returns `true` if it existed.
    pub(crate) fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        let removed = match filter {
            TopicFilter::Stream(s) => {
                let raw = s.to_raw();
                if let Some(set) = self.by_stream.get_mut(&raw) {
                    let removed = sorted_remove(set, subscriber);
                    if set.is_empty() {
                        self.by_stream.remove(&raw);
                    }
                    removed
                } else {
                    false
                }
            }
            TopicFilter::Sensor(id) => {
                let raw = id.as_u32();
                if let Some(set) = self.by_sensor.get_mut(&raw) {
                    let removed = sorted_remove(set, subscriber);
                    if set.is_empty() {
                        self.by_sensor.remove(&raw);
                    }
                    removed
                } else {
                    false
                }
            }
            TopicFilter::All => sorted_remove(&mut self.all, subscriber),
        };
        let mut removed_reverse = false;
        if let Some(fs) = self.filters.get_mut(&subscriber) {
            removed_reverse = fs.remove(&filter);
            if fs.is_empty() {
                self.filters.remove(&subscriber);
            }
        }
        debug_assert_eq!(
            removed, removed_reverse,
            "forward and reverse indexes disagree on unsubscribe({subscriber}, {filter:?})"
        );
        removed
    }

    /// Removes every subscription held by `subscriber` (consumer
    /// departure). Returns the filters removed.
    pub(crate) fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> BTreeSet<TopicFilter> {
        let filters = self.filters.remove(&subscriber).unwrap_or_default();
        for &f in &filters {
            let removed = match f {
                TopicFilter::Stream(s) => {
                    let raw = s.to_raw();
                    if let Some(set) = self.by_stream.get_mut(&raw) {
                        let removed = sorted_remove(set, subscriber);
                        if set.is_empty() {
                            self.by_stream.remove(&raw);
                        }
                        removed
                    } else {
                        false
                    }
                }
                TopicFilter::Sensor(id) => {
                    let raw = id.as_u32();
                    if let Some(set) = self.by_sensor.get_mut(&raw) {
                        let removed = sorted_remove(set, subscriber);
                        if set.is_empty() {
                            self.by_sensor.remove(&raw);
                        }
                        removed
                    } else {
                        false
                    }
                }
                TopicFilter::All => sorted_remove(&mut self.all, subscriber),
            };
            debug_assert!(
                removed,
                "reverse index held {f:?} for {subscriber} but the forward index did not"
            );
        }
        filters
    }

    /// Calls `f` once per matching subscriber, deduplicated, in
    /// ascending id order — a 3-way merge over the sorted `all` /
    /// sensor / stream slices, allocating nothing.
    fn for_each_match(&self, stream: StreamId, mut f: impl FnMut(SubscriberId)) {
        let a = self.all.as_slice();
        let b =
            self.by_sensor.get(&stream.sensor().as_u32()).map(Vec::as_slice).unwrap_or_default();
        let c = self.by_stream.get(&stream.to_raw()).map(Vec::as_slice).unwrap_or_default();
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        while i < a.len() || j < b.len() || k < c.len() {
            let mut min = SubscriberId::new(u32::MAX);
            if i < a.len() {
                min = min.min(a[i]);
            }
            if j < b.len() {
                min = min.min(b[j]);
            }
            if k < c.len() {
                min = min.min(c[k]);
            }
            // Advance every cursor sitting on the minimum: overlapping
            // filters deduplicate here.
            if i < a.len() && a[i] == min {
                i += 1;
            }
            if j < b.len() && b[j] == min {
                j += 1;
            }
            if k < c.len() && c[k] == min {
                k += 1;
            }
            f(min);
        }
    }

    /// Writes the subscribers that should receive a message on `stream`
    /// into `out` (cleared first), deduplicated, in ascending id order —
    /// the scratch-buffer form for cold-path union building.
    pub(crate) fn match_subscribers_into(&self, stream: StreamId, out: &mut Vec<SubscriberId>) {
        out.clear();
        self.for_each_match(stream, |s| out.push(s));
    }

    /// The subscribers that should receive a message on `stream`,
    /// deduplicated, in ascending id order (deterministic dispatch).
    pub fn match_subscribers(&self, stream: StreamId) -> Vec<SubscriberId> {
        let mut out = Vec::new();
        self.match_subscribers_into(stream, &mut out);
        out
    }

    /// True if no subscription matches `stream` — the message is
    /// *unclaimed* and belongs to the Orphanage.
    pub(crate) fn is_unclaimed(&self, stream: StreamId) -> bool {
        if !self.all.is_empty() {
            return false;
        }
        if self.by_sensor.get(&stream.sensor().as_u32()).is_some_and(|s| !s.is_empty()) {
            return false;
        }
        self.by_stream.get(&stream.to_raw()).is_none_or(|s| s.is_empty())
    }

    /// Number of distinct subscribers with at least one subscription.
    pub(crate) fn subscriber_count(&self) -> usize {
        self.filters.len()
    }

    /// The filters `subscriber` currently holds, ascending.
    #[cfg(test)]
    pub(crate) fn filters_of(
        &self,
        subscriber: SubscriberId,
    ) -> impl Iterator<Item = TopicFilter> + '_ {
        self.filters.get(&subscriber).into_iter().flat_map(|fs| fs.iter().copied())
    }

    /// Total number of live subscriptions.
    #[cfg(test)]
    pub(crate) fn subscription_count(&self) -> usize {
        self.filters.values().map(|f| f.len()).sum()
    }
}

/// Configuration of the dispatch stage's match cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchCacheConfig {
    /// Whether match sets are memoised at all. Off, every resolve
    /// rebuilds from the table (the pre-cache behaviour).
    pub enabled: bool,
    /// Residency bound: the maximum number of distinct streams
    /// cached. Inserting a new stream into a full cache clears it
    /// wholesale (deterministic, no recency bookkeeping on the hot
    /// path). Clamped to at least 1.
    pub capacity: usize,
}

impl DispatchCacheConfig {
    /// Default residency bound (streams).
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A disabled cache: every resolve rebuilds from the table.
    pub fn disabled() -> Self {
        DispatchCacheConfig { enabled: false, capacity: Self::DEFAULT_CAPACITY }
    }
}

impl Default for DispatchCacheConfig {
    /// Enabled at [`DispatchCacheConfig::DEFAULT_CAPACITY`].
    fn default() -> Self {
        DispatchCacheConfig { enabled: true, capacity: Self::DEFAULT_CAPACITY }
    }
}

/// Counters of the dispatch stage's match cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchCacheStats {
    /// Resolves answered from a valid cached entry.
    pub hits: u64,
    /// Resolves for a stream never seen (or evicted) — built cold.
    pub misses: u64,
    /// Resolves that found a cached entry staled by a subscription
    /// mutation — rebuilt.
    pub invalidations: u64,
    /// Entries currently resident.
    pub resident: u64,
}

#[derive(Clone, Debug)]
struct CacheEntry {
    /// The [`MatchCache`] generation the entry was built in: an entry
    /// from an older generation was dropped by a wholesale reset.
    generation: u64,
    /// The cache's count of `All` writes this set is valid under, or
    /// [`CacheEntry::STALE`] once a write to the stream's own or its
    /// sensor's subscriptions has changed the set.
    valid_under: u64,
    set: Arc<[SubscriberId]>,
}

impl CacheEntry {
    /// A count no cache reaches: the entry is stale.
    const STALE: u64 = u64::MAX;
}

/// One stream's slot in a [`MatchCache`], stored in the stream's row of
/// the Dispatching Service's catalogue, so routing a message finds both
/// in one row. A default slot is empty.
#[derive(Clone, Debug, Default)]
pub(crate) struct MatchSlot(Option<CacheEntry>);

impl MatchSlot {
    /// Marks the slot's set stale: a subscription write changed the
    /// stream's match set. The next resolve rebuilds it and counts an
    /// invalidation (or a miss, if a reset dropped the slot since).
    pub(crate) fn mark_stale(&mut self) {
        if let Some(entry) = &mut self.0 {
            entry.valid_under = CacheEntry::STALE;
        }
    }
}

/// Memoises resolved match sets per stream as shared
/// `Arc<[SubscriberId]>` slices, one [`MatchSlot`] per stream.
///
/// The cache holds the policy and the counters; the slots live in the
/// caller's per-stream rows, handed to [`MatchCache::resolve`] one at a
/// time. The table records nothing of its writes: its owner marks stale
/// the slots a `Stream` or `Sensor` write changes
/// ([`MatchSlot::mark_stale`]) and reports every `All` write
/// ([`MatchCache::note_all_write`]), which stales every slot at once.
/// A slot is a hit iff it was filled in the current generation, is not
/// marked stale, and was built under the current `All` count — two
/// compares and one Arc refcount bump, and zero heap allocations,
/// pinned by `tests/alloc_budget.rs`. The counts are those of the rule
/// "a hit iff no write that could change this stream's set happened
/// since its entry was built", which
/// `dispatching::proptests::route_agrees_with_the_table_and_the_build_epoch_rule`
/// checks against stamps it keeps itself.
///
/// Residency is counted, not stored: a wholesale reset at
/// [`DispatchCacheConfig::capacity`] starts a new generation, which
/// empties every slot at once without visiting any (an emptied slot
/// keeps its last set alive until its stream's next route rebuilds it).
#[derive(Clone, Debug, Default)]
pub(crate) struct MatchCache {
    config: DispatchCacheConfig,
    /// Bumped by every wholesale reset.
    generation: u64,
    /// Slots filled in the current generation.
    resident: u64,
    /// Writes to the `All` set so far.
    all_writes: u64,
    // Reused across misses so cold-path union building settles into
    // zero steady-state growth too.
    scratch: Vec<SubscriberId>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl MatchCache {
    /// Creates an empty cache under `config`.
    pub(crate) fn new(config: DispatchCacheConfig) -> Self {
        MatchCache { config, ..Default::default() }
    }

    /// Records a write that changed the `All` set: every slot is stale.
    pub(crate) fn note_all_write(&mut self) {
        self.all_writes += 1;
    }

    /// Resolves the match set for `stream` against `table`, reading and
    /// refilling `stream`'s `slot`. Returns the shared slice and whether
    /// it was (re)built on this call — `false` on a cache hit *and*
    /// whenever the cache is disabled (the slot is then left alone), so
    /// rebuild traces stay identical between cached-off runs of both
    /// engines.
    pub(crate) fn resolve(
        &mut self,
        table: &SubscriptionTable,
        stream: StreamId,
        slot: &mut MatchSlot,
    ) -> (Arc<[SubscriberId]>, bool) {
        if !self.config.enabled {
            table.match_subscribers_into(stream, &mut self.scratch);
            return (Arc::from(self.scratch.as_slice()), false);
        }
        match &slot.0 {
            Some(entry) if entry.generation == self.generation => {
                if entry.valid_under == self.all_writes {
                    self.hits += 1;
                    return (Arc::clone(&entry.set), false);
                }
                self.invalidations += 1;
            }
            _ => {
                self.misses += 1;
                if self.resident >= self.config.capacity.max(1) as u64 {
                    // Full and a new stream wants in: deterministic
                    // wholesale reset instead of hot-path recency.
                    self.generation += 1;
                    self.resident = 0;
                }
                self.resident += 1;
            }
        }
        table.match_subscribers_into(stream, &mut self.scratch);
        let set: Arc<[SubscriberId]> = Arc::from(self.scratch.as_slice());
        slot.0 = Some(CacheEntry {
            generation: self.generation,
            valid_under: self.all_writes,
            set: Arc::clone(&set),
        });
        (set, true)
    }

    /// Snapshot of this cache's counters.
    pub(crate) fn stats(&self) -> MatchCacheStats {
        MatchCacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            resident: self.resident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(sensor: u32, idx: u8) -> StreamId {
        StreamId::new(SensorId::new(sensor).unwrap(), garnet_wire::StreamIndex::new(idx))
    }

    #[test]
    fn exact_stream_subscription() {
        let mut t = SubscriptionTable::new();
        let a = SubscriberId::new(1);
        assert!(t.subscribe(a, TopicFilter::Stream(stream(5, 0))));
        assert_eq!(t.match_subscribers(stream(5, 0)), vec![a]);
        assert!(t.match_subscribers(stream(5, 1)).is_empty());
        assert!(t.match_subscribers(stream(6, 0)).is_empty());
    }

    #[test]
    fn sensor_subscription_matches_all_indices() {
        let mut t = SubscriptionTable::new();
        let a = SubscriberId::new(1);
        t.subscribe(a, TopicFilter::Sensor(SensorId::new(5).unwrap()));
        assert_eq!(t.match_subscribers(stream(5, 0)), vec![a]);
        assert_eq!(t.match_subscribers(stream(5, 255)), vec![a]);
        assert!(t.match_subscribers(stream(4, 0)).is_empty());
    }

    #[test]
    fn all_subscription_matches_everything() {
        let mut t = SubscriptionTable::new();
        let a = SubscriberId::new(9);
        t.subscribe(a, TopicFilter::All);
        assert_eq!(t.match_subscribers(stream(1, 1)), vec![a]);
        assert!(!t.is_unclaimed(stream(123, 9)));
    }

    #[test]
    fn overlapping_filters_deduplicate() {
        let mut t = SubscriptionTable::new();
        let a = SubscriberId::new(1);
        t.subscribe(a, TopicFilter::Stream(stream(5, 0)));
        t.subscribe(a, TopicFilter::Sensor(SensorId::new(5).unwrap()));
        t.subscribe(a, TopicFilter::All);
        assert_eq!(t.match_subscribers(stream(5, 0)), vec![a]);
    }

    #[test]
    fn match_order_is_ascending_and_deterministic() {
        let mut t = SubscriptionTable::new();
        for id in [30u32, 10, 20] {
            t.subscribe(SubscriberId::new(id), TopicFilter::Stream(stream(1, 0)));
        }
        let ids: Vec<u32> = t.match_subscribers(stream(1, 0)).iter().map(|s| s.as_u32()).collect();
        assert_eq!(ids, vec![10, 20, 30]);
    }

    #[test]
    fn duplicate_subscribe_is_idempotent() {
        let mut t = SubscriptionTable::new();
        let a = SubscriberId::new(1);
        assert!(t.subscribe(a, TopicFilter::All));
        assert!(!t.subscribe(a, TopicFilter::All));
        assert_eq!(t.subscription_count(), 1);
    }

    #[test]
    fn unsubscribe_restores_unclaimed() {
        let mut t = SubscriptionTable::new();
        let a = SubscriberId::new(1);
        let f = TopicFilter::Stream(stream(2, 3));
        t.subscribe(a, f);
        assert!(!t.is_unclaimed(stream(2, 3)));
        assert!(t.unsubscribe(a, f));
        assert!(t.is_unclaimed(stream(2, 3)));
        assert!(!t.unsubscribe(a, f), "second unsubscribe is a no-op");
        assert_eq!(t.subscriber_count(), 0);
    }

    #[test]
    fn unsubscribe_all_removes_everything() {
        let mut t = SubscriptionTable::new();
        let a = SubscriberId::new(1);
        let b = SubscriberId::new(2);
        t.subscribe(a, TopicFilter::Stream(stream(1, 0)));
        t.subscribe(a, TopicFilter::Sensor(SensorId::new(2).unwrap()));
        t.subscribe(a, TopicFilter::All);
        t.subscribe(b, TopicFilter::All);
        assert_eq!(t.unsubscribe_all(a).len(), 3);
        assert_eq!(t.match_subscribers(stream(1, 0)), vec![b]);
        assert_eq!(t.subscriber_count(), 1);
        assert!(t.unsubscribe_all(a).is_empty());
    }

    #[test]
    fn unclaimed_logic() {
        let mut t = SubscriptionTable::new();
        assert!(t.is_unclaimed(stream(9, 9)));
        let a = SubscriberId::new(1);
        t.subscribe(a, TopicFilter::Sensor(SensorId::new(9).unwrap()));
        assert!(!t.is_unclaimed(stream(9, 9)));
        assert!(t.is_unclaimed(stream(8, 0)));
    }

    #[test]
    fn filter_matches_directly() {
        assert!(TopicFilter::All.matches(stream(1, 1)));
        assert!(TopicFilter::Sensor(SensorId::new(1).unwrap()).matches(stream(1, 9)));
        assert!(!TopicFilter::Sensor(SensorId::new(2).unwrap()).matches(stream(1, 9)));
        assert!(TopicFilter::Stream(stream(3, 3)).matches(stream(3, 3)));
        assert!(!TopicFilter::Stream(stream(3, 3)).matches(stream(3, 4)));
    }

    #[test]
    fn large_population_small_fanout_matching() {
        // 10k subscribers on other streams must not appear in a match.
        let mut t = SubscriptionTable::new();
        for i in 0..10_000u32 {
            t.subscribe(SubscriberId::new(i), TopicFilter::Stream(stream(i % 1000, 0)));
        }
        let m = t.match_subscribers(stream(7, 0));
        assert_eq!(m.len(), 10); // ids 7, 1007, 2007, ...
        for s in m {
            assert_eq!(s.as_u32() % 1000, 7);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Filters over sensors `0..sensors`, each with streams `0..indices`.
    fn arb_filter(sensors: u32, indices: u8) -> impl Strategy<Value = TopicFilter> {
        prop_oneof![
            (0u32..sensors, 0u8..indices).prop_map(|(s, i)| TopicFilter::Stream(StreamId::new(
                SensorId::new(s).unwrap(),
                garnet_wire::StreamIndex::new(i)
            ))),
            (0u32..sensors).prop_map(|s| TopicFilter::Sensor(SensorId::new(s).unwrap())),
            Just(TopicFilter::All),
        ]
    }

    proptest! {
        #[test]
        fn match_equals_bruteforce(
            subs in proptest::collection::vec((0u32..30, arb_filter(50, 4)), 0..60),
            sensor in 0u32..50,
            idx in 0u8..4,
        ) {
            let mut t = SubscriptionTable::new();
            for (id, f) in &subs {
                t.subscribe(SubscriberId::new(*id), *f);
            }
            let stream = StreamId::new(SensorId::new(sensor).unwrap(), garnet_wire::StreamIndex::new(idx));
            let got = t.match_subscribers(stream);
            let mut want: Vec<SubscriberId> = subs
                .iter()
                .filter(|(_, f)| f.matches(stream))
                .map(|(id, _)| SubscriberId::new(*id))
                .collect();
            want.sort();
            want.dedup();
            prop_assert_eq!(got.clone(), want);
            prop_assert_eq!(t.is_unclaimed(stream), got.is_empty());
        }

        #[test]
        fn subscribe_unsubscribe_is_identity(
            subs in proptest::collection::vec((0u32..20, arb_filter(50, 4)), 0..40),
        ) {
            let mut t = SubscriptionTable::new();
            for (id, f) in &subs {
                t.subscribe(SubscriberId::new(*id), *f);
            }
            for (id, f) in &subs {
                t.unsubscribe(SubscriberId::new(*id), *f);
            }
            prop_assert_eq!(t.subscriber_count(), 0);
            prop_assert_eq!(t.subscription_count(), 0);
            let probe = StreamId::from_raw(0x0000_0100);
            prop_assert!(t.is_unclaimed(probe));
        }

        /// Forward (by_stream/by_sensor/all) and reverse (filters)
        /// indexes stay in lockstep under arbitrary mutation sequences:
        /// the table's observable state equals a naive model's.
        #[test]
        fn forward_and_reverse_indexes_stay_in_lockstep(
            ops in proptest::collection::vec(
                (prop_oneof![Just(0u8), Just(1), Just(2)], 0u32..15, arb_filter(50, 4)),
                0..60,
            ),
        ) {
            let mut t = SubscriptionTable::new();
            let mut model: BTreeMap<SubscriberId, BTreeSet<TopicFilter>> = BTreeMap::new();
            for (op, id, f) in &ops {
                let sub = SubscriberId::new(*id);
                match op {
                    0 => {
                        let was_new = model.entry(sub).or_default().insert(*f);
                        prop_assert_eq!(t.subscribe(sub, *f), was_new);
                    }
                    1 => {
                        let existed = model.get_mut(&sub).is_some_and(|fs| fs.remove(f));
                        if model.get(&sub).is_some_and(|fs| fs.is_empty()) {
                            model.remove(&sub);
                        }
                        prop_assert_eq!(t.unsubscribe(sub, *f), existed);
                    }
                    _ => {
                        let removed = model.remove(&sub).unwrap_or_default();
                        prop_assert_eq!(t.unsubscribe_all(sub), removed);
                    }
                }
            }
            // Reverse index ≡ model.
            prop_assert_eq!(t.subscriber_count(), model.len());
            prop_assert_eq!(
                t.subscription_count(),
                model.values().map(|fs| fs.len()).sum::<usize>()
            );
            for (sub, fs) in &model {
                let got: BTreeSet<TopicFilter> = t.filters_of(*sub).collect();
                prop_assert_eq!(&got, fs);
            }
            // Forward indexes ≡ model: every probe stream matches
            // exactly the subscribers whose model filters claim it.
            for sensor in 0u32..50 {
                for idx in 0u8..4 {
                    let s = StreamId::new(
                        SensorId::new(sensor).unwrap(),
                        garnet_wire::StreamIndex::new(idx),
                    );
                    let want: Vec<SubscriberId> = model
                        .iter()
                        .filter(|(_, fs)| fs.iter().any(|f| f.matches(s)))
                        .map(|(id, _)| *id)
                        .collect();
                    prop_assert_eq!(t.match_subscribers(s), want);
                }
            }
        }
    }
}
