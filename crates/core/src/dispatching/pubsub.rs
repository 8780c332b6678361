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
//! frames arrive, so the table carries a monotonic **epoch** stamped
//! per key range (one stream, one sensor, the `All` set) on every
//! actual mutation. A [`MatchCache`] memoises the resolved match set
//! per stream as a shared `Arc<[SubscriberId]>` slice, in a
//! [`MatchSlot`] the caller keeps in its own per-stream row. A hit on a
//! table that has not changed since the entry was last checked is one
//! epoch compare and one refcount bump on the row the caller already
//! found — no allocation, no set union; after a change, the first hit
//! per entry also reads the stream's key-range stamps (two lookups).
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
    // Monotonic mutation counter, bumped on every *actual* change
    // (idempotent re-subscribes and no-op unsubscribes do not count).
    epoch: u64,
    // Per-key-range stamps: the epoch of the last mutation touching
    // that key. A cached match set built at epoch `b` for some stream
    // is valid iff `b >= mutation_stamp(stream)` — mutations to other
    // sensors/streams never invalidate it.
    all_epoch: u64,
    sensor_epochs: HashMap<u32, u64>,
    stream_epochs: HashMap<u32, u64>,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `filter`'s key range just mutated.
    fn note_mutation(&mut self, filter: TopicFilter) {
        self.epoch += 1;
        match filter {
            TopicFilter::Stream(s) => {
                self.stream_epochs.insert(s.to_raw(), self.epoch);
            }
            TopicFilter::Sensor(id) => {
                self.sensor_epochs.insert(id.as_u32(), self.epoch);
            }
            TopicFilter::All => self.all_epoch = self.epoch,
        }
    }

    /// The monotonic mutation counter. Bumped once per actual
    /// subscribe/unsubscribe; idempotent calls leave it unchanged.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch of the last mutation that could change the match set
    /// of `stream`: the max over its three key ranges (exact stream,
    /// owning sensor, the `All` set). A cached set built at or after
    /// this stamp is still valid.
    pub(crate) fn mutation_stamp(&self, stream: StreamId) -> u64 {
        let sensor = self.sensor_epochs.get(&stream.sensor().as_u32()).copied().unwrap_or(0);
        let exact = self.stream_epochs.get(&stream.to_raw()).copied().unwrap_or(0);
        self.all_epoch.max(sensor).max(exact)
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
        if inserted {
            self.note_mutation(filter);
        }
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
        if removed {
            self.note_mutation(filter);
        }
        removed
    }

    /// Removes every subscription held by `subscriber` (consumer
    /// departure). Returns how many were removed.
    pub(crate) fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> usize {
        let Some(filters) = self.filters.remove(&subscriber) else {
            return 0;
        };
        let n = filters.len();
        for f in filters {
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
            self.note_mutation(f);
        }
        n
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

/// Configuration of the dispatch stage's [`MatchCache`].
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

/// Counters of one [`MatchCache`].
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
    /// The table epoch up to which this set is known to be valid: the
    /// epoch it was built at, advanced to the current epoch by every
    /// hit that finds the table changed but none of this stream's key
    /// ranges touched since.
    valid_at: u64,
    set: Arc<[SubscriberId]>,
}

/// One stream's slot in a [`MatchCache`], stored in the owner's
/// per-stream row (the Dispatching Service keeps it beside the stream's
/// catalogue entry), so routing a message finds both in one row.
/// A default slot is empty.
#[derive(Clone, Debug, Default)]
pub struct MatchSlot(Option<CacheEntry>);

/// Memoises resolved match sets per stream as shared
/// `Arc<[SubscriberId]>` slices, one [`MatchSlot`] per stream.
///
/// The cache holds the policy and the counters; the slots live in the
/// caller's per-stream rows, handed to [`MatchCache::resolve`] one at a
/// time. An entry is valid while the table's
/// [`mutation_stamp`](SubscriptionTable::mutation_stamp) for the stream
/// is at or below the epoch the entry is valid at, so a mutation only
/// invalidates the key ranges it touches (`All` mutations stale
/// everything). A hit on an unchanged table (`valid_at ==`
/// [`epoch`](SubscriptionTable::epoch)) is one compare and one Arc
/// refcount bump; the first hit after a change also reads the stamps
/// and re-stamps the entry to the current epoch. Either way a hit makes
/// zero heap allocations, pinned by `tests/alloc_budget.rs`.
///
/// Residency is counted, not stored: a wholesale reset at
/// [`DispatchCacheConfig::capacity`] starts a new generation, which
/// empties every slot at once without visiting any (an emptied slot
/// keeps its last set alive until its stream's next route rebuilds it).
#[derive(Clone, Debug, Default)]
pub struct MatchCache {
    config: DispatchCacheConfig,
    /// Bumped by every wholesale reset.
    generation: u64,
    /// Slots filled in the current generation.
    resident: u64,
    // Reused across misses so cold-path union building settles into
    // zero steady-state growth too.
    scratch: Vec<SubscriberId>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl MatchCache {
    /// Creates an empty cache under `config`.
    pub fn new(config: DispatchCacheConfig) -> Self {
        MatchCache { config, ..Default::default() }
    }

    /// Resolves the match set for `stream` against `table`, reading and
    /// refilling `stream`'s `slot`. Returns the shared slice and whether
    /// it was (re)built on this call — `false` on a cache hit *and*
    /// whenever the cache is disabled (the slot is then left alone), so
    /// rebuild traces stay identical between cached-off runs of both
    /// engines.
    pub fn resolve(
        &mut self,
        table: &SubscriptionTable,
        stream: StreamId,
        slot: &mut MatchSlot,
    ) -> (Arc<[SubscriberId]>, bool) {
        if !self.config.enabled {
            table.match_subscribers_into(stream, &mut self.scratch);
            return (Arc::from(self.scratch.as_slice()), false);
        }
        let epoch = table.epoch();
        match &mut slot.0 {
            // Stamps only grow, and at `valid_at` none exceeded it, so
            // a stamp at or below `valid_at` now means no mutation up to
            // `epoch` touched this stream: re-stamping keeps every later
            // answer (and the counts) what the build epoch would give.
            Some(entry) if entry.generation == self.generation => {
                if entry.valid_at == epoch || entry.valid_at >= table.mutation_stamp(stream) {
                    entry.valid_at = epoch;
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
            valid_at: epoch,
            set: Arc::clone(&set),
        });
        (set, true)
    }

    /// Snapshot of this cache's counters.
    pub fn stats(&self) -> MatchCacheStats {
        MatchCacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            resident: self.resident,
        }
    }
}

/// A [`MatchCache`] with the per-stream rows its owner would keep, so
/// the tests below can resolve by stream alone.
#[cfg(test)]
struct Rows {
    cache: MatchCache,
    slots: BTreeMap<u32, MatchSlot>,
}

#[cfg(test)]
impl Rows {
    fn new(config: DispatchCacheConfig) -> Self {
        Rows { cache: MatchCache::new(config), slots: BTreeMap::new() }
    }

    fn resolve(
        &mut self,
        table: &SubscriptionTable,
        stream: StreamId,
    ) -> (Arc<[SubscriberId]>, bool) {
        self.cache.resolve(table, stream, self.slots.entry(stream.to_raw()).or_default())
    }

    fn match_count(&mut self, table: &SubscriptionTable, stream: StreamId) -> usize {
        self.resolve(table, stream).0.len()
    }

    fn stats(&self) -> MatchCacheStats {
        self.cache.stats()
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
        assert_eq!(t.unsubscribe_all(a), 3);
        assert_eq!(t.match_subscribers(stream(1, 0)), vec![b]);
        assert_eq!(t.subscriber_count(), 1);
        assert_eq!(t.unsubscribe_all(a), 0);
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

    #[test]
    fn epoch_bumps_only_on_actual_mutation() {
        let mut t = SubscriptionTable::new();
        let a = SubscriberId::new(1);
        assert_eq!(t.epoch(), 0);
        t.subscribe(a, TopicFilter::All);
        assert_eq!(t.epoch(), 1);
        t.subscribe(a, TopicFilter::All); // idempotent: no bump
        assert_eq!(t.epoch(), 1);
        t.unsubscribe(a, TopicFilter::Stream(stream(1, 0))); // no-op
        assert_eq!(t.epoch(), 1);
        t.unsubscribe(a, TopicFilter::All);
        assert_eq!(t.epoch(), 2);
        assert_eq!(t.unsubscribe_all(a), 0); // gone: no bump
        assert_eq!(t.epoch(), 2);
    }

    #[test]
    fn mutation_stamp_is_per_key_range() {
        let mut t = SubscriptionTable::new();
        t.subscribe(SubscriberId::new(1), TopicFilter::Stream(stream(5, 0)));
        let stamp_5 = t.mutation_stamp(stream(5, 0));
        // A mutation on another sensor leaves sensor 5's stamp alone.
        t.subscribe(SubscriberId::new(2), TopicFilter::Sensor(SensorId::new(9).unwrap()));
        assert_eq!(t.mutation_stamp(stream(5, 0)), stamp_5);
        assert!(t.mutation_stamp(stream(9, 0)) > stamp_5);
        // Sibling stream of the same sensor: exact-stream mutation on
        // (5,0) does not stamp (5,1).
        assert_eq!(t.mutation_stamp(stream(5, 1)), 0);
        // An All mutation stamps everything.
        t.subscribe(SubscriberId::new(3), TopicFilter::All);
        let e = t.epoch();
        assert_eq!(t.mutation_stamp(stream(5, 0)), e);
        assert_eq!(t.mutation_stamp(stream(123, 45)), e);
    }

    #[test]
    fn cache_hits_after_first_resolve() {
        let mut t = SubscriptionTable::new();
        t.subscribe(SubscriberId::new(1), TopicFilter::Sensor(SensorId::new(5).unwrap()));
        let mut c = Rows::new(DispatchCacheConfig::default());
        let (first, rebuilt) = c.resolve(&t, stream(5, 0));
        assert!(rebuilt);
        assert_eq!(&*first, &[SubscriberId::new(1)]);
        let (second, rebuilt) = c.resolve(&t, stream(5, 0));
        assert!(!rebuilt);
        assert!(Arc::ptr_eq(&first, &second), "a hit returns the same shared slice");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations, s.resident), (1, 1, 0, 1));
    }

    #[test]
    fn cache_invalidation_is_fine_grained() {
        let mut t = SubscriptionTable::new();
        t.subscribe(SubscriberId::new(1), TopicFilter::Sensor(SensorId::new(5).unwrap()));
        t.subscribe(SubscriberId::new(2), TopicFilter::Sensor(SensorId::new(9).unwrap()));
        let mut c = Rows::new(DispatchCacheConfig::default());
        c.resolve(&t, stream(5, 0));
        c.resolve(&t, stream(9, 0));
        // Mutating sensor 9 must not stale sensor 5's entry.
        t.subscribe(SubscriberId::new(3), TopicFilter::Sensor(SensorId::new(9).unwrap()));
        let (_, rebuilt) = c.resolve(&t, stream(5, 0));
        assert!(!rebuilt, "unrelated mutation invalidated a cached stream");
        let (set, rebuilt) = c.resolve(&t, stream(9, 0));
        assert!(rebuilt);
        assert_eq!(set.len(), 2);
        assert_eq!(c.stats().invalidations, 1);
        // An All mutation stales every entry.
        t.subscribe(SubscriberId::new(4), TopicFilter::All);
        assert!(c.resolve(&t, stream(5, 0)).1);
        assert!(c.resolve(&t, stream(9, 0)).1);
    }

    #[test]
    fn cache_capacity_clears_wholesale() {
        let mut t = SubscriptionTable::new();
        t.subscribe(SubscriberId::new(1), TopicFilter::All);
        let mut c = Rows::new(DispatchCacheConfig { enabled: true, capacity: 2 });
        c.resolve(&t, stream(1, 0));
        c.resolve(&t, stream(2, 0));
        assert_eq!(c.stats().resident, 2);
        c.resolve(&t, stream(3, 0)); // full: wholesale clear, then insert
        assert_eq!(c.stats().resident, 1);
        let (_, rebuilt) = c.resolve(&t, stream(3, 0));
        assert!(!rebuilt, "the newly inserted entry survives the clear");
        // The slots the clear emptied still hold their old sets: each
        // rebuilds as a miss, not a hit or an invalidation.
        assert!(c.resolve(&t, stream(1, 0)).1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations, s.resident), (1, 4, 0, 2));
    }

    #[test]
    fn disabled_cache_rebuilds_quietly() {
        let mut t = SubscriptionTable::new();
        t.subscribe(SubscriberId::new(1), TopicFilter::All);
        let mut c = Rows::new(DispatchCacheConfig::disabled());
        let (set, rebuilt) = c.resolve(&t, stream(1, 0));
        assert_eq!(&*set, &[SubscriberId::new(1)]);
        assert!(!rebuilt, "disabled caches never report rebuilds");
        c.resolve(&t, stream(1, 0));
        assert_eq!(c.stats(), MatchCacheStats::default());
        assert_eq!(c.match_count(&t, stream(1, 0)), 1);
    }

    #[test]
    fn cached_match_count_tracks_mutations() {
        let mut t = SubscriptionTable::new();
        let mut c = Rows::new(DispatchCacheConfig::default());
        assert_eq!(c.match_count(&t, stream(5, 0)), 0);
        t.subscribe(SubscriberId::new(1), TopicFilter::Sensor(SensorId::new(5).unwrap()));
        assert_eq!(c.match_count(&t, stream(5, 0)), 1);
        t.subscribe(SubscriberId::new(2), TopicFilter::Stream(stream(5, 0)));
        assert_eq!(c.match_count(&t, stream(5, 0)), 2);
        t.unsubscribe_all(SubscriberId::new(1));
        assert_eq!(c.match_count(&t, stream(5, 0)), 1);
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

        /// `match_count` agrees with the materialised match under
        /// arbitrary subscribe/unsubscribe interleavings, whether read
        /// through a hot cache, a cold cache, or no cache at all.
        #[test]
        fn match_count_agrees_under_mutation(
            ops in proptest::collection::vec(
                (proptest::bool::ANY, 0u32..20, arb_filter(50, 4)),
                0..60,
            ),
            sensor in 0u32..50,
            idx in 0u8..4,
        ) {
            let mut t = SubscriptionTable::new();
            let stream = StreamId::new(SensorId::new(sensor).unwrap(), garnet_wire::StreamIndex::new(idx));
            let mut hot = Rows::new(DispatchCacheConfig { enabled: true, capacity: 64 });
            let mut off = Rows::new(DispatchCacheConfig::disabled());
            for (sub, id, f) in &ops {
                if *sub {
                    t.subscribe(SubscriberId::new(*id), *f);
                } else {
                    t.unsubscribe(SubscriberId::new(*id), *f);
                }
                // Hot: the same cache across every mutation — it must
                // revalidate. Cold: a fresh cache every probe.
                let want = t.match_subscribers(stream).len();
                prop_assert_eq!(hot.match_count(&t, stream), want);
                prop_assert_eq!(off.match_count(&t, stream), want);
                let mut cold = Rows::new(DispatchCacheConfig::default());
                prop_assert_eq!(cold.match_count(&t, stream), want);
            }
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
                        let n = model.remove(&sub).map_or(0, |fs| fs.len());
                        prop_assert_eq!(t.unsubscribe_all(sub), n);
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

        /// The match cache under arbitrary interleavings of writes and
        /// resolves over a small key space: every resolved set is the
        /// table's match, and the hit / miss / invalidation counts are
        /// those of the rule without re-stamping (a hit iff the entry's
        /// build epoch is at or above the stream's mutation stamp).
        #[test]
        fn match_cache_agrees_with_the_build_epoch_rule(
            ops in proptest::collection::vec(
                (0u8..4, 0u32..6, arb_filter(3, 2), (0u32..3, 0u8..2)),
                0..80,
            ),
            capacity in 1usize..8,
        ) {
            let mut t = SubscriptionTable::new();
            let mut cache = Rows::new(DispatchCacheConfig { enabled: true, capacity });
            // Stream → the epoch its entry was built at.
            let mut built: BTreeMap<u32, u64> = BTreeMap::new();
            let mut want = MatchCacheStats::default();
            for (op, id, f, (sensor, idx)) in &ops {
                let sub = SubscriberId::new(*id);
                match op {
                    0 => {
                        t.subscribe(sub, *f);
                    }
                    1 => {
                        t.unsubscribe(sub, *f);
                    }
                    2 => {
                        t.unsubscribe_all(sub);
                    }
                    _ => {
                        let s = StreamId::new(
                            SensorId::new(*sensor).unwrap(),
                            garnet_wire::StreamIndex::new(*idx),
                        );
                        let hit = match built.get(&s.to_raw()) {
                            Some(&b) if b >= t.mutation_stamp(s) => {
                                want.hits += 1;
                                true
                            }
                            Some(_) => {
                                want.invalidations += 1;
                                false
                            }
                            None => {
                                want.misses += 1;
                                if built.len() >= capacity {
                                    built.clear();
                                }
                                false
                            }
                        };
                        if !hit {
                            built.insert(s.to_raw(), t.epoch());
                        }
                        want.resident = built.len() as u64;
                        let (set, rebuilt) = cache.resolve(&t, s);
                        prop_assert_eq!(&*set, t.match_subscribers(s).as_slice());
                        prop_assert_eq!(rebuilt, !hit);
                        prop_assert_eq!(cache.stats(), want);
                    }
                }
            }
        }
    }
}
