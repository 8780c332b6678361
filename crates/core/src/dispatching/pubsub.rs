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
//! Storage: the stream and the sensor index each map a key to an 8-byte
//! slot, which holds a lone subscriber inline or indexes the key's
//! ascending subscriber set in a slab shared by both indexes. A key
//! moves to the slab with its second subscriber and back inline when it
//! is down to one; a freed set keeps its buffer and is reused first. So
//! a subscription costs bytes in a map, not an allocation, and churning
//! a key's membership allocates nothing. The `All` set is one sorted
//! vec. There is no reverse index: per subscriber the table counts its
//! stream and sensor filters and whether it holds `All`, which answers
//! `subscriber_count` and tells a departure which indexes to walk. A
//! departure costs one pass over each index the subscriber holds a key
//! in (nothing for an `All`-only monitor); departures are rare next to
//! writes, and writes next to frames.
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
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

/// The subscribers of one stream or sensor key: a lone subscriber held
/// inline, or the index of the key's set in the table's [`Slab`].
#[derive(Clone, Copy, Debug)]
enum Slot {
    One(SubscriberId),
    Many(u32),
}

const _: () = assert!(std::mem::size_of::<Slot>() == 8);

/// The ascending subscriber sets of every key with two or more
/// subscribers, indexed by [`Slot::Many`]. A set freed when its key
/// falls back to one subscriber keeps its buffer and is handed out again
/// before the slab grows.
#[derive(Clone, Debug, Default)]
struct Slab {
    sets: Vec<Vec<SubscriberId>>,
    free: Vec<u32>,
}

impl Slab {
    /// Stores the two-subscriber set `{a, b}`, returning its index.
    fn alloc(&mut self, a: SubscriberId, b: SubscriberId) -> u32 {
        let pair = [a.min(b), a.max(b)];
        if let Some(ix) = self.free.pop() {
            self.sets[ix as usize].extend_from_slice(&pair);
            return ix;
        }
        self.sets.push(pair.to_vec());
        // 2^32 sets of two or more subscribers would not fit in memory,
        // so the index fits a u32.
        (self.sets.len() - 1) as u32
    }

    /// Empties set `ix` and queues it for reuse.
    fn release(&mut self, ix: u32) {
        self.sets[ix as usize].clear();
        self.free.push(ix);
    }

    /// The subscribers `slot` names, ascending.
    fn members<'a>(&'a self, slot: &'a Slot) -> &'a [SubscriberId] {
        match slot {
            Slot::One(id) => std::slice::from_ref(id),
            Slot::Many(ix) => &self.sets[*ix as usize],
        }
    }

    /// Adds `id` under `key`; `true` if it was new.
    fn insert(&mut self, index: &mut HashMap<u32, Slot>, key: u32, id: SubscriberId) -> bool {
        match index.entry(key) {
            Entry::Vacant(v) => {
                v.insert(Slot::One(id));
                true
            }
            Entry::Occupied(mut o) => match *o.get() {
                Slot::One(held) if held == id => false,
                Slot::One(held) => {
                    *o.get_mut() = Slot::Many(self.alloc(held, id));
                    true
                }
                Slot::Many(ix) => sorted_insert(&mut self.sets[ix as usize], id),
            },
        }
    }

    /// Removes `id` from `key`'s slot; `true` if it was there.
    fn remove(&mut self, index: &mut HashMap<u32, Slot>, key: u32, id: SubscriberId) -> bool {
        let Entry::Occupied(mut o) = index.entry(key) else { return false };
        match *o.get() {
            Slot::One(held) => {
                if held == id {
                    o.remove();
                }
                held == id
            }
            Slot::Many(ix) => self.remove_from_set(o.get_mut(), ix, id),
        }
    }

    /// Removes `id` from set `ix`, which `slot` names; a set left with
    /// one member moves back inline. `true` if `id` was there.
    fn remove_from_set(&mut self, slot: &mut Slot, ix: u32, id: SubscriberId) -> bool {
        let set = &mut self.sets[ix as usize];
        if !sorted_remove(set, id) {
            return false;
        }
        if let [last] = set[..] {
            *slot = Slot::One(last);
            self.release(ix);
        }
        true
    }

    /// Removes `id` from every slot of `index`, handing each key it
    /// held to `removed`; visits nothing once `held` keys are found.
    fn remove_everywhere(
        &mut self,
        index: &mut HashMap<u32, Slot>,
        id: SubscriberId,
        mut held: u32,
        mut removed: impl FnMut(u32),
    ) {
        index.retain(|&key, slot| {
            if held == 0 {
                return true;
            }
            let (found, keep) = match *slot {
                Slot::One(one) => (one == id, one != id),
                Slot::Many(ix) => (self.remove_from_set(slot, ix, id), true),
            };
            if found {
                held -= 1;
                removed(key);
            }
            keep
        });
        debug_assert_eq!(held, 0, "{id} held keys no index lists");
    }
}

/// How many filters of each kind one subscriber holds.
#[derive(Clone, Copy, Debug, Default)]
struct Held {
    streams: u32,
    sensors: u32,
    all: bool,
}

impl Held {
    fn is_empty(&self) -> bool {
        self.streams == 0 && self.sensors == 0 && !self.all
    }

    /// The count `filter`'s kind is tallied in, or `None` for `All`.
    fn count_of(&mut self, filter: TopicFilter) -> Option<&mut u32> {
        match filter {
            TopicFilter::Stream(_) => Some(&mut self.streams),
            TopicFilter::Sensor(_) => Some(&mut self.sensors),
            TopicFilter::All => None,
        }
    }
}

/// The sensor a `by_sensor` key names. Every key came from a
/// [`SensorId`], so it fits the 24 bits a stream id keeps for it.
fn sensor_of(key: u32) -> SensorId {
    StreamId::from_raw(key << 8).sensor()
}

/// The subscription table.
///
/// Each stream or sensor key maps to an 8-byte slot: its lone
/// subscriber inline, or the index of its ascending subscriber set in a
/// slab of sets whose freed entries are reused. So a key with one
/// subscriber costs a map bucket and no allocation, a lookup never
/// walks a tree, and every match set comes out in the deterministic
/// ascending-id order that dispatch relies on. There is no reverse
/// index: the table counts each subscriber's filters by kind, and a
/// departure walks only the indexes the subscriber holds keys in.
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
    by_stream: HashMap<u32, Slot>,
    by_sensor: HashMap<u32, Slot>,
    all: Vec<SubscriberId>,
    /// The sets of keys with two or more subscribers, both indexes'.
    slab: Slab,
    /// Every subscriber with at least one filter.
    held: IdMap<Held>,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a subscription. Returns `true` if it was new.
    pub fn subscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        let inserted = match filter {
            TopicFilter::Stream(s) => self.slab.insert(&mut self.by_stream, s.to_raw(), subscriber),
            TopicFilter::Sensor(id) => {
                self.slab.insert(&mut self.by_sensor, id.as_u32(), subscriber)
            }
            TopicFilter::All => sorted_insert(&mut self.all, subscriber),
        };
        if inserted {
            let held = self.held.entry(subscriber).or_default();
            match held.count_of(filter) {
                Some(n) => *n += 1,
                None => held.all = true,
            }
        }
        inserted
    }

    /// Removes one subscription. Returns `true` if it existed.
    pub(crate) fn unsubscribe(&mut self, subscriber: SubscriberId, filter: TopicFilter) -> bool {
        let removed = match filter {
            TopicFilter::Stream(s) => self.slab.remove(&mut self.by_stream, s.to_raw(), subscriber),
            TopicFilter::Sensor(id) => {
                self.slab.remove(&mut self.by_sensor, id.as_u32(), subscriber)
            }
            TopicFilter::All => sorted_remove(&mut self.all, subscriber),
        };
        if removed {
            if let Some(held) = self.held.get_mut(&subscriber) {
                match held.count_of(filter) {
                    Some(n) => *n -= 1,
                    None => held.all = false,
                }
                if held.is_empty() {
                    self.held.remove(&subscriber);
                }
            }
        }
        removed
    }

    /// Removes every subscription held by `subscriber` (consumer
    /// departure). Returns the filters removed, ascending. Walks the
    /// stream and the sensor index only if the subscriber holds a key
    /// there: an `All`-only subscriber touches neither map.
    pub(crate) fn unsubscribe_all(&mut self, subscriber: SubscriberId) -> Vec<TopicFilter> {
        let Some(held) = self.held.remove(&subscriber) else { return Vec::new() };
        let mut removed = Vec::new();
        if held.streams > 0 {
            self.slab.remove_everywhere(&mut self.by_stream, subscriber, held.streams, |key| {
                removed.push(TopicFilter::Stream(StreamId::from_raw(key)));
            });
        }
        if held.sensors > 0 {
            self.slab.remove_everywhere(&mut self.by_sensor, subscriber, held.sensors, |key| {
                removed.push(TopicFilter::Sensor(sensor_of(key)));
            });
        }
        if held.all {
            let was_there = sorted_remove(&mut self.all, subscriber);
            debug_assert!(was_there, "{subscriber} held All but the All set did not list it");
            removed.push(TopicFilter::All);
        }
        // The maps hand their keys over in hash order.
        removed.sort_unstable();
        removed
    }

    /// Calls `f` once per matching subscriber, deduplicated, in
    /// ascending id order — a 3-way merge over the sorted `all` /
    /// sensor / stream slices, allocating nothing.
    fn for_each_match(&self, stream: StreamId, mut f: impl FnMut(SubscriberId)) {
        let a = self.all.as_slice();
        let b = self
            .by_sensor
            .get(&stream.sensor().as_u32())
            .map(|slot| self.slab.members(slot))
            .unwrap_or_default();
        let c = self
            .by_stream
            .get(&stream.to_raw())
            .map(|slot| self.slab.members(slot))
            .unwrap_or_default();
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
    /// *unclaimed* and belongs to the Orphanage. A key is in an index
    /// only while it has a subscriber.
    pub(crate) fn is_unclaimed(&self, stream: StreamId) -> bool {
        self.all.is_empty()
            && !self.by_sensor.contains_key(&stream.sensor().as_u32())
            && !self.by_stream.contains_key(&stream.to_raw())
    }

    /// Number of distinct subscribers with at least one subscription.
    pub(crate) fn subscriber_count(&self) -> usize {
        self.held.len()
    }

    /// The filters `subscriber` currently holds, ascending, read off the
    /// forward indexes.
    #[cfg(test)]
    pub(crate) fn filters_of(&self, subscriber: SubscriberId) -> impl Iterator<Item = TopicFilter> {
        let holds = |slot: &Slot| self.slab.members(slot).binary_search(&subscriber).is_ok();
        let mut filters: Vec<TopicFilter> = self
            .by_stream
            .iter()
            .filter(|(_, slot)| holds(slot))
            .map(|(&key, _)| TopicFilter::Stream(StreamId::from_raw(key)))
            .chain(
                self.by_sensor
                    .iter()
                    .filter(|(_, slot)| holds(slot))
                    .map(|(&key, _)| TopicFilter::Sensor(sensor_of(key))),
            )
            .chain(self.all.binary_search(&subscriber).is_ok().then_some(TopicFilter::All))
            .collect();
        filters.sort_unstable();
        filters.into_iter()
    }

    /// Total number of live subscriptions, read off the forward indexes.
    #[cfg(test)]
    pub(crate) fn subscription_count(&self) -> usize {
        let keys = self.by_stream.values().chain(self.by_sensor.values());
        keys.map(|slot| self.slab.members(slot).len()).sum::<usize>() + self.all.len()
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
            return (self.rebuild(table, stream, None), false);
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
        (self.rebuild(table, stream, Some(slot)), true)
    }

    /// Builds `stream`'s match set from `table` and, given the stream's
    /// slot, files it there under the current generation and `All`
    /// count. Out of line and cold, so the route that inlines
    /// [`MatchCache::resolve`] carries the hit and nothing of how the
    /// table is stored.
    #[cold]
    #[inline(never)]
    fn rebuild(
        &mut self,
        table: &SubscriptionTable,
        stream: StreamId,
        slot: Option<&mut MatchSlot>,
    ) -> Arc<[SubscriberId]> {
        table.match_subscribers_into(stream, &mut self.scratch);
        let set: Arc<[SubscriberId]> = Arc::from(self.scratch.as_slice());
        if let Some(slot) = slot {
            slot.0 = Some(CacheEntry {
                generation: self.generation,
                valid_under: self.all_writes,
                set: Arc::clone(&set),
            });
        }
        set
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

    /// Checks the storage layout: every `Many` slot names a distinct
    /// set of two or more ascending subscribers, every other set is
    /// empty and free, and each subscriber's counts match the filters
    /// the forward indexes hold for it.
    pub(super) fn assert_layout(t: &SubscriptionTable) {
        let mut named = vec![false; t.slab.sets.len()];
        for slot in t.by_stream.values().chain(t.by_sensor.values()) {
            if let Slot::Many(ix) = *slot {
                let set = &t.slab.sets[ix as usize];
                assert!(set.len() >= 2, "set {ix} is {set:?}");
                assert!(set.windows(2).all(|w| w[0] < w[1]), "set {ix} is {set:?}");
                assert!(!std::mem::replace(&mut named[ix as usize], true), "set {ix} named twice");
            }
        }
        for &ix in &t.slab.free {
            assert!(t.slab.sets[ix as usize].is_empty(), "free set {ix} holds subscribers");
            assert!(!std::mem::replace(&mut named[ix as usize], true), "set {ix} free and in use");
        }
        assert!(named.iter().all(|&n| n), "a set is neither in use nor free");
        for (&sub, held) in &t.held {
            let filters: Vec<TopicFilter> = t.filters_of(sub).collect();
            let count = |kind: fn(&TopicFilter) -> bool| filters.iter().filter(|f| kind(f)).count();
            assert_eq!(held.streams as usize, count(|f| matches!(f, TopicFilter::Stream(_))));
            assert_eq!(held.sensors as usize, count(|f| matches!(f, TopicFilter::Sensor(_))));
            assert_eq!(held.all, filters.contains(&TopicFilter::All));
            assert!(!held.is_empty(), "{sub} is counted with no filter");
        }
    }

    #[test]
    fn a_key_moves_to_the_slab_and_back_and_its_set_is_reused() {
        let mut t = SubscriptionTable::new();
        let ids: Vec<SubscriberId> = (0..3).map(SubscriberId::new).collect();
        let sensor = TopicFilter::Sensor(SensorId::new(3).unwrap());
        t.subscribe(ids[2], sensor);
        assert!(matches!(t.by_sensor[&3], Slot::One(id) if id == ids[2]));
        t.subscribe(ids[0], sensor);
        t.subscribe(ids[1], sensor);
        assert!(matches!(t.by_sensor[&3], Slot::Many(0)));
        assert_eq!(t.match_subscribers(stream(3, 0)), ids);
        assert_layout(&t);
        t.unsubscribe(ids[1], sensor);
        t.unsubscribe(ids[0], sensor);
        assert!(matches!(t.by_sensor[&3], Slot::One(id) if id == ids[2]), "back inline");
        assert_eq!(t.slab.free, vec![0]);
        assert_layout(&t);
        // A second key that outgrows its slot takes the freed set.
        let hot = TopicFilter::Stream(stream(4, 0));
        t.subscribe(ids[1], hot);
        t.subscribe(ids[0], hot);
        assert!(matches!(t.by_stream[&stream(4, 0).to_raw()], Slot::Many(0)));
        assert_eq!((t.slab.sets.len(), t.slab.free.len()), (1, 0));
        assert_eq!(t.match_subscribers(stream(4, 0)), ids[..2]);
        assert_layout(&t);
        // A departure holding all three kinds leaves the others' keys.
        t.subscribe(ids[0], sensor);
        t.subscribe(ids[0], TopicFilter::All);
        let gone = t.unsubscribe_all(ids[0]);
        assert_eq!(gone, vec![hot, sensor, TopicFilter::All]);
        assert_eq!(t.match_subscribers(stream(4, 0)), vec![ids[1]]);
        assert_eq!(t.match_subscribers(stream(3, 0)), vec![ids[2]]);
        assert_eq!((t.slab.sets.len(), t.slab.free.len()), (2, 2), "both sets freed");
        assert_layout(&t);
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
    use std::collections::{BTreeMap, BTreeSet};

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

        /// Under arbitrary mutation sequences the table's observable
        /// state equals a naive model's, and its storage stays well
        /// formed. Half the filters fall on four hot streams and two hot
        /// sensors, so keys move to the slab and back, freed sets are
        /// taken again, and departures hold all three filter kinds.
        #[test]
        fn table_equals_a_naive_model(
            ops in proptest::collection::vec(
                (
                    prop_oneof![Just(0u8), Just(1), Just(2)],
                    0u32..15,
                    prop_oneof![arb_filter(50, 4), arb_filter(2, 2)],
                ),
                0..120,
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
                        prop_assert_eq!(t.unsubscribe_all(sub), Vec::from_iter(removed));
                    }
                }
                super::tests::assert_layout(&t);
            }
            // Per-subscriber counts and filters ≡ model.
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
