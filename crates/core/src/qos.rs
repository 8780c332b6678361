//! Per-consumer QoS scheduling: priority classes, bounded admission of
//! radio frames, and subscription-keyed delivery coalescing.
//!
//! This module is the one owner of admission policy: what is shed, what
//! is coalesced and what waits is decided here, at the facade boundary,
//! and the router behind it is an unbounded intake. Three pieces:
//!
//! * [`PriorityClass`] — every [`ServiceEvent`] belongs to exactly one
//!   of Control, Actuation or Data and is counted in that class's ledger
//!   where it enters the facade, then goes straight to the router. Only
//!   radio frames are ever governed by an overload policy.
//! * [`QosScheduler`] — one bounded queue of radio frames *in front of*
//!   the engine, under the configured [`OverloadPolicy`] (shed-oldest,
//!   per-stream newest-wins coalescing, or block); the survivors release
//!   as one batch. A frame's header is read once, when it is offered:
//!   its stream id goes into a dense array of keys and its sequence
//!   number beside it, so coalescing costs one pass over at most
//!   `capacity` stream keys and never re-parses a staged frame. The
//!   policy runs entirely above the router, which never drops a frame
//!   itself, and the facade releases every offer within the call that
//!   made it, so nothing is staged when a call returns.
//!
//!   A frame that fails its CRC is nobody's copy: at a collision it
//!   never takes a slot and never marks one, and an intact frame always
//!   takes a slot whose frame is corrupt. Each frame's CRC verdict is
//!   cached beside it the first time a collision needs it, so no frame
//!   is checked twice here.
//!
//!   Coalescing also tells the filtering stage what it dropped. When an
//!   intact frame loses to a newer intact one of its stream, its
//!   sequence number joins the surviving slot's *forgone window* — a
//!   64-bit mask of sequence numbers below the survivor — and a newer
//!   frame that later takes the slot inherits the window. After the
//!   survivors are filtered, each non-empty window goes to the
//!   filtering stage, which then does not wait for those sequence
//!   numbers to fill a gap (`FilteringService::forgo`). A frame
//!   dropped by shed-oldest leaves no slot behind to carry its sequence
//!   number, so the stream still waits for it, as for a frame lost in
//!   the air.
//! * [`DeliverySchedule`] — coalescing keyed per **consumer
//!   subscription** (`SubscriberId` × stream), not per stream: a slow
//!   consumer's in-window duplicates collapse in its own queue without
//!   touching a fast consumer's delivery sequence.
//!
//! Every class keeps the exact ledger `offered == shed + delivered`
//! (Control and Actuation trivially so — their shed is always zero),
//! and each dropped frame passes through exactly one terminal
//! accounting point, so a frame that is first coalesced into a
//! survivor and later shed is counted once, not twice.

use std::collections::{BTreeMap, VecDeque};

use garnet_simkit::{Histogram, SimTime};
use garnet_wire::{frame_is_intact, peek_seq, peek_stream, SequenceNumber, StreamId};

use crate::dispatching::pubsub::{IdMap, SubscriberId};
use crate::filtering::Delivery;
use crate::router::{OverloadConfig, OverloadPolicy, Router};
use crate::service::{BatchedFrame, ServiceEvent};

/// The ledger class of a [`ServiceEvent`]. Only
/// [`PriorityClass::Data`] is ever shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Graph-keeping events: reorder flushes, orphanage hand-offs,
    /// location observations and hints, coordinator state reports.
    /// Losing one corrupts bookkeeping, so they are never dropped.
    Control,
    /// The actuation chain: requests, mediation submits, replication,
    /// acks and retry ticks. Losing one strands a sensor command.
    Actuation,
    /// The data plane: radio frames (offered as [`BatchedFrame`]s, not
    /// events) and filtered deliveries — the only class an overload
    /// policy may shed or coalesce.
    Data,
}

impl PriorityClass {
    /// All classes, in ledger (report) order.
    pub const ALL: [PriorityClass; 3] =
        [PriorityClass::Control, PriorityClass::Actuation, PriorityClass::Data];

    /// The class an event is counted under.
    pub(crate) fn of(ev: &ServiceEvent) -> PriorityClass {
        match ev {
            ServiceEvent::Filtered { .. } => PriorityClass::Data,
            ServiceEvent::ActuationRequested { .. }
            | ServiceEvent::Submit { .. }
            | ServiceEvent::Replicate { .. }
            | ServiceEvent::AckReceived { .. }
            | ServiceEvent::ActuationTick => PriorityClass::Actuation,
            ServiceEvent::FlushReorder
            | ServiceEvent::Orphaned { .. }
            | ServiceEvent::Observed { .. }
            | ServiceEvent::Hint { .. }
            | ServiceEvent::StateReported { .. } => PriorityClass::Control,
        }
    }

    /// Stable metric-name segment (`qos.<name>.offered` …).
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Control => "control",
            PriorityClass::Actuation => "actuation",
            PriorityClass::Data => "data",
        }
    }

    /// Dense index for per-class arrays, in [`PriorityClass::ALL`]
    /// order.
    pub(crate) fn index(self) -> usize {
        match self {
            PriorityClass::Control => 0,
            PriorityClass::Actuation => 1,
            PriorityClass::Data => 2,
        }
    }
}

/// The facade's scheduling mode. One value: admission, classing and
/// per-consumer delivery always run through [`QosScheduler`] /
/// [`DeliverySchedule`]. The type is accepted for the benchmark's call
/// site, which names [`QosMode::Scheduled`], and has no effect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QosMode {
    /// The only mode.
    #[default]
    Scheduled,
}

/// QoS tuning. The admission scheduler only activates when the facade
/// also has an [`OverloadConfig`], whose capacity bounds it — an
/// unbounded intake has nothing to schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QosConfig {
    /// Accepted for the benchmark's call site; has no effect.
    pub mode: QosMode,
    /// Accepted for the benchmark's call site; has no effect.
    pub data_floor: Option<usize>,
    /// Accepted for the benchmark's call site; has no effect.
    pub data_ceiling: Option<usize>,
    /// Bound on each rate-limited consumer's staged delivery queue
    /// (oldest staged delivery is shed at overflow, after per-stream
    /// coalescing has had its chance). 0 is treated as 1.
    pub consumer_queue_capacity: usize,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            mode: QosMode::default(),
            data_floor: None,
            data_ceiling: None,
            consumer_queue_capacity: 64,
        }
    }
}

/// One four-field ledger: a QoS class's, the delivery plane's, or the
/// facade's radio-frame admission totals. At quiescence
/// `offered == shed + delivered`; for Control and Actuation, `shed`
/// and `coalesced` are zero by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassLedger {
    /// Items accepted into scheduling (for the admission totals: radio
    /// frames, everything except blocked attempts, which retry and
    /// count once on success).
    pub offered: u64,
    /// Items dropped by the overload policy (Data only).
    pub shed: u64,
    /// The subset of `shed` dropped in favour of a newer same-stream
    /// sequence.
    pub coalesced: u64,
    /// Items released onward (into the engine, or to a consumer).
    pub delivered: u64,
}

impl ClassLedger {
    /// `offered == shed + delivered` (the exact ledger).
    pub fn balanced(&self) -> bool {
        self.offered == self.shed + self.delivered
    }
}

/// Ledgers for all three classes, indexed by [`PriorityClass::index`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassLedgers(pub [ClassLedger; 3]);

impl ClassLedgers {
    /// The ledger of one class.
    pub fn class(&self, c: PriorityClass) -> &ClassLedger {
        &self.0[c.index()]
    }

    fn class_mut(&mut self, c: PriorityClass) -> &mut ClassLedger {
        &mut self.0[c.index()]
    }
}

/// What [`QosScheduler::release`] hands back. One variant, kept for the
/// benchmark's call site (`non_exhaustive` keeps its `if let` a
/// refutable match): the surviving data frames, for one
/// [`crate::router::Router::ingest`] call.
#[derive(Debug)]
#[non_exhaustive]
pub enum Release {
    /// The surviving data frames, in admission order, for
    /// [`crate::router::Router::ingest`].
    Frames(Vec<BatchedFrame>),
}

/// What [`QosScheduler::offer_frame`] did with a data frame.
#[derive(Debug)]
pub enum FrameOffer {
    /// Staged below capacity.
    Staged,
    /// Staged after the oldest staged frame — carried here, on its way
    /// out — was shed.
    StagedAfterShed(BatchedFrame),
    /// Resolved against a staged frame of the same stream: the newer
    /// sequence survives, and the loser (staged or arriving) is carried
    /// here, on its way out.
    Coalesced(BatchedFrame),
    /// Queue at capacity under [`OverloadPolicy::Block`]: release the
    /// staged frames into the engine, pump it dry, then re-offer.
    /// Nothing is counted for a blocked attempt.
    Blocked(BatchedFrame),
}

/// A frame in the bounded queue, beside its sequence number — read
/// once, when the frame was offered — its CRC verdict once a collision
/// has needed it, and its forgone window. The frame's stream id lives in
/// the queue's dense key array.
#[derive(Debug)]
struct Staged {
    /// `None` for a runt too short to carry a sequence number.
    seq: Option<SequenceNumber>,
    /// Whether the frame passes its CRC; `None` until a collision asks.
    intact: Option<bool>,
    /// Sequence numbers coalescing dropped in this slot's favour, each
    /// from an intact frame: bit `i` stands for `seq - 1 - i`. Zero
    /// when `seq` is `None`.
    forgone: u64,
    frame: BatchedFrame,
}

impl Staged {
    /// Reads the frame's coalescing keys, its stream id (for the dense
    /// key array) and its sequence number: the one place the queue
    /// looks at a frame's header.
    fn new(frame: BatchedFrame) -> (Option<StreamId>, Self) {
        let stream = peek_stream(&frame.frame);
        (stream, Staged { seq: peek_seq(&frame.frame), intact: None, forgone: 0, frame })
    }

    /// Whether the frame passes its CRC, checked on the first call only.
    fn intact(&mut self) -> bool {
        *self.intact.get_or_insert_with(|| frame_is_intact(&self.frame.frame))
    }

    /// Resolves `arriving`, a frame of this slot's stream, against the
    /// slot, and hands back the loser. A corrupt arrival always loses
    /// and marks nothing; an intact one takes a corrupt slot. Between
    /// two intact frames the wraparound-aware newer sequence keeps the
    /// slot, in place; the older joins the survivor's forgone window,
    /// which a new survivor inherits, shifted to its own sequence
    /// number.
    fn resolve(&mut self, mut arriving: Staged) -> BatchedFrame {
        if !arriving.intact() {
            return arriving.frame;
        }
        if !self.intact() {
            // Only an intact survivor is ever given a window, so a
            // corrupt slot (a runt included) has none to hand on.
            debug_assert_eq!(self.forgone, 0, "a corrupt slot holds a forgone window");
            return std::mem::replace(self, arriving).frame;
        }
        match (arriving.seq, self.seq) {
            (Some(a), Some(q)) if a.is_after(q) => {
                let d = u32::from(q.distance_to(a).unsigned_abs());
                let kept = self.forgone.checked_shl(d).unwrap_or(0);
                let lost = 1u64.checked_shl(d - 1).unwrap_or(0);
                let loser = std::mem::replace(self, arriving);
                self.forgone = kept | lost;
                loser.frame
            }
            (Some(a), Some(q)) => {
                let d = u32::from(a.distance_to(q).unsigned_abs());
                if d > 0 {
                    self.forgone |= 1u64.checked_shl(d - 1).unwrap_or(0);
                }
                arriving.frame
            }
            // Both intact, so both carry a sequence number.
            _ => arriving.frame,
        }
    }
}

/// A release's one forgone window: `below`'s bit `i` stands for
/// `seq - 1 - i` on `stream`.
#[derive(Debug)]
struct Window {
    stream: StreamId,
    seq: SequenceNumber,
    below: u64,
}

/// The facade-boundary admission scheduler: one bounded,
/// policy-governed queue of radio frames, plus the per-class ledgers.
#[derive(Debug)]
pub struct QosScheduler {
    policy: OverloadPolicy,
    /// The queue's bound, `OverloadConfig::capacity` (0 treated as 1).
    capacity: usize,
    /// Each staged frame's stream id (`None` for a runt too short to
    /// carry one), in step with `data`: the coalescing scan reads these
    /// dense keys, not the staged entries.
    keys: VecDeque<Option<StreamId>>,
    data: VecDeque<Staged>,
    /// The non-empty forgone windows of the release in progress, kept
    /// between calls so that a release allocates nothing.
    windows: Vec<Window>,
    ledgers: ClassLedgers,
    /// Derived republications counted in the Data ledger (offered and
    /// delivered at once), left out of [`QosScheduler::totals`].
    republished: u64,
    peak_depth: u64,
    depth_hist: Histogram,
}

impl QosScheduler {
    /// Builds a scheduler enforcing `overload`'s policy and capacity at
    /// the facade boundary. `_qos` is accepted for the benchmark's call
    /// site; none of its fields bounds admission.
    pub fn new(overload: OverloadConfig, _qos: &QosConfig) -> Self {
        QosScheduler {
            policy: overload.policy,
            capacity: overload.capacity.max(1),
            keys: VecDeque::new(),
            data: VecDeque::new(),
            windows: Vec::new(),
            ledgers: ClassLedgers::default(),
            republished: 0,
            peak_depth: 0,
            depth_hist: Histogram::new(),
        }
    }

    /// Counts an event entering the facade as offered and delivered in
    /// its class ledger: events are never staged or shed. A Data-class
    /// event (a derived `Filtered` republication) counts in the Data
    /// ledger (`qos.data.*`), not in [`QosScheduler::totals`]: the
    /// overload policy governs radio frames, not deliveries already
    /// paid for.
    pub(crate) fn note_event(&mut self, ev: &ServiceEvent) {
        let class = PriorityClass::of(ev);
        let ledger = self.ledgers.class_mut(class);
        ledger.offered += 1;
        ledger.delivered += 1;
        if class == PriorityClass::Data {
            self.republished += 1;
        }
    }

    /// Offers one radio frame to the bounded queue under the configured
    /// policy: shed-oldest, per-stream newest-wins coalescing with
    /// replace in place, or blocked hand-back. Every offer is released
    /// within the facade call that made it, so `_now` is accepted for
    /// the benchmark's call site and has no effect.
    pub fn offer_frame(&mut self, frame: BatchedFrame, _now: SimTime) -> FrameOffer {
        if self.data.len() < self.capacity {
            self.note_offered(Staged::new(frame));
            return FrameOffer::Staged;
        }
        match self.policy {
            OverloadPolicy::Block => FrameOffer::Blocked(frame),
            OverloadPolicy::Shed => self.shed_oldest_for(Staged::new(frame)),
            OverloadPolicy::CoalesceFrames => self.coalesce(Staged::new(frame)),
        }
    }

    /// Counts and stages an accepted frame, sampling the queue depth.
    fn note_offered(&mut self, (stream, staged): (Option<StreamId>, Staged)) {
        self.ledgers.class_mut(PriorityClass::Data).offered += 1;
        self.keys.push_back(stream);
        self.data.push_back(staged);
        let depth = self.data.len() as u64;
        self.peak_depth = self.peak_depth.max(depth);
        self.depth_hist.record(depth);
    }

    /// The single terminal accounting point for a dropped data frame:
    /// every drop — shed-oldest, coalesce victim, either branch —
    /// passes through here exactly once, so a frame that was first a
    /// coalesce survivor and is later shed still counts once.
    fn note_dropped(&mut self, coalesced: bool) {
        let ledger = self.ledgers.class_mut(PriorityClass::Data);
        ledger.shed += 1;
        if coalesced {
            ledger.coalesced += 1;
        }
        debug_assert!(
            ledger.offered >= ledger.shed + ledger.delivered,
            "data ledger overdrawn: {ledger:?}"
        );
    }

    /// At capacity (so the queue is non-empty): sheds the oldest staged
    /// frame, forgone window and all, and stages `arriving` in its
    /// stead.
    fn shed_oldest_for(&mut self, arriving: (Option<StreamId>, Staged)) -> FrameOffer {
        #[expect(clippy::expect_used, reason = "`new` clamps the capacity to at least 1")]
        let oldest = self.data.pop_front().expect("a queue at capacity holds a frame");
        self.keys.pop_front();
        self.note_dropped(false);
        self.note_offered(arriving);
        FrameOffer::StagedAfterShed(oldest.frame)
    }

    /// At capacity under `CoalesceFrames`: resolve against the first
    /// staged frame of the arriving frame's stream
    /// ([`Staged::resolve`]: newest wins, survivor keeps the staged
    /// position), falling back to shedding the oldest staged frame when
    /// the stream has nothing staged. The cost is one pass over at most
    /// `capacity` stream keys: no staged frame's bytes are read again.
    fn coalesce(&mut self, arriving: (Option<StreamId>, Staged)) -> FrameOffer {
        let same_stream = arriving.0.and_then(|s| self.keys.iter().position(|&k| k == Some(s)));
        let Some(idx) = same_stream else {
            return self.shed_oldest_for(arriving);
        };
        self.coalesce_at(idx, arriving.1)
    }

    /// Resolves `arriving` against the staged slot `idx` of its stream
    /// and counts the loser coalesced.
    fn coalesce_at(&mut self, idx: usize, arriving: Staged) -> FrameOffer {
        self.ledgers.class_mut(PriorityClass::Data).offered += 1;
        self.note_dropped(true);
        let loser = self.data[idx].resolve(arriving);
        let depth = self.data.len() as u64;
        self.peak_depth = self.peak_depth.max(depth);
        self.depth_hist.record(depth);
        FrameOffer::Coalesced(loser)
    }

    /// Hands back the surviving staged frames as one batch (nothing when
    /// none is staged) and counts them delivered. Their forgone windows
    /// are dropped: this is the release for a caller with no filtering
    /// stage to tell. `_now` is accepted for the benchmark's call site
    /// and has no effect.
    pub fn release(&mut self, _now: SimTime) -> Vec<Release> {
        if self.data.is_empty() {
            return Vec::new();
        }
        self.ledgers.class_mut(PriorityClass::Data).delivered += self.data.len() as u64;
        self.keys.clear();
        vec![Release::Frames(self.data.drain(..).map(|s| s.frame).collect())]
    }

    /// Hands the surviving staged frames to `router` as one burst
    /// ([`Router::ingest`]), counts them delivered, then tells its
    /// filtering stage each non-empty forgone window ([`Router::forgo`]),
    /// in release order. Allocates nothing once the window buffer has
    /// grown to a release's size.
    pub(crate) fn release_to(&mut self, router: &mut Router, now: SimTime) {
        if self.data.is_empty() {
            return;
        }
        self.ledgers.class_mut(PriorityClass::Data).delivered += self.data.len() as u64;
        let windows = &mut self.windows;
        let survivors = self.keys.drain(..).zip(self.data.drain(..)).map(|(stream, staged)| {
            if let (Some(stream), Some(seq), below @ 1..) = (stream, staged.seq, staged.forgone) {
                windows.push(Window { stream, seq, below });
            }
            staged.frame
        });
        router.ingest(survivors, now);
        for Window { stream, seq, below } in self.windows.drain(..) {
            router.forgo(stream, seq, below, now);
        }
    }

    /// Whether no frame is staged — true whenever a facade call returns.
    pub(crate) fn is_drained(&self) -> bool {
        self.data.is_empty() && self.keys.is_empty() && self.windows.is_empty()
    }

    /// The radio-frame ledger (what the `overload.*` metrics report when
    /// the scheduler governs admission): the Data class ledger less the
    /// derived republications counted there as they entered the facade.
    pub(crate) fn totals(&self) -> ClassLedger {
        let d = self.ledgers.class(PriorityClass::Data);
        ClassLedger {
            offered: d.offered - self.republished,
            delivered: d.delivered - self.republished,
            ..*d
        }
    }

    /// All three class ledgers.
    pub(crate) fn ledgers(&self) -> &ClassLedgers {
        &self.ledgers
    }

    /// High-water mark of the staged queue.
    pub(crate) fn peak_depth(&self) -> u64 {
        self.peak_depth
    }

    /// p99 of queue-depth-at-offer samples.
    pub(crate) fn depth_p99(&self) -> u64 {
        self.depth_hist.p99()
    }
}

/// The implementation that re-read every staged frame's header on each
/// coalesce, kept as the oracle the stored keys are tested against. It
/// stages through [`Staged::new`] but never trusts a stored key.
#[cfg(test)]
impl QosScheduler {
    /// `offer_frame` with `coalesce` replaced by [`Self::coalesce_scan`].
    fn offer_frame_scan(&mut self, frame: BatchedFrame) -> FrameOffer {
        if self.data.len() < self.capacity {
            self.note_offered(Staged::new(frame));
            return FrameOffer::Staged;
        }
        match self.policy {
            OverloadPolicy::Block => FrameOffer::Blocked(frame),
            OverloadPolicy::Shed => self.shed_oldest_for(Staged::new(frame)),
            OverloadPolicy::CoalesceFrames => self.coalesce_scan(frame),
        }
    }

    /// `coalesce`, peeking the arriving frame and every staged frame it
    /// passes instead of reading the key array, and re-reading the
    /// matched slot's sequence number, and forgetting its cached CRC
    /// verdict, before resolving against it.
    fn coalesce_scan(&mut self, frame: BatchedFrame) -> FrameOffer {
        let stream = peek_stream(&frame.frame);
        let same_stream = stream
            .and_then(|s| self.data.iter().position(|q| peek_stream(&q.frame.frame) == Some(s)));
        let Some(idx) = same_stream else {
            return self.shed_oldest_for(Staged::new(frame));
        };
        self.data[idx].seq = peek_seq(&self.data[idx].frame.frame);
        self.data[idx].intact = None;
        self.coalesce_at(idx, Staged::new(frame).1)
    }

    /// Every staged slot's stream, sequence number and forgone window,
    /// in queue order.
    fn windows(&self) -> Vec<(Option<StreamId>, Option<SequenceNumber>, u64)> {
        self.keys.iter().zip(&self.data).map(|(&k, s)| (k, s.seq, s.forgone)).collect()
    }
}

/// Per-consumer delivery scheduling: coalescing keyed by
/// (`SubscriberId` × stream). Consumers without a drain limit are
/// untouched — their deliveries never enter this structure's queues —
/// so enabling QoS changes nothing until a consumer is actually
/// declared slow.
#[derive(Debug, Default)]
pub struct DeliverySchedule {
    /// Per-consumer staged-queue bound (from
    /// [`QosConfig::consumer_queue_capacity`]).
    capacity: usize,
    /// Max deliveries drained per facade call, per limited consumer.
    limits: IdMap<usize>,
    /// Staged deliveries per limited consumer, oldest first. BTreeMap:
    /// drain order is deterministic across runs.
    queues: BTreeMap<SubscriberId, VecDeque<(Delivery, u32)>>,
    /// The sum of every queue's length, kept as the queues change.
    backlog: u64,
    ledger: ClassLedger,
    peak_backlog: u64,
}

impl DeliverySchedule {
    /// An empty schedule whose per-consumer queues hold at most
    /// `capacity` staged deliveries (0 treated as 1).
    pub fn new(capacity: usize) -> Self {
        DeliverySchedule { capacity: capacity.max(1), ..Default::default() }
    }

    /// Declares `id` a slow consumer draining at most `limit`
    /// deliveries per facade call (`None` removes the limit; its
    /// backlog flushes on the next drain).
    pub fn set_limit(&mut self, id: SubscriberId, limit: Option<usize>) {
        match limit {
            Some(l) => {
                self.limits.insert(id, l.max(1));
            }
            None => {
                self.limits.remove(&id);
            }
        }
    }

    /// Forgets a departing consumer: removes its drain limit and counts
    /// whatever was still staged for it as shed — nobody is left to
    /// receive it.
    pub(crate) fn forget(&mut self, id: SubscriberId) {
        self.limits.remove(&id);
        if let Some(queue) = self.queues.remove(&id) {
            self.ledger.shed += queue.len() as u64;
            self.backlog -= queue.len() as u64;
        }
    }

    /// Whether `id` currently has a drain limit. The facade keeps each
    /// consumer's limit in its own entry too, and reads that one on the
    /// delivery path.
    pub(crate) fn is_limited(&self, id: SubscriberId) -> bool {
        self.limits.contains_key(&id)
    }

    /// Every consumer this schedule holds something for: each id with a
    /// drain limit, then each id with a staged queue (an id with both
    /// appears twice).
    pub(crate) fn consumers(&self) -> impl Iterator<Item = SubscriberId> + '_ {
        self.limits.keys().chain(self.queues.keys()).copied()
    }

    /// Offers a delivery to `id`. Unlimited consumers get it straight
    /// back (`Some`) for immediate delivery; limited consumers stage it
    /// (`None`), coalescing against a staged delivery of the same
    /// stream (newest sequence wins, survivor keeps its queue position)
    /// and shedding the oldest staged delivery at overflow.
    pub fn offer(
        &mut self,
        id: SubscriberId,
        delivery: Delivery,
        depth: u32,
    ) -> Option<(Delivery, u32)> {
        if !self.limits.contains_key(&id) {
            return Some((delivery, depth));
        }
        self.stage(id, delivery, depth);
        None
    }

    /// Stages a delivery for `id`, a consumer with a drain limit (the
    /// caller knows it has one): [`DeliverySchedule::offer`] without the
    /// lookup.
    pub(crate) fn stage(&mut self, id: SubscriberId, delivery: Delivery, depth: u32) {
        debug_assert!(self.limits.contains_key(&id), "{id} has no drain limit");
        self.ledger.offered += 1;
        let queue = self.queues.entry(id).or_default();
        let stream = delivery.msg.stream();
        if let Some(idx) = queue.iter().position(|(d, _)| d.msg.stream() == stream) {
            // Per-subscription coalescing: this consumer is behind on
            // this stream, so only the newest sequence is worth keeping
            // — other consumers' queues are not consulted.
            if delivery.msg.seq().is_after(queue[idx].0.msg.seq()) {
                queue[idx] = (delivery, depth);
            }
            self.ledger.shed += 1;
            self.ledger.coalesced += 1;
            return;
        }
        if queue.len() >= self.capacity {
            queue.pop_front();
            self.ledger.shed += 1;
        } else {
            self.backlog += 1;
        }
        queue.push_back((delivery, depth));
        self.peak_backlog = self.peak_backlog.max(self.backlog());
    }

    /// Drains each consumer's staged queue up to its limit (all of it
    /// for consumers whose limit was removed), in subscriber-id order.
    /// Call once per facade entry point.
    pub fn drain(&mut self) -> Vec<(SubscriberId, Delivery, u32)> {
        let mut due = Vec::new();
        for (&id, queue) in &mut self.queues {
            let take = self.limits.get(&id).copied().unwrap_or(usize::MAX).min(queue.len());
            self.backlog -= take as u64;
            self.ledger.delivered += take as u64;
            due.extend(queue.drain(..take).map(|(delivery, depth)| (id, delivery, depth)));
        }
        self.queues.retain(|_, q| !q.is_empty());
        due
    }

    /// Drains everything regardless of limits (shutdown: nothing may be
    /// stranded, so the ledger closes balanced).
    pub fn drain_all(&mut self) -> Vec<(SubscriberId, Delivery, u32)> {
        self.limits.clear();
        self.drain()
    }

    /// Deliveries currently staged across all consumers.
    pub(crate) fn backlog(&self) -> u64 {
        debug_assert_eq!(
            self.backlog,
            self.queues.values().map(|q| q.len() as u64).sum::<u64>(),
            "running backlog drifted from the staged queues"
        );
        self.backlog
    }

    /// High-water mark of the total staged backlog.
    pub(crate) fn peak_backlog(&self) -> u64 {
        self.peak_backlog
    }

    /// The delivery-plane ledger. Balanced as
    /// `offered == shed + delivered + backlog` mid-flight and
    /// `offered == shed + delivered` once drained.
    pub(crate) fn ledger(&self) -> &ClassLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_simkit::ReceiverId;
    use garnet_wire::{DataMessage, FrameBytes, SensorId, SequenceNumber, StreamId, StreamIndex};

    fn frame_bytes(sensor: u32, idx: u8, seq: u16) -> FrameBytes {
        let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(idx));
        DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![7])
            .build()
            .unwrap()
            .encode_to_vec()
            .into()
    }

    fn batched(sensor: u32, idx: u8, seq: u16) -> BatchedFrame {
        BatchedFrame {
            receiver: ReceiverId::new(0),
            rssi_dbm: -50.0,
            frame: frame_bytes(sensor, idx, seq),
        }
    }

    fn sched(policy: OverloadPolicy, capacity: usize) -> QosScheduler {
        QosScheduler::new(OverloadConfig { capacity, policy }, &QosConfig::default())
    }

    #[test]
    fn classes_cover_every_event_and_order_strictly() {
        assert!(PriorityClass::Control < PriorityClass::Actuation);
        assert!(PriorityClass::Actuation < PriorityClass::Data);
        assert_eq!(PriorityClass::of(&ServiceEvent::FlushReorder), PriorityClass::Control);
        assert_eq!(PriorityClass::of(&ServiceEvent::ActuationTick), PriorityClass::Actuation);
    }

    #[test]
    fn shed_keeps_newest_and_balances() {
        let mut s = sched(OverloadPolicy::Shed, 2);
        let t = SimTime::ZERO;
        for seq in 0..5u16 {
            s.offer_frame(batched(1, 0, seq), t);
        }
        let plan = s.release(t);
        let Release::Frames(frames) = &plan[0];
        let seqs: Vec<u16> = frames.iter().map(|f| peek_seq(&f.frame).unwrap().as_u16()).collect();
        assert_eq!(seqs, vec![3, 4]);
        let d = s.ledgers().class(PriorityClass::Data);
        assert_eq!((d.offered, d.shed, d.delivered), (5, 3, 2));
    }

    #[test]
    fn coalesce_then_shed_counts_the_survivor_once() {
        // A coalesce survivor that is later shed must appear in the
        // ledger exactly once: offered at arrival, shed at its single
        // terminal, never both coalesced-away and shed.
        let mut s = sched(OverloadPolicy::CoalesceFrames, 2);
        let t = SimTime::ZERO;
        s.offer_frame(batched(1, 0, 0), t); // A0 staged
        s.offer_frame(batched(2, 0, 0), t); // B0 staged — tier full
                                            // A1 replaces A0 in place.
        assert!(matches!(s.offer_frame(batched(1, 0, 1), t), FrameOffer::Coalesced(_)));
        // Stream C has nothing staged: fall back to shedding the oldest
        // staged frame — which is A1, the coalesce survivor.
        assert!(matches!(s.offer_frame(batched(3, 0, 0), t), FrameOffer::StagedAfterShed(_)));
        s.release(t);
        let d = *s.ledgers().class(PriorityClass::Data);
        assert_eq!((d.offered, d.shed, d.coalesced, d.delivered), (4, 2, 1, 2));
        assert!(d.balanced());
    }

    /// `batched`, with its CRC trailer broken.
    fn corrupt(sensor: u32, idx: u8, seq: u16) -> BatchedFrame {
        let mut f = batched(sensor, idx, seq);
        let mut bytes = f.frame.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        f.frame = bytes.into();
        f
    }

    #[test]
    fn coalescing_records_each_intact_loser_below_its_survivor() {
        let mut s = sched(OverloadPolicy::CoalesceFrames, 2);
        let t = SimTime::ZERO;
        let window = |s: &QosScheduler| s.windows()[0].2;
        let survivor = |s: &QosScheduler| s.windows()[0].1.map(SequenceNumber::as_u16);
        s.offer_frame(batched(1, 0, 1), t);
        s.offer_frame(batched(2, 0, 0), t);
        s.offer_frame(batched(1, 0, 2), t); // 2 takes the slot; 1 is forgone
        assert_eq!(window(&s), 0b1);
        s.offer_frame(batched(1, 0, 4), t); // the window moves up to 4
        assert_eq!(window(&s), 0b110, "2 and 1 below 4");
        s.offer_frame(batched(1, 0, 3), t); // an older arrival loses
        assert_eq!(window(&s), 0b111);
        s.offer_frame(corrupt(1, 0, 0), t); // a corrupt loser marks nothing
        s.offer_frame(batched(1, 0, 4), t); // nor does a copy of the survivor
        assert_eq!(window(&s), 0b111);
        s.offer_frame(corrupt(1, 0, 6), t); // a corrupt newer frame never takes the slot
        assert_eq!((survivor(&s), window(&s)), (Some(4), 0b111));
        s.offer_frame(batched(1, 0, 7), t); // the intact 4 is forgone below 7
        assert_eq!((survivor(&s), window(&s)), (Some(7), 0b111 << 3 | 0b100));
        s.offer_frame(batched(1, 0, 7 + 64), t); // 7 is the window's last bit
        assert_eq!(window(&s), 1 << 63);
        s.offer_frame(batched(1, 0, 7 + 64 + 65), t); // more than 64 below: none
        assert_eq!(window(&s), 0);
        s.offer_frame(batched(1, 0, 7 + 64 + 66), t);
        assert_eq!(window(&s), 0b1);
        let keys: Vec<_> = s.windows().into_iter().map(|(k, seq, _)| (k, seq)).collect();
        assert_eq!(keys[1], (peek_stream(&frame_bytes(2, 0, 0)), Some(SequenceNumber::new(0))));
        // Shed-oldest takes the slot's window with it.
        s.offer_frame(batched(3, 0, 0), t);
        assert!(s.windows().iter().all(|&(_, _, w)| w == 0));
    }

    #[test]
    fn an_intact_frame_takes_a_corrupt_slot_whatever_its_sequence() {
        // Below capacity nothing is checked, so a corrupt frame can hold
        // a slot; the first intact frame of its stream to collide with
        // it takes the slot and the corrupt one is the loser.
        for (staged, arriving) in [(5, 5), (5, 3), (5, 9)] {
            let mut s = sched(OverloadPolicy::CoalesceFrames, 1);
            let t = SimTime::ZERO;
            s.offer_frame(corrupt(1, 0, staged), t);
            let FrameOffer::Coalesced(loser) = s.offer_frame(batched(1, 0, arriving), t) else {
                panic!("a same-stream arrival at capacity coalesces");
            };
            assert!(!frame_is_intact(&loser.frame), "{staged} / {arriving}");
            let windows = s.windows();
            assert_eq!(windows[0].1, Some(SequenceNumber::new(arriving)));
            assert_eq!(windows[0].2, 0, "the corrupt frame is forgone nowhere");
            // Now intact, the slot holds against a corrupt copy of any
            // sequence number, its own included.
            for seq in [arriving, arriving + 1] {
                let FrameOffer::Coalesced(loser) = s.offer_frame(corrupt(1, 0, seq), t) else {
                    panic!("a same-stream arrival at capacity coalesces");
                };
                assert!(!frame_is_intact(&loser.frame));
            }
            let d = *s.ledgers().class(PriorityClass::Data);
            assert_eq!((d.offered, d.coalesced), (4, 3));
            let Some(Release::Frames(frames)) = s.release(t).pop() else {
                panic!("one survivor is staged");
            };
            assert_eq!(frames.len(), 1);
            assert!(frame_is_intact(&frames[0].frame));
            assert_eq!(peek_seq(&frames[0].frame), Some(SequenceNumber::new(arriving)));
        }
    }

    fn delivery(sensor: u32, idx: u8, seq: u16) -> Delivery {
        let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(idx));
        let msg = DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![1])
            .build()
            .unwrap();
        Delivery { msg, first_received_at: SimTime::ZERO, delivered_at: SimTime::ZERO }
    }

    #[test]
    fn slow_consumer_coalesces_without_touching_fast() {
        let mut d = DeliverySchedule::new(8);
        let fast = SubscriberId::new(1);
        let slow = SubscriberId::new(2);
        d.set_limit(slow, Some(1));
        // Fast consumer: pass-through, never staged.
        assert!(d.offer(fast, delivery(1, 0, 0), 0).is_some());
        // Slow consumer: five same-stream deliveries collapse to the
        // newest…
        for seq in 0..5u16 {
            assert!(d.offer(slow, delivery(1, 0, seq), 0).is_none());
        }
        // …plus one on another stream, untouched.
        assert!(d.offer(slow, delivery(2, 0, 9), 0).is_none());
        assert_eq!(d.backlog(), 2);
        let first = d.drain();
        assert_eq!(first.len(), 1, "limit 1 drains one delivery per call");
        assert_eq!(first[0].1.msg.seq().as_u16(), 4, "newest sequence survived");
        let rest = d.drain_all();
        assert_eq!(rest.len(), 1);
        let l = d.ledger();
        assert_eq!(l.offered, l.shed + l.delivered, "{l:?}");
        assert_eq!(l.coalesced, 4);
    }

    #[test]
    fn overflow_sheds_oldest_staged_delivery() {
        let mut d = DeliverySchedule::new(2);
        let slow = SubscriberId::new(5);
        d.set_limit(slow, Some(1));
        for sensor in 1..=3u32 {
            d.offer(slow, delivery(sensor, 0, 0), 0);
        }
        assert_eq!(d.backlog(), 2);
        assert_eq!(d.ledger().shed, 1);
        let all = d.drain_all();
        let sensors: Vec<u32> =
            all.iter().map(|(_, dl, _)| dl.msg.stream().sensor().as_u32()).collect();
        assert_eq!(sensors, vec![2, 3], "sensor 1's delivery was the oldest, shed");
        assert!(d.ledger().balanced());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use garnet_simkit::ReceiverId;
    use garnet_wire::{DataMessage, SensorId, StreamIndex};
    use proptest::prelude::*;

    /// Sequence numbers on both sides of the 16-bit wrap and of the
    /// half-range where RFC 1982 order turns over.
    const SEQS: [u16; 8] = [0, 1, 2, 0x7FFF, 0x8000, 0x8001, 0xFFFE, 0xFFFF];

    /// The `n`th op's frame: stream `stream` at `SEQS[seq]`, cut short
    /// by `cut` (a 2- or 4-byte runt has no stream id, a 5- or 6-byte one
    /// no sequence number). The receiver is `n`, so no two frames of a
    /// run print alike.
    fn frame_of(n: usize, stream: u8, seq: u8, cut: u8) -> BatchedFrame {
        let id = StreamId::new(SensorId::new(1 + u32::from(stream)).unwrap(), StreamIndex::new(0));
        let bytes = DataMessage::builder(id)
            .seq(SequenceNumber::new(SEQS[usize::from(seq)]))
            .build()
            .unwrap()
            .encode_to_vec();
        let len = [2, 4, 5, 6].get(usize::from(cut)).copied().unwrap_or(bytes.len());
        BatchedFrame {
            receiver: ReceiverId::new(n as u32),
            rssi_dbm: -50.0,
            frame: bytes[..len].to_vec().into(),
        }
    }

    /// A derived republication (Data class), a flush (Control) or a
    /// retry tick (Actuation).
    fn event_of(kind: u8, stream: u8, seq: u8) -> ServiceEvent {
        match kind {
            0 => {
                let sensor = SensorId::new(1 + u32::from(stream)).unwrap();
                let msg = DataMessage::builder(StreamId::new(sensor, StreamIndex::new(0)))
                    .seq(SequenceNumber::new(SEQS[usize::from(seq)]))
                    .build()
                    .unwrap();
                let delivery =
                    Delivery { msg, first_received_at: SimTime::ZERO, delivered_at: SimTime::ZERO };
                ServiceEvent::Filtered { delivery, depth: 1, row: None }
            }
            1 => ServiceEvent::FlushReorder,
            _ => ServiceEvent::ActuationTick,
        }
    }

    // The stored keys against the header re-reads they replaced: two
    // schedulers fed the same interleaving of frame offers, event counts
    // and releases — one coalescing on its keys, one re-parsing staged
    // bytes — must hand back the same frames, hold the same forgone
    // windows, release the same plans and keep the same books, under
    // every policy.
    proptest! {
        #[test]
        fn stored_keys_match_the_header_rescan(
            capacity in 1usize..=8,
            ops in proptest::collection::vec((0u8..16, 0u8..3, 0u8..8, 0u8..16), 1..200),
        ) {
            let t = SimTime::ZERO;
            for policy in
                [OverloadPolicy::Shed, OverloadPolicy::CoalesceFrames, OverloadPolicy::Block]
            {
                let config = OverloadConfig { capacity, policy };
                let mut keyed = QosScheduler::new(config, &QosConfig::default());
                let mut oracle = QosScheduler::new(config, &QosConfig::default());
                for (n, &(kind, stream, seq, cut)) in ops.iter().enumerate() {
                    // Debug text: the variant and every byte it carries.
                    let (a, b) = match kind {
                        0..=10 => {
                            let frame = || frame_of(n, stream, seq, cut);
                            let a = keyed.offer_frame(frame(), t);
                            let b = oracle.offer_frame_scan(frame());
                            (format!("{a:?}"), format!("{b:?}"))
                        }
                        11..=13 => {
                            keyed.note_event(&event_of(kind - 11, stream, seq));
                            oracle.note_event(&event_of(kind - 11, stream, seq));
                            continue;
                        }
                        _ => {
                            let (a, b) = (keyed.release(t), oracle.release(t));
                            (format!("{a:?}"), format!("{b:?}"))
                        }
                    };
                    prop_assert_eq!(a, b, "{:?}, capacity {}, op {}", policy, capacity, n);
                    prop_assert_eq!(keyed.windows(), oracle.windows());
                    prop_assert_eq!(keyed.ledgers(), oracle.ledgers());
                    prop_assert_eq!(keyed.peak_depth(), oracle.peak_depth());
                }
                let (a, b) = (keyed.release(t), oracle.release(t));
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                prop_assert_eq!(keyed.ledgers(), oracle.ledgers());
                for class in PriorityClass::ALL {
                    prop_assert!(keyed.ledgers().class(class).balanced(), "{policy:?} {class:?}");
                }
            }
        }
    }
}
