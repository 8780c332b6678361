//! Per-consumer QoS scheduling: priority classes, tiered staging, and
//! subscription-keyed delivery coalescing.
//!
//! This module is the one owner of admission policy: what is shed, what
//! is coalesced and what waits is decided here, at the facade boundary,
//! and both engines behind it are unbounded intakes. Three pieces:
//!
//! * [`PriorityClass`] — every [`ServiceEvent`] belongs to exactly one
//!   of **Control > Actuation > Data**. Only Data is ever governed by an
//!   overload policy; Control and Actuation pass through counted but
//!   untouched, and [`QosScheduler::release`] drains tiers in strict
//!   priority order.
//! * [`QosScheduler`] — tiered staging *in front of* the engine. Data
//!   frames stage into a bounded tier under the configured
//!   [`OverloadPolicy`] (shed-oldest, per-stream newest-wins
//!   coalescing, or block) and the survivors release as one batch.
//!   A frame's bytes are read once, when it is offered: its stream id
//!   and sequence number are kept beside it, so coalescing costs one
//!   pass over at most `capacity` in-memory keys and never re-parses a
//!   staged frame. Because the policy runs entirely above the engine,
//!   **both engines schedule identically**: overloaded runs are
//!   bit-identical across `{Fifo, Threaded}` × shard layouts.
//! * [`DeliverySchedule`] — coalescing keyed per **consumer
//!   subscription** (`SubscriberId` × stream), not per stream: a slow
//!   consumer's in-window duplicates collapse in its own queue without
//!   touching a fast consumer's delivery sequence.
//!
//! Capacity is adaptive: at each quiescence the data tier retunes its
//! bound from the p99 of its depth histogram, clamped to the
//! `[floor, ceiling]` band of [`QosConfig`]. With the band collapsed
//! (the default), the bound is exactly `OverloadConfig::capacity`.
//!
//! Every class keeps the exact ledger `offered == shed + delivered`
//! (Control and Actuation trivially so — their shed is always zero),
//! and each dropped frame passes through exactly one terminal
//! accounting point, so a frame that is first coalesced into a
//! survivor and later shed is counted once, not twice.

use std::collections::{BTreeMap, VecDeque};

use garnet_net::{IdMap, SubscriberId};
use garnet_simkit::{Histogram, SimTime};
use garnet_wire::{peek_seq, peek_stream, SequenceNumber, StreamId};

use crate::filtering::Delivery;
use crate::router::{OverloadConfig, OverloadPolicy, OverloadTotals};
use crate::service::{BatchedFrame, ServiceEvent};

/// The scheduling class of a [`ServiceEvent`] — strict priority order,
/// highest first. Only [`PriorityClass::Data`] is ever shed.
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
    /// All classes, in strict priority (drain) order.
    pub const ALL: [PriorityClass; 3] =
        [PriorityClass::Control, PriorityClass::Actuation, PriorityClass::Data];

    /// The class an event schedules under.
    pub fn of(ev: &ServiceEvent) -> PriorityClass {
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
    pub fn index(self) -> usize {
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

/// QoS tuning. The scheduler only activates when the facade also has an
/// [`OverloadConfig`] — an unbounded intake has nothing to schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QosConfig {
    /// Accepted for the benchmark's call site; has no effect.
    pub mode: QosMode,
    /// Lower bound for the adaptive data-tier capacity. `None` pins it
    /// to `OverloadConfig::capacity` (adaptation disabled downward).
    pub data_floor: Option<usize>,
    /// Upper bound for the adaptive data-tier capacity. `None` pins it
    /// to `OverloadConfig::capacity` (adaptation disabled upward).
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

/// One class's monotonic scheduling ledger. At quiescence
/// `offered == shed + delivered`; for Control and Actuation, `shed`
/// and `coalesced` are zero by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassLedger {
    /// Events of this class accepted into scheduling.
    pub offered: u64,
    /// Events dropped by the overload policy (Data only).
    pub shed: u64,
    /// The subset of `shed` dropped in favour of a newer same-stream
    /// sequence.
    pub coalesced: u64,
    /// Events released into the engine.
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

/// One item of a strict-priority release plan: Control events first,
/// then Actuation, then the surviving Data frames as one batch (one
/// [`crate::router::Router::ingest`] call, one filtering pass).
#[derive(Debug)]
pub enum Release {
    /// A control- or actuation-class event for
    /// [`crate::router::Router::enqueue`].
    Event(ServiceEvent),
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
    /// Tier at capacity under [`OverloadPolicy::Block`]: release the
    /// staged tier into the engine, pump it dry, then re-offer. Nothing
    /// is counted for a blocked attempt.
    Blocked(BatchedFrame),
}

/// A frame in the bounded Data tier, beside the two header fields
/// coalescing compares — read once, when the frame was offered.
#[derive(Debug)]
struct Staged {
    /// `None` for a runt too short to carry a stream id.
    stream: Option<StreamId>,
    /// `None` for a runt too short to carry a sequence number.
    seq: Option<SequenceNumber>,
    frame: BatchedFrame,
}

impl Staged {
    /// Reads the frame's coalescing key: the one place the tier looks at
    /// a frame's bytes.
    fn new(frame: BatchedFrame) -> Self {
        Staged { stream: peek_stream(&frame.frame), seq: peek_seq(&frame.frame), frame }
    }
}

/// The facade-boundary scheduler: three priority tiers with a bounded,
/// policy-governed Data tier and strict-priority release.
#[derive(Debug)]
pub struct QosScheduler {
    policy: OverloadPolicy,
    /// Current data-tier bound (retuned at quiescence within
    /// `[floor, ceiling]`).
    capacity: usize,
    floor: usize,
    ceiling: usize,
    control: VecDeque<ServiceEvent>,
    actuation: VecDeque<ServiceEvent>,
    data: VecDeque<Staged>,
    ledgers: ClassLedgers,
    /// The share of the Data ledger that entered by `offer_event`
    /// (derived republications), left out of [`QosScheduler::totals`].
    republished: ClassLedger,
    peak_depth: u64,
    depth_hist: Histogram,
    retunes: u64,
}

impl QosScheduler {
    /// Builds a scheduler enforcing `overload`'s policy at the facade
    /// boundary, with the adaptive band from `qos` (both bounds default
    /// to `overload.capacity`, which disables adaptation).
    pub fn new(overload: OverloadConfig, qos: &QosConfig) -> Self {
        let fixed = overload.capacity.max(1);
        let floor = qos.data_floor.unwrap_or(fixed).max(1);
        let ceiling = qos.data_ceiling.unwrap_or(fixed).max(floor);
        QosScheduler {
            policy: overload.policy,
            capacity: fixed.clamp(floor, ceiling),
            floor,
            ceiling,
            control: VecDeque::new(),
            actuation: VecDeque::new(),
            data: VecDeque::new(),
            ledgers: ClassLedgers::default(),
            republished: ClassLedger::default(),
            peak_depth: 0,
            depth_hist: Histogram::new(),
            retunes: 0,
        }
    }

    /// Stages a non-data event into its class tier. Control and
    /// Actuation tiers are unbounded — these classes are never shed.
    /// Data-class events entering by this path (derived `Filtered`
    /// republications) also pass untouched: the overload policy governs
    /// radio frames, not deliveries already paid for. They count in the
    /// Data class ledger (`qos.data.*`), not in [`QosScheduler::totals`].
    pub fn offer_event(&mut self, ev: ServiceEvent) {
        let class = PriorityClass::of(&ev);
        self.ledgers.class_mut(class).offered += 1;
        match class {
            PriorityClass::Control => self.control.push_back(ev),
            PriorityClass::Actuation => self.actuation.push_back(ev),
            // Data-class control-path entries skip the bounded tier:
            // count them delivered on release alongside actuation.
            PriorityClass::Data => {
                self.republished.offered += 1;
                self.actuation.push_back(ev);
            }
        }
    }

    /// Offers one radio frame to the bounded Data tier under the
    /// configured policy: shed-oldest, per-stream newest-wins
    /// coalescing with replace in place, or blocked hand-back. Every
    /// offer is released within the facade call that made it, so `_now`
    /// is accepted for the benchmark's call site and has no effect.
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

    /// Counts and stages an accepted frame, sampling the tier depth.
    fn note_offered(&mut self, staged: Staged) {
        self.ledgers.class_mut(PriorityClass::Data).offered += 1;
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

    /// At capacity (so the tier is non-empty): sheds the oldest staged
    /// frame and stages `arriving` in its stead.
    fn shed_oldest_for(&mut self, arriving: Staged) -> FrameOffer {
        let oldest = self.data.pop_front().expect("a tier at capacity holds a frame");
        self.note_dropped(false);
        self.note_offered(arriving);
        FrameOffer::StagedAfterShed(oldest.frame)
    }

    /// At capacity under `CoalesceFrames`: resolve against the first
    /// staged frame of the arriving frame's stream (wraparound-aware
    /// newest wins, survivor keeps the staged position), falling back
    /// to shedding the oldest staged frame when the stream has nothing
    /// staged. The cost is one pass over at most `capacity` keys held
    /// in memory: no staged frame's bytes are read again.
    fn coalesce(&mut self, arriving: Staged) -> FrameOffer {
        let same_stream =
            arriving.stream.and_then(|s| self.data.iter().position(|q| q.stream == Some(s)));
        let Some(idx) = same_stream else {
            return self.shed_oldest_for(arriving);
        };
        let arriving_wins = match (arriving.seq, self.data[idx].seq) {
            (Some(a), Some(q)) => a.is_after(q),
            (Some(_), None) => true,
            _ => false,
        };
        self.ledgers.class_mut(PriorityClass::Data).offered += 1;
        self.note_dropped(true);
        if !arriving_wins {
            return FrameOffer::Coalesced(arriving.frame);
        }
        // Replace in place, key included: the survivor keeps the staged
        // frame's position, and thus its place in the release order.
        let staged = std::mem::replace(&mut self.data[idx], arriving);
        let depth = self.data.len() as u64;
        self.peak_depth = self.peak_depth.max(depth);
        self.depth_hist.record(depth);
        FrameOffer::Coalesced(staged.frame)
    }

    /// Drains every tier in strict priority order — Control, then
    /// Actuation, then the surviving Data frames as one batch — and
    /// counts each released item delivered. `_now` is accepted for the
    /// benchmark's call site and has no effect.
    pub fn release(&mut self, _now: SimTime) -> Vec<Release> {
        let mut plan = Vec::new();
        while let Some(ev) = self.control.pop_front() {
            self.ledgers.class_mut(PriorityClass::Control).delivered += 1;
            plan.push(Release::Event(ev));
        }
        while let Some(ev) = self.actuation.pop_front() {
            let class = PriorityClass::of(&ev);
            self.ledgers.class_mut(class).delivered += 1;
            if class == PriorityClass::Data {
                self.republished.delivered += 1;
            }
            plan.push(Release::Event(ev));
        }
        if !self.data.is_empty() {
            self.ledgers.class_mut(PriorityClass::Data).delivered += self.data.len() as u64;
            plan.push(Release::Frames(self.data.drain(..).map(|s| s.frame).collect()));
        }
        plan
    }

    /// Retunes the data-tier capacity from the depth histogram's p99 —
    /// called at quiescence, the one point both engines reach
    /// deterministically. Target is `2 × p99` clamped to the
    /// configured band; a collapsed band (the default) makes this a
    /// no-op, keeping the bound fixed.
    pub fn note_quiescent(&mut self) {
        if self.floor == self.ceiling {
            return;
        }
        let p99 = self.depth_hist.p99();
        let target = (p99.saturating_mul(2).max(1) as usize).clamp(self.floor, self.ceiling);
        if target != self.capacity {
            self.capacity = target;
            self.retunes += 1;
        }
    }

    /// The radio-frame ledger, shaped as [`OverloadTotals`] (what the
    /// `overload.*` metrics report when the scheduler governs
    /// admission): the Data class ledger less the derived
    /// republications [`QosScheduler::offer_event`] counted there.
    pub fn totals(&self) -> OverloadTotals {
        let (d, r) = (self.ledgers.class(PriorityClass::Data), &self.republished);
        OverloadTotals {
            offered: d.offered - r.offered,
            shed: d.shed,
            coalesced: d.coalesced,
            delivered: d.delivered - r.delivered,
        }
    }

    /// All three class ledgers.
    pub fn ledgers(&self) -> &ClassLedgers {
        &self.ledgers
    }

    /// Current (possibly retuned) data-tier bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many times `note_quiescent` moved the bound.
    pub fn retune_count(&self) -> u64 {
        self.retunes
    }

    /// High-water mark of the staged Data tier.
    pub fn peak_depth(&self) -> u64 {
        self.peak_depth
    }

    /// p99 of tier-depth-at-offer samples.
    pub fn depth_p99(&self) -> u64 {
        self.depth_hist.p99()
    }
}

/// The implementation that re-read every staged frame's header on each
/// coalesce, kept as the oracle the stored keys are tested against. It
/// stages through [`Staged::new`] but never reads a stored key.
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
    /// passes.
    fn coalesce_scan(&mut self, frame: BatchedFrame) -> FrameOffer {
        let stream = peek_stream(&frame.frame);
        let same_stream = stream
            .and_then(|s| self.data.iter().position(|q| peek_stream(&q.frame.frame) == Some(s)));
        let Some(idx) = same_stream else {
            return self.shed_oldest_for(Staged::new(frame));
        };
        let staged_seq = peek_seq(&self.data[idx].frame.frame);
        let arriving_wins = match (peek_seq(&frame.frame), staged_seq) {
            (Some(a), Some(q)) => a.is_after(q),
            (Some(_), None) => true,
            _ => false,
        };
        self.ledgers.class_mut(PriorityClass::Data).offered += 1;
        self.note_dropped(true);
        if !arriving_wins {
            return FrameOffer::Coalesced(frame);
        }
        let staged = std::mem::replace(&mut self.data[idx], Staged::new(frame));
        let depth = self.data.len() as u64;
        self.peak_depth = self.peak_depth.max(depth);
        self.depth_hist.record(depth);
        FrameOffer::Coalesced(staged.frame)
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
    /// drain order is deterministic across runs and engines.
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
    pub fn forget(&mut self, id: SubscriberId) {
        self.limits.remove(&id);
        if let Some(queue) = self.queues.remove(&id) {
            self.ledger.shed += queue.len() as u64;
            self.backlog -= queue.len() as u64;
        }
    }

    /// Whether `id` currently has a drain limit.
    pub fn is_limited(&self, id: SubscriberId) -> bool {
        self.limits.contains_key(&id)
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
            return None;
        }
        if queue.len() >= self.capacity {
            queue.pop_front();
            self.ledger.shed += 1;
        } else {
            self.backlog += 1;
        }
        queue.push_back((delivery, depth));
        self.peak_backlog = self.peak_backlog.max(self.backlog());
        None
    }

    /// Drains each consumer's staged queue up to its limit (all of it
    /// for consumers whose limit was removed), in subscriber-id order.
    /// Call once per facade entry point.
    pub fn drain(&mut self) -> Vec<(SubscriberId, Delivery, u32)> {
        let mut due = Vec::new();
        for (&id, queue) in &mut self.queues {
            let take = self.limits.get(&id).copied().unwrap_or(usize::MAX).min(queue.len());
            self.backlog -= take as u64;
            for _ in 0..take {
                let (delivery, depth) = queue.pop_front().expect("take <= len");
                self.ledger.delivered += 1;
                due.push((id, delivery, depth));
            }
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
    pub fn backlog(&self) -> u64 {
        debug_assert_eq!(
            self.backlog,
            self.queues.values().map(|q| q.len() as u64).sum::<u64>(),
            "running backlog drifted from the staged queues"
        );
        self.backlog
    }

    /// High-water mark of the total staged backlog.
    pub fn peak_backlog(&self) -> u64 {
        self.peak_backlog
    }

    /// The delivery-plane ledger. Balanced as
    /// `offered == shed + delivered + backlog` mid-flight and
    /// `offered == shed + delivered` once drained.
    pub fn ledger(&self) -> &ClassLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_radio::ReceiverId;
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
    fn release_drains_control_before_data() {
        let mut s = sched(OverloadPolicy::Shed, 4);
        let t = SimTime::ZERO;
        assert!(matches!(s.offer_frame(batched(1, 0, 0), t), FrameOffer::Staged));
        s.offer_event(ServiceEvent::FlushReorder);
        s.offer_event(ServiceEvent::ActuationTick);
        let plan = s.release(t);
        assert!(matches!(plan[0], Release::Event(ServiceEvent::FlushReorder)));
        assert!(matches!(plan[1], Release::Event(ServiceEvent::ActuationTick)));
        assert!(matches!(&plan[2], Release::Frames(f) if f.len() == 1));
        for c in PriorityClass::ALL {
            assert!(s.ledgers().class(c).balanced(), "{c:?} unbalanced");
        }
    }

    #[test]
    fn shed_keeps_newest_and_balances() {
        let mut s = sched(OverloadPolicy::Shed, 2);
        let t = SimTime::ZERO;
        for seq in 0..5u16 {
            s.offer_frame(batched(1, 0, seq), t);
        }
        let plan = s.release(t);
        let Release::Frames(frames) = &plan[0] else { panic!("expected frames") };
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

    #[test]
    fn adaptive_capacity_tracks_p99_within_band() {
        let cfg = QosConfig { data_floor: Some(2), data_ceiling: Some(64), ..QosConfig::default() };
        let mut s =
            QosScheduler::new(OverloadConfig { capacity: 8, policy: OverloadPolicy::Shed }, &cfg);
        let t = SimTime::ZERO;
        // Shallow bursts: depth samples stay tiny, so the bound adapts
        // down toward the floor.
        for _ in 0..10 {
            s.offer_frame(batched(1, 0, 0), t);
            s.release(t);
        }
        s.note_quiescent();
        assert_eq!(s.capacity(), 2, "2×p99(=1) clamps to the floor of 2");
        // Deep bursts drive it back up, still within the ceiling.
        for round in 0..20 {
            for seq in 0..8u16 {
                s.offer_frame(batched(1, 0, round * 8 + seq), t);
            }
            s.release(t);
        }
        s.note_quiescent();
        assert!(s.capacity() > 2 && s.capacity() <= 64, "capacity {}", s.capacity());
        assert!(s.retune_count() >= 2);
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
    use garnet_radio::ReceiverId;
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
                ServiceEvent::Filtered { delivery, depth: 1 }
            }
            1 => ServiceEvent::FlushReorder,
            _ => ServiceEvent::ActuationTick,
        }
    }

    // The stored keys against the header re-reads they replaced: two
    // schedulers fed the same interleaving of frame offers, event offers
    // and releases — one coalescing on its keys, one re-parsing staged
    // bytes — must hand back the same frames, release the same plans and
    // keep the same books, under every policy.
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
                            keyed.offer_event(event_of(kind - 11, stream, seq));
                            oracle.offer_event(event_of(kind - 11, stream, seq));
                            continue;
                        }
                        _ => {
                            let (a, b) = (keyed.release(t), oracle.release(t));
                            (format!("{a:?}"), format!("{b:?}"))
                        }
                    };
                    prop_assert_eq!(a, b, "{:?}, capacity {}, op {}", policy, capacity, n);
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
