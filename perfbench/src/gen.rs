//! The seeded input generator and its bookkeeping.
//!
//! The generator is the benchmark's half of the contract: it makes the
//! bursts the program is fed and, independently of the program, works
//! out what every consumer must end up having received. The same seed
//! gives byte-identical bursts and identical expectations; the seed
//! changes ids, payload bytes and which frames are displaced, lost,
//! corrupted or churned, never how many frames a burst holds.
//!
//! Frames are encoded here, not with `garnet-wire`'s encoder, so a
//! codec bug cannot cancel itself out.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use garnet_net::TopicFilter;
use garnet_radio::ReceiverId;
use garnet_simkit::SimTime;
use garnet_wire::{FrameBytes, MsgHeader, SensorId, StreamId, StreamIndex};

use crate::workload::{Input, Lossy, Spec, SIM_US_PER_FRAME};

/// splitmix64: small, fast, and good enough to pick ids and coin flips.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is irrelevant at
    /// these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// CRC-16/CCITT-FALSE, the frame trailer of Fig. 2.
fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
        }
    }
    crc
}

/// The order-independent fingerprint of one delivery: both sides fold
/// `(stream, seq, payload tag)` into a wrapping sum, so equal tallies
/// mean the same multiset of deliveries (up to a 2⁻⁶⁴ collision).
pub fn fingerprint(stream_raw: u32, seq: u16, tag: u32) -> u64 {
    let mut z = (u64::from(stream_raw) << 32 | u64::from(tag))
        ^ u64::from(seq).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^ (z >> 33)
}

/// A count of deliveries and the wrapping sum of their fingerprints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Deliveries.
    pub count: u64,
    /// Wrapping sum of [`fingerprint`]s.
    pub sum: u64,
}

impl Tally {
    /// Folds one delivery in.
    pub fn add(&mut self, stream_raw: u32, seq: u16, tag: u32) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(fingerprint(stream_raw, seq, tag));
    }

    /// `self` without the deliveries in `other`.
    pub fn minus(self, other: Tally) -> Tally {
        Tally { count: self.count - other.count, sum: self.sum.wrapping_sub(other.sum) }
    }
}

/// A control-plane call the driver loop makes before submitting a
/// burst's frames. Consumers are named by their index among the base
/// consumers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Garnet::subscribe`.
    Subscribe {
        /// Base consumer index.
        consumer: usize,
        /// The filter.
        filter: TopicFilter,
    },
    /// `Garnet::unsubscribe`.
    Unsubscribe {
        /// Base consumer index.
        consumer: usize,
        /// The filter.
        filter: TopicFilter,
    },
    /// A monitor consumer registers and subscribes `All`.
    MonitorJoin,
    /// The monitor consumer deregisters.
    MonitorLeave,
    /// One `Garnet::request_actuation` (`Ping`), acknowledged at once.
    Actuate {
        /// The pinged sensor.
        sensor: SensorId,
    },
}

/// One frame as `Garnet::on_frames` takes it.
pub type Frame = (ReceiverId, f64, FrameBytes);

/// One burst: the control calls that precede it, then its frames.
#[derive(Clone, Debug)]
pub struct Burst {
    /// Position in the run, from 0; also the payload tag of every
    /// unique frame first sent in this burst.
    pub ordinal: u32,
    /// Sim time of submission.
    pub now: SimTime,
    /// Control calls, in order.
    pub ops: Vec<Op>,
    /// The frames.
    pub frames: Vec<Frame>,
}

/// What the facade-boundary `CoalesceFrames` policy must do to the
/// bursts generated so far — a reference model of the documented
/// policy (stage below capacity; at capacity the newer sequence
/// replaces the staged frame of its stream in place, or the oldest
/// staged frame is shed when the stream has none staged).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QosExpectation {
    /// Frames offered to the data tier.
    pub offered: u64,
    /// Frames dropped (includes the coalesced subset).
    pub shed: u64,
    /// Frames dropped in favour of a newer same-stream sequence.
    pub coalesced: u64,
}

/// What the generator has produced so far, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InputCounts {
    /// Frames offered (every copy).
    pub offered: u64,
    /// Unique frames transmitted (lost ones excluded).
    pub uniques: u64,
    /// Uniques that never arrive.
    pub lost: u64,
    /// Uniques displaced within their stream.
    pub displaced: u64,
    /// Copies carrying a flipped bit.
    pub corrupt_copies: u64,
    /// Uniques whose every copy was corrupted.
    pub unrecoverable: u64,
    /// Subscription writes issued.
    pub subscription_writes: u64,
    /// Monitor joins issued.
    pub monitor_joins: u64,
    /// Actuations issued.
    pub actuations: u64,
}

/// The seeded generator for one workload.
#[derive(Debug)]
pub struct Generator {
    spec: &'static Spec,
    rng: Rng,
    sensor_base: u32,
    next_unique: u64,
    bursts: u32,
    counts: InputCounts,
    every: Tally,
    missed: Vec<Tally>,
    monitor: Tally,
    displaced: BinaryHeap<Reverse<(u64, u64)>>,
    carry: Vec<Frame>,
    victim: Option<(usize, SensorId)>,
    monitor_in: bool,
    qos: QosExpectation,
    scratch: Vec<u8>,
}

impl Generator {
    /// A generator at the start of `spec`'s input for `seed`.
    pub fn new(spec: &'static Spec, seed: u64) -> Generator {
        let mut rng = Rng::new(seed);
        // Active ids sit in the low half of the 24-bit space: consumers'
        // virtual sensors count down from the top, dormant filters use
        // the band just above the active one.
        let sensor_base = 1 + rng.below(1 << 22) as u32;
        Generator {
            spec,
            rng,
            sensor_base,
            next_unique: 0,
            bursts: 0,
            counts: InputCounts::default(),
            every: Tally::default(),
            missed: vec![Tally::default(); spec.consumers],
            monitor: Tally::default(),
            displaced: BinaryHeap::new(),
            carry: Vec::new(),
            victim: None,
            monitor_in: false,
            qos: QosExpectation::default(),
            scratch: Vec::with_capacity(512),
        }
    }

    /// The `k`-th active sensor.
    pub fn sensor(&self, k: u32) -> SensorId {
        SensorId::new(self.sensor_base + k).expect("active ids stay below 2^23")
    }

    /// Stream `index` of the `k`-th active sensor.
    pub fn stream(&self, k: u32, index: u8) -> StreamId {
        StreamId::new(self.sensor(k), StreamIndex::new(index))
    }

    /// The `j`-th dormant stream: one no input frame ever belongs to.
    pub fn dormant_stream(&self, j: u32) -> StreamId {
        let sensor = SensorId::new(self.sensor_base + self.spec.sensors + 1 + j)
            .expect("dormant ids stay below 2^23");
        StreamId::new(sensor, StreamIndex::new(0))
    }

    /// Input-property counts so far.
    pub fn counts(&self) -> InputCounts {
        self.counts
    }

    /// What base consumer `c` must have received once every reorder
    /// buffer has flushed.
    pub fn expected(&self, c: usize) -> Tally {
        self.every.minus(self.missed[c])
    }

    /// What the monitor consumers, together, must have received.
    pub fn expected_monitor(&self) -> Tally {
        self.monitor
    }

    /// What the data-tier ledger must read (overload workloads).
    pub fn expected_qos(&self) -> QosExpectation {
        self.qos
    }

    /// Stream and sequence number of unique frame `u`: streams take
    /// turns, each stream's sequence numbers ascend and wrap at 2¹⁶.
    fn locate(&self, u: u64) -> (StreamId, u16) {
        let streams = u64::from(self.spec.streams());
        let slot = (u % streams) as u32;
        let sps = u32::from(self.spec.streams_per_sensor);
        (self.stream(slot / sps, (slot % sps) as u8), (u / streams) as u16)
    }

    /// Encodes unique `u` (Fig. 2 layout: header byte, stream id,
    /// sequence, payload length, payload, CRC-16) into `scratch`. The
    /// payload opens with `tag`; the rest is seeded noise.
    fn encode(&mut self, u: u64, tag: u32) -> (StreamId, u16) {
        let (stream, seq) = self.locate(u);
        let sizes = self.spec.payload_sizes;
        let len = sizes[self.rng.below(sizes.len() as u64) as usize];
        let buf = &mut self.scratch;
        buf.clear();
        buf.push(MsgHeader::new().to_byte());
        buf.extend_from_slice(&stream.to_raw().to_be_bytes());
        buf.extend_from_slice(&seq.to_be_bytes());
        buf.extend_from_slice(&(len as u16).to_be_bytes());
        buf.extend_from_slice(&tag.to_le_bytes());
        while buf.len() < 9 + len {
            let word = self.rng.next_u64().to_le_bytes();
            let room = 9 + len - buf.len();
            buf.extend_from_slice(&word[..room.min(8)]);
        }
        let crc = crc16(buf);
        buf.extend_from_slice(&crc.to_be_bytes());
        (stream, seq)
    }

    /// A copy of the encoded frame with one bit flipped somewhere the
    /// CRC is guaranteed to catch it: anywhere but the version byte and
    /// the length field, whose corruption changes the frame's layout
    /// instead of its checksum.
    fn corrupted(&mut self) -> FrameBytes {
        let mut copy = self.scratch.clone();
        let pick = self.rng.below(copy.len() as u64 - 3) as usize;
        let byte = if pick < 6 { 1 + pick } else { 3 + pick };
        copy[byte] ^= 1 << self.rng.below(8);
        FrameBytes::from(copy)
    }

    /// The next burst.
    pub fn next_burst(&mut self) -> Burst {
        let ordinal = self.bursts;
        self.bursts += 1;
        let mut ops = Vec::new();
        // overload-qos opens with one frame per stream, below capacity,
        // so every stream's first delivery is its sequence 0 and no
        // later survivor can be stale on arrival.
        let size = if self.spec.overload.is_some() && ordinal == 0 {
            self.spec.streams() as usize
        } else {
            self.spec.burst
        };
        if self.spec.churn.is_some() {
            self.churn_ops(ordinal, &mut ops);
        }
        if self.spec.overload.is_some() {
            let k = self.rng.below(u64::from(self.spec.sensors)) as u32;
            let sensor = self.sensor(k);
            ops.push(Op::Actuate { sensor });
            self.counts.actuations += 1;
        }
        let frames = match self.spec.input {
            Input::InOrder => self.in_order_frames(ordinal, size),
            Input::Lossy(lossy) => self.lossy_frames(ordinal, size, lossy),
        };
        self.counts.offered += frames.len() as u64;
        let now = SimTime::from_micros(self.counts.offered * SIM_US_PER_FRAME);
        Burst { ordinal, now, ops, frames }
    }

    /// The copies still waiting for "the next burst" when the run ends,
    /// as one last, short burst — or `None` when nothing waits. The
    /// books already count on these copies arriving, so a run offers
    /// this burst before it checks them.
    pub fn closing_burst(&mut self) -> Option<Burst> {
        if self.carry.is_empty() {
            return None;
        }
        let frames = std::mem::take(&mut self.carry);
        let ordinal = self.bursts;
        self.bursts += 1;
        self.counts.offered += frames.len() as u64;
        let now = SimTime::from_micros(self.counts.offered * SIM_US_PER_FRAME);
        Some(Burst { ordinal, now, ops: Vec::new(), frames })
    }

    /// Two subscription writes per burst — last burst's victim
    /// resubscribes, a new (consumer, sensor) pair drawn from the
    /// sensors this burst carries unsubscribes — plus the monitor.
    fn churn_ops(&mut self, ordinal: u32, ops: &mut Vec<Op>) {
        let churn = self.spec.churn.expect("caller checked");
        if let Some((consumer, sensor)) = self.victim.take() {
            ops.push(Op::Subscribe { consumer, filter: TopicFilter::Sensor(sensor) });
            self.counts.subscription_writes += 1;
        }
        if self.monitor_in {
            ops.push(Op::MonitorLeave);
            self.monitor_in = false;
        }
        let sps = u64::from(self.spec.streams_per_sensor);
        let streams = u64::from(self.spec.streams());
        let first = (self.next_unique % streams) / sps;
        let span = (self.spec.burst as u64 / sps).max(1);
        let k = (first + self.rng.below(span)) % u64::from(self.spec.sensors);
        let consumer = self.rng.below(self.spec.consumers as u64) as usize;
        let sensor = self.sensor(k as u32);
        ops.push(Op::Unsubscribe { consumer, filter: TopicFilter::Sensor(sensor) });
        self.counts.subscription_writes += 1;
        self.victim = Some((consumer, sensor));
        if ordinal.is_multiple_of(churn.monitor_every) {
            ops.push(Op::MonitorJoin);
            self.monitor_in = true;
            self.counts.monitor_joins += 1;
        }
    }

    /// Books one delivered unique against every consumer it reaches.
    fn book(&mut self, stream: StreamId, seq: u16, tag: u32) {
        let raw = stream.to_raw();
        self.every.add(raw, seq, tag);
        if let Some((consumer, sensor)) = self.victim {
            if stream.sensor() == sensor {
                self.missed[consumer].add(raw, seq, tag);
            }
        }
        if self.monitor_in {
            self.monitor.add(raw, seq, tag);
        }
    }

    fn in_order_frames(&mut self, ordinal: u32, size: usize) -> Vec<Frame> {
        let mut frames = Vec::with_capacity(size);
        let mut staged: Vec<(StreamId, u16)> = Vec::new();
        for _ in 0..size {
            let u = self.next_unique;
            self.next_unique += 1;
            self.counts.uniques += 1;
            let (stream, seq) = self.encode(u, ordinal);
            frames.push((ReceiverId::new(0), -40.0, FrameBytes::copy_from_slice(&self.scratch)));
            match self.spec.overload {
                None => self.book(stream, seq, ordinal),
                Some(overload) => self.coalesce(&mut staged, overload.capacity, stream, seq),
            }
        }
        // Whatever the policy left staged is released when the call
        // ends, and only those frames reach filtering.
        for (stream, seq) in staged {
            self.book(stream, seq, ordinal);
        }
        frames
    }

    /// The `CoalesceFrames` reference model, one offered frame.
    fn coalesce(
        &mut self,
        staged: &mut Vec<(StreamId, u16)>,
        capacity: usize,
        stream: StreamId,
        seq: u16,
    ) {
        self.qos.offered += 1;
        if staged.len() < capacity {
            staged.push((stream, seq));
            return;
        }
        self.qos.shed += 1;
        match staged.iter().position(|(s, _)| *s == stream) {
            Some(at) => {
                self.qos.coalesced += 1;
                // Serial-number "newer": the generator only ever offers
                // ascending sequences within a burst.
                if (seq.wrapping_sub(staged[at].1) as i16) > 0 {
                    staged[at].1 = seq;
                }
            }
            None => {
                staged.remove(0);
                staged.push((stream, seq));
            }
        }
    }

    fn lossy_frames(&mut self, ordinal: u32, size: usize, lossy: Lossy) -> Vec<Frame> {
        let Lossy { copies, displaced, max_displacement, lost, corrupt } = lossy;
        let streams = u64::from(self.spec.streams());
        let mut frames = std::mem::take(&mut self.carry);
        while frames.len() < size {
            let due = self.displaced.peek().is_some_and(|Reverse((at, _))| *at <= self.next_unique);
            let u = if due {
                self.displaced.pop().expect("peeked").0 .1
            } else {
                let u = self.next_unique;
                self.next_unique += 1;
                // A stream's first frame fixes where its sequence
                // starts, so the opening round arrives intact and in
                // place.
                if u >= streams {
                    if self.rng.chance(lost) {
                        self.counts.lost += 1;
                        continue;
                    }
                    if self.rng.chance(displaced) {
                        // Re-emitted just after the frame `d` positions
                        // later in its own stream.
                        let d = 1 + self.rng.below(max_displacement);
                        self.displaced.push(Reverse((u + d * streams + 1, u)));
                        self.counts.displaced += 1;
                        continue;
                    }
                }
                u
            };
            self.counts.uniques += 1;
            let (stream, seq) = self.encode(u, ordinal);
            let clean = FrameBytes::copy_from_slice(&self.scratch);
            let mut intact = false;
            for r in 0..copies {
                let bytes = if self.rng.chance(corrupt) {
                    self.counts.corrupt_copies += 1;
                    self.corrupted()
                } else {
                    intact = true;
                    clean.clone()
                };
                let frame = (ReceiverId::new(r), -40.0 - f64::from(r), bytes);
                // The first receiver hears it now; the others now or a
                // burst later.
                if r == 0 || self.rng.below(3) != 0 {
                    frames.push(frame);
                } else {
                    self.carry.push(frame);
                }
            }
            if intact {
                self.book(stream, seq, ordinal);
            } else {
                self.counts.unrecoverable += 1;
            }
        }
        // Copies past the burst's size wait for the next one.
        let spill = frames.split_off(size);
        self.carry.splice(0..0, spill);
        for i in (1..frames.len()).rev() {
            frames.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, by_name};
    use garnet_core::filtering::{FilterConfig, FilteringService, FrameArrival};
    use garnet_simkit::SimDuration;
    use garnet_wire::{DataMessage, FrameHeader};

    fn take(name: &str, seed: u64, bursts: usize) -> (Generator, Vec<Burst>) {
        let mut g = Generator::new(by_name(name).unwrap(), seed);
        let b = (0..bursts).map(|_| g.next_burst()).collect();
        (g, b)
    }

    #[test]
    fn crc_matches_the_standard_check_value_and_the_codec() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
        let (_, bursts) = take("steady-fifo", 1, 1);
        for (_, _, frame) in &bursts[0].frames {
            let (msg, used) = DataMessage::decode_frame(frame).expect("generated frames decode");
            assert_eq!(used, frame.len());
            assert_eq!(msg.payload().len(), 16);
            assert_eq!(&msg.payload()[..4], &0u32.to_le_bytes());
        }
    }

    #[test]
    fn same_seed_same_bytes_and_same_expectations() {
        for spec in &workload::ALL {
            let (ga, a) = take(spec.name, 7, 40);
            let (gb, b) = take(spec.name, 7, 40);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.ordinal, x.now, &x.ops), (y.ordinal, y.now, &y.ops));
                assert_eq!(x.frames, y.frames, "{}: burst {} differs", spec.name, x.ordinal);
            }
            assert_eq!(ga.counts(), gb.counts());
            for c in 0..spec.consumers {
                assert_eq!(ga.expected(c), gb.expected(c));
            }
            assert_eq!(ga.expected_monitor(), gb.expected_monitor());
            assert_eq!(ga.expected_qos(), gb.expected_qos());
            let (gc, c) = take(spec.name, 8, 40);
            assert_ne!(a[0].frames, c[0].frames, "{}: seed must change the bytes", spec.name);
            assert_eq!(ga.counts().offered, gc.counts().offered, "seed never changes counts");
        }
    }

    #[test]
    fn burst_sizes_and_fanout_counts_are_exact() {
        for spec in &workload::ALL {
            let (g, bursts) = take(spec.name, 3, 300);
            for b in &bursts {
                let prelude = spec.overload.is_some() && b.ordinal == 0;
                let want = if prelude { spec.streams() as usize } else { spec.burst };
                assert_eq!(b.frames.len(), want, "{} burst {}", spec.name, b.ordinal);
            }
            let offered: u64 = bursts.iter().map(|b| b.frames.len() as u64).sum();
            assert_eq!(g.counts().offered, offered);
            assert_eq!(bursts.last().unwrap().now, SimTime::from_micros(offered * 10));
        }
        // In-order input, no churn: every consumer receives every frame.
        let (g, _) = take("steady-fifo", 3, 300);
        for c in 0..4 {
            assert_eq!(g.expected(c).count, 300 * 64);
        }
        // Churn: each burst one consumer misses the four streams of one
        // sensor the burst carries; the monitor sees 64 frames per join.
        let (g, _) = take("churn-fanout", 3, 300);
        let total: u64 = (0..16).map(|c| g.expected(c).count).sum();
        assert_eq!(total, 300 * 64 * 16 - 300 * 4);
        assert_eq!(g.counts().subscription_writes, 2 * 300 - 1);
        assert_eq!(g.counts().monitor_joins, 2);
        assert_eq!(g.expected_monitor().count, 2 * 64);
    }

    #[test]
    fn coalesce_model_keeps_a_capacity_of_survivors_per_burst() {
        let (g, bursts) = take("overload-qos", 5, 11);
        let q = g.expected_qos();
        assert_eq!(q.offered, 64 + 10 * 1_024);
        // 64 streams × 4 staged slots fill the tier; every later frame
        // of the burst coalesces into its stream's first slot.
        assert_eq!((q.shed, q.coalesced), (10 * 768, 10 * 768));
        assert_eq!(g.expected(0).count, 64 + 10 * 256);
        assert_eq!(g.counts().actuations, 11);
        assert!(bursts.iter().all(|b| matches!(b.ops[..], [Op::Actuate { .. }])));
    }

    #[test]
    fn sequence_numbers_wrap_at_sixteen_bits() {
        let spec = by_name("overload-qos").unwrap();
        let g = Generator::new(spec, 1);
        let streams = u64::from(spec.streams());
        assert_eq!(g.locate(65_535 * streams).1, 65_535);
        assert_eq!(g.locate(65_536 * streams).1, 0);
        assert_eq!(g.locate(65_536 * streams + 5).0, g.locate(5).0);
    }

    /// Feeds `bursts` through a real filtering service the way the
    /// facade would (tick when a deadline has passed), then flushes.
    fn filter(spec: &Spec, bursts: &[Burst]) -> FilteringService {
        let mut f = FilteringService::new(FilterConfig {
            reorder_timeout: SimDuration::from_millis(spec.reorder_timeout_ms),
            ..FilterConfig::default()
        });
        for b in bursts {
            let arrivals: Vec<FrameArrival> = b
                .frames
                .iter()
                .map(|(receiver, rssi_dbm, frame)| FrameArrival {
                    receiver: *receiver,
                    rssi_dbm: *rssi_dbm,
                    frame: frame.clone(),
                    at: b.now,
                })
                .collect();
            f.on_batch(&arrivals);
            if f.next_deadline().is_some_and(|d| d <= b.now) {
                f.on_tick(b.now);
            }
        }
        f.on_tick(SimTime::from_secs(1 << 30));
        f
    }

    #[test]
    fn lossy_input_stays_inside_the_reorder_window_by_construction() {
        let spec = by_name("lossy-radio").unwrap();
        let (mut g, mut bursts) = take("lossy-radio", 11, 6_000);
        bursts.extend(g.closing_burst());
        let c = g.counts();
        assert!(c.lost > 0 && c.displaced > 0 && c.corrupt_copies > 0 && c.unrecoverable == 0);
        assert_eq!(bursts.iter().map(|b| b.frames.len() as u64).sum::<u64>(), c.offered);
        let f = filter(spec, &bursts);
        assert_eq!(f.restart_count(), 0, "no gap may look like a stream restart");
        assert_eq!(f.crc_failure_count(), c.corrupt_copies);
        // Every unique with an intact copy is delivered exactly once.
        assert_eq!(f.delivered_count(), g.expected(0).count);
        assert_eq!(f.delivered_count() + f.duplicate_count() + c.corrupt_copies, c.offered);
    }

    #[test]
    fn overload_survivors_are_never_stale_and_never_restart_a_stream() {
        // The reference model says which frames survive admission; a
        // real filter fed exactly those, in release order, must deliver
        // every one of them.
        let spec = by_name("overload-qos").unwrap();
        let mut g = Generator::new(spec, 2);
        let mut survivors_only = Vec::new();
        for _ in 0..40 {
            let b = g.next_burst();
            let mut staged: Vec<(StreamId, u16, FrameBytes)> = Vec::new();
            for (_, _, frame) in &b.frames {
                let h = FrameHeader::parse(frame).unwrap();
                if staged.len() < 256 {
                    staged.push((h.stream(), h.seq().as_u16(), frame.clone()));
                } else if let Some(at) = staged.iter().position(|(s, _, _)| *s == h.stream()) {
                    staged[at] = (h.stream(), h.seq().as_u16(), frame.clone());
                }
            }
            let frames =
                staged.into_iter().map(|(_, _, f)| (ReceiverId::new(0), -40.0, f)).collect();
            survivors_only.push(Burst { frames, ..b });
        }
        let f = filter(spec, &survivors_only);
        assert_eq!(f.delivered_count(), g.expected(0).count);
        assert_eq!((f.duplicate_count(), f.restart_count()), (0, 0));
    }

    #[test]
    fn corrupted_copies_always_fail_their_checksum() {
        let mut g = Generator::new(by_name("lossy-radio").unwrap(), 9);
        for u in 0..2_000 {
            g.encode(u, 0);
            let bad = g.corrupted();
            assert_eq!(bad.len(), g.scratch.len());
            assert!(DataMessage::decode_frame(&bad).is_err(), "flip survived in frame {u}");
        }
    }
}
