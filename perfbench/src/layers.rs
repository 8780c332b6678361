//! The traced run: the per-layer budget.
//!
//! Four replays of the workload's own bursts, each from a fresh
//! generator on the same seed:
//!
//! 1. the facade with tracing off — the base the tracing overhead is
//!    measured against;
//! 2. the facade with a root span per burst and the allocation counter
//!    on; the program's own counters are read here, over a fixed
//!    number of frames, so the counts repeat exactly;
//! 3. a replay composed in this file that calls each layer's public
//!    functions in pipeline order — decode, QoS admission, filtering,
//!    dispatch, delivery staging, archive encode and append — one
//!    span per layer per burst, parented to the burst;
//! 4. the bare FIFO and threaded drivers.
//!
//! Every figure is wall-clock inside the named calls divided by the
//! frames offered, so the layers add up against the facade's own
//! figure from replay 2.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use garnet_core::dispatching::DispatchingService;
use garnet_core::driver::{FifoDriver, RouterDriver, ThreadedDriver};
use garnet_core::filtering::{FilteringService, FrameArrival};
use garnet_core::router::{
    ControlGraph, OverloadConfig, OverloadPolicy, Services, ShardedDispatch, ShardedIngest,
};
use garnet_core::service::BatchedFrame;
use garnet_core::{
    DeliverySchedule, DriverKind, FrameOffer, PriorityClass, QosScheduler, Release, ServiceEvent,
    ServiceOutput,
};
use garnet_net::{ShardPool, SubscriberId, TopicFilter};
use garnet_simkit::SimTime;
use garnet_store::{ArchiveRecord, FileStore, FrameArchive, MemStore};
use garnet_wire::{DataMessage, FrameHeader};

use crate::alloc;
use crate::gen::{Burst, Frame, Generator, Op};
use crate::rig::{config, filters_for, Rig};
use crate::run::{set_up, verify, Latency, Pacer, Plan, Scratch, Verdict};
use crate::stats::Summary;
use crate::trace::{Recorder, ROOT};
use crate::workload::Spec;

/// The archive layers are priced on one burst in this many: the file
/// backend is an order of magnitude slower than everything else, and
/// a full replay through it would leave no budget for the rest.
const STORE_EVERY: u32 = 8;
/// Spans kept for the trace file; the metrics are summed over every
/// burst, kept or not.
const SPAN_CAP: usize = 200_000;

/// The traced run's results: every per-layer metric by name, in
/// reporting order, plus the bookkeeping the caller prints.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Frames offered in the traced facade replay.
    pub attempted: u64,
    /// Its verdict (plus the composed replay's delivery cross-check).
    pub verdict: Verdict,
    /// The span recorder, for writing the trace out.
    pub recorder: Recorder,
}

/// The admission scheduler in front of the engine: the workload's own
/// overload config, or — where the facade runs without one — a tier
/// one burst deep that never sheds, so the layer's cost on this input
/// is still priced.
fn scheduler(spec: &Spec) -> QosScheduler {
    let overload = match spec.overload {
        Some(o) => OverloadConfig { capacity: o.capacity, policy: OverloadPolicy::CoalesceFrames },
        None => OverloadConfig { capacity: spec.burst, policy: OverloadPolicy::Block },
    };
    QosScheduler::new(overload, &config(spec, Path::new("")).qos)
}

/// Offers a burst to `qos` and releases the survivors.
fn admit(qos: &mut QosScheduler, frames: Vec<Frame>, now: SimTime) -> Vec<BatchedFrame> {
    for (receiver, rssi_dbm, frame) in frames {
        let offer = qos.offer_frame(BatchedFrame { receiver, rssi_dbm, frame }, now);
        debug_assert!(!matches!(offer, FrameOffer::Blocked(_)), "tier sized to the burst");
    }
    let mut survivors = Vec::new();
    for release in qos.release(now) {
        if let Release::Frames(frames) = release {
            survivors.extend(frames);
        }
    }
    survivors
}

/// A store or archive error as an I/O error (the store's own error
/// types carry no `std::error::Error` impl to box).
fn store_err(e: impl std::fmt::Debug) -> std::io::Error {
    std::io::Error::other(format!("{e:?}"))
}

/// Wall-clock totals of the composed replay, ns.
#[derive(Clone, Copy, Debug, Default)]
struct LayerNs {
    decode: u64,
    qos: u64,
    on_batch: u64,
    tick: u64,
    ticks: u64,
    route: u64,
    stage: u64,
    staged: u64,
    writes_ns: u64,
    writes: u64,
    encode: u64,
    mem_append: u64,
    file_append: u64,
    records: u64,
    record_bytes: u64,
    offered: u64,
    filtered_in: u64,
    deliveries: u64,
}

/// The composed replay: the layers' public functions, called in
/// pipeline order from here.
struct Composed {
    qos: QosScheduler,
    filtering: FilteringService,
    dispatch: DispatchingService,
    stage: DeliverySchedule,
    mem: FrameArchive,
    file: FrameArchive,
    ids: Vec<SubscriberId>,
    monitor: Option<SubscriberId>,
    ns: LayerNs,
    encoded: Vec<u8>,
    bounds: Vec<usize>,
}

impl Composed {
    fn new(spec: &Spec, gen: &Generator, dir: &Path) -> std::io::Result<Self> {
        let cfg = config(spec, dir);
        let mut dispatch = DispatchingService::with_cache(cfg.dispatch_cache);
        let ids: Vec<SubscriberId> =
            (0..spec.consumers).map(|_| dispatch.register_subscriber()).collect();
        for (c, id) in ids.iter().enumerate() {
            for f in filters_for(spec, gen, c) {
                dispatch.subscribe(*id, f);
            }
        }
        let mut stage = DeliverySchedule::new(cfg.qos.consumer_queue_capacity);
        for (c, id) in ids.iter().enumerate() {
            if spec.drain_limited(c) {
                stage.set_limit(*id, spec.overload.map(|o| o.drain_limit));
            }
        }
        let segment = garnet_core::ArchiveConfig::default().segment_max_bytes;
        let open = |store: Box<dyn garnet_store::SegmentStore>| {
            FrameArchive::open(store, segment).map(|(a, _)| a).map_err(store_err)
        };
        let file_store = FileStore::open(dir.join("layer-archive")).map_err(store_err)?;
        Ok(Composed {
            qos: scheduler(spec),
            filtering: FilteringService::new(cfg.filter),
            dispatch,
            stage,
            mem: open(Box::new(MemStore::new()))?,
            file: open(Box::new(file_store))?,
            ids,
            monitor: None,
            ns: LayerNs::default(),
            encoded: Vec::new(),
            bounds: Vec::new(),
        })
    }

    fn control(&mut self, op: Op) {
        match op {
            Op::Subscribe { consumer, filter } => {
                self.dispatch.subscribe(self.ids[consumer], filter);
            }
            Op::Unsubscribe { consumer, filter } => {
                self.dispatch.unsubscribe(self.ids[consumer], filter);
            }
            Op::MonitorJoin => {
                let id = self.dispatch.register_subscriber();
                self.dispatch.subscribe(id, TopicFilter::All);
                self.monitor = Some(id);
            }
            Op::MonitorLeave => {
                if let Some(id) = self.monitor.take() {
                    self.dispatch.unsubscribe_all(id);
                }
            }
            // Actuation lives in the control graph, not in a data-path
            // layer; the facade replays carry it.
            Op::Actuate { .. } => {}
        }
    }

    /// One burst through every layer; `rec` gets a span per layer when
    /// given.
    fn apply(&mut self, burst: Burst, rec: Option<&mut Recorder>) {
        let Burst { ordinal, now, ops, frames } = burst;
        let clock = Instant::now();
        let at = |c: &Instant| c.elapsed().as_nanos() as u64;
        let mut marks: Vec<(&'static str, u64, u64)> = Vec::with_capacity(10);
        self.ns.offered += frames.len() as u64;

        let writes = ops
            .iter()
            .filter(|op| matches!(op, Op::Subscribe { .. } | Op::Unsubscribe { .. }))
            .count() as u64;
        if !ops.is_empty() {
            let t = at(&clock);
            for op in ops {
                self.control(op);
            }
            let e = at(&clock);
            if writes > 0 {
                self.ns.writes += writes;
                self.ns.writes_ns += e - t;
                marks.push(("net.pubsub.write", t, e));
            }
        }

        // wire: header parse + zero-copy decode of every frame.
        let t = at(&clock);
        for (_, _, frame) in &frames {
            black_box(
                FrameHeader::parse(frame).is_ok() && DataMessage::decode_frame(frame).is_ok(),
            );
        }
        let e = at(&clock);
        self.ns.decode += e - t;
        marks.push(("wire.decode", t, e));

        // store: encode and append, on one burst in STORE_EVERY.
        let priced = ordinal % STORE_EVERY == 0;
        if priced {
            self.encoded.clear();
            self.bounds.clear();
            let records: Vec<ArchiveRecord> = frames
                .iter()
                .map(|(r, rssi, f)| ArchiveRecord::frame(r.as_u32(), *rssi, f.clone(), now))
                .collect();
            let t = at(&clock);
            for record in &records {
                record.encode_into(&mut self.encoded);
                self.bounds.push(self.encoded.len());
            }
            let e = at(&clock);
            self.ns.encode += e - t;
            marks.push(("store.encode", t, e));
            self.ns.records += records.len() as u64;
            self.ns.record_bytes += self.encoded.len() as u64;
            for (archive, total) in [
                (&mut self.mem, &mut self.ns.mem_append),
                (&mut self.file, &mut self.ns.file_append),
            ] {
                let t = at(&clock);
                let mut from = 0;
                for &to in &self.bounds {
                    archive.append_bytes(&self.encoded[from..to]).expect("scratch store appends");
                    from = to;
                }
                let e = at(&clock);
                *total += e - t;
                marks.push(("store.append", t, e));
            }
        }

        // qos: admission and release.
        let t = at(&clock);
        let survivors = admit(&mut self.qos, frames, now);
        let e = at(&clock);
        self.ns.qos += e - t;
        marks.push(("core.qos.offer_release", t, e));

        // filtering: one batch, then a tick if a deadline has passed.
        let arrivals: Vec<FrameArrival> = survivors
            .into_iter()
            .map(|f| FrameArrival {
                receiver: f.receiver,
                rssi_dbm: f.rssi_dbm,
                frame: f.frame,
                at: now,
            })
            .collect();
        self.ns.filtered_in += arrivals.len() as u64;
        let t = at(&clock);
        let results = self.filtering.on_batch(&arrivals);
        let e = at(&clock);
        self.ns.on_batch += e - t;
        marks.push(("core.filtering.on_batch", t, e));
        let mut deliveries: Vec<_> = results.into_iter().flat_map(|r| r.deliveries).collect();
        if self.filtering.next_deadline().is_some_and(|d| d <= now) {
            let t = at(&clock);
            deliveries.extend(self.filtering.on_tick(now));
            let e = at(&clock);
            self.ns.tick += e - t;
            self.ns.ticks += 1;
            marks.push(("core.filtering.tick", t, e));
        }

        // dispatching: one route per filtered message.
        let t = at(&clock);
        let routed: Vec<_> =
            deliveries.iter().map(|d| self.dispatch.route(d.msg.stream()).recipients).collect();
        let e = at(&clock);
        self.ns.route += e - t;
        marks.push(("core.dispatching.route", t, e));

        // qos: per-subscription delivery staging, then the drain.
        let t = at(&clock);
        let mut handed = 0u64;
        for (delivery, recipients) in deliveries.into_iter().zip(routed) {
            for &id in recipients.iter() {
                self.ns.staged += 1;
                handed += u64::from(self.stage.offer(id, delivery.clone(), 0).is_some());
            }
        }
        handed += self.stage.drain().len() as u64;
        let e = at(&clock);
        self.ns.stage += e - t;
        marks.push(("core.qos.stage", t, e));
        self.ns.deliveries += black_box(handed);

        if let Some(rec) = rec.filter(|rec| rec.has_room(1 + marks.len())) {
            let end = rec.now_ns();
            let start = end - at(&clock);
            let root = rec.record("burst", ordinal, ROOT, start, end).expect("room was checked");
            for (name, s, e) in marks {
                rec.record(name, ordinal, root, start + s, start + e);
            }
        }
    }

    /// Flushes the reorder buffers and the staged deliveries, so the
    /// delivery count can be checked against the generator's books.
    fn flush(&mut self) {
        let late = self.filtering.on_tick(SimTime::from_secs(1 << 30));
        for d in late {
            for &id in self.dispatch.route(d.msg.stream()).recipients.iter() {
                self.ns.deliveries += u64::from(self.stage.offer(id, d.clone(), 0).is_some());
            }
        }
        self.ns.deliveries += self.stage.drain_all().len() as u64;
    }
}

/// A bare engine behind the `RouterDriver` surface, fed what the
/// facade would feed it (the survivors of admission, the same
/// subscription calls, the same ticks). Returns ns per offered frame.
fn bare_driver(
    spec: &'static Spec,
    plan: &Plan,
    kind: DriverKind,
    dir: &Path,
    budget: Duration,
) -> f64 {
    let mut gen = Generator::new(spec, plan.seed);
    let cfg = config(spec, dir);
    let mut driver: Box<dyn RouterDriver> = match kind {
        DriverKind::Fifo => Box::new(FifoDriver::new(
            Services {
                ingest: ShardedIngest::new(cfg.filter, 1),
                dispatch: ShardedDispatch::with_cache(1, cfg.dispatch_cache),
                control: ControlGraph::default(),
            },
            None,
            true,
        )),
        DriverKind::Threaded => Box::new(ThreadedDriver::new(
            cfg.filter,
            1,
            1,
            ControlGraph::default(),
            None,
            true,
            cfg.dispatch_cache,
        )),
    };
    driver.set_telemetry_recording(true);
    let mut ids = Vec::new();
    for c in 0..spec.consumers {
        let id = driver.register_subscriber();
        for f in filters_for(spec, &gen, c) {
            driver.subscribe(id, f);
        }
        ids.push(id);
    }
    let mut qos = scheduler(spec);
    let mut monitor = None;
    let pump = |driver: &mut Box<dyn RouterDriver>, now: SimTime| loop {
        let outputs = driver.pump(now);
        if outputs.is_empty() {
            break;
        }
        for o in outputs {
            match o {
                ServiceOutput::Emit(ev) => driver.push_event(ev, now),
                other => {
                    black_box(other);
                }
            }
        }
    };
    let (mut busy, mut offered, mut timed_from) = (0u64, 0u64, 0u64);
    let warm = plan.warmup_frames(spec);
    let slice = plan.slice_frames(spec);
    let started = Instant::now();
    loop {
        let burst = gen.next_burst();
        let now = burst.now;
        offered += burst.frames.len() as u64;
        let t = Instant::now();
        for op in burst.ops {
            match op {
                Op::Subscribe { consumer, filter } => {
                    driver.subscribe(ids[consumer], filter);
                }
                Op::Unsubscribe { consumer, filter } => {
                    driver.unsubscribe(ids[consumer], filter);
                }
                Op::MonitorJoin => {
                    let id = driver.register_subscriber();
                    driver.subscribe(id, TopicFilter::All);
                    monitor = Some(id);
                }
                Op::MonitorLeave => {
                    if let Some(id) = monitor.take() {
                        driver.unsubscribe_all(id);
                    }
                }
                Op::Actuate { .. } => {}
            }
        }
        let control = t.elapsed();
        // Admission is the QoS layer's, priced in the composed replay.
        let survivors = admit(&mut qos, burst.frames, now);
        let t = Instant::now();
        for o in driver.admit_frames(survivors, now) {
            black_box(o);
        }
        pump(&mut driver, now);
        if driver.next_deadline().is_some_and(|d| d <= now) {
            driver.push_event(ServiceEvent::FlushReorder, now);
            pump(&mut driver, now);
            driver.push_event(ServiceEvent::ActuationTick, now);
            pump(&mut driver, now);
        }
        if offered > warm {
            busy += (control + t.elapsed()).as_nanos() as u64;
        } else {
            timed_from = offered;
        }
        let timed = offered - timed_from;
        let done = if plan.quick { timed >= slice } else { started.elapsed() >= budget };
        if timed >= slice && done {
            break;
        }
    }
    for o in driver.shutdown(SimTime::from_secs(1 << 30)) {
        black_box(o);
    }
    busy as f64 / (offered - timed_from) as f64
}

/// `ShardPool::submit_batch` → `drain` with an identity worker: ns per
/// job at the given job-batch size.
fn shardpool_roundtrip(batch: usize, rounds: usize) -> f64 {
    let mut pool: ShardPool<u64, u64> = ShardPool::new(1, 1_024, |_| Box::new(|x| x));
    let started = Instant::now();
    for round in 0..rounds {
        pool.submit_batch(0, (0..batch as u64).map(|i| i + round as u64).collect());
        let mut back = 0;
        while back < batch {
            back += black_box(pool.drain()).len();
            std::hint::spin_loop();
        }
    }
    let ns = started.elapsed().as_nanos() as f64;
    let (_, failures) = pool.finish();
    assert!(failures.is_empty(), "identity worker cannot fail");
    ns / (rounds * batch) as f64
}

/// Bytes and lines of the telemetry sink under `dir`.
fn sink_size(dir: &Path) -> (u64, u64) {
    let mut total = (0, 0);
    for entry in std::fs::read_dir(dir.join("telemetry")).into_iter().flatten().flatten() {
        if let Ok(text) = std::fs::read_to_string(entry.path()) {
            total.0 += text.len() as u64;
            total.1 += text.lines().count() as u64;
        }
    }
    total
}

/// One fixed-length facade replay.
struct Replay {
    rig: Rig,
    gen: Generator,
    /// Wall-clock inside program calls per offered frame (ns).
    ns_per_frame: f64,
    /// Frames offered after the warm-up.
    offered: u64,
    /// Sim time of the last burst.
    last: SimTime,
    /// Generator cost per offered frame (ns).
    generator_ns_per_frame: f64,
    /// Open loop: generator lateness samples (ns).
    late_ns: Vec<u64>,
    /// Delivery latency at the probe consumer over the whole replay.
    latency: Latency,
}

/// A fixed-length facade replay: `Plan::replay_frames` after the
/// warm-up. With a recorder, each burst gets a root span and the
/// allocation counter runs inside the program's calls.
fn facade_replay(
    spec: &'static Spec,
    plan: &Plan,
    dir: &Path,
    mut rec: Option<&mut Recorder>,
) -> Replay {
    let (mut rig, mut gen, _) = set_up(spec, plan, dir);
    rig.stats[0].take_latencies_ns();
    let frames = plan.replay_frames(spec);
    let (mut offered, mut busy, mut generating) = (0u64, 0u64, 0u64);
    let mut last = SimTime::ZERO;
    let mut pacer = Pacer::for_spec(spec, &rig);
    while offered < frames {
        let t = Instant::now();
        let burst = gen.next_burst();
        generating += t.elapsed().as_nanos() as u64;
        offered += burst.frames.len() as u64;
        last = burst.now;
        let ordinal = burst.ordinal;
        // Open loop keeps its schedule, so the engine sees the same
        // idle gaps as in the untraced run.
        let stamp = pacer.as_mut().map(|p| p.next_origin(&rig));
        match rec.as_deref_mut() {
            Some(rec) => {
                let start = rec.now_ns();
                alloc::set_counting(true);
                let ns = rig.apply(burst, stamp);
                alloc::set_counting(false);
                busy += ns;
                rec.record("facade.burst", ordinal, ROOT, start, start + ns);
            }
            None => busy += rig.apply(burst, stamp),
        }
    }
    let latency = Latency::of(&rig.stats[0].take_latencies_ns());
    if let Some(burst) = gen.closing_burst() {
        last = burst.now;
        rig.apply(burst, None);
    }
    Replay {
        rig,
        gen,
        latency,
        ns_per_frame: busy as f64 / offered as f64,
        offered,
        last,
        generator_ns_per_frame: generating as f64 / offered as f64,
        late_ns: pacer.map_or_else(Vec::new, |p| p.late_ns),
    }
}

/// The traced run of one workload.
pub fn trace(spec: &'static Spec, plan: &Plan, scratch: &Scratch) -> std::io::Result<Traced> {
    let started = Instant::now();
    let mut rec = Recorder::new(SPAN_CAP);

    // 1. Facade, tracing off.
    let dir = scratch.sub("facade-plain")?;
    let mut plain = facade_replay(spec, plan, &dir, None);
    plain.rig.finish(plain.last);
    let plain_ns = plain.ns_per_frame;
    drop(plain);

    // 2. Facade, tracing on: spans, allocation counts, program counters.
    let dir = scratch.sub("facade-traced")?;
    let (allocs0, bytes0) = alloc::counted();
    let Replay {
        mut rig,
        gen,
        ns_per_frame: facade_ns,
        offered: attempted,
        last,
        generator_ns_per_frame,
        late_ns,
        latency,
    } = facade_replay(spec, plan, &dir, Some(&mut rec));
    let (allocs1, bytes1) = alloc::counted();
    let g = &mut rig.garnet;
    let emits = g.last_telemetry().map_or(0, |s| s.seq);
    let snapshot_us = Summary::of(
        &(0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(g.telemetry(last));
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect::<Vec<_>>(),
    )
    .median;
    // The engine's edge counters retire with its worker pools.
    let edge_submits: u64 = g.edge_class_submits().iter().sum();
    let (shutdown_ns, shutdown_ok) = rig.finish(last);
    let (sink_bytes, sink_lines) = sink_size(&dir);
    let mut verdict = verify(&rig, &gen, &dir);
    if !shutdown_ok {
        verdict.failed += 1;
        verdict.notes.push("shutdown failed to flush the archive".into());
    }
    let g = &rig.garnet;
    let offered_all = gen.counts().offered as f64;
    let (fs, ds) = (g.filtering(), g.dispatching());
    let mc = ds.match_cache();
    let resolves = (mc.hits + mc.misses + mc.invalidations).max(1) as f64;
    let ledgers = g.qos_ledgers().copied().unwrap_or_default();
    let data = *ledgers.class(PriorityClass::Data);
    let above_data_shed =
        ledgers.class(PriorityClass::Control).shed + ledgers.class(PriorityClass::Actuation).shed;
    let archive = g.archive_ledger().unwrap_or_default();
    let program = [
        ("wire.reject_share", fs.crc_failure_count() as f64 / offered_all),
        ("core.filtering.duplicate_share", fs.duplicate_count() as f64 / offered_all),
        ("core.filtering.reordered_share", fs.reordered_count() as f64 / offered_all),
        ("core.filtering.gap_count", fs.gap_count() as f64),
        ("core.filtering.streams_resident", fs.stream_count() as f64),
        (
            "core.dispatching.fanout_mean",
            ds.delivery_count() as f64 / ds.dispatched_count().max(1) as f64,
        ),
        ("net.pubsub.cache_hit_share", mc.hits as f64 / resolves),
        ("net.pubsub.cache_invalidations", mc.invalidations as f64),
        ("core.qos.shed_share", data.shed as f64 / data.offered.max(1) as f64),
        ("core.qos.coalesced_share", data.coalesced as f64 / data.offered.max(1) as f64),
        ("core.qos.control_shed", above_data_shed as f64),
        ("core.qos.retunes", g.qos_retune_count() as f64),
        ("core.archive.dropped_share", archive.dropped as f64 / archive.offered.max(1) as f64),
        ("net.edge_submits_per_frame", edge_submits as f64 / offered_all),
        ("net.shard_restarts", rig.failures.shard_faults as f64),
        ("core.telemetry.snapshot_us", snapshot_us),
        ("core.telemetry.emits", emits as f64),
        ("core.telemetry.jsonl_bytes_per_snapshot", sink_bytes as f64 / sink_lines.max(1) as f64),
        ("core.middleware.allocs_per_frame", (allocs1 - allocs0) as f64 / attempted as f64),
        ("core.middleware.alloc_bytes_per_frame", (bytes1 - bytes0) as f64 / attempted as f64),
        ("core.middleware.shutdown_ms", shutdown_ns as f64 / 1e6),
        ("bench.delivery_latency_p90_us", latency.p90_us),
        ("bench.delivery_latency_p99_us", latency.tail_us),
        ("bench.generator.ns_per_frame", generator_ns_per_frame),
        ("bench.generator.late_p99_us", Latency::of(&late_ns).tail_us),
    ];
    drop(rig);

    // 3. The composed replay and 4. the two bare drivers each get a
    // third of what is left of the budget (and run at least one slice).
    let share = Duration::from_secs_f64(plan.seconds).saturating_sub(started.elapsed()) / 3;
    let dir = scratch.sub("layers")?;
    let mut gen = Generator::new(spec, plan.seed);
    let mut composed = Composed::new(spec, &gen, &dir)?;
    let warm = plan.warmup_frames(spec);
    while gen.counts().offered < warm {
        composed.apply(gen.next_burst(), None);
    }
    let warm_ns = composed.ns;
    let timed_from = gen.counts().offered;
    let replay = Instant::now();
    loop {
        composed.apply(gen.next_burst(), Some(&mut rec));
        let timed = gen.counts().offered - timed_from;
        let done = if plan.quick { true } else { replay.elapsed() >= share };
        if timed >= plan.slice_frames(spec) && done {
            break;
        }
    }
    let n = composed.ns;
    let per_frame =
        |total: u64, warm: u64| (total - warm) as f64 / (n.offered - warm_ns.offered) as f64;
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let t = Instant::now();
    composed.file.sync().map_err(store_err)?;
    let sync_ms = t.elapsed().as_nanos() as f64 / 1e6;
    let segments_rolled = composed.file.current_segment() as f64;
    if let Some(burst) = gen.closing_burst() {
        composed.apply(burst, None);
    }
    composed.flush();
    let books: u64 = (0..spec.consumers).map(|c| gen.expected(c).count).sum::<u64>()
        + gen.expected_monitor().count;
    if spec.overload.is_none() && composed.ns.deliveries != books {
        verdict.failed += composed.ns.deliveries.abs_diff(books);
        verdict.notes.push(format!(
            "composed replay handed over {} deliveries, expected {books}",
            composed.ns.deliveries
        ));
    }
    let appended = composed.file.appended();
    drop(composed);
    let t = Instant::now();
    let recovered = FileStore::open(dir.join("layer-archive"))
        .and_then(|s| FrameArchive::open(Box::new(s), u64::MAX))
        .map(|(_, report)| report.records)
        .map_err(store_err)?;
    let recover_ms = t.elapsed().as_nanos() as f64 / 1e6;
    if recovered != appended {
        verdict.failed += recovered.abs_diff(appended);
        verdict.notes.push(format!("layer archive recovered {recovered} of {appended} records"));
    }

    let decode = per_frame(n.decode, warm_ns.decode);
    let filtering = per_frame(n.on_batch + n.tick, warm_ns.on_batch + warm_ns.tick);
    let route = per_frame(n.route, warm_ns.route);
    let offer_release = per_frame(n.qos, warm_ns.qos);
    let stage_per_frame = per_frame(n.stage, warm_ns.stage);
    let encode = ratio(n.encode - warm_ns.encode, n.records - warm_ns.records);
    let mem_append = ratio(n.mem_append - warm_ns.mem_append, n.records - warm_ns.records);
    let file_append = ratio(n.file_append - warm_ns.file_append, n.records - warm_ns.records);

    let dir = scratch.sub("drivers")?;
    let fifo = bare_driver(spec, plan, DriverKind::Fifo, &dir, share);
    let threaded = bare_driver(spec, plan, DriverKind::Threaded, &dir, share);
    let rounds = if plan.quick { 200 } else { 4_000 };
    let (pool8, pool64) = (shardpool_roundtrip(8, rounds), shardpool_roundtrip(64, rounds / 4));

    // The budget: what the facade's own figure is made of.
    let engine = if spec.driver == DriverKind::Threaded { threaded } else { fifo };
    let archive_cost = if spec.archive_file { encode + file_append } else { 0.0 };
    let qos_cost = stage_per_frame + if spec.overload.is_some() { offer_release } else { 0.0 };
    let middleware_self = facade_ns - engine - archive_cost - qos_cost;

    let mut by_name: BTreeMap<&'static str, f64> = program.into_iter().collect();
    by_name.extend([
        ("wire.decode_ns_per_frame", decode),
        // Filtering decodes only what admission let through.
        (
            "core.filtering.self_ns_per_frame",
            filtering
                - decode * ratio(n.filtered_in - warm_ns.filtered_in, n.offered - warm_ns.offered),
        ),
        (
            "core.filtering.tick_us_per_call",
            ratio(n.tick - warm_ns.tick, n.ticks - warm_ns.ticks) / 1e3,
        ),
        ("core.dispatching.route_ns_per_frame", route),
        (
            "net.pubsub.write_ns_per_op",
            ratio(n.writes_ns - warm_ns.writes_ns, n.writes - warm_ns.writes),
        ),
        ("core.qos.offer_release_ns_per_frame", offer_release),
        (
            "core.qos.stage_ns_per_delivery",
            ratio(n.stage - warm_ns.stage, n.staged - warm_ns.staged),
        ),
        ("store.encode_ns_per_record", encode),
        ("store.mem.append_ns_per_record", mem_append),
        ("store.file.append_ns_per_record", file_append),
        ("store.bytes_per_record", ratio(n.record_bytes, n.records)),
        ("store.segments_rolled", segments_rolled),
        ("store.file.sync_ms", sync_ms),
        ("store.recover_ms", recover_ms),
        ("core.driver.fifo_ns_per_frame", fifo),
        ("core.driver.threaded_ns_per_frame", threaded),
        ("core.router.self_ns_per_frame", fifo - filtering - route),
        ("net.coordination_ns_per_frame", threaded - fifo),
        ("net.shardpool.roundtrip_ns_per_job_8", pool8),
        ("net.shardpool.roundtrip_ns_per_job_64", pool64),
        ("core.middleware.facade_ns_per_frame", facade_ns),
        ("core.middleware.self_ns_per_frame", middleware_self),
        ("core.middleware.layer_sum_share", (facade_ns - middleware_self) / facade_ns),
        ("bench.trace_overhead_share", 1.0 - plain_ns / facade_ns),
        ("bench.failed_share", verdict.failed as f64 / attempted as f64),
    ]);
    Ok(Traced { metrics: by_name, attempted, verdict, recorder: rec })
}
