//! Flight-recorder contract tests.
//!
//! The recorder's promise is that a trace is *evidence*: on a fixed
//! workload the `Router` produces the same JSONL dump on every run — so
//! a trace diff localises a real behavioural difference, never noise.
//! And it only observes:
//! off (capacity 0, the default) or on, every delivery, output, metric
//! and ledger is the same.

mod common;

use std::sync::{Arc, Mutex};

use common::{filters, frame, Boundary};
use garnet::core::archive::ArchiveConfig;
use garnet::core::consumer::{Consumer, ConsumerCtx};
use garnet::core::filtering::{Delivery, FilterConfig};
use garnet::core::middleware::{Garnet, GarnetConfig};
use garnet::core::router::{OverloadConfig, OverloadPolicy, ShardedIngest};
use garnet::core::{DispatchCacheConfig, TopicFilter};
use garnet::radio::ReceiverId;
use garnet::simkit::trace::{TraceEventKind, TraceOutcome, TraceSnapshot};
use garnet::simkit::SimTime;
use garnet::wire::{SensorId, StreamId, StreamIndex};

/// A ring that holds any of these workloads whole (the recorder is off
/// unless a test sets a capacity).
const RING: usize = 65_536;

/// The schedule every test here runs.
fn schedule() -> Vec<Boundary> {
    common::schedule(25)
}

/// The trace of the schedule driven through a bare router —
/// frame-at-a-time (each boundary input pumped to quiescence), which is
/// the regime the trace-parity contract covers.
fn reference_trace(
    sched: &[Boundary],
    capacity: usize,
    cache: DispatchCacheConfig,
) -> TraceSnapshot {
    let ingest = ShardedIngest::new(FilterConfig::default(), 1);
    let mut router = common::router(ingest, cache, capacity);
    common::drive(&mut router, sched);
    router.trace_snapshot()
}

// The name predates the second engine's removal: this is now a second
// run of the bare router checked against the first, per cache setting.
#[test]
fn threaded_trace_matches_single_threaded() {
    let sched = schedule();
    for cache in [DispatchCacheConfig::default(), DispatchCacheConfig::disabled()] {
        let want = reference_trace(&sched, RING, cache);
        assert_eq!(want.dropped, 0, "default ring must hold the whole workload");
        // The workload exercises every data-plane stage.
        for kind in ["\"kind\":\"frame\"", "\"kind\":\"filtered\"", "\"kind\":\"orphaned\""] {
            assert!(want.to_jsonl().contains(kind), "reference trace lacks {kind}");
        }
        let got = reference_trace(&sched, RING, cache);
        assert_eq!(got.to_jsonl(), want.to_jsonl(), "a second run's trace diverged ({cache:?})");
    }
}

// The name predates the second engine's removal: the layout axis is
// gone, and what is left is the run-to-run check.
#[test]
fn threaded_trace_is_identical_across_runs_and_layouts() {
    let sched = schedule();
    let cache = DispatchCacheConfig::default();
    let a = reference_trace(&sched, RING, cache).to_jsonl();
    let b = reference_trace(&sched, RING, cache).to_jsonl();
    assert_eq!(a, b, "the trace differed across runs");
}

#[test]
fn cache_rebuilds_are_traced_once_per_cold_stream_and_vanish_when_disabled() {
    let enabled = DispatchCacheConfig::default();
    let capacity = RING;
    let sched = schedule();
    let want = reference_trace(&sched, capacity, enabled);
    let rebuilds: Vec<usize> = want
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.kind == TraceEventKind::CacheRebuild)
        .map(|(i, _)| i)
        .collect();
    // Subscriptions are static, so every stream builds its match set
    // exactly once (cold) and hits thereafter: one rebuild per
    // distinct stream the schedule routes.
    assert_eq!(rebuilds.len(), 6, "one cold build per sensor: {}", want.to_jsonl());
    for &i in &rebuilds {
        let prev = &want.records[i - 1];
        let rec = &want.records[i];
        assert_eq!(prev.kind, TraceEventKind::Filtered, "rebuild must follow its hop");
        assert_eq!((prev.stream, prev.root), (rec.stream, rec.root));
    }
    // With the cache disabled every route builds fresh and nothing
    // is a "rebuild": the records vanish and the rest of the trace
    // is unchanged.
    let uncached = reference_trace(&sched, capacity, DispatchCacheConfig::disabled());
    assert!(
        uncached.records.iter().all(|r| r.kind != TraceEventKind::CacheRebuild),
        "disabled cache must trace no rebuilds"
    );
    let strip = |snap: &TraceSnapshot| {
        snap.records
            .iter()
            .filter(|r| r.kind != TraceEventKind::CacheRebuild)
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(&want), strip(&uncached), "cache toggle must only add rebuild hops");
}

#[test]
fn ring_wraps_with_exact_drop_accounting_end_to_end() {
    let sched = schedule();
    let cache = DispatchCacheConfig::default();
    let full = reference_trace(&sched, RING, cache);
    let total = full.records.len();
    let capacity = 32usize;
    assert!(total > capacity, "workload must overflow the small ring");
    let small = reference_trace(&sched, capacity, cache);
    assert_eq!(small.records.len(), capacity);
    assert_eq!(small.dropped, (total - capacity) as u64, "dropped count must be exact");
    // The ring keeps the newest records, in order.
    assert_eq!(small.records, full.records[total - capacity..].to_vec());
    // Stage statistics survive eviction: hops count every record.
    let full_hops: u64 = full.stages.iter().map(|s| s.hops).sum();
    let small_hops: u64 = small.stages.iter().map(|s| s.hops).sum();
    assert_eq!(small_hops, full_hops);
}

/// Feeds one `on_frames` burst of sensor 1's `seqs` through a facade
/// whose admission tier holds `capacity` frames under `policy`, and
/// returns the trace.
fn overloaded_facade_trace(capacity: usize, policy: OverloadPolicy, seqs: &[u16]) -> TraceSnapshot {
    let mut g = Garnet::new(GarnetConfig {
        overload: Some(OverloadConfig { capacity, policy }),
        trace_capacity: RING,
        ..GarnetConfig::default()
    });
    let burst: Vec<_> =
        seqs.iter().map(|&seq| (ReceiverId::new(0), -40.0, frame(1, 0, seq))).collect();
    g.on_frames(burst, SimTime::ZERO);
    g.trace_snapshot()
}

#[test]
fn shed_frames_are_traced_with_shed_outcome() {
    // Three frames against a tier of two: the third offer sheds the
    // oldest staged frame (seq 0), and the recorder says so.
    let fifo = overloaded_facade_trace(2, OverloadPolicy::Shed, &[0, 1, 2]);
    let shed: Vec<_> = fifo.records.iter().filter(|r| r.outcome == TraceOutcome::Shed).collect();
    assert_eq!(shed.len(), 1, "exactly one frame was shed: {}", fifo.to_jsonl());
    assert_eq!(shed[0].kind, TraceEventKind::Frame);
    assert_eq!(
        shed[0].stream,
        Some(StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0)).to_raw())
    );
    assert_eq!(shed[0].root, Some(0), "dropped before either survivor entered the engine");
    let survivors =
        fifo.records.iter().filter(|r| r.kind == TraceEventKind::Frame).count() - shed.len();
    assert_eq!(survivors, 2, "the two newest frames are traced as routed");
}

#[test]
fn coalesced_frames_are_traced_with_coalesced_outcome() {
    // Tier of one: seq 0 stages; seq 1 arrives at capacity and wins,
    // so the staged seq 0 is the first loser; seq 0 arrives again
    // and loses to the staged seq 1 — one record per loser.
    let fifo = overloaded_facade_trace(1, OverloadPolicy::CoalesceFrames, &[0, 1, 0]);
    let coalesced: Vec<_> =
        fifo.records.iter().filter(|r| r.outcome == TraceOutcome::Coalesced).collect();
    assert_eq!(coalesced.len(), 2, "one loser per coalescing event: {}", fifo.to_jsonl());
    assert!(coalesced.iter().all(|r| r.kind == TraceEventKind::Frame));
    assert_eq!((coalesced[0].root, coalesced[1].root), (Some(0), Some(1)));
    // The surviving seq-1 frame is routed and traced normally.
    let routed: Vec<_> = fifo
        .records
        .iter()
        .filter(|r| r.kind == TraceEventKind::Frame && r.outcome == TraceOutcome::Delivered)
        .collect();
    assert_eq!(routed.len(), 1);
    assert_eq!(routed[0].root, Some(2));
}

#[test]
fn facade_exposes_trace_snapshots_and_jsonl() {
    let mut g = Garnet::new(GarnetConfig { trace_capacity: RING, ..GarnetConfig::default() });
    g.on_frame(ReceiverId::new(0), -50.0, &frame(1, 0, 0), SimTime::ZERO);
    let snap = g.trace_snapshot();
    assert!(!snap.records.is_empty(), "facade pumping must be traced");
    let jsonl = snap.to_jsonl();
    assert_eq!(jsonl.lines().count(), snap.records.len());
    assert!(jsonl.lines().all(|l| l.starts_with("{\"at_us\":") && l.ends_with('}')));
}

#[test]
fn recorder_is_off_by_default_and_snapshots_are_empty() {
    assert_eq!(GarnetConfig::default().trace_capacity, 0);
    let mut g = Garnet::new(GarnetConfig::default());
    g.on_frame(ReceiverId::new(0), -50.0, &frame(1, 0, 0), SimTime::ZERO);
    let snap = g.trace_snapshot();
    assert!(snap.records.is_empty() && snap.stages.is_empty());
    assert_eq!(snap.dropped, 0, "off is not \"everything dropped\"");
}

/// Everything a caller can observe of one facade run besides the trace.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Each consumer's delivery sequence, `(stream, seq)`.
    deliveries: Vec<Vec<(u32, u16)>>,
    /// Every call's `StepOutput`, as `Debug` prints it.
    outputs: Vec<String>,
    report: String,
    telemetry: String,
    ledgers: String,
}

struct Recorder(Arc<Mutex<Vec<(u32, u16)>>>);

impl Consumer for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn on_data(&mut self, d: &Delivery, _ctx: &mut ConsumerCtx) {
        self.0.lock().unwrap().push((d.msg.stream().to_raw(), d.msg.seq().as_u16()));
    }
}

/// Runs the boundary schedule through a facade built from `config` —
/// two consumers holding [`filters`], the second drain-limited, frames
/// offered in bursts of up to `burst` — shuts it down, and returns the
/// trace dump beside everything else the run showed.
fn facade_run(config: GarnetConfig, burst: usize) -> (String, Observed) {
    let mut g = Garnet::new(config);
    let token = g.issue_default_token("app");
    let logs: Vec<_> = (0..2).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let ids: Vec<_> = logs
        .iter()
        .map(|log| g.register_consumer(Box::new(Recorder(log.clone())), &token, 0).unwrap())
        .collect();
    g.set_consumer_drain_limit(ids[1], Some(2));
    for (consumer, filter) in filters() {
        g.subscribe(ids[consumer as usize], filter, &token).unwrap();
    }
    let mut outputs = Vec::new();
    let mut pending = Vec::new();
    let mut end = SimTime::ZERO;
    for b in schedule() {
        let (frame, at) = match b {
            Boundary::Frame(bytes, at) => (Some(bytes), at),
            Boundary::Flush(at) | Boundary::Tick(at) => (None, at),
        };
        end = at;
        let tick = frame.is_none();
        pending.extend(frame.map(|bytes| (ReceiverId::new(0), -40.0, bytes)));
        if !pending.is_empty() && (tick || pending.len() == burst) {
            outputs.push(format!("{:?}", g.on_frames(std::mem::take(&mut pending), at)));
        }
        if tick {
            outputs.push(format!("{:?}", g.on_tick(at)));
        }
    }
    outputs.push(format!("{:?}", g.shutdown(end).expect("nothing here can wedge")));
    let observed = Observed {
        deliveries: logs.iter().map(|log| log.lock().unwrap().clone()).collect(),
        outputs,
        report: g.metrics().report(),
        telemetry: g.telemetry(end).to_jsonl(),
        ledgers: format!(
            "{:?} {:?} {:?}",
            g.qos_ledgers(),
            g.delivery_ledger(),
            g.archive_ledger()
        ),
    };
    (g.trace_snapshot().to_jsonl(), observed)
}

/// The frame-at-a-time trace dump of the schedule.
fn facade_trace() -> String {
    facade_run(GarnetConfig { trace_capacity: RING, ..GarnetConfig::default() }, 1).0
}

#[test]
fn recorder_observes_and_does_not_participate() {
    // Bursts of eight against an admission tier of four, so frames are
    // shed and coalesced; the archive tap on, so its recorder runs too.
    let run = |trace_capacity| {
        let config = GarnetConfig {
            overload: Some(OverloadConfig { capacity: 4, policy: OverloadPolicy::CoalesceFrames }),
            archive: Some(ArchiveConfig::default()),
            trace_capacity,
            ..GarnetConfig::default()
        };
        facade_run(config, 8)
    };
    let (off_trace, off) = run(0);
    assert!(off_trace.is_empty(), "capacity 0 records nothing");
    assert!(off.deliveries.iter().all(|d| !d.is_empty()), "both consumers fed");
    // Small enough to wrap many times over.
    let (on_trace, on) = run(32);
    assert_eq!(on_trace.lines().count(), 32, "the ring filled");
    let whole = run(RING).0;
    for outcome in ["\"outcome\":\"shed\"", "\"outcome\":\"coalesced\""] {
        assert!(whole.contains(outcome), "no {outcome} hop");
    }
    assert_eq!(on, off, "turning the recorder on changed the run");
}

// The name predates the second engine's removal: the driver and shard
// axes are gone, and what is left is the run-to-run check.
#[test]
fn facade_trace_is_driver_invariant() {
    let want = facade_trace();
    assert!(want.contains("\"kind\":\"filtered\""), "workload must reach dispatch");
    assert_eq!(facade_trace(), want, "a second run's trace diverged");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The trace is causally complete on the data plane: every
        /// `Filtered` hop either went to a subscriber (deliveries
        /// escape the router untraced) or shows up again as an
        /// `Orphaned` hop for the same root and stream — exactly one
        /// of the two, never both, never neither.
        #[test]
        fn every_filtered_hop_is_claimed_or_orphaned(
            subscribed_raw in proptest::collection::vec(1u32..=6, 0..=6),
            frames in proptest::collection::vec((1u32..=6, 0u16..12), 1..40),
        ) {
            let subscribed: std::collections::BTreeSet<u32> =
                subscribed_raw.into_iter().collect();
            let mut g = Garnet::new(GarnetConfig {
                trace_capacity: RING,
                ..GarnetConfig::default()
            });
            let token = g.issue_default_token("app");
            let (consumer, _) =
                garnet::workloads::pipeline::SharedCountConsumer::new("app");
            let id = g.register_consumer(Box::new(consumer), &token, 0).unwrap();
            for s in &subscribed {
                g.subscribe(id, TopicFilter::Sensor(SensorId::new(*s).unwrap()), &token)
                    .unwrap();
            }
            let mut t = 0u64;
            for (sensor, seq) in &frames {
                g.on_frame(
                    ReceiverId::new(0),
                    -45.0,
                    &frame(*sensor, 0, *seq),
                    SimTime::from_millis(t),
                );
                t += 2;
            }
            // A far-future tick flushes every stalled reorder buffer
            // so gapped messages also make their Filtered hop.
            g.on_tick(SimTime::from_millis(t + 120_000));
            let records = g.trace_snapshot().records;
            for (i, r) in records.iter().enumerate() {
                if r.kind != TraceEventKind::Filtered
                    || r.outcome != TraceOutcome::Delivered
                {
                    continue;
                }
                let sensor = r.sensor.expect("filtered hops carry a sensor id");
                let claimed = subscribed.contains(&sensor);
                let orphaned_later = records[i + 1..].iter().any(|o| {
                    o.kind == TraceEventKind::Orphaned
                        && o.root == r.root
                        && o.stream == r.stream
                });
                prop_assert!(
                    claimed != orphaned_later,
                    "filtered hop (root {:?}, stream {:?}): claimed={} orphaned={}",
                    r.root,
                    r.stream,
                    claimed,
                    orphaned_later,
                );
            }
        }
    }
}
