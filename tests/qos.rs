//! Per-consumer QoS scheduling: priority classes, per-subscription
//! coalescing, adaptive capacity, and the per-class admission ledger.
//!
//! The scheduler's contract (ISSUE 10): Control > Actuation > Data with
//! strict-priority release and no shedding above the data tier; the
//! exact `offered == shed + delivered` ledger holds **per class**; a
//! slow consumer's backlog never perturbs a fast co-subscriber; and the
//! whole layer is bit-identical across execution engines.

use std::sync::{Arc, Mutex};

use garnet::core::consumer::{Consumer, ConsumerCtx};
use garnet::core::filtering::Delivery;
use garnet::core::middleware::{ActuationOutcome, Garnet, GarnetConfig};
use garnet::core::router::{
    ControlGraph, OverloadConfig, OverloadPolicy, Router, Services, ShardedDispatch, ShardedIngest,
};
use garnet::core::service::BatchedFrame;
use garnet::core::{DriverKind, PriorityClass, QosConfig, ServiceOutput};
use garnet::net::{SubscriberId, TopicFilter};
use garnet::radio::geometry::Point;
use garnet::radio::ReceiverId;
use garnet::simkit::SimTime;
use garnet::wire::{
    AckStatus, ActuationTarget, DataMessage, FrameBytes, SensorCommand, SensorId, SequenceNumber,
    StreamId, StreamIndex,
};

const CAPACITY: usize = 32;
const STREAMS: u32 = 6;

/// The byte-exact delivery log one consumer observed.
type Log = Arc<Mutex<Vec<(u32, u16, Vec<u8>)>>>;

struct Recorder {
    name: &'static str,
    log: Log,
}

impl Consumer for Recorder {
    fn name(&self) -> &str {
        self.name
    }
    fn on_data(&mut self, d: &Delivery, _ctx: &mut ConsumerCtx) {
        self.log.lock().unwrap().push((
            d.msg.stream().to_raw(),
            d.msg.seq().as_u16(),
            d.msg.payload().to_vec(),
        ));
    }
}

fn scheduled(policy: OverloadPolicy) -> GarnetConfig {
    GarnetConfig {
        overload: Some(OverloadConfig { capacity: CAPACITY, policy }),
        ..GarnetConfig::default()
    }
}

/// One encoded frame on `sensor`'s stream 0.
fn frame(sensor: u32, seq: u16) -> Vec<u8> {
    let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
    DataMessage::builder(stream)
        .seq(SequenceNumber::new(seq))
        .payload(vec![sensor as u8, seq as u8])
        .build()
        .unwrap()
        .encode_to_vec()
}

/// An interleaved burst of `multiplier * CAPACITY` frames over
/// [`STREAMS`] streams, with every third frame duplicated so coalescing
/// has work to do.
fn burst(multiplier: usize) -> Vec<(ReceiverId, f64, Vec<u8>)> {
    let mut frames = Vec::new();
    for i in 0..(multiplier * CAPACITY) as u64 {
        let sensor = (i % u64::from(STREAMS)) as u32 + 1;
        let seq = (i / u64::from(STREAMS)) as u16;
        let bytes = frame(sensor, seq);
        frames.push((ReceiverId::new(0), -50.0, bytes.clone()));
        if i % 3 == 0 {
            frames.push((ReceiverId::new(0), -50.0, bytes));
        }
    }
    frames
}

/// Registers a recording consumer subscribed to every stream.
fn register(g: &mut Garnet, name: &'static str) -> (SubscriberId, Log) {
    let token = g.issue_default_token(name);
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let id = g
        .register_consumer(Box::new(Recorder { name, log: Arc::clone(&log) }), &token, 0)
        .expect("fresh facade accepts a consumer");
    g.subscribe(id, TopicFilter::All, &token).expect("subscribe with a fresh token");
    (id, log)
}

#[test]
fn per_class_ledger_holds_on_both_engines() {
    for driver in [DriverKind::Fifo, DriverKind::Threaded] {
        for policy in [OverloadPolicy::Shed, OverloadPolicy::CoalesceFrames, OverloadPolicy::Block]
        {
            let mut g = Garnet::new(GarnetConfig { driver, ..scheduled(policy) });
            let (_, _log) = register(&mut g, "sink");
            assert!(g.qos_active(), "an overload config must arm the scheduler");
            // Data through admission; control (flush) and actuation
            // (ticks) through the event tiers.
            g.on_frames(burst(8), SimTime::from_millis(1));
            g.on_tick(SimTime::from_secs(1));
            g.on_frames(burst(4), SimTime::from_secs(2));
            g.on_tick(SimTime::from_secs(3));
            let ledgers = g.qos_ledgers().expect("scheduler is active");
            for class in PriorityClass::ALL {
                let l = ledgers.class(class);
                assert!(
                    l.balanced(),
                    "{driver:?} {policy:?} {}: offered {} != shed {} + delivered {}",
                    class.name(),
                    l.offered,
                    l.shed,
                    l.delivered
                );
                assert!(l.coalesced <= l.shed, "coalesced is a subset of shed");
            }
            assert!(ledgers.class(PriorityClass::Data).offered > 0, "burst reached the data tier");
            assert!(
                g.queue_depth_p99() <= CAPACITY as u64,
                "{driver:?} {policy:?}: p99 queue depth {} over the bound",
                g.queue_depth_p99()
            );
            g.shutdown(SimTime::from_secs(4)).expect("clean shutdown");
        }
    }
}

#[test]
fn control_and_actuation_are_never_shed_under_data_overload() {
    for driver in [DriverKind::Fifo, DriverKind::Threaded] {
        let mut g = Garnet::new(GarnetConfig { driver, ..scheduled(OverloadPolicy::Shed) });
        let (_, _log) = register(&mut g, "sink");
        // 16x the data tier's capacity, with flush/actuation ticks
        // interleaved between bursts.
        for round in 0..4u64 {
            g.on_frames(burst(4), SimTime::from_millis(1 + round * 1_000));
            g.on_tick(SimTime::from_secs(1 + round));
        }
        let ledgers = g.qos_ledgers().expect("scheduler is active");
        for class in [PriorityClass::Control, PriorityClass::Actuation] {
            let l = ledgers.class(class);
            assert!(l.offered > 0, "{driver:?}: ticks must exercise the {} tier", class.name());
            assert_eq!(l.shed, 0, "{driver:?}: {} events must never shed", class.name());
            assert_eq!(l.delivered, l.offered, "{driver:?}: {} tier drains fully", class.name());
        }
        let data = ledgers.class(PriorityClass::Data);
        assert!(data.shed > 0, "{driver:?}: a 16x burst must shed data frames");
        assert!(data.balanced(), "{driver:?}: data ledger must balance");
    }
}

#[test]
fn slow_consumer_does_not_perturb_fast_consumer() {
    // Starvation regression: the run with a rate-limited co-subscriber
    // must hand the fast consumer the exact delivery log it gets alone.
    // Sub-capacity chunks keep deliveries flowing on every call, so the
    // slow consumer's staging queue (not the admission tier) is what
    // holds traffic back.
    let feed = |g: &mut Garnet| {
        for (i, chunk) in burst(16).chunks(24).enumerate() {
            g.on_frames(chunk.to_vec(), SimTime::from_millis(1 + i as u64));
        }
        g.on_tick(SimTime::from_secs(1));
    };
    let alone = {
        let mut g = Garnet::new(scheduled(OverloadPolicy::CoalesceFrames));
        let (_, fast_log) = register(&mut g, "fast");
        feed(&mut g);
        let log = fast_log.lock().unwrap().clone();
        log
    };

    let mut g = Garnet::new(scheduled(OverloadPolicy::CoalesceFrames));
    let (_, fast_log) = register(&mut g, "fast");
    let (slow_id, slow_log) = register(&mut g, "slow");
    g.set_consumer_drain_limit(slow_id, Some(2));
    feed(&mut g);

    let fast = fast_log.lock().unwrap().clone();
    assert_eq!(fast, alone, "a slow co-subscriber changed the fast consumer's deliveries");
    assert!(!fast.is_empty(), "the burst must reach the fast consumer");

    // The slow consumer trickles: at most its limit per facade call so
    // far, the rest staged or coalesced away, and the delivery-plane
    // ledger accounts for every staged offer.
    let slow_so_far = slow_log.lock().unwrap().len() as u64;
    assert!(slow_so_far < fast.len() as u64, "the drain limit must hold deliveries back");
    let l = g.delivery_ledger();
    assert_eq!(
        l.offered,
        l.shed + l.delivered + g.delivery_backlog(),
        "delivery ledger out of balance mid-flight"
    );
    assert!(l.coalesced > 0, "in-window duplicates for a slow consumer must coalesce");

    // Shutdown flushes any remaining backlog; nothing is stranded and
    // the ledger closes balanced.
    g.shutdown(SimTime::from_secs(2)).expect("clean shutdown");
    assert_eq!(g.delivery_backlog(), 0, "shutdown must flush the staged backlog");
    let l = g.delivery_ledger();
    assert_eq!(l.offered, l.shed + l.delivered, "delivery ledger must close balanced");
    // Coalescing is per subscription: what the slow consumer sees is a
    // subsequence of the fast consumer's log (newest-wins per stream).
    let slow = slow_log.lock().unwrap();
    for d in slow.iter() {
        assert!(fast.contains(d), "slow consumer saw a delivery the fast one never got: {d:?}");
    }
}

#[test]
fn coalesce_then_shed_counts_once() {
    // Regression for the CoalesceFrames double-count: a frame that is
    // coalesced and whose survivor is later shed must enter the ledger
    // exactly once. Pin `offered == shed + delivered` with duplicates
    // at every position.
    let mut g = Garnet::new(scheduled(OverloadPolicy::CoalesceFrames));
    let (_, _log) = register(&mut g, "sink");
    assert!(g.qos_active());
    let mut offered = 0u64;
    let mut shed = 0u64;
    let mut delivered = 0u64;
    for round in 0..3u64 {
        let out = g.on_frames(burst(8), SimTime::from_millis(1 + round));
        offered += out.overload.offered;
        shed += out.overload.shed;
        delivered += out.overload.delivered;
        assert!(out.overload.coalesced > 0, "duplicates must coalesce");
    }
    assert_eq!(offered, shed + delivered, "coalesce-then-shed double-counted");
    g.on_tick(SimTime::from_secs(1));
}

/// Republishes every delivery it is handed as a derived message.
struct Republisher;

impl Consumer for Republisher {
    fn name(&self) -> &str {
        "republisher"
    }
    fn on_data(&mut self, d: &Delivery, ctx: &mut ConsumerCtx) {
        ctx.publish_derived(StreamIndex::new(0), vec![d.msg.seq().as_u16() as u8]);
    }
}

#[test]
fn overload_counts_radio_frames_not_republications() {
    // `StepOutput::overload` and `overload.*` are frame admission: a
    // consumer's derived republications are Data-class events, counted
    // in the class ledger (`qos.data.*`) but never as offered frames —
    // with the scheduler armed or not.
    let coalesce = OverloadConfig { capacity: 64, policy: OverloadPolicy::CoalesceFrames };
    for overload in [None, Some(coalesce)] {
        let mut g = Garnet::new(GarnetConfig { overload, ..GarnetConfig::default() });
        let token = g.issue_default_token("republisher");
        let id = g.register_consumer(Box::new(Republisher), &token, 1).unwrap();
        let sensor = SensorId::new(1).unwrap();
        g.subscribe(id, TopicFilter::Sensor(sensor), &token).unwrap();
        let burst: Vec<_> = (0..10).map(|seq| (ReceiverId::new(0), -50.0, frame(1, seq))).collect();
        let o = g.on_frames(burst, SimTime::from_millis(1)).overload;
        assert_eq!((o.offered, o.shed, o.delivered), (10, 0, 10), "{overload:?}");
        let report = g.metrics().report();
        assert!(report.contains("overload.offered = 10\n"), "{overload:?}:\n{report}");
        if let Some(ledgers) = g.qos_ledgers() {
            let data = ledgers.class(PriorityClass::Data);
            assert_eq!((data.offered, data.shed, data.delivered), (20, 0, 20), "frames + derived");
        }
    }
}

#[test]
fn qos_is_bit_identical_across_engines_and_layouts() {
    // Admission decisions are made above the engine: every {driver} x
    // {shards} layout must reproduce the same delivery log, the same
    // per-class ledgers, and the same metrics report under overload.
    let fingerprint = |driver, ingest| {
        let mut g = Garnet::new(GarnetConfig {
            driver,
            ingest_shards: ingest,
            ..scheduled(OverloadPolicy::CoalesceFrames)
        });
        let (_, log) = register(&mut g, "sink");
        for (i, chunk) in burst(16).chunks(24).enumerate() {
            g.on_frames(chunk.to_vec(), SimTime::from_millis(1 + i as u64));
        }
        g.on_tick(SimTime::from_secs(1));
        let ledgers = *g.qos_ledgers().expect("scheduler is active");
        let report = g.metrics().report();
        let log = log.lock().unwrap().clone();
        (log, ledgers, report)
    };
    let baseline = fingerprint(DriverKind::Fifo, 1);
    assert!(!baseline.0.is_empty());
    for driver in [DriverKind::Fifo, DriverKind::Threaded] {
        for ingest in [1usize, 4] {
            let f = fingerprint(driver, ingest);
            let label = format!("{driver:?} ingest={ingest}");
            assert_eq!(f.0, baseline.0, "delivery log diverged ({label})");
            assert_eq!(f.1, baseline.1, "per-class ledgers diverged ({label})");
            assert_eq!(f.2, baseline.2, "metrics report diverged ({label})");
        }
    }
}

#[test]
fn adaptive_capacity_retunes_within_its_band() {
    let mut g = Garnet::new(GarnetConfig {
        qos: QosConfig {
            data_floor: Some(8),
            data_ceiling: Some(CAPACITY),
            ..QosConfig::default()
        },
        ..scheduled(OverloadPolicy::Shed)
    });
    let (_, _log) = register(&mut g, "sink");
    assert_eq!(g.qos_capacity(), Some(CAPACITY), "starts at the configured capacity");
    // A light trickle: depth stays shallow, so the p99-driven bound
    // contracts toward the floor.
    for i in 0..40u64 {
        g.on_frames(burst(1).into_iter().take(2).collect(), SimTime::from_millis(1 + i));
    }
    let contracted = g.qos_capacity().expect("scheduler is active");
    assert!(g.qos_retune_count() > 0, "quiescent retuning must engage");
    assert!((8..=CAPACITY).contains(&contracted), "bound left its band: {contracted}");
    assert!(contracted < CAPACITY, "a shallow workload must contract the bound");
    // A sustained overload burst pushes the observed p99 back up and the
    // bound re-expands — still inside the band.
    for round in 0..30u64 {
        g.on_frames(burst(4), SimTime::from_secs(1 + round));
    }
    let expanded = g.qos_capacity().expect("scheduler is active");
    assert!((8..=CAPACITY).contains(&expanded), "bound left its band: {expanded}");
    assert!(expanded > contracted, "sustained overload must re-expand the bound");
    let ledgers = g.qos_ledgers().expect("scheduler is active");
    assert!(ledgers.class(PriorityClass::Data).balanced(), "retuning must not unbalance books");
}

/// `(consumer name, stream, seq)` per callback, in call order across
/// every consumer of a run.
type Calls = Arc<Mutex<Vec<(&'static str, u32, u16)>>>;

/// Appends its callbacks to a log shared by every consumer of a run, so
/// the order of callbacks *across* consumers is visible.
struct Witness {
    name: &'static str,
    calls: Calls,
}

impl Consumer for Witness {
    fn name(&self) -> &str {
        self.name
    }
    fn on_data(&mut self, d: &Delivery, _ctx: &mut ConsumerCtx) {
        self.calls.lock().unwrap().push((self.name, d.msg.stream().to_raw(), d.msg.seq().as_u16()));
    }
}

#[test]
fn one_deliver_per_message_walks_recipients_in_order_and_stages_only_the_slow_one() {
    // A routed message is one `Deliver` carrying its whole match set.
    // The facade walks the set in subscriber order: consumers without a
    // drain limit are called at once with the shared delivery, the
    // drain-limited one gets its own staged copy, and both ledgers count
    // (message, recipient) pairs exactly — identically on both engines.
    const NAMES: [&str; 4] = ["a", "b", "slow", "d"];
    let run = |driver| {
        let mut g = Garnet::new(GarnetConfig { driver, ..GarnetConfig::default() });
        let calls: Calls = Arc::new(Mutex::new(Vec::new()));
        let token = g.issue_default_token("fanout");
        for name in NAMES {
            let witness = Witness { name, calls: Arc::clone(&calls) };
            let id = g.register_consumer(Box::new(witness), &token, 0).unwrap();
            g.subscribe(id, TopicFilter::All, &token).unwrap();
            if name == "slow" {
                g.set_consumer_drain_limit(id, Some(1));
            }
        }
        // Three messages on three streams (nothing to coalesce) in one
        // burst.
        let burst: Vec<_> = (1..=3).map(|s| (ReceiverId::new(0), -50.0, frame(s, 0))).collect();
        g.on_frames(burst, SimTime::from_millis(1));
        let after_burst = calls.lock().unwrap().clone();
        let mid = (*g.delivery_ledger(), g.delivery_backlog());
        // Each later call drains one more staged delivery.
        g.on_tick(SimTime::from_millis(2));
        g.on_tick(SimTime::from_millis(3));
        let ledger = *g.delivery_ledger();
        let dispatched = g.dispatching().delivery_count();
        let report = g.metrics().report();
        g.shutdown(SimTime::from_secs(1)).expect("clean shutdown");
        let all_calls = calls.lock().unwrap().clone();
        (after_burst, mid, all_calls, ledger, dispatched, report)
    };

    let fifo = run(DriverKind::Fifo);
    let (after_burst, (mid_ledger, mid_backlog), all_calls, ledger, dispatched, _) = &fifo;
    let stream = |sensor: u32| StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
    let mut want = Vec::new();
    for sensor in 1..=3 {
        for name in ["a", "b", "d"] {
            want.push((name, stream(sensor).to_raw(), 0));
        }
    }
    // The pump's one drain pass hands the slow consumer its first.
    want.push(("slow", stream(1).to_raw(), 0));
    assert_eq!(after_burst, &want, "co-recipients are called at once, in match-set order");
    assert_eq!((mid_ledger.offered, mid_ledger.delivered, mid_ledger.shed), (3, 1, 0));
    assert_eq!(*mid_backlog, 2);
    want.push(("slow", stream(2).to_raw(), 0));
    want.push(("slow", stream(3).to_raw(), 0));
    assert_eq!(all_calls, &want);
    assert_eq!((ledger.offered, ledger.delivered, ledger.shed, ledger.coalesced), (3, 3, 0, 0));
    assert_eq!(*dispatched, 3 * NAMES.len() as u64, "deliveries count pairs, not messages");

    assert_eq!(run(DriverKind::Threaded), fifo, "the threaded engine must be bit-identical");
}

/// Pings the sensor behind every delivery it is handed.
struct Pinger;

impl Consumer for Pinger {
    fn name(&self) -> &str {
        "pinger"
    }
    fn on_data(&mut self, d: &Delivery, ctx: &mut ConsumerCtx) {
        ctx.request_actuation(
            ActuationTarget::Sensor(d.msg.stream().sensor()),
            SensorCommand::Ping,
        );
    }
}

#[test]
fn every_submitted_plan_is_handed_to_a_caller() {
    // Every pump runs the per-call delivery drain — also the pumps
    // inside the entry points that return no `StepOutput`. A
    // drain-limited consumer that plans an actuation from `on_data`
    // during one of those calls must still see its plan transmitted: it
    // rides on the next `StepOutput` any call returns.
    for driver in [DriverKind::Fifo, DriverKind::Threaded] {
        let mut g = Garnet::new(GarnetConfig { driver, ..GarnetConfig::default() });
        let token = g.issue_default_token("pinger");
        let id = g.register_consumer(Box::new(Pinger), &token, 0).unwrap();
        g.subscribe(id, TopicFilter::All, &token).unwrap();
        g.set_consumer_drain_limit(id, Some(1));
        let now = SimTime::from_millis(1);
        // Five messages on five streams stage five deliveries; each of
        // the calls below drains one.
        let burst: Vec<_> = (1..=5).map(|s| (ReceiverId::new(0), -50.0, frame(s, 0))).collect();
        let mut handed_out = g.on_frames(burst, now).control.len();
        assert_eq!(handed_out, 1, "{driver:?}: the burst's own drain pass");
        let sensor = SensorId::new(9).unwrap();
        let target = ActuationTarget::Sensor(sensor);
        match g.request_actuation(id, &token, target, SensorCommand::Ping, now).unwrap() {
            ActuationOutcome::Granted { request_id, .. } => {
                handed_out += 1;
                g.on_standalone_ack(request_id, AckStatus::Applied, now);
            }
            other => panic!("{driver:?}: expected a grant, got {other:?}"),
        }
        g.provide_hint(&token, sensor, Point::ORIGIN, 1.0, now).unwrap();
        assert_eq!(g.delivery_backlog(), 1, "{driver:?}: three calls drained one each");
        // Well inside the retry timer: nothing below is a retransmission.
        let last = g.shutdown(SimTime::from_millis(2)).expect("clean shutdown");
        handed_out += last.control.len();
        assert_eq!(g.actuation().submitted_count(), 6, "{driver:?}: five pings and the API call");
        assert_eq!(handed_out, 6, "{driver:?}: a submitted plan never reached a caller");
    }
}

#[test]
fn deregistering_a_limited_consumer_sheds_its_backlog() {
    // What is still staged for a departing consumer has nobody to go to:
    // it counts as shed when the consumer leaves, not as delivered by the
    // drains of later calls, and the drain limit leaves with it.
    for driver in [DriverKind::Fifo, DriverKind::Threaded] {
        let mut g =
            Garnet::new(GarnetConfig { driver, ..scheduled(OverloadPolicy::CoalesceFrames) });
        let (id, log) = register(&mut g, "slow");
        g.set_consumer_drain_limit(id, Some(1));
        // Two bursts of one message per stream: each call's drain pass
        // hands over one, the rest stage (and coalesce per stream).
        for seq in 0..2u16 {
            let burst: Vec<_> =
                (1..=STREAMS).map(|s| (ReceiverId::new(0), -50.0, frame(s, seq))).collect();
            g.on_frames(burst, SimTime::from_millis(1 + u64::from(seq)));
        }
        assert_eq!(log.lock().unwrap().len(), 2, "{driver:?}: one delivery per call");
        assert!(g.delivery_backlog() > 0, "{driver:?}: the rest is staged");
        g.deregister_consumer(id).expect("registered above");
        for tick in 0..40u64 {
            g.on_tick(SimTime::from_millis(10 + tick));
        }
        let ledger = *g.delivery_ledger();
        assert_eq!(g.delivery_backlog(), 0, "{driver:?}: nothing stays staged for nobody");
        assert_eq!(ledger.offered, ledger.shed + ledger.delivered, "{driver:?}: {ledger:?}");
        assert_eq!(
            ledger.delivered,
            log.lock().unwrap().len() as u64,
            "{driver:?}: delivered counts callbacks that happened"
        );
        g.shutdown(SimTime::from_secs(1)).expect("clean shutdown");
    }
}

#[test]
fn match_set_is_fixed_when_the_message_is_routed() {
    // The facade cannot change subscriptions from inside `on_data` (no
    // consumer action does), so this drives the bare router the way the
    // facade does, over inline and pooled filtering: a subscription write made while a `Deliver` is being
    // applied — after its first recipient, before its later ones — does
    // not shorten that message's recipients; the next message sees it.
    let stream = StreamId::new(SensorId::new(7).unwrap(), StreamIndex::new(0));
    let filter = TopicFilter::Stream(stream);
    let ingests =
        [ShardedIngest::new(Default::default(), 1), ShardedIngest::pooled(Default::default(), 1)];
    for ingest in ingests {
        let mut router = Router::new(Services {
            ingest,
            dispatch: ShardedDispatch::default(),
            control: ControlGraph::default(),
        });
        let dispatch = &mut router.services_mut().dispatch;
        let ids: Vec<SubscriberId> = (0..3).map(|_| dispatch.register_subscriber()).collect();
        for &id in &ids {
            dispatch.subscribe(id, filter);
        }
        // Pumps one frame dry, unsubscribing `unsubscribe` once the first
        // recipient of its `Deliver` has been "called".
        let pump = |router: &mut Router, seq: u16, unsubscribe: Option<SubscriberId>| {
            let now = SimTime::from_millis(u64::from(seq));
            let burst = vec![BatchedFrame {
                receiver: ReceiverId::new(0),
                rssi_dbm: -50.0,
                frame: FrameBytes::from(frame(7, seq)),
            }];
            router.ingest(burst, now);
            let mut reached = Vec::new();
            let mut escaped = Vec::new();
            loop {
                while escaped.is_empty() && router.step(now, &mut escaped) {}
                if escaped.is_empty() {
                    return reached;
                }
                for output in escaped.drain(..) {
                    match output {
                        ServiceOutput::Deliver { recipients, delivery, .. } => {
                            assert_eq!(delivery.msg.seq().as_u16(), seq);
                            for (i, &recipient) in recipients.iter().enumerate() {
                                reached.push(recipient);
                                if let (0, Some(gone)) = (i, unsubscribe) {
                                    assert!(router
                                        .services_mut()
                                        .dispatch
                                        .unsubscribe(gone, filter));
                                }
                            }
                        }
                        other => panic!("unexpected output {other:?}"),
                    }
                }
            }
        };
        assert_eq!(pump(&mut router, 0, Some(ids[2])), ids, "route-time snapshot");
        assert_eq!(pump(&mut router, 1, None), ids[..2], "the next message sees the write");
        assert_eq!(router.services().dispatch.stats().delivery_count(), 5);
        assert!(router.shutdown(SimTime::from_secs(1)).is_empty());
    }
}
