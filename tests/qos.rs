//! Per-consumer QoS scheduling: priority classes, per-subscription
//! coalescing, and the per-class admission ledger.
//!
//! The scheduler's contract: every event is counted in its class and
//! passes through, and only radio frames are ever shed; the exact
//! `offered == shed + delivered` ledger holds **per class**; a slow
//! consumer's backlog never perturbs a fast co-subscriber; and the
//! whole layer is bit-identical across runs.

use std::sync::{Arc, Mutex};

use garnet::core::consumer::{Consumer, ConsumerCtx};
use garnet::core::filtering::Delivery;
use garnet::core::middleware::{ActuationOutcome, Garnet, GarnetConfig};
use garnet::core::router::{
    ControlGraph, OverloadConfig, OverloadPolicy, Router, Services, ShardedDispatch, ShardedIngest,
};
use garnet::core::service::BatchedFrame;
use garnet::core::{PriorityClass, ServiceOutput};
use garnet::core::{SubscriberId, TopicFilter};
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

// The name predates the second engine's removal; there is one engine.
#[test]
fn per_class_ledger_holds_on_both_engines() {
    for policy in [OverloadPolicy::Shed, OverloadPolicy::CoalesceFrames, OverloadPolicy::Block] {
        let mut g = Garnet::new(scheduled(policy));
        let (_, _log) = register(&mut g, "sink");
        assert!(g.qos_active(), "an overload config must arm the scheduler");
        // Data through admission; control (flush) and actuation
        // (ticks) counted in their class ledgers.
        g.on_frames(burst(8), SimTime::from_millis(1));
        g.on_tick(SimTime::from_secs(1));
        g.on_frames(burst(4), SimTime::from_secs(2));
        g.on_tick(SimTime::from_secs(3));
        let ledgers = g.qos_ledgers().expect("scheduler is active");
        for class in PriorityClass::ALL {
            let l = ledgers.class(class);
            assert!(
                l.balanced(),
                "{policy:?} {}: offered {} != shed {} + delivered {}",
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
            "{policy:?}: p99 queue depth {} over the bound",
            g.queue_depth_p99()
        );
        g.shutdown(SimTime::from_secs(4)).expect("clean shutdown");
    }
}

#[test]
fn control_and_actuation_are_never_shed_under_data_overload() {
    let mut g = Garnet::new(scheduled(OverloadPolicy::Shed));
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
        assert!(l.offered > 0, "ticks must exercise the {} class", class.name());
        assert_eq!(l.shed, 0, "{} events must never shed", class.name());
        assert_eq!(l.delivered, l.offered, "{} class delivers everything", class.name());
    }
    let data = ledgers.class(PriorityClass::Data);
    assert!(data.shed > 0, "a 16x burst must shed data frames");
    assert!(data.balanced(), "data ledger must balance");
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
    // Admission decisions are made above the router: a second run must
    // reproduce the same delivery log, the same per-class ledgers, and
    // the same metrics report under overload. (The name predates the
    // second engine's removal; the engine and layout axes are gone.)
    let fingerprint = || {
        let mut g = Garnet::new(scheduled(OverloadPolicy::CoalesceFrames));
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
    let baseline = fingerprint();
    assert!(!baseline.0.is_empty());
    let f = fingerprint();
    assert_eq!(f.0, baseline.0, "delivery log diverged");
    assert_eq!(f.1, baseline.1, "per-class ledgers diverged");
    assert_eq!(f.2, baseline.2, "metrics report diverged");
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
    // (message, recipient) pairs exactly.
    const NAMES: [&str; 4] = ["a", "b", "slow", "d"];
    let run = || {
        let mut g = Garnet::new(GarnetConfig::default());
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

    let fifo = run();
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

    assert_eq!(run(), fifo, "a second run must be bit-identical");
}

#[test]
fn fan_out_walks_the_live_consumers_in_id_order_past_departed_and_limited_ones() {
    // Fan-out walks the consumer list, which ascends by id, beside the
    // ascending match set. Here the list has a hole (a consumer in the
    // middle of the id range deregistered), an entry that is not a
    // recipient (subscribed to another sensor), and a drain-limited
    // recipient between two unlimited ones: every live recipient is
    // still reached, in id order, and the departed one never is.
    let mut g = Garnet::new(GarnetConfig::default());
    let calls: Calls = Arc::new(Mutex::new(Vec::new()));
    let token = g.issue_default_token("fanout");
    let mut ids = Vec::new();
    for name in ["a", "b", "gone", "elsewhere", "slow", "d", "e"] {
        let witness = Witness { name, calls: Arc::clone(&calls) };
        let id = g.register_consumer(Box::new(witness), &token, 0).unwrap();
        let filter = if name == "elsewhere" {
            TopicFilter::Sensor(SensorId::new(9).unwrap())
        } else {
            TopicFilter::All
        };
        g.subscribe(id, filter, &token).unwrap();
        if name == "slow" {
            g.set_consumer_drain_limit(id, Some(1));
        }
        ids.push(id);
    }
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids are handed out ascending");
    g.deregister_consumer(ids[2]).unwrap();
    let burst: Vec<_> = (1..=2).map(|s| (ReceiverId::new(0), -50.0, frame(s, 0))).collect();
    g.on_frames(burst, SimTime::from_millis(1));
    g.on_tick(SimTime::from_millis(2));
    let stream = |sensor: u32| StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
    let mut want = Vec::new();
    for sensor in 1..=2 {
        for name in ["a", "b", "d", "e"] {
            want.push((name, stream(sensor).to_raw(), 0));
        }
    }
    // The limited consumer's copies stage: one per facade call.
    want.push(("slow", stream(1).to_raw(), 0));
    want.push(("slow", stream(2).to_raw(), 0));
    assert_eq!(*calls.lock().unwrap(), want);
    assert_eq!(g.dispatching().delivery_count(), 2 * 5, "five live recipients per message");
    g.shutdown(SimTime::from_secs(1)).expect("clean shutdown");
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
    let mut g = Garnet::new(GarnetConfig::default());
    let token = g.issue_default_token("pinger");
    let id = g.register_consumer(Box::new(Pinger), &token, 0).unwrap();
    g.subscribe(id, TopicFilter::All, &token).unwrap();
    g.set_consumer_drain_limit(id, Some(1));
    let now = SimTime::from_millis(1);
    // Five messages on five streams stage five deliveries; each of
    // the calls below drains one.
    let burst: Vec<_> = (1..=5).map(|s| (ReceiverId::new(0), -50.0, frame(s, 0))).collect();
    let mut handed_out = g.on_frames(burst, now).control.len();
    assert_eq!(handed_out, 1, "the burst's own drain pass");
    let sensor = SensorId::new(9).unwrap();
    let target = ActuationTarget::Sensor(sensor);
    match g.request_actuation(id, &token, target, SensorCommand::Ping, now).unwrap() {
        ActuationOutcome::Granted { request_id, .. } => {
            handed_out += 1;
            g.on_standalone_ack(request_id, AckStatus::Applied, now);
        }
        other => panic!("expected a grant, got {other:?}"),
    }
    g.provide_hint(&token, sensor, Point::ORIGIN, 1.0, now).unwrap();
    assert_eq!(g.delivery_backlog(), 1, "three calls drained one each");
    // Well inside the retry timer: nothing below is a retransmission.
    let last = g.shutdown(SimTime::from_millis(2)).expect("clean shutdown");
    handed_out += last.control.len();
    assert_eq!(g.actuation().submitted_count(), 6, "five pings and the API call");
    assert_eq!(handed_out, 6, "a submitted plan never reached a caller");
}

#[test]
fn deregistering_a_limited_consumer_sheds_its_backlog() {
    // What is still staged for a departing consumer has nobody to go to:
    // it counts as shed when the consumer leaves, not as delivered by the
    // drains of later calls, and the drain limit leaves with it.
    let mut g = Garnet::new(scheduled(OverloadPolicy::CoalesceFrames));
    let (id, log) = register(&mut g, "slow");
    g.set_consumer_drain_limit(id, Some(1));
    // Two bursts of one message per stream: each call's drain pass
    // hands over one, the rest stage (and coalesce per stream).
    for seq in 0..2u16 {
        let burst: Vec<_> =
            (1..=STREAMS).map(|s| (ReceiverId::new(0), -50.0, frame(s, seq))).collect();
        g.on_frames(burst, SimTime::from_millis(1 + u64::from(seq)));
    }
    assert_eq!(log.lock().unwrap().len(), 2, "one delivery per call");
    assert!(g.delivery_backlog() > 0, "the rest is staged");
    g.deregister_consumer(id).expect("registered above");
    for tick in 0..40u64 {
        g.on_tick(SimTime::from_millis(10 + tick));
    }
    let ledger = *g.delivery_ledger();
    assert_eq!(g.delivery_backlog(), 0, "nothing stays staged for nobody");
    assert_eq!(ledger.offered, ledger.shed + ledger.delivered, "{ledger:?}");
    assert_eq!(
        ledger.delivered,
        log.lock().unwrap().len() as u64,
        "delivered counts callbacks that happened"
    );
    g.shutdown(SimTime::from_secs(1)).expect("clean shutdown");
}

#[test]
fn match_set_is_fixed_when_the_message_is_routed() {
    // The facade cannot change subscriptions from inside `on_data` (no
    // consumer action does), so this drives the bare router the way the
    // facade does: a subscription write made while a `Deliver` is being
    // applied — after its first recipient, before its later ones — does
    // not shorten that message's recipients; the next message sees it.
    let stream = StreamId::new(SensorId::new(7).unwrap(), StreamIndex::new(0));
    let filter = TopicFilter::Stream(stream);
    let mut router = Router::new(Services {
        ingest: ShardedIngest::new(Default::default(), 1),
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
                                assert!(router.services_mut().dispatch.unsubscribe(gone, filter));
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

// ---- What admission tells filtering --------------------------------
//
// Newest-wins coalescing hands the filtering stage the sequence numbers
// it dropped (its forgone windows), so a stream never waits out the
// reorder timeout for a frame the node itself threw away.

/// A facade under `CoalesceFrames` with an admission tier of `capacity`,
/// and a consumer logging every stream.
fn coalescing(capacity: usize) -> (Garnet, Log) {
    let mut g = Garnet::new(GarnetConfig {
        overload: Some(OverloadConfig { capacity, policy: OverloadPolicy::CoalesceFrames }),
        ..GarnetConfig::default()
    });
    let (_, log) = register(&mut g, "sink");
    (g, log)
}

/// `frame`, with its CRC trailer broken.
fn corrupt(sensor: u32, seq: u16) -> Vec<u8> {
    let mut bytes = frame(sensor, seq);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    bytes
}

fn at(frames: &[Vec<u8>]) -> Vec<(ReceiverId, f64, Vec<u8>)> {
    frames.iter().map(|f| (ReceiverId::new(0), -50.0, f.clone())).collect()
}

/// The `(sensor, seq)` pairs logged since `from`.
fn logged(log: &Log, from: usize) -> Vec<(u32, u16)> {
    log.lock().unwrap()[from..].iter().map(|&(s, seq, _)| (s >> 8, seq)).collect()
}

#[test]
fn in_order_bursts_over_capacity_deliver_every_survivor_in_their_own_call() {
    let (mut g, log) = coalescing(CAPACITY);
    // One frame per stream first: a stream's first message fixes where
    // it starts.
    let prelude: Vec<_> = (1..=STREAMS).map(|s| frame(s, 0)).collect();
    g.on_frames(at(&prelude), SimTime::ZERO);
    let mut next = 1u16;
    for call in 1..=4u64 {
        // Sixteen in-order sequence numbers per stream, interleaved: three
        // times the capacity.
        let burst: Vec<_> =
            (next..next + 16).flat_map(|seq| (1..=STREAMS).map(move |s| frame(s, seq))).collect();
        next += 16;
        let before = log.lock().unwrap().len();
        let gaps = g.filtering().gap_count();
        let out = g.on_frames(at(&burst), SimTime::from_millis(call));
        assert_eq!(out.overload.delivered, CAPACITY as u64);
        assert!(out.overload.coalesced > 0, "the burst is over capacity");
        assert_eq!(
            log.lock().unwrap().len() - before,
            CAPACITY,
            "every survivor is delivered in the call that offered it"
        );
        assert_eq!(g.next_deadline(), None, "nothing waits for a reorder timeout");
        assert_eq!(g.filtering().gap_count(), gaps, "no gap is accepted");
    }
    // Each stream's survivors arrived in serial order.
    let seen = logged(&log, 0);
    for s in 1..=STREAMS {
        let seqs: Vec<u16> = seen.iter().filter(|&&(x, _)| x == s).map(|&(_, q)| q).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "sensor {s}: {seqs:?}");
        assert_eq!(seqs.last(), Some(&64), "the newest survivor of the last burst");
    }
}

#[test]
fn a_loser_that_fails_its_crc_marks_nothing() {
    // Capacity 2: [A1, B1] stage, then A2 displaces A1. An intact A1 is
    // forgone, and A2 is delivered at once; a corrupt A1 is not, so A
    // waits for a real copy of 1.
    for intact in [true, false] {
        let (mut g, log) = coalescing(2);
        g.on_frames(at(&[frame(1, 0), frame(2, 0)]), SimTime::ZERO);
        let a1 = if intact { frame(1, 1) } else { corrupt(1, 1) };
        g.on_frames(at(&[a1, frame(2, 1), frame(1, 2)]), SimTime::from_millis(1));
        if intact {
            assert_eq!(logged(&log, 2), vec![(2, 1), (1, 2)]);
            assert_eq!(g.next_deadline(), None);
            continue;
        }
        assert_eq!(logged(&log, 2), vec![(2, 1)], "A2 waits behind the gap at 1");
        assert!(g.next_deadline().is_some());
        g.on_frames(at(&[frame(1, 1)]), SimTime::from_millis(2));
        assert_eq!(logged(&log, 2), vec![(2, 1), (1, 1), (1, 2)]);
        assert_eq!((g.filtering().gap_count(), g.next_deadline()), (0, None));
    }
}

#[test]
fn a_survivor_beats_a_coalesced_copy_of_its_own_sequence() {
    // Capacity 2: [A1, A2] stage; A3 displaces A1 (1 forgone), then a
    // second copy of A2 loses to A3 (2 forgone) while A2 itself still
    // holds the other slot. A2 must be delivered, once.
    let (mut g, log) = coalescing(2);
    g.on_frames(at(&[frame(1, 0)]), SimTime::ZERO);
    let burst = [frame(1, 1), frame(1, 2), frame(1, 3), frame(1, 2)];
    let out = g.on_frames(at(&burst), SimTime::from_millis(1));
    assert_eq!((out.overload.coalesced, out.overload.delivered), (2, 2));
    assert_eq!(logged(&log, 1), vec![(1, 2), (1, 3)]);
    assert_eq!(g.next_deadline(), None);
}

#[test]
fn a_copy_of_a_forgone_sequence_in_a_later_call_is_a_duplicate() {
    let (mut g, log) = coalescing(1);
    g.on_frames(at(&[frame(1, 0)]), SimTime::ZERO);
    g.on_frames(at(&[frame(1, 1), frame(1, 2)]), SimTime::from_millis(1));
    assert_eq!(logged(&log, 1), vec![(1, 2)], "1 was forgone, 2 delivered at once");
    let duplicates = g.filtering().duplicate_count();
    g.on_frames(at(&[frame(1, 1)]), SimTime::from_millis(2));
    assert_eq!(logged(&log, 1), vec![(1, 2)]);
    assert_eq!(g.filtering().duplicate_count(), duplicates + 1);
}

mod forgone {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Duplicated, displaced, lost and corrupt copies through every
        // admission policy: no (stream, sequence) is delivered twice,
        // each stream is delivered in serial order, and every ledger
        // balances (debug builds also check the facade's invariants at
        // the tail of every call made here).
        #[test]
        fn forgone_sequences_never_duplicate_or_reorder_a_stream(
            capacity in 1usize..=8,
            policy in 0usize..3,
            bursts in proptest::collection::vec(
                proptest::collection::vec((1u32..=3, 0u8..8), 1..24),
                1..8,
            ),
        ) {
            let policy =
                [OverloadPolicy::Shed, OverloadPolicy::CoalesceFrames, OverloadPolicy::Block]
                    [policy];
            let mut g = Garnet::new(GarnetConfig {
                overload: Some(OverloadConfig { capacity, policy }),
                ..GarnetConfig::default()
            });
            let (_, log) = register(&mut g, "sink");
            let mut next = [0u16; 4];
            let mut now = SimTime::ZERO;
            for (n, burst) in bursts.iter().enumerate() {
                let mut frames = Vec::new();
                for &(sensor, how) in burst {
                    let cursor = &mut next[sensor as usize];
                    let seq = *cursor;
                    match how {
                        // In order.
                        0..=2 => {
                            frames.push(frame(sensor, seq));
                            *cursor += 1;
                        }
                        // A copy of the last one sent.
                        3 => frames.push(frame(sensor, seq.wrapping_sub(1))),
                        // Two displaced: the later one first.
                        4 => {
                            frames.push(frame(sensor, seq + 1));
                            frames.push(frame(sensor, seq));
                            *cursor += 2;
                        }
                        // A corrupt copy, then the real one.
                        5 => {
                            frames.push(corrupt(sensor, seq));
                            frames.push(frame(sensor, seq));
                            *cursor += 1;
                        }
                        // Only a corrupt copy arrives.
                        6 => {
                            frames.push(corrupt(sensor, seq));
                            *cursor += 1;
                        }
                        // Lost in the air.
                        _ => *cursor += 1,
                    }
                }
                let handed_in = frames.len() as u64;
                let out = g.on_frames(at(&frames), now);
                let o = out.overload;
                prop_assert_eq!(o.offered, handed_in);
                prop_assert_eq!(o.offered, o.shed + o.delivered, "{:?}", o);
                now += garnet::simkit::SimDuration::from_millis(10);
                if n % 3 == 2 {
                    g.on_tick(now);
                }
            }
            g.on_tick(now + garnet::simkit::SimDuration::from_secs(60));
            g.shutdown(now + garnet::simkit::SimDuration::from_secs(61)).expect("clean shutdown");
            for class in PriorityClass::ALL {
                let l = *g.qos_ledgers().expect("armed").class(class);
                prop_assert!(l.balanced(), "{:?} {:?}", class, l);
            }
            let seen = logged(&log, 0);
            for sensor in 1..=3u32 {
                let seqs: Vec<u16> =
                    seen.iter().filter(|&&(s, _)| s == sensor).map(|&(_, q)| q).collect();
                let ordered = seqs.windows(2).all(|w| {
                    SequenceNumber::new(w[1]).is_after(SequenceNumber::new(w[0]))
                });
                prop_assert!(ordered, "sensor {}: {:?} ({:?})", sensor, seqs, policy);
            }
        }
    }
}
