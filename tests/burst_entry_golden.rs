//! How a burst enters the router did not move anything a caller can see:
//! the text in `golden/burst_entry.txt` was written by the commit
//! *before* radio frames stopped travelling through the router's queue,
//! and every facade run here must still reproduce it — trace dump,
//! metrics report, each call's `StepOutput` and each consumer's delivery
//! sequence — under each of `{unbounded, Shed, CoalesceFrames, Block}`
//! with an admission tier smaller than the bursts. Nine `overload.*` lines were rewritten once since, when
//! frame admission stopped counting derived republications as offered
//! radio frames; every `qos.data.*` line stayed as written.
//!
//! Only the `Garnet` facade is used, so this file (with its golden
//! directory) passed when copied into that parent checkout. After
//! a change that is *meant* to move an observable, regenerate with
//! `cargo test --test burst_entry_golden -- --ignored regenerate` and
//! say why in CHANGES.md.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use garnet::core::consumer::{Consumer, ConsumerCtx};
use garnet::core::filtering::Delivery;
use garnet::core::middleware::{ActuationOutcome, Garnet, GarnetConfig};
use garnet::core::router::{OverloadConfig, OverloadPolicy};
use garnet::core::TopicFilter;
use garnet::radio::ReceiverId;
use garnet::simkit::SimTime;
use garnet::wire::{
    AckStatus, ActuationTarget, DataMessage, RequestId, SensorCommand, SensorId, SequenceNumber,
    StreamId, StreamIndex,
};

const GOLDEN: &str = include_str!("golden/burst_entry.txt");

/// Smaller than every burst below, so each policy has to act.
const CAPACITY: usize = 4;

fn sensor(n: u32) -> SensorId {
    SensorId::new(n).unwrap()
}

fn message(s: u32, seq: u16) -> garnet::wire::DataMessageBuilder {
    DataMessage::builder(StreamId::new(sensor(s), StreamIndex::new(0)))
        .seq(SequenceNumber::new(seq))
        .payload(vec![seq as u8, s as u8])
}

fn frame(s: u32, seq: u16) -> Vec<u8> {
    message(s, seq).build().unwrap().encode_to_vec()
}

type Log = Arc<Mutex<Vec<(u32, u16)>>>;

/// Logs what it is handed; on sensor 1 it also republishes every even
/// sequence number as a derived message and asks for a slower report
/// interval on every fourth one — both from inside `on_data`.
struct Recorder {
    name: &'static str,
    log: Log,
}

impl Consumer for Recorder {
    fn name(&self) -> &str {
        self.name
    }

    fn on_data(&mut self, d: &Delivery, ctx: &mut ConsumerCtx) {
        let (stream, seq) = (d.msg.stream(), d.msg.seq().as_u16());
        self.log.lock().unwrap().push((stream.to_raw(), seq));
        if self.name != "deriver" || stream.sensor() != sensor(1) {
            return;
        }
        if seq % 2 == 0 {
            ctx.publish_derived(StreamIndex::new(0), vec![seq as u8]);
        }
        if seq % 4 == 1 {
            ctx.request_actuation(
                ActuationTarget::Sensor(stream.sensor()),
                SensorCommand::SetReportInterval {
                    stream: StreamIndex::new(0),
                    interval_ms: 100 * u32::from(seq),
                },
            );
        }
    }
}

/// Runs the one fixed schedule through a facade and returns everything
/// it showed, as text.
fn run(policy: Option<OverloadPolicy>) -> String {
    let mut g = Garnet::new(GarnetConfig {
        overload: policy.map(|policy| OverloadConfig { capacity: CAPACITY, policy }),
        trace_capacity: 4096,
        ..GarnetConfig::default()
    });
    let token = g.issue_default_token("app");
    let logs: Vec<Log> = (0..3).map(|_| Log::default()).collect();
    let ids: Vec<_> = ["deriver", "slow", "wiretap"]
        .into_iter()
        .zip(&logs)
        .map(|(name, log)| {
            g.register_consumer(Box::new(Recorder { name, log: log.clone() }), &token, 5).unwrap()
        })
        .collect();
    let (deriver, slow, wiretap) = (ids[0], ids[1], ids[2]);
    let derived = StreamId::new(g.virtual_sensor(deriver).unwrap(), StreamIndex::new(0));
    g.set_consumer_drain_limit(slow, Some(2));
    g.subscribe(deriver, TopicFilter::Sensor(sensor(1)), &token).unwrap();
    g.subscribe(slow, TopicFilter::Sensor(sensor(2)), &token).unwrap();
    g.subscribe(slow, TopicFilter::Stream(derived), &token).unwrap();
    g.subscribe(wiretap, TopicFilter::Sensor(sensor(1)), &token).unwrap();
    g.subscribe(wiretap, TopicFilter::Sensor(sensor(3)), &token).unwrap();

    let rx = ReceiverId::new;
    let ms = SimTime::from_millis;
    let mut outputs = String::new();
    let mut note = |call: &str, out: &dyn std::fmt::Debug| {
        writeln!(outputs, "{call}: {out:?}").unwrap();
    };

    // Burst A: four sensors interleaved (4 is subscribed by nobody),
    // a second receiver's duplicate, and a gap on sensor 2 (seq 1 never
    // arrives, so seq 2 and 3 wait in the reorder buffer).
    let mut a = Vec::new();
    for seq in 0..4u16 {
        for s in 1..=4u32 {
            if (s, seq) == (2, 1) {
                continue;
            }
            a.push((rx(0), -40.0, frame(s, seq)));
        }
        a.push((rx(1), -55.0, frame(3, seq)));
    }
    note("on_frames A", &g.on_frames(a, ms(0)));

    // An out-of-band request whose ack rides on sensor 1's next message.
    let granted = g
        .request_actuation(
            wiretap,
            &token,
            ActuationTarget::Sensor(sensor(1)),
            SensorCommand::Ping,
            ms(10),
        )
        .unwrap();
    let ActuationOutcome::Granted { request_id, .. } = &granted else {
        panic!("expected a grant: {granted:?}");
    };
    note("request_actuation", &granted);

    // Burst B: the piggy-backed ack, a corrupt copy, a runt, more data.
    let acked = message(1, 4).ack(*request_id).build().unwrap().encode_to_vec();
    let mut corrupt = frame(3, 4);
    let flip = corrupt.len() - 3;
    corrupt[flip] ^= 0xFF;
    let mut b =
        vec![(rx(0), -41.0, acked), (rx(0), -42.0, corrupt), (rx(2), -70.0, vec![0x40, 0x00])];
    for seq in 4..7u16 {
        b.push((rx(0), -43.0, frame(2, seq)));
        b.push((rx(1), -44.0, frame(3, seq)));
    }
    b.push((rx(0), -45.0, frame(1, 5)));
    note("on_frames B", &g.on_frames(b, ms(20)));

    // Past the reorder deadline: sensor 2's held messages flush.
    note("on_tick 2s", &g.on_tick(ms(2_000)));
    g.on_standalone_ack(RequestId::new(request_id.as_u32() + 1), AckStatus::Applied, ms(2_050));

    // Burst C: one hot stream, so CoalesceFrames has same-stream
    // sequences to choose between, then one frame of another.
    let mut c: Vec<_> = (6..16u16).map(|seq| (rx(0), -46.0, frame(1, seq))).collect();
    c.push((rx(0), -47.0, frame(3, 7)));
    note("on_frames C", &g.on_frames(c, ms(2_100)));
    note("on_frame", &g.on_frame(rx(0), -48.0, &frame(2, 7), ms(2_200)));

    // Unacknowledged requests retransmit, then expire.
    for at in [8_000, 20_000, 45_000] {
        note(&format!("on_tick {at}ms"), &g.on_tick(ms(at)));
    }
    note("shutdown", &g.shutdown(ms(46_000)).expect("nothing here can wedge"));

    let mut text = format!("-- outputs\n{outputs}-- deliveries\n");
    for (id, log) in ids.iter().zip(&logs) {
        writeln!(text, "{id}: {:?}", log.lock().unwrap()).unwrap();
    }
    write!(text, "-- report\n{}-- trace\n{}", g.metrics().report(), g.trace_snapshot().to_jsonl())
        .unwrap();
    text
}

const POLICIES: [Option<OverloadPolicy>; 4] = [
    None,
    Some(OverloadPolicy::Shed),
    Some(OverloadPolicy::CoalesceFrames),
    Some(OverloadPolicy::Block),
];

/// One `==== policy` section per admission policy.
fn render() -> String {
    let mut text = String::new();
    for policy in POLICIES {
        let name = policy.map_or("unbounded".to_owned(), |p| format!("{p:?}"));
        write!(text, "==== {name}\n{}", run(policy)).unwrap();
    }
    text
}

#[test]
fn every_observable_matches_the_text_the_parent_commit_wrote() {
    let got = render();
    // The schedule does what its comments say, whatever the literals.
    for needle in ["\"kind\":\"ack_received\"", "\"outcome\":\"shed\"", "\"outcome\":\"coalesced\""]
    {
        assert!(got.contains(needle), "schedule no longer produces {needle}");
    }
    // Line by line first, so a failure names the first line that moved.
    for (n, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from the golden text", n + 1);
    }
    assert_eq!(got.len(), GOLDEN.len(), "one text is a prefix of the other");
}

/// Rewrites the golden text from this checkout's behaviour.
#[test]
#[ignore = "writes tests/golden/burst_entry.txt"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/burst_entry.txt");
    std::fs::write(path, render()).unwrap();
}
