//! The live (threaded) deployment mode: middleware on its own thread,
//! fed over a bounded `std::sync::mpsc` channel — the paper's
//! "asynchronous message exchange" (§3) with real threads instead of the
//! simulation driver.
//!
//! The facade starts no thread of its own, so the deployment is
//! ordinary [`Garnet`] calls on whichever thread owns it: the only
//! hand-rolled thread is the channel drain.

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use garnet::core::middleware::{Garnet, GarnetConfig};
use garnet::core::TopicFilter;
use garnet::radio::ReceiverId;
use garnet::simkit::SimTime;
use garnet::wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};
use garnet::workloads::pipeline::SharedCountConsumer;

/// What flows over the channel to the middleware thread.
enum ToMiddleware {
    Frame { receiver: u32, rssi: f64, bytes: Vec<u8>, at_us: u64 },
    Shutdown,
}

#[test]
fn middleware_runs_behind_a_sync_channel() {
    let (tx, inbox) = mpsc::sync_channel::<ToMiddleware>(1024);

    // The middleware thread: owns Garnet, drains its channel.
    let (consumer, delivered) = SharedCountConsumer::new("app");
    let handle = thread::spawn(move || {
        let mut garnet = Garnet::new(GarnetConfig::default());
        let token = garnet.issue_default_token("app");
        let id = garnet.register_consumer(Box::new(consumer), &token, 0).unwrap();
        garnet.subscribe(id, TopicFilter::All, &token).unwrap();
        let mut frames = 0u64;
        let mut last = SimTime::ZERO;
        while let Ok(msg) = inbox.recv() {
            match msg {
                ToMiddleware::Frame { receiver, rssi, bytes, at_us } => {
                    last = SimTime::from_micros(at_us);
                    garnet.on_frame(ReceiverId::new(receiver), rssi, &bytes, last);
                    frames += 1;
                }
                ToMiddleware::Shutdown => break,
            }
        }
        garnet.shutdown(last).expect("no archive configured, shutdown cannot fail");
        (frames, garnet.filtering().duplicate_count())
    });

    // Two "receiver array" threads feeding overlapping copies of the
    // same sensor stream.
    let stream = StreamId::new(SensorId::new(7).unwrap(), StreamIndex::new(0));
    let feeders: Vec<_> = (0..2u32)
        .map(|rx| {
            let tx = tx.clone();
            thread::spawn(move || {
                for seq in 0..500u16 {
                    let bytes = DataMessage::builder(stream)
                        .seq(SequenceNumber::new(seq))
                        .payload(vec![seq as u8])
                        .build()
                        .unwrap()
                        .encode_to_vec();
                    tx.send(ToMiddleware::Frame {
                        receiver: rx,
                        rssi: -50.0,
                        bytes,
                        at_us: u64::from(seq) * 1_000,
                    })
                    .expect("middleware thread drains for the run");
                }
            })
        })
        .collect();

    for f in feeders {
        f.join().unwrap();
    }
    // Give the drain a moment, then stop.
    thread::sleep(Duration::from_millis(50));
    tx.send(ToMiddleware::Shutdown).unwrap();
    let (frames, duplicates) = handle.join().unwrap();

    assert_eq!(frames, 1_000, "both feeders' frames processed");
    // Exactly one copy of each message delivered; the rest were
    // duplicates (arrival interleaving varies, the *sum* must not).
    assert_eq!(delivered.load(Ordering::Relaxed) + duplicates, 1_000);
    assert_eq!(delivered.load(Ordering::Relaxed), 500);
}

#[test]
fn threaded_shutdown_joins_without_losing_in_flight_roots() {
    let mut garnet = Garnet::new(GarnetConfig::default());
    let token = garnet.issue_default_token("app");
    let (consumer, delivered) = SharedCountConsumer::new("app");
    let id = garnet.register_consumer(Box::new(consumer), &token, 0).unwrap();
    garnet.subscribe(id, TopicFilter::All, &token).unwrap();

    let stream = |sensor: u32| StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
    let mut frames = Vec::new();
    for seq in 0..100u16 {
        for sensor in 1..=4u32 {
            frames.push((
                ReceiverId::new(0),
                -45.0,
                DataMessage::builder(stream(sensor))
                    .seq(SequenceNumber::new(seq))
                    .payload(vec![seq as u8])
                    .build()
                    .unwrap()
                    .encode_to_vec(),
            ));
        }
    }
    let now = SimTime::from_micros(1_000);
    garnet.on_frames(frames, now);
    garnet.shutdown(now).expect("no archive configured, shutdown cannot fail");

    // Every offered frame made it through filtering and dispatch before
    // shutdown: nothing in flight was dropped on the floor.
    assert_eq!(garnet.filtering().delivered_count(), 400);
    assert_eq!(garnet.dispatching().delivery_count(), 400);
    assert_eq!(delivered.load(Ordering::Relaxed), 400);

    // The facade still answers reads after shutdown.
    let report = garnet.metrics().report();
    assert!(report.contains("filtering.delivered"));
    assert_eq!(garnet.streams().len(), 4);
    assert_eq!(garnet.queue_depth_p99(), 0, "unbounded queue records no samples");
}

// The name predates the filtering pool's removal: the facade has no
// pool to join, and dropping it must still be safe.
#[test]
fn dropping_a_threaded_garnet_joins_its_pools() {
    // No explicit shutdown: dropping the facade must be safe (the test
    // hanging or panicking is the failure mode).
    let mut garnet = Garnet::new(GarnetConfig::default());
    let token = garnet.issue_default_token("app");
    let (consumer, delivered) = SharedCountConsumer::new("app");
    let id = garnet.register_consumer(Box::new(consumer), &token, 0).unwrap();
    garnet.subscribe(id, TopicFilter::All, &token).unwrap();
    let stream = StreamId::new(SensorId::new(3).unwrap(), StreamIndex::new(0));
    for seq in 0..50u16 {
        let bytes = DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![seq as u8])
            .build()
            .unwrap()
            .encode_to_vec();
        garnet.on_frame(ReceiverId::new(0), -50.0, &bytes, SimTime::from_micros(seq.into()));
    }
    assert_eq!(delivered.load(Ordering::Relaxed), 50);
    drop(garnet);
}
