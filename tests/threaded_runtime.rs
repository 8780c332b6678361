//! The live (threaded) deployment mode: middleware on its own thread,
//! fed over a bounded `std::sync::mpsc` channel — the paper's
//! "asynchronous message exchange" (§3) with real threads instead of the
//! simulation driver.
//!
//! Since the facade hosts the threaded graph behind
//! [`garnet::core::DriverKind::Threaded`], the deployment collapses to
//! ordinary [`Garnet`] calls: the worker pools live *inside* the
//! middleware, and the only hand-rolled thread left is the channel
//! drain.

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use garnet::core::middleware::{Garnet, GarnetConfig};
use garnet::core::pipeline::SharedCountConsumer;
use garnet::core::DriverKind;
use garnet::net::{ShardPool, TopicFilter};
use garnet::radio::ReceiverId;
use garnet::simkit::SimTime;
use garnet::wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};

fn threaded_config(shards: usize) -> GarnetConfig {
    GarnetConfig { driver: DriverKind::Threaded, ingest_shards: shards, ..GarnetConfig::default() }
}

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
        let mut garnet = Garnet::new(threaded_config(2));
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

/// Runs `f` with the default panic hook silenced, so an *injected*
/// worker panic doesn't spray a backtrace into the test output.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

#[test]
fn shard_pool_worker_panic_is_supervised_not_hung() {
    let (out, failures) = with_quiet_panics(|| {
        let mut pool: ShardPool<u32, u32> = ShardPool::new(3, 64, |_shard| {
            Box::new(|x: u32| {
                if x == 13 {
                    panic!("injected fault");
                }
                x * 2
            })
        });
        // Shard 1 gets the poison pill mid-stream; shards 0 and 2 keep
        // working before and after the crash.
        for x in [1u32, 2, 13, 3, 5] {
            pool.submit((x % 3) as usize, x);
        }
        pool.finish()
    });
    // Jobs on healthy shards are delivered in submission order; the
    // panicked job's slot is skipped, not waited on forever.
    assert_eq!(out, vec![2, 4, 6, 10]);
    assert_eq!(failures.len(), 1, "exactly the injected fault surfaces");
    assert_eq!(failures[0].shard, 1);
    assert_eq!(failures[0].reason, "injected fault");
}

#[test]
fn threaded_shutdown_joins_without_losing_in_flight_roots() {
    let mut garnet = Garnet::new(threaded_config(4));
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
    // the pools retired: nothing in flight was dropped on the floor.
    assert_eq!(garnet.filtering().delivered_count(), 400);
    assert_eq!(garnet.dispatching().delivery_count(), 400);
    assert_eq!(delivered.load(Ordering::Relaxed), 400);

    // The facade still answers reads after shutdown.
    let report = garnet.metrics().report();
    assert!(report.contains("filtering.delivered"));
    assert_eq!(garnet.streams().len(), 4);
    assert_eq!(garnet.queue_depth_p99(), 0, "unbounded queue records no samples");
}

#[test]
fn dropping_a_threaded_garnet_joins_its_pools() {
    // No explicit shutdown: Drop must join the worker pools without
    // deadlocking (the test hanging is the failure mode).
    let mut garnet = Garnet::new(threaded_config(2));
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
