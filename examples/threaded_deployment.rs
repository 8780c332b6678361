//! Live deployment mode: middleware and receiver feeds on real threads.
//!
//! ```text
//! cargo run --example threaded_deployment
//! ```
//!
//! Experiments run on the deterministic simulator, but a real Garnet
//! installation runs as long-lived processes exchanging messages
//! asynchronously (§3). This example stands up that shape: the
//! middleware drains a bounded `std::sync::mpsc` channel on its own
//! thread; two receiver-array threads feed it overlapping frames; an operator thread issues an
//! actuation request mid-run and the middleware's control plan is
//! printed as it would be handed to the transmitter drivers.

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use garnet::core::middleware::{ActuationOutcome, Garnet, GarnetConfig};
use garnet::core::TopicFilter;
use garnet::radio::geometry::Point;
use garnet::radio::{ReceiverId, Transmitter, TransmitterId};
use garnet::simkit::SimTime;
use garnet::wire::{
    ActuationTarget, DataMessage, SensorCommand, SensorId, SequenceNumber, StreamId, StreamIndex,
};
use garnet::workloads::pipeline::SharedCountConsumer;

/// Messages addressed to the middleware thread.
enum ToGarnet {
    Frame { receiver: u32, rssi: f64, bytes: Vec<u8>, at_us: u64 },
    Actuate { interval_ms: u32, at_us: u64 },
    Shutdown,
}

fn main() {
    println!("Threaded deployment — Garnet behind an asynchronous channel\n");

    let (tx, inbox) = mpsc::sync_channel::<ToGarnet>(4096);

    // The middleware thread.
    let (consumer, delivered) = SharedCountConsumer::new("dashboard");
    let middleware = thread::spawn(move || {
        let transmitters = vec![Transmitter::new(TransmitterId::new(0), Point::ORIGIN, 200.0)];
        let mut garnet = Garnet::new(GarnetConfig { transmitters, ..GarnetConfig::default() });
        let token = garnet.issue_default_token("dashboard");
        let id = garnet.register_consumer(Box::new(consumer), &token, 3).unwrap();
        garnet.subscribe(id, TopicFilter::All, &token).unwrap();

        let mut control_plans = 0u64;
        while let Ok(msg) = inbox.recv() {
            match msg {
                ToGarnet::Frame { receiver, rssi, bytes, at_us } => {
                    let out = garnet.on_frame(
                        ReceiverId::new(receiver),
                        rssi,
                        &bytes,
                        SimTime::from_micros(at_us),
                    );
                    control_plans += out.control.len() as u64;
                }
                ToGarnet::Actuate { interval_ms, at_us } => {
                    let outcome = garnet
                        .request_actuation(
                            id,
                            &token,
                            ActuationTarget::Sensor(SensorId::new(7).unwrap()),
                            SensorCommand::SetReportInterval {
                                stream: StreamIndex::new(0),
                                interval_ms,
                            },
                            SimTime::from_micros(at_us),
                        )
                        .expect("authorized");
                    if let ActuationOutcome::Granted { request_id, plan } = outcome {
                        control_plans += 1;
                        println!(
                            "  middleware: actuation {request_id} approved → {} transmitter(s){}",
                            plan.transmitters.len(),
                            if plan.flooded { " (flood)" } else { "" }
                        );
                    }
                }
                ToGarnet::Shutdown => break,
            }
        }
        (garnet.filtering().delivered_count(), garnet.filtering().duplicate_count(), control_plans)
    });

    // Two receiver-array threads feeding overlapping copies.
    let stream = StreamId::new(SensorId::new(7).unwrap(), StreamIndex::new(0));
    let feeders: Vec<_> = (0..2u32)
        .map(|rx| {
            let tx = tx.clone();
            thread::spawn(move || {
                for seq in 0..200u16 {
                    let bytes = DataMessage::builder(stream)
                        .seq(SequenceNumber::new(seq))
                        .payload(
                            garnet::radio::Reading::new(
                                20.0 + f64::from(seq) * 0.01,
                                SimTime::from_millis(u64::from(seq) * 50),
                            )
                            .encode(),
                        )
                        .build()
                        .unwrap()
                        .encode_to_vec();
                    tx.send(ToGarnet::Frame {
                        receiver: rx,
                        rssi: -48.0 - f64::from(rx) * 6.0,
                        bytes,
                        at_us: u64::from(seq) * 50_000,
                    })
                    .expect("middleware thread drains for the run");
                    if seq % 50 == 0 {
                        thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        })
        .collect();

    // The operator: asks for a faster rate partway through.
    let operator = {
        let tx = tx.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            tx.send(ToGarnet::Actuate { interval_ms: 250, at_us: 5_000_000 })
                .expect("middleware thread drains for the run");
        })
    };

    for f in feeders {
        f.join().unwrap();
    }
    operator.join().unwrap();
    thread::sleep(Duration::from_millis(50));
    tx.send(ToGarnet::Shutdown).unwrap();
    let (unique, duplicates, plans) = middleware.join().unwrap();

    println!("\nresults:");
    println!("  frames fed            400 (200 × 2 overlapping receivers)");
    println!("  unique delivered      {unique}");
    println!("  duplicates absorbed   {duplicates}");
    println!("  dashboard received    {}", delivered.load(Ordering::Relaxed));
    println!("  control plans issued  {plans}");
    assert_eq!(unique + duplicates, 400);
}
