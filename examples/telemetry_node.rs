//! Telemetry node: a Garnet deployment exporting windowed snapshots to
//! a JSONL sink directory that `garnetctl` can inspect.
//!
//! ```text
//! cargo run --example telemetry_node -- /tmp/garnet-telemetry
//! cargo run -p garnet-ctl --bin garnetctl -- dump /tmp/garnet-telemetry
//! ```
//!
//! Pushes a bursty multi-sensor workload through the facade with
//! telemetry auto-emission every 5 simulated seconds and a rotating
//! `telemetry-*.jsonl` sink in the given directory (ci.sh points
//! garnetctl at it as the operator-tooling smoke test). The final
//! snapshot, health verdict, and Prometheus exposition are printed to
//! stdout.

use std::path::PathBuf;

use garnet::core::middleware::{Garnet, GarnetConfig};
use garnet::core::telemetry::TelemetryConfig;
use garnet::net::TopicFilter;
use garnet::radio::ReceiverId;
use garnet::simkit::{SimDuration, SimTime};
use garnet::wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};
use garnet::workloads::pipeline::SharedCountConsumer;

fn main() {
    let sink_dir: PathBuf =
        std::env::args().nth(1).unwrap_or_else(|| "telemetry-sink".into()).into();
    println!("Garnet telemetry node — sink: {}\n", sink_dir.display());

    let mut garnet = Garnet::new(GarnetConfig {
        telemetry: TelemetryConfig {
            interval: Some(SimDuration::from_secs(5)),
            sink_dir: Some(sink_dir.clone()),
            rotate_lines: 8,
            ..TelemetryConfig::default()
        },
        ..GarnetConfig::default()
    });
    let token = garnet.issue_default_token("telemetry-node");
    let (consumer, delivered) = SharedCountConsumer::new("telemetry-node");
    let id =
        garnet.register_consumer(Box::new(consumer), &token, 0).expect("registration succeeds");
    garnet.subscribe(id, TopicFilter::All, &token).expect("subscription succeeds");

    // Sixty simulated seconds of bursty traffic from eight sensors: one
    // 16-frame burst per second, so each 5 s telemetry window sees
    // different rates as the burst sizes wobble.
    let mut offered = 0u64;
    for second in 0..60u64 {
        let burst = 8 + ((second % 5) * 4) as u32; // 8..=24 frames
        let frames: Vec<_> = (0..burst)
            .map(|i| {
                let sensor = 1 + (i % 8);
                let stream =
                    StreamId::new(SensorId::new(sensor).expect("small id"), StreamIndex::new(0));
                let msg = DataMessage::builder(stream)
                    .seq(SequenceNumber::new(second as u16))
                    .payload(vec![second as u8, sensor as u8])
                    .build()
                    .expect("valid message")
                    .encode_to_vec();
                (ReceiverId::new(i % 4), -42.0, msg)
            })
            .collect();
        offered += frames.len() as u64;
        garnet.on_frames(frames, SimTime::from_secs(second));
    }
    garnet.on_tick(SimTime::from_secs(60));

    // Close one final explicit window so the sink ends on a fresh line.
    let snapshot = garnet.telemetry(SimTime::from_secs(61));
    if let Some(err) = garnet.telemetry_sink_error() {
        eprintln!("sink error: {err}");
        std::process::exit(1);
    }

    println!(
        "offered {offered} frames, delivered {}",
        delivered.load(std::sync::atomic::Ordering::Relaxed)
    );
    println!(
        "emitted {} telemetry windows; final health: {}",
        snapshot.seq,
        snapshot.health.label()
    );
    println!("\nfinal snapshot (JSONL):\n{}", snapshot.to_jsonl());
    println!("final snapshot (Prometheus):\n{}", snapshot.to_prometheus());
}
