//! The telemetry plane end to end through the facade: latency spans,
//! windowed snapshots with counter deltas and rates, health scoring,
//! the rotating JSONL sink, and the `garnet-ctl` parser reading it all
//! back.

use garnet::core::middleware::{Garnet, GarnetConfig};
use garnet::core::router::{OverloadConfig, OverloadPolicy};
use garnet::core::telemetry::{HealthState, TelemetryConfig};
use garnet::core::TopicFilter;
use garnet::radio::ReceiverId;
use garnet::simkit::{SimDuration, SimTime};
use garnet::wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};
use garnet::workloads::pipeline::SharedCountConsumer;

/// `frames` data messages round-robined over `sensors` sensors with
/// monotonic per-stream sequence numbers.
fn workload(frames: u32, sensors: u32) -> Vec<Vec<u8>> {
    (0..frames)
        .map(|i| {
            let sensor = 1 + (i % sensors);
            let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
            DataMessage::builder(stream)
                .seq(SequenceNumber::new((i / sensors) as u16))
                .payload(vec![(i % 251) as u8; 8])
                .build()
                .unwrap()
                .encode_to_vec()
        })
        .collect()
}

/// A facade with one subscribed count-everything consumer.
fn subscribed_garnet(config: GarnetConfig) -> Garnet {
    let mut g = Garnet::new(config);
    let token = g.issue_default_token("telemetry-test");
    let (consumer, _count) = SharedCountConsumer::new("telemetry-test");
    let id = g.register_consumer(Box::new(consumer), &token, 0).unwrap();
    g.subscribe(id, TopicFilter::All, &token).unwrap();
    g
}

fn feed(g: &mut Garnet, frames: &[Vec<u8>], at: SimTime) {
    let batch: Vec<_> = frames.iter().map(|f| (ReceiverId::new(0), -45.0, f.clone())).collect();
    g.on_frames(batch, at);
}

#[test]
fn snapshot_windows_count_deltas_and_rates() {
    let mut g = subscribed_garnet(GarnetConfig::default());
    let frames = workload(40, 4);
    feed(&mut g, &frames[..30], SimTime::from_secs(1));
    let s1 = g.telemetry(SimTime::from_secs(2));
    assert_eq!(s1.seq, 1);
    assert_eq!(s1.window_start_us, 0);
    assert_eq!(s1.window_end_us, 2_000_000);
    assert_eq!(s1.counters["overload.offered"], 30);
    assert_eq!(s1.deltas["overload.offered"], 30);
    assert!((s1.rate_per_sec("overload.offered") - 15.0).abs() < 1e-9);
    assert_eq!(s1.counters["telemetry.windows"], 1);
    assert!(matches!(s1.health.state, HealthState::Healthy));

    feed(&mut g, &frames[30..], SimTime::from_secs(3));
    let s2 = g.telemetry(SimTime::from_secs(4));
    assert_eq!(s2.seq, 2);
    assert_eq!(s2.window_start_us, 2_000_000);
    // Counters are cumulative; deltas are this window's movement only.
    assert_eq!(s2.counters["overload.offered"], 40);
    assert_eq!(s2.deltas["overload.offered"], 10);
    assert_eq!(g.last_telemetry().unwrap().seq, 2);

    // The latency spans saw every delivered frame, at plausible values.
    let e2e = &s2.histograms["pipeline.e2e_latency_us"];
    assert_eq!(e2e.count, 40);
    let filtering = &s2.histograms["filtering.latency_us"];
    assert_eq!(filtering.count, 40);
    // The depth gauge climbed to the largest burst size.
    let depth = &s2.gauges["overload.queue_depth"];
    assert_eq!(depth.max, 30);
    assert_eq!(depth.samples, 40);
    // That is the only depth gauge: there is no per-shard series.
    assert_eq!(s2.gauges.keys().filter(|k| k.starts_with("overload.queue_depth")).count(), 1);
}

#[test]
fn interval_auto_emits_through_facade_calls() {
    let mut g = subscribed_garnet(GarnetConfig {
        telemetry: TelemetryConfig {
            interval: Some(SimDuration::from_secs(10)),
            ..TelemetryConfig::default()
        },
        ..GarnetConfig::default()
    });
    let frames = workload(12, 3);
    feed(&mut g, &frames[..6], SimTime::from_secs(1));
    assert!(g.last_telemetry().is_none(), "interval not yet elapsed");
    feed(&mut g, &frames[6..], SimTime::from_secs(11));
    let first = g.last_telemetry().expect("frame burst past the deadline auto-emits").clone();
    assert_eq!(first.seq, 1);
    assert_eq!(first.window_end_us, 11_000_000);
    g.on_tick(SimTime::from_secs(30));
    let second = g.last_telemetry().unwrap().clone();
    assert_eq!(second.seq, 2, "ticks auto-emit too");
    assert_eq!(second.window_start_us, 11_000_000);
}

#[test]
fn spans_toggle_empties_the_histograms_but_not_the_books() {
    let mut g = subscribed_garnet(GarnetConfig {
        telemetry: TelemetryConfig { spans: false, ..TelemetryConfig::default() },
        ..GarnetConfig::default()
    });
    feed(&mut g, &workload(20, 4), SimTime::from_secs(1));
    let s = g.telemetry(SimTime::from_secs(2));
    assert_eq!(s.histograms["pipeline.e2e_latency_us"].count, 0);
    assert_eq!(s.gauges["overload.queue_depth"].samples, 0);
    // The ledger is untouched by the toggle.
    assert_eq!(s.counters["overload.offered"], 20);
    assert_eq!(s.counters["filtering.delivered"], 20);
}

#[test]
fn shedding_degrades_health_with_reasons() {
    let mut g = subscribed_garnet(GarnetConfig {
        overload: Some(OverloadConfig { capacity: 4, policy: OverloadPolicy::Shed }),
        ..GarnetConfig::default()
    });
    feed(&mut g, &workload(64, 4), SimTime::from_secs(1));
    let s = g.telemetry(SimTime::from_secs(2));
    assert!(s.deltas["overload.shed"] > 0, "the tiny queue must shed");
    let report = &s.health;
    assert!(report.severity() > 0, "shedding past threshold must not score healthy");
    assert!(!report.reasons().is_empty());
    assert!(report.reasons().iter().any(|r| r.contains("shed")), "{:?}", report.reasons());
    // The JSONL line carries the verdict for garnetctl.
    let line = s.to_jsonl();
    assert!(line.contains("\"health\":\"critical\"") || line.contains("\"health\":\"degraded\""));
}

#[test]
fn sink_rotates_and_garnetctl_reads_it_back() {
    let dir = std::env::temp_dir().join(format!("garnet-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut g = subscribed_garnet(GarnetConfig {
        telemetry: TelemetryConfig {
            sink_dir: Some(dir.clone()),
            rotate_lines: 2,
            ..TelemetryConfig::default()
        },
        ..GarnetConfig::default()
    });
    let frames = workload(50, 5);
    let mut emitted = Vec::new();
    for (i, chunk) in frames.chunks(10).enumerate() {
        let at = SimTime::from_secs(1 + 2 * i as u64);
        feed(&mut g, chunk, at);
        emitted.push(g.telemetry(SimTime::from_secs(2 + 2 * i as u64)));
    }
    assert!(g.telemetry_sink_error().is_none(), "{:?}", g.telemetry_sink_error());
    // 5 windows at 2 lines/file → 3 files (the last holds 1 line).
    let files = garnet_ctl::sink_files(&dir).unwrap();
    assert_eq!(files.len(), 3, "{files:?}");

    let parsed = garnet_ctl::load_sink(&dir).unwrap();
    assert_eq!(parsed.len(), emitted.len());
    for (snap, orig) in parsed.iter().zip(&emitted) {
        assert_eq!(snap.seq, orig.seq);
        assert_eq!(snap.window_start_us, orig.window_start_us);
        assert_eq!(snap.window_end_us, orig.window_end_us);
        assert_eq!(snap.health, orig.health.label());
        assert_eq!(snap.counters, orig.counters.clone().into_iter().collect());
        assert_eq!(snap.deltas, orig.deltas.clone().into_iter().collect());
        assert_eq!(snap.match_cache_hit_ppm, orig.match_cache_hit_ppm);
        let p99 = snap.histograms["pipeline.e2e_latency_us"].p99;
        assert_eq!(p99, orig.histograms["pipeline.e2e_latency_us"].p99);
        let depth = snap.gauges["overload.queue_depth"];
        let orig_depth = &orig.gauges["overload.queue_depth"];
        assert_eq!(
            (depth.last, depth.min, depth.max, depth.samples),
            (orig_depth.last, orig_depth.min, orig_depth.max, orig_depth.samples)
        );
    }
    // A fresh facade pointed at the same directory resumes after the
    // existing files instead of clobbering them.
    let mut g2 = subscribed_garnet(GarnetConfig {
        telemetry: TelemetryConfig {
            sink_dir: Some(dir.clone()),
            rotate_lines: 2,
            ..TelemetryConfig::default()
        },
        ..GarnetConfig::default()
    });
    feed(&mut g2, &frames[..10], SimTime::from_secs(100));
    g2.telemetry(SimTime::from_secs(101));
    let after_restart = garnet_ctl::load_sink(&dir).unwrap();
    assert_eq!(after_restart.len(), emitted.len() + 1);
    assert_eq!(after_restart.last().unwrap().seq, 1, "new node restarts its own sequence");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn prometheus_exposition_is_complete_and_stable() {
    let run = || {
        let mut g = subscribed_garnet(GarnetConfig::default());
        feed(&mut g, &workload(25, 5), SimTime::from_secs(1));
        g.telemetry(SimTime::from_secs(2)).to_prometheus()
    };
    let text = run();
    assert!(text.contains("# TYPE garnet_telemetry_seq counter"));
    assert!(text.contains("garnet_health_state 0"));
    assert!(text.contains("garnet_overload_offered 25"));
    assert!(text.contains("# TYPE garnet_pipeline_e2e_latency_us summary"));
    assert!(text.contains("garnet_pipeline_e2e_latency_us{quantile=\"0.99\"}"));
    assert!(text.contains("garnet_pipeline_e2e_latency_us_count 25"));
    assert!(text.contains("# TYPE garnet_overload_queue_depth gauge"));
    assert!(text.contains("garnet_overload_queue_depth_max 25"));
    assert_eq!(text, run(), "identical runs must render identical exposition bytes");
}
