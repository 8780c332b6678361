//! The telemetry plane end to end through the facade: latency spans,
//! windowed snapshots with counter deltas and rates, health scoring,
//! the rotating JSONL sink, and the `garnet-ctl` parser reading it all
//! back.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use garnet::core::middleware::{Garnet, GarnetConfig};
use garnet::core::router::{OverloadConfig, OverloadPolicy};
use garnet::core::telemetry::{HealthReport, HealthState, TelemetryConfig, TelemetrySnapshot};
use garnet::core::{ArchiveConfig, TopicFilter};
use garnet::radio::ReceiverId;
use garnet::simkit::{SimDuration, SimTime};
use garnet::wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};
use garnet::workloads::pipeline::SharedCountConsumer;
use garnet_ctl::{parse_json, parse_snapshot, Json};
use proptest::prelude::*;

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
        assert_eq!(snap.to_jsonl(), orig.to_jsonl());
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

/// Three windows of a facade with the overload scheduler and the
/// archive on, the first two shedding: every stage that exports a
/// metric has rows in them, and the verdicts carry reasons.
fn overload_archive_snapshots() -> Vec<TelemetrySnapshot> {
    let mut g = subscribed_garnet(GarnetConfig {
        overload: Some(OverloadConfig { capacity: 4, policy: OverloadPolicy::Shed }),
        archive: Some(ArchiveConfig::default()),
        ..GarnetConfig::default()
    });
    let frames = workload(96, 4);
    let mut snapshots = Vec::new();
    for (i, chunk) in [&frames[..64], &frames[64..92], &frames[92..]].into_iter().enumerate() {
        feed(&mut g, chunk, SimTime::from_secs(1 + 2 * i as u64));
        snapshots.push(g.telemetry(SimTime::from_secs(2 + 2 * i as u64)));
    }
    assert!(snapshots[0].health.severity() > 0, "the first window sheds");
    snapshots
}

/// The first window of [`overload_archive_snapshots`] as its sink line.
fn facade_line() -> &'static str {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| overload_archive_snapshots()[0].to_jsonl())
}

/// `garnetctl`'s reader is the inverse of the node's writer: a line read
/// back renders to the same bytes.
fn assert_fixpoint(snapshot: &TelemetrySnapshot) {
    let line = snapshot.to_jsonl();
    let read = parse_snapshot(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(read.to_jsonl(), line);
}

#[test]
fn garnetctl_reads_back_every_line_the_node_writes() {
    let snapshots = overload_archive_snapshots();
    for snapshot in &snapshots {
        assert_fixpoint(snapshot);
    }
    // Reasons that need escaping, and every counter at its ceiling.
    let mut odd = snapshots[0].clone();
    let reasons = vec![
        "quote \" backslash \\ slash /".to_owned(),
        "controls \u{0}\u{1}\u{8}\t\n\r\u{c}\u{1f}\u{7f}".to_owned(),
        "non-ASCII: héllo → wörld ✓ 🚀 \u{2028}".to_owned(),
    ];
    odd.health = HealthReport { state: HealthState::Degraded { reasons: reasons.clone() } };
    assert_fixpoint(&odd);
    odd.health = HealthReport { state: HealthState::Critical { reasons } };
    assert_fixpoint(&odd);
    odd.health = HealthReport { state: HealthState::Healthy };
    (odd.seq, odd.window_start_us, odd.window_end_us) = (u64::MAX, u64::MAX - 1, u64::MAX);
    odd.match_cache_hit_ppm = u64::MAX;
    for value in odd.counters.values_mut().chain(odd.deltas.values_mut()) {
        *value = u64::MAX;
    }
    odd.counters.insert("odd \"name\" \\ é".to_owned(), u64::MAX);
    for h in odd.histograms.values_mut() {
        (h.count, h.p50, h.p90, h.p99, h.min, h.max) = (u64::MAX, 1, 2, u64::MAX, 0, u64::MAX);
    }
    for g in odd.gauges.values_mut() {
        (g.last, g.min, g.max, g.samples) = (u64::MAX, 0, u64::MAX, u64::MAX);
    }
    assert_fixpoint(&odd);
}

/// The bytes a JSON reader branches on, so that random documents reach
/// past the first token.
const JSON_BYTES: &[u8] = b"{}[]\":,-+.eE0123456789tfnrulase\\/ \n\xc3\xa9";

proptest! {
    #[test]
    fn garnetctl_reader_returns_on_any_input(
        raw in prop::collection::vec(any::<u8>(), 0..96),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..192),
        (at, byte) in (any::<prop::sample::Index>(), any::<u8>()),
    ) {
        let line = facade_line();
        let mut mutated = line.as_bytes().to_vec();
        mutated[at.index(line.len())] = byte;
        let jsonish: Vec<u8> = picks.iter().map(|i| JSON_BYTES[i.index(JSON_BYTES.len())]).collect();
        for bytes in [raw, jsonish, mutated] {
            let text = String::from_utf8_lossy(&bytes);
            // Each call must return, Ok or Err, without a panic.
            let _ = parse_json(&text);
            let _ = parse_snapshot(&text);
        }
    }
}

/// Every backticked `stage.metric` name in DESIGN.md, README.md and
/// EXPERIMENTS.md is a key of a node snapshot: brace lists expand;
/// `<class>` and `*` patterns, file names, the convention's own
/// `stage.metric` and the benchmark's metric names (BENCHMARK.json's)
/// are not node metrics and are skipped.
#[test]
fn every_metric_name_the_docs_cite_is_in_a_snapshot() {
    let docs = [
        include_str!("../DESIGN.md"),
        include_str!("../README.md"),
        include_str!("../EXPERIMENTS.md"),
    ];
    let benchmark = parse_json(include_str!("../BENCHMARK.json")).unwrap();
    let benchmark_names: BTreeSet<&str> = ["end_to_end", "per_layer"]
        .into_iter()
        .filter_map(|list| match benchmark.get(list) {
            Some(Json::Arr(metrics)) => Some(metrics),
            _ => None,
        })
        .flatten()
        .filter_map(|metric| metric.get("name").and_then(Json::as_str))
        .collect();
    assert!(benchmark_names.contains("net.pubsub.cache_hit_share"));
    let is_name_char =
        |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.{},".contains(c);
    let file_extensions = ["rs", "sh", "txt", "md", "json", "jsonl", "toml"];
    let mut cited = BTreeSet::new();
    for span in
        docs.iter().flat_map(|doc| doc.lines()).flat_map(|l| l.split('`').skip(1).step_by(2))
    {
        // `stage.metric`: two or more dot-separated, non-empty parts.
        let Some((_, last)) = span.rsplit_once('.') else { continue };
        if span.split('.').any(str::is_empty) {
            continue;
        }
        if !span.starts_with(|c: char| c.is_ascii_lowercase())
            || !span.chars().all(is_name_char)
            || file_extensions.contains(&last)
            || span == "stage.metric"
            || benchmark_names.contains(span)
        {
            continue;
        }
        match span.split_once('{').and_then(|(head, rest)| Some((head, rest.split_once('}')?))) {
            Some((head, (list, tail))) => {
                cited.extend(list.split(',').map(|item| format!("{head}{item}{tail}")));
            }
            None => {
                cited.insert(span.to_owned());
            }
        }
    }
    assert!(
        cited.contains("dispatch.match_cache.hits") && cited.contains("qos.retunes"),
        "{cited:?}"
    );
    let snapshot = &overload_archive_snapshots()[0];
    let missing: Vec<&String> = cited
        .iter()
        .filter(|name| {
            !snapshot.counters.contains_key(*name)
                && !snapshot.histograms.contains_key(*name)
                && !snapshot.gauges.contains_key(*name)
        })
        .collect();
    assert!(missing.is_empty(), "the docs cite metrics no snapshot holds: {missing:?}");
}
