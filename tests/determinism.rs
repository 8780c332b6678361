//! Whole-stack determinism: identical seeds reproduce identical runs
//! bit-for-bit, different seeds diverge. This property underwrites every
//! number in EXPERIMENTS.md.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use garnet::core::consumer::{Consumer, ConsumerCtx};
use garnet::core::filtering::Delivery;
use garnet::core::middleware::{Garnet, GarnetConfig};
use garnet::core::TopicFilter;
use garnet::radio::field::GaussianPlume;
use garnet::radio::geometry::{Point, Rect};
use garnet::radio::{
    Medium, Mobility, Receiver, ReceiverId, SensorCaps, SensorNode, StreamConfig, Transmitter,
};
use garnet::simkit::{SimDuration, SimRng, SimTime};
use garnet::wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};
use garnet::workloads::pipeline::{PipelineConfig, PipelineSim, SharedCountConsumer};

use proptest::prelude::*;

/// A fingerprint of everything observable about a run.
#[derive(Debug, PartialEq, Eq)]
struct RunFingerprint {
    transmissions: u64,
    receptions: u64,
    delivered: u64,
    duplicates: u64,
    crc_failures: u64,
    consumer_count: u64,
    orphaned: u64,
    metrics_report: String,
}

fn run(seed: u64) -> RunFingerprint {
    run_config(seed, GarnetConfig::default())
}

fn run_config(seed: u64, garnet: GarnetConfig) -> RunFingerprint {
    let receivers = Receiver::grid(Point::ORIGIN, 3, 3, 100.0, 180.0);
    let transmitters = Transmitter::grid(Point::ORIGIN, 3, 3, 100.0, 180.0);
    let mut medium = Medium::wifi_outdoor();
    medium.bit_flip_prob = 0.01; // exercise CRC rejection too
    let config = PipelineConfig {
        seed,
        medium,
        garnet: GarnetConfig { receivers, transmitters, ..garnet },
        peer_range_m: None,
    };
    let field = GaussianPlume {
        origin: Point::new(-50.0, 100.0),
        velocity: (1.5, 0.0),
        amplitude: 40.0,
        sigma_m: 60.0,
        background: 2.0,
    };
    let mut sim = PipelineSim::new(config, Box::new(field));

    let mut placement = SimRng::seed(seed).fork("placement");
    let bounds = Rect::square(200.0);
    for i in 0..12u32 {
        let mobility = if i % 3 == 0 {
            Mobility::random_waypoint(bounds, 1.0, SimTime::from_secs(300), &mut placement)
        } else {
            Mobility::Stationary(Point::new(
                placement.next_f64() * 200.0,
                placement.next_f64() * 200.0,
            ))
        };
        let caps = if i % 4 == 0 { SensorCaps::sophisticated() } else { SensorCaps::simple() };
        sim.add_sensor(
            SensorNode::new(SensorId::new(i + 1).unwrap(), Point::ORIGIN)
                .with_mobility(mobility)
                .with_caps(caps)
                .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(2))),
        );
    }

    let token = sim.garnet_mut().issue_default_token("app");
    let (consumer, count) = SharedCountConsumer::new("app");
    let id = sim.garnet_mut().register_consumer(Box::new(consumer), &token, 0).unwrap();
    // Subscribe to even sensors only, so odd sensors orphan.
    for s in (2..=12u32).step_by(2) {
        sim.garnet_mut()
            .subscribe(id, TopicFilter::Sensor(SensorId::new(s).unwrap()), &token)
            .unwrap();
    }

    sim.run_until(SimTime::from_secs(120));
    let g = sim.garnet();
    RunFingerprint {
        transmissions: sim.transmission_count(),
        receptions: sim.reception_count(),
        delivered: g.filtering().delivered_count(),
        duplicates: g.filtering().duplicate_count(),
        crc_failures: g.filtering().crc_failure_count(),
        consumer_count: count.load(Ordering::Relaxed),
        orphaned: g.orphanage().total_taken(),
        metrics_report: g.metrics().report(),
    }
}

#[test]
fn same_seed_same_world() {
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a, b);
}

/// Drops the `dispatch.match_cache.*` rows from a metrics report. The
/// cache counters honestly differ between cache-on and cache-off runs
/// (that is their job); every other line must still be bit-identical.
fn strip_cache_rows(report: &str) -> String {
    report.lines().filter(|l| !l.contains("match_cache")).collect::<Vec<_>>().join("\n")
}

#[test]
fn match_cache_toggle_does_not_change_the_world() {
    // The dispatch match cache is a performance artefact, not a semantic
    // one: disabling it must reproduce the cached run bit-for-bit on
    // every observable except the cache's own counters.
    let baseline = run_config(1234, GarnetConfig::default());
    let f = run_config(
        1234,
        GarnetConfig {
            dispatch_cache: garnet::core::DispatchCacheConfig::disabled(),
            ..GarnetConfig::default()
        },
    );
    assert_eq!(
        (
            baseline.transmissions,
            baseline.receptions,
            baseline.delivered,
            baseline.duplicates,
            baseline.crc_failures,
            baseline.consumer_count,
            baseline.orphaned,
        ),
        (
            f.transmissions,
            f.receptions,
            f.delivered,
            f.duplicates,
            f.crc_failures,
            f.consumer_count,
            f.orphaned,
        ),
        "cache-off counters diverged"
    );
    assert_eq!(
        strip_cache_rows(&baseline.metrics_report),
        strip_cache_rows(&f.metrics_report),
        "cache-off metrics diverged"
    );
}

/// The byte-exact facade delivery log: (raw stream, seq, payload).
type FacadeLog = Vec<(u32, u16, Vec<u8>)>;

struct RecordingConsumer {
    log: Arc<Mutex<FacadeLog>>,
}

impl Consumer for RecordingConsumer {
    fn name(&self) -> &str {
        "recorder"
    }
    fn on_data(&mut self, d: &Delivery, _ctx: &mut ConsumerCtx) {
        self.log.lock().unwrap().push((
            d.msg.stream().to_raw(),
            d.msg.seq().as_u16(),
            d.msg.payload().to_vec(),
        ));
    }
}

/// Everything a facade-level replay owes its consumers whatever the
/// arrival chunking. (The metrics report is left out: it includes the
/// intake's peak depth, which legitimately depends on how arrivals are
/// chunked into `on_frames` calls.)
#[derive(Debug, PartialEq, Eq)]
struct FacadeFingerprint {
    log: FacadeLog,
    counters: (u64, u64, u64, u64),
}

/// Feeds `frames` into a fresh facade as `on_frames` batches sized by
/// cycling through `chunks`, flushes, and fingerprints the run. Even
/// sensors are subscribed; odd sensors orphan.
fn facade_replay(frames: &[Vec<u8>], chunks: &[usize], config: GarnetConfig) -> FacadeFingerprint {
    let mut g = Garnet::new(config);
    let token = g.issue_default_token("recorder");
    let log = Arc::new(Mutex::new(Vec::new()));
    let id = g
        .register_consumer(Box::new(RecordingConsumer { log: Arc::clone(&log) }), &token, 0)
        .unwrap();
    for s in (2..=6u32).step_by(2) {
        g.subscribe(id, TopicFilter::Sensor(SensorId::new(s).unwrap()), &token).unwrap();
    }
    let at = SimTime::from_millis(1);
    let (mut i, mut k) = (0usize, 0usize);
    while i < frames.len() {
        let take = chunks[k % chunks.len()].min(frames.len() - i);
        let batch: Vec<_> =
            frames[i..i + take].iter().map(|b| (ReceiverId::new(0), -45.0, b.clone())).collect();
        g.on_frames(batch, at);
        i += take;
        k += 1;
    }
    g.on_tick(SimTime::from_secs(60));
    let f = g.filtering();
    let counters = (
        f.delivered_count(),
        f.duplicate_count(),
        f.crc_failure_count(),
        g.orphanage().total_taken(),
    );
    let log = log.lock().unwrap().clone();
    FacadeFingerprint { log, counters }
}

/// A messy burst over streams 1..=sensors: drops (reorder gaps) and
/// duplicates steered by the masks, interleaved across sensors.
fn burst_schedule(sensors: u32, n: u16, drop_mask: &[u8], dup_mask: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for seq in 0..n {
        for sensor in 1..=sensors {
            let i = (seq as usize + sensor as usize) % drop_mask.len();
            if drop_mask[i] == 0 {
                continue; // dropped in flight
            }
            let copies = 1 + usize::from(dup_mask[i % dup_mask.len()] % 2);
            let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
            for _ in 0..copies {
                frames.push(
                    DataMessage::builder(stream)
                        .seq(SequenceNumber::new(seq))
                        .payload(vec![seq as u8, sensor as u8])
                        .build()
                        .unwrap()
                        .encode_to_vec(),
                );
            }
        }
    }
    frames
}

proptest! {
    // How a burst is chunked into `on_frames` calls is invisible to
    // deliveries and counters: random batch splits reproduce the run fed
    // one frame per call (a batch of one — the only per-frame path there
    // is). So is the match cache.
    #[test]
    fn arrival_chunking_and_cache_are_invisible_to_deliveries(
        sensors in 2u32..6,
        n in 4u16..24,
        drop_mask in proptest::collection::vec(0u8..8, 32),
        dup_mask in proptest::collection::vec(0u8..4, 32),
        chunks in proptest::collection::vec(1usize..17, 1..24),
        cache_on in proptest::bool::ANY,
    ) {
        let frames = burst_schedule(sensors, n, &drop_mask, &dup_mask);
        if frames.is_empty() {
            return; // masks dropped everything; nothing to compare
        }
        let dispatch_cache = if cache_on {
            garnet::core::DispatchCacheConfig::default()
        } else {
            garnet::core::DispatchCacheConfig::disabled()
        };
        let cfg = || GarnetConfig { dispatch_cache, ..GarnetConfig::default() };
        let batched = facade_replay(&frames, &chunks, cfg());
        let singles = facade_replay(&frames, &[1], cfg());
        prop_assert_eq!(&batched, &singles, "batch splits changed the run (cache={})", cache_on);
        // The cache is invisible to deliveries and counters: toggling it
        // off reproduces the same log and books.
        let uncached = facade_replay(&frames, &chunks, GarnetConfig {
            dispatch_cache: garnet::core::DispatchCacheConfig::disabled(),
            ..cfg()
        });
        prop_assert_eq!(&batched, &uncached, "cache toggle changed the run");
    }
}

/// Replays `frames` through a fresh facade (even sensors subscribed, 5-frame
/// `on_frames` batches, a flush tick) and closes one telemetry window at the
/// end, returning the snapshot's JSONL line, its Prometheus exposition, and
/// the final metrics report. With `midrun`, an extra window is emitted
/// between the two halves of the burst — the probe for telemetry being a
/// pure observer.
fn telemetry_replay(
    frames: &[Vec<u8>],
    config: GarnetConfig,
    midrun: bool,
) -> (String, String, String) {
    let mut g = Garnet::new(config);
    let token = g.issue_default_token("recorder");
    let log = Arc::new(Mutex::new(Vec::new()));
    let id = g
        .register_consumer(Box::new(RecordingConsumer { log: Arc::clone(&log) }), &token, 0)
        .unwrap();
    for s in (2..=6u32).step_by(2) {
        g.subscribe(id, TopicFilter::Sensor(SensorId::new(s).unwrap()), &token).unwrap();
    }
    let half = frames.len() / 2;
    for (phase, slice) in [(0u64, &frames[..half]), (1, &frames[half..])] {
        for (i, chunk) in slice.chunks(5).enumerate() {
            let at = SimTime::from_millis(1 + phase * 2_000 + i as u64);
            let batch: Vec<_> =
                chunk.iter().map(|b| (ReceiverId::new(0), -45.0, b.clone())).collect();
            g.on_frames(batch, at);
        }
        if phase == 0 && midrun {
            g.telemetry(SimTime::from_secs(1));
        }
    }
    g.on_tick(SimTime::from_secs(60));
    let snap = g.telemetry(SimTime::from_secs(61));
    (snap.to_jsonl(), snap.to_prometheus(), g.metrics().report())
}

// Telemetry is an observer, not a participant. Two claims: (1) two
// identical runs render a parseable, byte-identical JSONL line, Prometheus
// text and metrics report; (2) emitting a snapshot mid-run leaves the
// world's final books untouched.
#[test]
fn telemetry_does_not_change_the_world() {
    let drop_mask: Vec<u8> = (0..32).map(|i| u8::from(i % 7 != 0)).collect();
    let dup_mask: Vec<u8> = (0..32).map(|i| (i % 3) as u8).collect();
    let frames = burst_schedule(5, 20, &drop_mask, &dup_mask);

    let (jsonl, prometheus, report) = telemetry_replay(&frames, GarnetConfig::default(), false);
    garnet_ctl::parse_snapshot(&jsonl).expect("facade emits parseable JSONL");
    let (j, p, r) = telemetry_replay(&frames, GarnetConfig::default(), false);
    assert_eq!(j, jsonl, "JSONL not byte-stable across identical runs");
    assert_eq!(p, prometheus, "Prometheus not byte-stable across identical runs");
    assert_eq!(r, report, "metrics report diverged across identical runs");

    let (_, _, with_midrun) = telemetry_replay(&frames, GarnetConfig::default(), true);
    assert_eq!(with_midrun, report, "mid-run telemetry changed the world");
}

#[test]
fn different_seed_different_world() {
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b);
}

#[test]
fn lossy_noisy_run_still_balances_its_books() {
    let f = run(777);
    // Every reception is accounted for: delivered, duplicate, or CRC-failed,
    // except frames still waiting in a reorder buffer at the end of the run.
    let accounted = f.delivered + f.duplicates + f.crc_failures;
    assert!(accounted <= f.receptions);
    assert!(f.receptions - accounted < 64, "too many unaccounted frames");
    // Odd sensors orphaned, even sensors consumed.
    assert!(f.orphaned > 0);
    assert!(f.consumer_count > 0);
    assert!(f.crc_failures > 0, "bit-flip injection should trip the CRC");
}
