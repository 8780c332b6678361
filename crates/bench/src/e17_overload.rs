//! E17 — bounded-queue overload behaviour: shed rate and queue depth
//! versus offered load, per admission policy.
//!
//! The paper's middleware sits between an unthrottled radio field and
//! consumers of finite appetite; §6's receiver arrays can hand the
//! Data Filtering Service far more frames than a step can absorb. This
//! experiment drives the routed facade with bursts from 1x to 16x the
//! queue capacity and records what each [`OverloadPolicy`] does: how
//! much it sheds, what survives, and how deep the queue actually gets
//! (p99 of depth-at-admission).

use garnet_core::middleware::{Garnet, GarnetConfig};
use garnet_core::router::{OverloadConfig, OverloadPolicy};
use garnet_core::{Consumer, ConsumerCtx, Delivery, PriorityClass};
use garnet_net::TopicFilter;
use garnet_radio::ReceiverId;
use garnet_simkit::SimTime;
use garnet_wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};

use crate::e03_pipeline::{host_cores, sweep_json, ShardPoint};
use crate::table::{f2, n, Table};

/// Queue capacity every point runs with.
pub const CAPACITY: usize = 64;
/// Distinct sensor streams interleaved in the burst.
pub const STREAMS: u32 = 8;

/// One (policy, offered-load) measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverloadPoint {
    /// The admission policy under test.
    pub policy: OverloadPolicy,
    /// Frames offered to admission (multiple of [`CAPACITY`]).
    pub offered: u64,
    /// Frames dropped by the policy.
    pub shed: u64,
    /// Frames that reached the services.
    pub delivered: u64,
    /// Shed frames whose drop picked a same-stream victim.
    pub coalesced: u64,
    /// shed / offered.
    pub shed_rate: f64,
    /// p99 of queue depth sampled at each admission.
    pub p99_queue_depth: u64,
    /// Deliveries that reached the subscribed consumer.
    pub consumed: u64,
}

struct CountingSink(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl Consumer for CountingSink {
    fn name(&self) -> &str {
        "sink"
    }
    fn on_data(&mut self, _d: &Delivery, _ctx: &mut ConsumerCtx) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

fn policy_name(policy: OverloadPolicy) -> &'static str {
    match policy {
        OverloadPolicy::Shed => "shed",
        OverloadPolicy::CoalesceFrames => "coalesce",
        OverloadPolicy::Block => "block",
    }
}

/// Drives one burst of `multiplier * CAPACITY` frames through a fresh
/// facade configured with `policy` and returns the admission ledger.
pub fn run_point(policy: OverloadPolicy, multiplier: u64) -> OverloadPoint {
    let overload = Some(OverloadConfig { capacity: CAPACITY, policy });
    let mut g = Garnet::new(GarnetConfig { overload, ..GarnetConfig::default() });
    let token = g.issue_default_token("sink");
    let consumed = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let id = g
        .register_consumer(Box::new(CountingSink(std::sync::Arc::clone(&consumed))), &token, 0)
        .expect("fresh facade accepts a consumer");
    g.subscribe(id, TopicFilter::All, &token).expect("subscribe with a fresh token");

    let offered = multiplier * CAPACITY as u64;
    let mut frames = Vec::with_capacity(offered as usize);
    for i in 0..offered {
        let sensor = (i % u64::from(STREAMS)) as u32 + 1;
        let seq = (i / u64::from(STREAMS)) as u16;
        let stream = StreamId::new(SensorId::new(sensor).expect("small id"), StreamIndex::new(0));
        let bytes = DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![sensor as u8, seq as u8])
            .build()
            .expect("tiny payload encodes")
            .encode_to_vec();
        frames.push((ReceiverId::new(0), -50.0, bytes));
    }
    let out = g.on_frames(frames, SimTime::from_millis(1));
    g.on_tick(SimTime::from_secs(1)); // flush reorder buffers
    let s = out.overload;
    OverloadPoint {
        policy,
        offered: s.offered,
        shed: s.shed,
        delivered: s.delivered,
        coalesced: s.coalesced,
        shed_rate: if s.offered == 0 { 0.0 } else { s.shed as f64 / s.offered as f64 },
        p99_queue_depth: g.queue_depth_p99(),
        consumed: consumed.load(std::sync::atomic::Ordering::Relaxed),
    }
}

/// The full sweep: every policy at 1x, 2x, 4x, 8x and 16x capacity.
pub fn run() -> (Vec<OverloadPoint>, Table) {
    let mut table = Table::new(
        format!("E17 — overload policies under burst (queue capacity {CAPACITY})"),
        &["policy", "offered", "shed", "delivered", "shed rate", "p99 depth", "consumed"],
    );
    let mut points = Vec::new();
    for policy in [OverloadPolicy::Shed, OverloadPolicy::CoalesceFrames, OverloadPolicy::Block] {
        for multiplier in [1u64, 2, 4, 8, 16] {
            let p = run_point(policy, multiplier);
            table.row(&[
                policy_name(policy).to_owned(),
                n(p.offered),
                n(p.shed),
                n(p.delivered),
                f2(p.shed_rate),
                n(p.p99_queue_depth),
                n(p.consumed),
            ]);
            points.push(p);
        }
    }
    (points, table)
}

/// Renders the sweep as the `BENCH_overload.json` payload.
pub fn overload_json() -> String {
    let (points, _) = run();
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"policy\": \"{}\", \"offered\": {}, \"shed\": {}, \"delivered\": {}, \
                 \"coalesced\": {}, \"shed_rate\": {:.4}, \"p99_queue_depth\": {}, \
                 \"consumed\": {}}}",
                policy_name(p.policy),
                p.offered,
                p.shed,
                p.delivered,
                p.coalesced,
                p.shed_rate,
                p.p99_queue_depth,
                p.consumed
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"e17_overload\",\n  \"driver\": \"Garnet::on_frames\",\n  \
         \"queue_capacity\": {CAPACITY},\n  \"streams\": {STREAMS},\n  \"points\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Drain limit applied to the slow consumer in the QoS scenario.
pub const SLOW_LIMIT: usize = 4;
/// Offered load of the QoS scenario, as a multiple of [`CAPACITY`].
pub const QOS_MULTIPLIER: u64 = 16;
/// The fixed sim window the QoS burst runs in (µs) — rates are
/// deliveries per sim-second, so the document is deterministic.
const QOS_WINDOW_US: u64 = 1_000_000;

/// One fast(+slow) co-subscription measurement under QoS scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QosPoint {
    /// Subscribed consumers (1 = fast alone, 2 = fast + slow).
    pub consumers: usize,
    /// Deliveries the fast (unlimited) consumer received.
    pub fast_consumed: u64,
    /// Deliveries the slow (drain-limited) consumer received.
    pub slow_consumed: u64,
    /// Data-class frames shed by the scheduler.
    pub data_shed: u64,
    /// Control-class events shed (must be zero, always).
    pub control_shed: u64,
}

/// Drives the ROADMAP's fast+slow scenario: a [`QOS_MULTIPLIER`]x
/// CoalesceFrames burst through a QoS-scheduled facade, fed in
/// 2x-capacity chunks so every call both sheds and delivers, with
/// flush ticks exercising the control tier. With `slow_present`, a second
/// consumer subscribes to everything and is drain-limited to
/// [`SLOW_LIMIT`] deliveries per facade pass — the claim under test is
/// that its backlog never perturbs the fast consumer.
pub fn run_qos_point(slow_present: bool) -> QosPoint {
    let mut g = Garnet::new(GarnetConfig {
        overload: Some(OverloadConfig {
            capacity: CAPACITY,
            policy: OverloadPolicy::CoalesceFrames,
        }),
        ..GarnetConfig::default()
    });
    let count = |g: &mut Garnet, name: &'static str| {
        let token = g.issue_default_token(name);
        let consumed = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let id = g
            .register_consumer(Box::new(CountingSink(std::sync::Arc::clone(&consumed))), &token, 0)
            .expect("fresh facade accepts a consumer");
        g.subscribe(id, TopicFilter::All, &token).expect("subscribe with a fresh token");
        (id, consumed)
    };
    let (_, fast) = count(&mut g, "fast");
    let slow = slow_present.then(|| {
        let (id, consumed) = count(&mut g, "slow");
        g.set_consumer_drain_limit(id, Some(SLOW_LIMIT));
        consumed
    });

    let offered = QOS_MULTIPLIER * CAPACITY as u64;
    let mut frames = Vec::with_capacity(offered as usize);
    for i in 0..offered {
        let sensor = (i % u64::from(STREAMS)) as u32 + 1;
        let seq = (i / u64::from(STREAMS)) as u16;
        let stream = StreamId::new(SensorId::new(sensor).expect("small id"), StreamIndex::new(0));
        let bytes = DataMessage::builder(stream)
            .seq(SequenceNumber::new(seq))
            .payload(vec![sensor as u8, seq as u8])
            .build()
            .expect("tiny payload encodes")
            .encode_to_vec();
        frames.push((ReceiverId::new(0), -50.0, bytes));
    }
    for (i, chunk) in frames.chunks(CAPACITY * 2).enumerate() {
        g.on_frames(chunk.to_vec(), SimTime::from_millis(1 + i as u64));
        if i % 8 == 7 {
            g.on_tick(SimTime::from_millis(2 + i as u64));
        }
    }
    g.on_tick(SimTime::from_micros(QOS_WINDOW_US));

    let ledgers = *g.qos_ledgers().expect("scheduler is active");
    QosPoint {
        consumers: 1 + usize::from(slow_present),
        fast_consumed: fast.load(std::sync::atomic::Ordering::Relaxed),
        slow_consumed: slow.map_or(0, |c| c.load(std::sync::atomic::Ordering::Relaxed)),
        data_shed: ledgers.class(PriorityClass::Data).shed,
        control_shed: ledgers.class(PriorityClass::Control).shed
            + ledgers.class(PriorityClass::Actuation).shed,
    }
}

/// The fast+slow sweep: the fast consumer alone, then with the
/// drain-limited co-subscriber.
pub fn run_qos() -> (Vec<QosPoint>, Table) {
    let mut table = Table::new(
        format!(
            "E17b — per-consumer QoS: fast+slow co-subscription at {QOS_MULTIPLIER}x \
             (queue capacity {CAPACITY})"
        ),
        &["consumers", "fast consumed", "slow consumed", "data shed", "control shed", "fast ratio"],
    );
    let points = vec![run_qos_point(false), run_qos_point(true)];
    let base = points[0].fast_consumed.max(1);
    for p in &points {
        table.row(&[
            n(p.consumers as u64),
            n(p.fast_consumed),
            n(p.slow_consumed),
            n(p.data_shed),
            n(p.control_shed),
            f2(p.fast_consumed as f64 / base as f64),
        ]);
    }
    (points, table)
}

/// Renders the fast+slow sweep as the `BENCH_qos.json` payload, in the
/// shared `sweep_json` schema: point 1 is the fast consumer alone,
/// point 2 adds the slow co-subscriber, and `speedup_vs_1` is therefore
/// the contended/uncontended delivery-rate ratio the acceptance gate
/// reads (≥ 0.95). Rates are per sim-second over the fixed
/// [`QOS_WINDOW_US`] window, so the document is deterministic.
pub fn qos_json() -> String {
    let (points, _) = run_qos();
    let rows: Vec<ShardPoint> = points
        .iter()
        .map(|p| ShardPoint {
            shards: p.consumers,
            frames: p.fast_consumed,
            elapsed_us: QOS_WINDOW_US,
            throughput_fps: p.fast_consumed as f64 / (QOS_WINDOW_US as f64 / 1e6),
        })
        .collect();
    sweep_json("e17_qos", "Garnet::on_frames (QoS scheduled, fast+slow)", host_cores(), &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_point_balances_its_ledger_and_bounds_the_queue() {
        let (points, _) = run();
        assert_eq!(points.len(), 15);
        for p in &points {
            assert_eq!(p.shed + p.delivered, p.offered, "{p:?}");
            assert!(p.p99_queue_depth <= CAPACITY as u64, "{p:?}");
            match p.policy {
                OverloadPolicy::Block => {
                    assert_eq!(p.shed, 0, "block never drops: {p:?}");
                    assert_eq!(p.consumed, p.offered, "{p:?}");
                }
                _ => {
                    if p.offered > CAPACITY as u64 {
                        assert!(p.shed > 0, "a 2x+ burst must shed: {p:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_consumer_rate_is_unaffected_by_a_slow_co_subscriber() {
        let (points, _) = run_qos();
        let (alone, contended) = (points[0], points[1]);
        assert_eq!(alone.consumers, 1);
        assert_eq!(contended.consumers, 2);
        assert!(alone.fast_consumed > 0, "the burst must reach the fast consumer");
        // Acceptance gate: within 5% of the uncontended rate. The
        // scheduler actually owes exact equality — the slow consumer's
        // queue is its own — but the gate is the published contract.
        let ratio = contended.fast_consumed as f64 / alone.fast_consumed as f64;
        assert!(ratio >= 0.95, "fast consumer degraded: {ratio:.3} ({points:?})");
        assert_eq!(
            contended.fast_consumed, alone.fast_consumed,
            "a slow co-subscriber changed the fast consumer's deliveries"
        );
        assert!(
            contended.slow_consumed < contended.fast_consumed,
            "the drain limit must hold the slow consumer back"
        );
        for p in &points {
            assert_eq!(p.control_shed, 0, "control events must never shed: {p:?}");
            assert!(p.data_shed > 0, "a {QOS_MULTIPLIER}x burst must shed data: {p:?}");
        }
    }

    #[test]
    fn qos_json_is_the_shared_sweep_schema() {
        let json = qos_json();
        assert!(json.contains("\"bench\": \"e17_qos\""));
        assert!(json.contains("\"shards\": 1"));
        assert!(json.contains("\"shards\": 2"));
        // Exact equality renders as a ratio of exactly 1.000 in the
        // second point's speedup column — the ≥0.95 acceptance gate.
        assert!(json.contains("\"speedup_vs_1\": 1.000"), "gate ratio missing:\n{json}");
    }

    #[test]
    fn json_payload_covers_every_policy() {
        let json = overload_json();
        assert!(json.contains("\"bench\": \"e17_overload\""));
        for name in ["shed", "coalesce", "block"] {
            assert!(json.contains(&format!("\"policy\": \"{name}\"")), "{name} missing");
        }
    }
}
