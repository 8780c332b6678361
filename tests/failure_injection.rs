//! Failure injection: the middleware under dying sensors, roaming out of
//! coverage, corrupted control paths, token expiry, consumer churn and
//! ingest overload.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use garnet::core::consumer::{Consumer, ConsumerCtx};
use garnet::core::filtering::Delivery;
use garnet::core::middleware::{ActuationOutcome, Garnet, GarnetConfig, StepOutput};
use garnet::core::router::{OverloadConfig, OverloadPolicy};
use garnet::core::{Capability, CapabilitySet, Principal, TopicFilter};
use garnet::radio::field::Uniform;
use garnet::radio::geometry::Point;
use garnet::radio::{
    EnergyModel, Medium, Mobility, Propagation, Receiver, ReceiverId, SensorCaps, SensorNode,
    StreamConfig, Transmitter,
};
use garnet::simkit::{SimDuration, SimTime};
use garnet::wire::{
    ActuationTarget, DataMessage, SensorCommand, SensorId, SequenceNumber, StreamId, StreamIndex,
};
use garnet::workloads::pipeline::{PipelineConfig, PipelineSim, SharedCountConsumer};

fn pipeline(seed: u64) -> PipelineSim {
    let receivers = Receiver::grid(Point::ORIGIN, 2, 2, 80.0, 120.0);
    let transmitters = Transmitter::grid(Point::ORIGIN, 2, 2, 80.0, 120.0);
    PipelineSim::new(
        PipelineConfig {
            seed,
            medium: Medium::ideal(),
            garnet: GarnetConfig {
                receivers,
                propagation: Propagation::UnitDisk { range_m: 120.0 },
                transmitters,
                ..GarnetConfig::default()
            },
            peer_range_m: None,
        },
        Box::new(Uniform(4.0)),
    )
}

#[test]
fn battery_death_silences_stream_without_breaking_others() {
    let mut sim = pipeline(1);
    let model = EnergyModel::microsensor();
    // Frame = 9 hdr + 16 reading + 2 crc = 27 bytes; budget for ~5 frames.
    let budget = model.tx_cost_nj(27) * 5;
    sim.add_sensor(
        SensorNode::new(SensorId::new(1).unwrap(), Point::new(40.0, 40.0))
            .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(1)))
            .with_energy_budget_nj(budget),
    );
    sim.add_sensor(
        SensorNode::new(SensorId::new(2).unwrap(), Point::new(50.0, 40.0))
            .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(1))),
    );
    let token = sim.garnet_mut().issue_default_token("t");
    let (c1, n1) = SharedCountConsumer::new("watch-1");
    let (c2, n2) = SharedCountConsumer::new("watch-2");
    let id1 = sim.garnet_mut().register_consumer(Box::new(c1), &token, 0).unwrap();
    let id2 = sim.garnet_mut().register_consumer(Box::new(c2), &token, 0).unwrap();
    sim.garnet_mut()
        .subscribe(id1, TopicFilter::Sensor(SensorId::new(1).unwrap()), &token)
        .unwrap();
    sim.garnet_mut()
        .subscribe(id2, TopicFilter::Sensor(SensorId::new(2).unwrap()), &token)
        .unwrap();

    sim.run_until(SimTime::from_secs(30));
    let dead = n1.load(Ordering::Relaxed);
    let alive = n2.load(Ordering::Relaxed);
    assert_eq!(dead, 5, "sensor 1 died after its budget");
    assert!(alive >= 29, "sensor 2 unaffected: {alive}");
    assert!(sim.sensors()[0].meter().is_exhausted());
    // The dead stream's catalogue entry records its short life.
    let stream = garnet::wire::StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
    assert_eq!(sim.garnet().streams().info(stream).unwrap().messages, 5);
}

#[test]
fn roaming_out_of_coverage_and_back_resumes_stream() {
    let mut sim = pipeline(2);
    // Walk from inside coverage to 1 km away and back over 120 s.
    let track = Mobility::Waypoints(vec![
        (0, Point::new(40.0, 40.0)),
        (40_000_000, Point::new(1_000.0, 40.0)),
        (80_000_000, Point::new(1_000.0, 40.0)),
        (120_000_000, Point::new(40.0, 40.0)),
    ]);
    sim.add_sensor(
        SensorNode::new(SensorId::new(1).unwrap(), Point::ORIGIN)
            .with_mobility(track)
            .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(1))),
    );
    let token = sim.garnet_mut().issue_default_token("t");
    let (c, n) = SharedCountConsumer::new("c");
    let id = sim.garnet_mut().register_consumer(Box::new(c), &token, 0).unwrap();
    sim.garnet_mut().subscribe(id, TopicFilter::All, &token).unwrap();

    sim.run_until(SimTime::from_secs(10));
    let early = n.load(Ordering::Relaxed);
    assert!(early >= 5, "in coverage at the start: {early}");

    sim.run_until(SimTime::from_secs(80));
    let mid = n.load(Ordering::Relaxed);

    sim.run_until(SimTime::from_secs(125));
    let late = n.load(Ordering::Relaxed);
    assert!(late > mid, "stream resumes on return: {mid} → {late}");
    // The filtering service saw the gap as loss, not corruption.
    assert_eq!(sim.garnet().filtering().crc_failure_count(), 0);
    assert!(sim.transmission_count() > sim.reception_count() / 4, "messages were lost in the hole");
}

#[test]
fn actuation_to_unreachable_sensor_times_out_cleanly() {
    let mut sim = pipeline(3);
    // A sophisticated sensor far outside every transmitter's range.
    sim.add_sensor(
        SensorNode::new(SensorId::new(1).unwrap(), Point::new(5_000.0, 0.0))
            .with_caps(SensorCaps::sophisticated())
            .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(1))),
    );
    let token = sim.garnet_mut().issue_default_token("t");
    let (c, _n) = SharedCountConsumer::new("c");
    let id = sim.garnet_mut().register_consumer(Box::new(c), &token, 0).unwrap();
    let now = sim.now();
    let outcome = sim
        .garnet_mut()
        .request_actuation(
            id,
            &token,
            ActuationTarget::Sensor(SensorId::new(1).unwrap()),
            SensorCommand::Ping,
            now,
        )
        .unwrap();
    let ActuationOutcome::Granted { plan, .. } = outcome else {
        panic!("grant expected");
    };
    assert!(plan.flooded, "no location fix for a silent far sensor");
    sim.carry_out(StepOutput { control: vec![plan], ..StepOutput::default() });

    // Default actuation config: 5 s timeout, 2 retries, exponential
    // backoff → deadlines at 5 s, 15 s, 35 s.
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(sim.garnet().actuation().in_flight(), 0, "request fully expired");
    assert_eq!(sim.garnet().actuation().timeout_count(), 1);
    assert_eq!(sim.garnet().actuation().acknowledged_count(), 0);
    assert_eq!(sim.garnet().actuation().retransmission_count(), 2);
    assert_eq!(sim.control_delivery_count(), 0, "nothing ever reached the sensor");
}

/// The consumer's calls after expiry present its own registration token,
/// which `subscribe_at` and `request_actuation` check by identity without
/// recomputing the MAC: this pins the expiry check on that fast path as
/// well as on the full verification `locate` and `provide_hint` run.
#[test]
fn expired_token_is_refused_everywhere() {
    let mut sim = pipeline(4);
    let garnet = sim.garnet_mut();
    let token = garnet.auth().issue(
        Principal::new("short-lived"),
        CapabilitySet::all(),
        1_000_000, // expires at t = 1 s
    );
    let (c, _n) = SharedCountConsumer::new("c");
    let id = garnet.register_consumer(Box::new(c), &token, 0).unwrap();
    // Valid before expiry…
    garnet.subscribe_at(id, TopicFilter::All, &token, SimTime::ZERO).unwrap();
    // …refused after.
    let later = SimTime::from_secs(2);
    assert!(garnet.subscribe_at(id, TopicFilter::All, &token, later).is_err());
    assert!(garnet
        .request_actuation(
            id,
            &token,
            ActuationTarget::Sensor(SensorId::new(1).unwrap()),
            SensorCommand::Ping,
            later,
        )
        .is_err());
    assert!(garnet.locate(&token, SensorId::new(1).unwrap(), later).is_err());
    assert!(matches!(
        garnet.provide_hint(&token, SensorId::new(1).unwrap(), Point::ORIGIN, 1.0, later),
        Err(garnet::core::middleware::GarnetError::NotAuthorized {
            needed: Capability::ProvideHints
        })
    ));
}

#[test]
fn consumer_churn_releases_resources_and_reroutes_data() {
    let mut sim = pipeline(5);
    sim.add_sensor(
        SensorNode::new(SensorId::new(1).unwrap(), Point::new(40.0, 40.0))
            .with_caps(SensorCaps::sophisticated())
            .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(1))),
    );
    let token = sim.garnet_mut().issue_default_token("t");

    // First consumer demands a fast rate, then leaves.
    let (c1, _n1) = SharedCountConsumer::new("c1");
    let id1 = sim.garnet_mut().register_consumer(Box::new(c1), &token, 0).unwrap();
    sim.garnet_mut().subscribe(id1, TopicFilter::All, &token).unwrap();
    let now = sim.now();
    let _ = sim
        .garnet_mut()
        .request_actuation(
            id1,
            &token,
            ActuationTarget::Sensor(SensorId::new(1).unwrap()),
            SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms: 200 },
            now,
        )
        .unwrap();
    assert_eq!(
        sim.garnet()
            .resource()
            .effective_interval_ms(SensorId::new(1).unwrap(), StreamIndex::new(0)),
        Some(200)
    );
    sim.garnet_mut().deregister_consumer(id1).unwrap();
    // The departing consumer's demand is released.
    assert_eq!(
        sim.garnet()
            .resource()
            .effective_interval_ms(SensorId::new(1).unwrap(), StreamIndex::new(0)),
        None
    );

    // Its data now orphans until a second consumer claims it.
    sim.run_until(SimTime::from_secs(5));
    assert!(sim.garnet().orphanage().total_taken() > 0);
    let (c2, n2) = SharedCountConsumer::new("c2");
    let id2 = sim.garnet_mut().register_consumer(Box::new(c2), &token, 0).unwrap();
    let now = sim.now();
    let (replayed, _) = sim
        .garnet_mut()
        .subscribe_at(
            id2,
            TopicFilter::Stream(garnet::wire::StreamId::new(
                SensorId::new(1).unwrap(),
                StreamIndex::new(0),
            )),
            &token,
            now,
        )
        .unwrap();
    assert!(replayed > 0);
    sim.run_until(SimTime::from_secs(10));
    assert!(n2.load(Ordering::Relaxed) > replayed as u64);
}

/// One recorded delivery: (raw stream id, sequence, payload bytes).
type DeliveryRecord = (u32, u16, Vec<u8>);
type DeliveryLog = Arc<Mutex<Vec<DeliveryRecord>>>;

/// Consumer that records each delivery's identity, so two runs can be
/// compared message-for-message.
struct RecordingConsumer {
    log: DeliveryLog,
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

/// Runs a 10x-capacity burst (4 streams x 20 sequences = 80 frames)
/// through a facade configured with `overload`, returning the recorded
/// deliveries and the admission ledger for the burst.
fn burst_run(
    overload: Option<OverloadConfig>,
) -> (Vec<DeliveryRecord>, garnet::core::middleware::OverloadStats) {
    burst_run_batched(overload, usize::MAX)
}

/// [`burst_run`], with the burst split into `on_frames` batches of
/// `batch` frames each (`usize::MAX` = the whole burst in one call).
fn burst_run_batched(
    overload: Option<OverloadConfig>,
    batch: usize,
) -> (Vec<DeliveryRecord>, garnet::core::middleware::OverloadStats) {
    let mut g = Garnet::new(GarnetConfig { overload, ..GarnetConfig::default() });
    let token = g.issue_default_token("recorder");
    let log = Arc::new(Mutex::new(Vec::new()));
    let id = g
        .register_consumer(Box::new(RecordingConsumer { log: Arc::clone(&log) }), &token, 0)
        .unwrap();
    g.subscribe(id, TopicFilter::All, &token).unwrap();

    let mut frames = Vec::new();
    for seq in 0..20u16 {
        for sensor in 1..=4u32 {
            let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
            let bytes = DataMessage::builder(stream)
                .seq(SequenceNumber::new(seq))
                .payload(vec![sensor as u8, seq as u8])
                .build()
                .unwrap()
                .encode_to_vec();
            frames.push((ReceiverId::new(0), -50.0, bytes));
        }
    }
    let mut total = StepOutput::default();
    let chunk = batch.min(frames.len()).max(1);
    for (i, frames) in frames.chunks(chunk).enumerate() {
        total.merge(g.on_frames(frames.to_vec(), SimTime::from_millis(1 + i as u64)));
    }
    // Flush the reorder buffer: shedding leaves per-stream gaps that
    // otherwise hold deliveries back past their reorder deadline.
    g.on_tick(SimTime::from_secs(1));
    let recorded = log.lock().unwrap().clone();
    (recorded, total.overload)
}

#[test]
fn burst_overload_policies_bound_the_queue_and_balance_the_ledger() {
    const CAPACITY: usize = 8;
    let (unbounded, base) = burst_run(None);
    assert_eq!(unbounded.len(), 80, "unbounded run delivers the whole burst");
    assert_eq!(base.offered, 80);
    assert_eq!(base.shed, 0);

    for policy in [OverloadPolicy::Shed, OverloadPolicy::CoalesceFrames, OverloadPolicy::Block] {
        let (recorded, stats) = burst_run(Some(OverloadConfig { capacity: CAPACITY, policy }));
        // The ledger balances: every offered frame was either admitted
        // to the queue (and later delivered) or accounted as shed.
        assert_eq!(stats.offered, 80, "{policy:?}");
        assert_eq!(stats.shed + stats.delivered, stats.offered, "{policy:?}");
        // The queue never grew past its bound.
        assert!(
            stats.peak_queue_depth <= CAPACITY as u64,
            "{policy:?}: peak depth {} exceeds capacity {CAPACITY}",
            stats.peak_queue_depth
        );
        // Frames that were not shed come out bit-identical to the
        // unbounded run's copies of the same messages.
        for entry in &recorded {
            assert!(
                unbounded.contains(entry),
                "{policy:?}: delivery {entry:?} not byte-identical to any unbounded delivery"
            );
        }
        match policy {
            OverloadPolicy::Block => {
                // Admission stalls (draining one event) instead of
                // dropping: the full burst flows through untouched.
                assert_eq!(stats.shed, 0);
                assert_eq!(recorded, unbounded, "Block must not reorder or drop anything");
            }
            OverloadPolicy::Shed => {
                // 8 admitted outright, every later admission sheds the
                // oldest queued frame: exactly capacity frames survive.
                assert_eq!(stats.delivered, CAPACITY as u64);
                assert_eq!(stats.shed, 80 - CAPACITY as u64);
            }
            OverloadPolicy::CoalesceFrames => {
                assert_eq!(stats.coalesced, stats.shed, "every drop found a same-stream victim");
                // The newest sequence of every stream survives the
                // coalescing and reaches the consumer.
                for sensor in 1..=4u32 {
                    let raw =
                        StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0)).to_raw();
                    let newest =
                        recorded.iter().filter(|(s, _, _)| *s == raw).map(|(_, q, _)| *q).max();
                    assert_eq!(newest, Some(19), "stream {sensor} lost its newest frame");
                }
            }
        }
    }
}

#[test]
fn batched_admission_ledger_counts_individual_frames_at_batch_boundaries() {
    // Splitting the burst into `on_frames` batches that straddle the
    // capacity boundary — sub-capacity (3), exact fit (8), mid-batch
    // overflow (13) and the whole burst at once — must keep the ledger
    // in frames, not batches: `offered` counts every frame and
    // `offered == shed + delivered` balances under every policy.
    const CAPACITY: usize = 8;
    for policy in [OverloadPolicy::Shed, OverloadPolicy::CoalesceFrames, OverloadPolicy::Block] {
        for batch in [3usize, 8, 13, usize::MAX] {
            let (recorded, stats) =
                burst_run_batched(Some(OverloadConfig { capacity: CAPACITY, policy }), batch);
            assert_eq!(stats.offered, 80, "{policy:?} batch={batch}: offered counts frames");
            assert_eq!(
                stats.shed + stats.delivered,
                stats.offered,
                "{policy:?} batch={batch}: ledger must balance"
            );
            assert!(
                stats.peak_queue_depth <= CAPACITY as u64,
                "{policy:?} batch={batch}: peak depth {} exceeds capacity",
                stats.peak_queue_depth
            );
            // Every delivery corresponds to a frame the ledger says
            // survived admission.
            assert!(
                (recorded.len() as u64) <= stats.delivered,
                "{policy:?} batch={batch}: more deliveries than admitted frames"
            );
            if policy == OverloadPolicy::Block {
                // Block never sheds, whatever the batching: admission
                // drains the queue frame by frame to make room.
                assert_eq!(stats.shed, 0, "batch={batch}");
                assert_eq!(recorded.len(), 80, "batch={batch}: the full burst flows through");
            }
            // A batch no larger than capacity can never overflow the
            // queue: the facade pumps to quiescence between calls.
            if batch <= CAPACITY {
                assert_eq!(stats.shed, 0, "{policy:?} batch={batch}: sub-capacity batches fit");
            }
        }
    }
}
