//! Cross-crate integration tests: the whole stack exercised through the
//! public facade, as a downstream user would drive it.

use std::sync::atomic::Ordering;

use garnet::core::middleware::{ActuationOutcome, GarnetConfig, StepOutput};
use garnet::core::{Capability, CapabilitySet, Principal, TopicFilter};
use garnet::radio::field::Uniform;
use garnet::radio::geometry::Point;
use garnet::radio::{
    Medium, Propagation, Reading, Receiver, SensorCaps, SensorNode, StreamConfig, Transmitter,
};
use garnet::simkit::{SimDuration, SimTime};
use garnet::wire::crypto::PayloadKey;
use garnet::wire::{ActuationTarget, SensorCommand, SensorId, StreamId, StreamIndex};
use garnet::workloads::pipeline::{LatencyProbe, PipelineConfig, PipelineSim, SharedCountConsumer};
use garnet::workloads::ReconScenario;

fn infrastructure() -> (Vec<Receiver>, Vec<Transmitter>) {
    (
        Receiver::grid(Point::ORIGIN, 2, 2, 80.0, 130.0),
        Transmitter::grid(Point::ORIGIN, 2, 2, 80.0, 130.0),
    )
}

fn pipeline() -> PipelineSim {
    let (receivers, transmitters) = infrastructure();
    PipelineSim::new(
        PipelineConfig {
            seed: 99,
            medium: Medium::ideal(),
            garnet: GarnetConfig {
                receivers,
                propagation: Propagation::UnitDisk { range_m: 130.0 },
                transmitters,
                ..GarnetConfig::default()
            },
            peer_range_m: None,
        },
        Box::new(Uniform(18.0)),
    )
}

fn basic_sensor(id: u32, interval: SimDuration) -> SensorNode {
    SensorNode::new(SensorId::new(id).unwrap(), Point::new(40.0, 40.0))
        .with_stream(StreamIndex::new(0), StreamConfig::every(interval))
}

#[test]
fn readings_flow_from_field_to_consumer() {
    let mut sim = pipeline();
    sim.add_sensor(basic_sensor(1, SimDuration::from_secs(1)));
    let token = sim.garnet_mut().issue_default_token("app");
    let (probe, hist) = LatencyProbe::new("probe");
    let id = sim.garnet_mut().register_consumer(Box::new(probe), &token, 0).unwrap();
    sim.garnet_mut().subscribe(id, TopicFilter::Sensor(SensorId::new(1).unwrap()), &token).unwrap();
    sim.run_until(SimTime::from_secs(30));

    let h = hist.lock().unwrap();
    assert!(h.count() >= 29, "delivered={}", h.count());
    assert!(h.p99() < 50_000, "p99={}µs", h.p99());
    // Overlapping receivers duplicated; the filter absorbed every copy.
    assert!(sim.garnet().filtering().duplicate_count() > 0);
    assert_eq!(
        sim.garnet().filtering().delivered_count() + sim.garnet().filtering().duplicate_count(),
        sim.reception_count()
    );
}

#[test]
fn actuation_round_trip_with_acknowledgement() {
    let mut sim = pipeline();
    sim.add_sensor(
        basic_sensor(1, SimDuration::from_secs(2)).with_caps(SensorCaps::sophisticated()),
    );
    let token = sim.garnet_mut().issue_default_token("controller");
    let (consumer, count) = SharedCountConsumer::new("controller");
    let id = sim.garnet_mut().register_consumer(Box::new(consumer), &token, 1).unwrap();
    sim.garnet_mut().subscribe(id, TopicFilter::All, &token).unwrap();

    sim.run_until(SimTime::from_secs(10));
    let before = count.load(Ordering::Relaxed);

    let now = sim.now();
    let outcome = sim
        .garnet_mut()
        .request_actuation(
            id,
            &token,
            ActuationTarget::Sensor(SensorId::new(1).unwrap()),
            SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms: 500 },
            now,
        )
        .unwrap();
    let ActuationOutcome::Granted { plan, .. } = outcome else {
        panic!("resource manager should grant an unconflicted request");
    };
    sim.carry_out(StepOutput { control: vec![plan], ..StepOutput::default() });

    sim.run_until(SimTime::from_secs(30));
    let after = count.load(Ordering::Relaxed) - before;
    assert!(after >= 35, "4x rate for 20s should yield ≥35 messages, got {after}");
    assert_eq!(sim.garnet().actuation().acknowledged_count(), 1);
    assert_eq!(sim.garnet().actuation().in_flight(), 0);
}

#[test]
fn encrypted_stream_is_opaque_to_middleware_but_readable_by_key_holder() {
    use garnet::core::consumer::{Consumer, ConsumerCtx};
    use garnet::core::filtering::Delivery;
    use std::sync::{Arc, Mutex};

    struct KeyedReader {
        key: PayloadKey,
        values: Arc<Mutex<Vec<f64>>>,
        undecodable: Arc<Mutex<u64>>,
    }
    impl Consumer for KeyedReader {
        fn name(&self) -> &str {
            "keyed-reader"
        }
        fn on_data(&mut self, d: &Delivery, _ctx: &mut ConsumerCtx) {
            // The payload is opaque without the key…
            if Reading::decode(d.msg.payload()).is_some() {
                *self.undecodable.lock().unwrap() += 1; // plaintext leaked!
                return;
            }
            // …but opens for the key holder.
            if let Ok(plain) = self.key.open(d.msg.stream(), d.msg.seq(), d.msg.payload()) {
                if let Some(r) = Reading::decode(&plain) {
                    self.values.lock().unwrap().push(r.value);
                }
            }
        }
    }

    let key = PayloadKey::from_bytes(*b"shared-field-key");
    let mut sim = pipeline();
    let sensor = basic_sensor(5, SimDuration::from_secs(1))
        .with_caps(SensorCaps::sophisticated())
        .with_stream_key(StreamIndex::new(0), key);
    let sensor_idx = sim.add_sensor(sensor);

    // Enable encryption via the actuation path (as an operator would).
    let token = sim.garnet_mut().issue_default_token("reader");
    let values = Arc::new(Mutex::new(Vec::new()));
    let undecodable = Arc::new(Mutex::new(0u64));
    let reader =
        KeyedReader { key, values: Arc::clone(&values), undecodable: Arc::clone(&undecodable) };
    let id = sim.garnet_mut().register_consumer(Box::new(reader), &token, 0).unwrap();
    sim.garnet_mut().subscribe(id, TopicFilter::Sensor(SensorId::new(5).unwrap()), &token).unwrap();

    let now = sim.now();
    let outcome = sim
        .garnet_mut()
        .request_actuation(
            id,
            &token,
            ActuationTarget::Sensor(SensorId::new(5).unwrap()),
            SensorCommand::SetEncryption { stream: StreamIndex::new(0), enabled: true },
            now,
        )
        .unwrap();
    let ActuationOutcome::Granted { plan, .. } = outcome else {
        panic!("encryption toggle should be granted");
    };
    sim.carry_out(StepOutput { control: vec![plan], ..StepOutput::default() });

    sim.run_until(SimTime::from_secs(20));
    let _ = sensor_idx;
    let decrypted = values.lock().unwrap();
    assert!(!decrypted.is_empty(), "key holder must read encrypted stream");
    assert!(decrypted.iter().all(|&v| (v - 18.0).abs() < 1e-9));
    // Encrypted payloads never decoded as plaintext readings (16/32-byte
    // plaintext lengths become 24/40-byte sealed payloads).
    assert!(decrypted.len() as u64 >= 15, "most post-toggle messages decrypt: {}", decrypted.len());
}

#[test]
fn capability_scoped_tokens_limit_access() {
    let mut sim = pipeline();
    sim.add_sensor(basic_sensor(1, SimDuration::from_secs(1)));
    let garnet = sim.garnet_mut();

    // A subscribe-only principal.
    let token = garnet.auth().issue(
        Principal::new("readonly"),
        CapabilitySet::of(&[Capability::Subscribe]),
        u64::MAX,
    );
    let (consumer, _count) = SharedCountConsumer::new("readonly");
    let id = garnet.register_consumer(Box::new(consumer), &token, 0).unwrap();
    garnet.subscribe(id, TopicFilter::All, &token).unwrap();

    // Actuation and location reads are refused.
    assert!(garnet
        .request_actuation(
            id,
            &token,
            ActuationTarget::Sensor(SensorId::new(1).unwrap()),
            SensorCommand::Ping,
            SimTime::ZERO,
        )
        .is_err());
    assert!(garnet.locate(&token, SensorId::new(1).unwrap(), SimTime::ZERO).is_err());
    assert!(garnet
        .provide_hint(&token, SensorId::new(1).unwrap(), Point::ORIGIN, 1.0, SimTime::ZERO)
        .is_err());
}

#[test]
fn location_inference_improves_during_operation() {
    let mut sim = pipeline();
    let truth = Point::new(55.0, 25.0);
    sim.add_sensor(
        SensorNode::new(SensorId::new(9).unwrap(), truth)
            .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(1))),
    );
    let token = sim.garnet_mut().issue_default_token("locator");
    sim.run_until(SimTime::from_secs(20));

    let now = sim.now();
    let est = sim
        .garnet()
        .locate(&token, SensorId::new(9).unwrap(), now)
        .unwrap()
        .expect("sightings accumulated");
    // Unit-disk RSSI is a coarse ramp; accuracy within the receiver
    // footprint is what matters.
    assert!(
        est.position.distance_to(truth) < 80.0,
        "estimate {:?} too far from {truth:?}",
        est.position
    );
    assert!(est.evidence_count > 1);
}

/// The Location Service inverts the very model the radios obey, so the
/// disk it reports covers the sensor: on the reconnaissance field, every
/// sensor lies within `radius_m` of its estimate. An inversion of some
/// other model reads each mast's RSSI as a wrong distance and draws a
/// disk that misses the sensor. Each mast that heard a sensor is one
/// piece of evidence, however often it heard it, so the nearest mast's
/// repeats cannot pin every estimate onto that mast: each one lies
/// within 100 m of its sensor.
#[test]
fn location_estimate_disk_covers_the_true_position() {
    let mut sim = ReconScenario::default().build();
    let token = sim.garnet_mut().issue_default_token("locator");
    sim.run_until(SimTime::from_secs(120));

    let now = sim.now();
    let located: Vec<(SensorId, Point)> =
        sim.sensors().iter().map(|s| (s.id(), s.position(now))).collect();
    assert_eq!(located.len(), 25);
    for (sensor, truth) in located {
        let est = sim
            .garnet()
            .locate(&token, sensor, now)
            .unwrap()
            .expect("sightings within the last minute");
        let distance = est.position.distance_to(truth);
        assert!(
            est.radius_m >= distance * (1.0 - 1e-9),
            "{sensor}: radius {:.1} m, but the sensor is {distance:.1} m from the estimate",
            est.radius_m
        );
        assert!(distance < 100.0, "{sensor}: the estimate is {distance:.1} m from the sensor");
    }
}

#[test]
fn late_subscriber_receives_orphanage_backlog_through_full_stack() {
    let mut sim = pipeline();
    sim.add_sensor(basic_sensor(3, SimDuration::from_secs(1)));
    // Nobody subscribed for 10 s.
    sim.run_until(SimTime::from_secs(10));
    assert!(sim.garnet().orphanage().total_taken() >= 9);

    let token = sim.garnet_mut().issue_default_token("late");
    let (consumer, count) = SharedCountConsumer::new("late");
    let id = sim.garnet_mut().register_consumer(Box::new(consumer), &token, 0).unwrap();
    let stream = StreamId::new(SensorId::new(3).unwrap(), StreamIndex::new(0));
    let now = sim.now();
    let (replayed, _) =
        sim.garnet_mut().subscribe_at(id, TopicFilter::Stream(stream), &token, now).unwrap();
    assert!(replayed >= 9, "replayed={replayed}");
    sim.run_until(SimTime::from_secs(20));
    assert!(count.load(Ordering::Relaxed) >= replayed as u64 + 9);
}
