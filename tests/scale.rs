//! Scale: hundreds of sensors and dozens of mutually-unaware consumers
//! through one middleware instance, with conservation laws checked at
//! the end.

use std::sync::atomic::Ordering;

use garnet::core::middleware::GarnetConfig;
use garnet::core::TopicFilter;
use garnet::radio::field::Gradient;
use garnet::radio::geometry::Point;
use garnet::radio::{Medium, Propagation, Receiver, SensorNode, StreamConfig, Transmitter};
use garnet::simkit::{SimDuration, SimRng, SimTime};
use garnet::wire::{SensorId, StreamIndex};
use garnet::workloads::pipeline::{PipelineConfig, PipelineSim, SharedCountConsumer};

const SENSORS: u32 = 400;
const CONSUMERS: u32 = 64;

#[test]
fn four_hundred_sensors_sixty_four_consumers() {
    // A 1 km² field with a 5×5 receiver grid.
    let receivers = Receiver::grid(Point::ORIGIN, 5, 5, 250.0, 300.0);
    let transmitters = Transmitter::grid(Point::ORIGIN, 5, 5, 250.0, 300.0);
    let config = PipelineConfig {
        seed: 2026,
        medium: Medium::ideal(),
        garnet: GarnetConfig {
            receivers,
            propagation: Propagation::UnitDisk { range_m: 300.0 },
            transmitters,
            ..GarnetConfig::default()
        },
        peer_range_m: None,
    };
    let mut sim = PipelineSim::new(config, Box::new(Gradient { base: 10.0, gx: 0.002, gy: 0.001 }));

    let mut rng = SimRng::seed(9).fork("placement");
    for i in 0..SENSORS {
        let pos = Point::new(rng.next_f64() * 1_000.0, rng.next_f64() * 1_000.0);
        sim.add_sensor(
            SensorNode::new(SensorId::new(i + 1).unwrap(), pos)
                .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(10))),
        );
    }

    // 63 consumers watch disjoint sensor slices; one watches everything.
    let token = sim.garnet_mut().issue_default_token("fleet");
    let mut slices = Vec::new();
    for c in 0..CONSUMERS - 1 {
        let (consumer, count) = SharedCountConsumer::new(format!("slice-{c}"));
        let id = sim.garnet_mut().register_consumer(Box::new(consumer), &token, 0).unwrap();
        for s in 0..SENSORS {
            if s % (CONSUMERS - 1) == c {
                sim.garnet_mut()
                    .subscribe(id, TopicFilter::Sensor(SensorId::new(s + 1).unwrap()), &token)
                    .unwrap();
            }
        }
        slices.push(count);
    }
    let (wiretap, tap_count) = SharedCountConsumer::new("wiretap");
    let tap_id = sim.garnet_mut().register_consumer(Box::new(wiretap), &token, 0).unwrap();
    sim.garnet_mut().subscribe(tap_id, TopicFilter::All, &token).unwrap();

    sim.run_until(SimTime::from_secs(120));
    // Drain the final round's in-flight receptions.
    sim.run_until(SimTime::from_millis(120_100));

    let g = sim.garnet();
    let unique = g.filtering().delivered_count();
    let tap = tap_count.load(Ordering::Relaxed);
    let slices_total: u64 = slices.iter().map(|c| c.load(Ordering::Relaxed)).sum();

    // Conservation laws:
    // 1. Every unique message reaches the wiretap exactly once.
    assert_eq!(tap, unique);
    // 2. Slices partition the sensor space: together they also see every
    //    unique message exactly once.
    assert_eq!(slices_total, unique);
    // 3. Dispatch accounting matches: each message → its slice + the tap.
    assert_eq!(g.dispatching().delivery_count(), unique * 2);
    // 4. Nothing is unclaimed (the wiretap claims all).
    assert_eq!(g.dispatching().unclaimed_count(), 0);
    assert_eq!(g.orphanage().total_taken(), 0);
    // 5. Every reception is accounted for.
    assert_eq!(unique + g.filtering().duplicate_count(), sim.reception_count());

    // Volume sanity: 400 sensors × 12+ rounds, receivers heard most.
    assert!(unique >= 4_400, "unique={unique}");
    assert_eq!(g.streams().len(), SENSORS as usize);
    assert_eq!(g.dispatching().subscriber_count(), CONSUMERS as usize);
}

#[test]
fn scale_run_is_deterministic() {
    let run = || {
        let receivers = Receiver::grid(Point::ORIGIN, 3, 3, 200.0, 250.0);
        let config = PipelineConfig {
            seed: 7,
            medium: Medium::wifi_outdoor(),
            garnet: GarnetConfig { receivers, ..GarnetConfig::default() },
            peer_range_m: None,
        };
        let mut sim = PipelineSim::new(config, Box::new(Gradient { base: 0.0, gx: 0.01, gy: 0.0 }));
        let mut rng = SimRng::seed(3).fork("p");
        for i in 0..100u32 {
            let pos = Point::new(rng.next_f64() * 400.0, rng.next_f64() * 400.0);
            sim.add_sensor(
                SensorNode::new(SensorId::new(i + 1).unwrap(), pos).with_stream(
                    StreamIndex::new(0),
                    StreamConfig::every(SimDuration::from_secs(5)),
                ),
            );
        }
        sim.run_until(SimTime::from_secs(60));
        (
            sim.reception_count(),
            sim.garnet().filtering().delivered_count(),
            sim.garnet().filtering().duplicate_count(),
        )
    };
    assert_eq!(run(), run());
}
