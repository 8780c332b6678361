//! Quickstart: one sensor, one consumer, ten simulated seconds.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the smallest complete Garnet deployment — a single temperature
//! sensor, a 2×2 receiver grid, the full middleware, and a consumer that
//! prints every delivered reading — and runs it for ten simulated
//! seconds.

use garnet::core::consumer::{Consumer, ConsumerCtx};
use garnet::core::filtering::Delivery;
use garnet::core::middleware::GarnetConfig;
use garnet::core::TopicFilter;
use garnet::radio::field::Uniform;
use garnet::radio::geometry::Point;
use garnet::radio::{
    Medium, Propagation, Reading, Receiver, SensorNode, StreamConfig, Transmitter,
};
use garnet::simkit::{SimDuration, SimTime};
use garnet::wire::{SensorId, StreamIndex};
use garnet::workloads::pipeline::{PipelineConfig, PipelineSim};

/// Prints every delivered reading.
struct Printer;

impl Consumer for Printer {
    fn name(&self) -> &str {
        "printer"
    }

    fn on_data(&mut self, delivery: &Delivery, _ctx: &mut ConsumerCtx) {
        if let Some(reading) = Reading::decode(delivery.msg.payload()) {
            println!(
                "  [{}] stream {} seq {} → {:.2} °C (sensed at {})",
                delivery.delivered_at,
                delivery.msg.stream(),
                delivery.msg.seq(),
                reading.value,
                reading.sensed_at(),
            );
        }
    }
}

fn main() {
    println!("Garnet quickstart — one sensor through the full Figure 1 pipeline\n");

    // The fixed infrastructure: overlapping receivers (duplication!) and
    // one transmitter for the return path.
    let receivers = Receiver::grid(Point::ORIGIN, 2, 2, 60.0, 100.0);
    let transmitters = Transmitter::grid(Point::ORIGIN, 1, 1, 1.0, 150.0);
    let config = PipelineConfig {
        seed: 1,
        medium: Medium::ideal(),
        garnet: GarnetConfig {
            receivers,
            propagation: Propagation::UnitDisk { range_m: 100.0 },
            transmitters,
            ..GarnetConfig::default()
        },
        peer_range_m: None,
    };

    // The environment and the sensor sampling it.
    let mut sim = PipelineSim::new(config, Box::new(Uniform(21.5)));
    let sensor = SensorNode::new(SensorId::new(1).expect("small id"), Point::new(30.0, 30.0))
        .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(1)));
    sim.add_sensor(sensor);

    // A consumer subscribes through the middleware's front door.
    let token = sim.garnet_mut().issue_default_token("printer");
    let id = sim
        .garnet_mut()
        .register_consumer(Box::new(Printer), &token, 0)
        .expect("registration succeeds");
    sim.garnet_mut()
        .subscribe(id, TopicFilter::Sensor(SensorId::new(1).unwrap()), &token)
        .expect("subscription succeeds");

    println!("running 10 simulated seconds…");
    sim.run_until(SimTime::from_secs(10));

    let g = sim.garnet();
    println!("\npipeline statistics:");
    println!("  transmissions          {}", sim.transmission_count());
    println!("  receptions (with dups) {}", sim.reception_count());
    println!("  duplicates eliminated  {}", g.filtering().duplicate_count());
    println!("  delivered to consumers {}", g.dispatching().delivery_count());
    println!("  streams catalogued     {}", g.streams().len());
}
