//! Habitat monitoring: the paper's §7 comparison scenario, end to end.
//!
//! ```text
//! cargo run --example habitat_monitoring
//! ```
//!
//! A 6×6 plot of simple, transmit-only microclimate sensors reports
//! through overlapping gateway receivers. Two mutually-unaware consumers
//! run side by side: an *ecologist* averaging the plot temperature into
//! a derived stream (multi-level consumption, §4.2), and a *logger*
//! counting raw deliveries. A third consumer subscribes late to the
//! ecologist's derived stream and still sees data thanks to the
//! Orphanage.

use std::sync::atomic::Ordering;

use garnet::core::consumer::{Consumer, ConsumerCtx};
use garnet::core::filtering::Delivery;
use garnet::core::TopicFilter;
use garnet::radio::Reading;
use garnet::simkit::{SimDuration, SimTime};
use garnet::wire::{StreamId, StreamIndex};
use garnet::workloads::pipeline::SharedCountConsumer;
use garnet::workloads::HabitatScenario;

/// Averages every window of 36 readings onto derived stream 0.
struct PlotAverager {
    window: Vec<f64>,
    emitted: u64,
}

impl Consumer for PlotAverager {
    fn name(&self) -> &str {
        "plot-averager"
    }

    fn on_data(&mut self, delivery: &Delivery, ctx: &mut ConsumerCtx) {
        if let Some(reading) = Reading::decode(delivery.msg.payload()) {
            self.window.push(reading.value);
            if self.window.len() == 36 {
                let mean = self.window.iter().sum::<f64>() / 36.0;
                self.window.clear();
                self.emitted += 1;
                ctx.publish_derived(StreamIndex::new(0), Reading::new(mean, ctx.now()).encode());
            }
        }
    }
}

fn main() {
    println!("Habitat monitoring — 36 sensors, mutually-unaware consumers, derived streams\n");

    let scenario = HabitatScenario {
        grid_side: 6,
        report_interval: SimDuration::from_secs(10),
        ..HabitatScenario::default()
    };
    let mut sim = scenario.build();
    let token = sim.garnet_mut().issue_default_token("habitat");

    // Consumer 1: the ecologist's averager over every physical sensor.
    let averager_id = sim
        .garnet_mut()
        .register_consumer(Box::new(PlotAverager { window: Vec::new(), emitted: 0 }), &token, 0)
        .unwrap();
    for node in scenario.sensors() {
        sim.garnet_mut().subscribe(averager_id, TopicFilter::Sensor(node.id()), &token).unwrap();
    }
    let derived_stream = StreamId::new(
        sim.garnet_mut().virtual_sensor(averager_id).expect("consumer just registered"),
        StreamIndex::new(0),
    );

    // Consumer 2: a raw logger, unaware of the ecologist. It watches the
    // physical sensors only (an All subscription would claim the derived
    // stream too, and the Orphanage would have nothing to retain).
    let (logger, raw_count) = SharedCountConsumer::new("raw-logger");
    let logger_id = sim.garnet_mut().register_consumer(Box::new(logger), &token, 0).unwrap();
    for node in scenario.sensors() {
        sim.garnet_mut().subscribe(logger_id, TopicFilter::Sensor(node.id()), &token).unwrap();
    }

    println!("phase 1: 5 simulated minutes with the averager publishing unclaimed derived data…");
    sim.run_until(SimTime::from_secs(300));
    let orphaned = sim.garnet().orphanage().stats(derived_stream);
    if let Some(stats) = &orphaned {
        println!(
            "  derived stream {} is unclaimed: {} msgs seen, {} retained by the Orphanage",
            derived_stream, stats.messages_seen, stats.retained
        );
    }

    // Consumer 3 arrives late and subscribes to the derived stream: the
    // Orphanage replays the backlog.
    let (late, late_count) = SharedCountConsumer::new("late-dashboard");
    let late_id = sim.garnet_mut().register_consumer(Box::new(late), &token, 0).unwrap();
    let now = sim.now();
    let (replayed, _) = sim
        .garnet_mut()
        .subscribe_at(late_id, TopicFilter::Stream(derived_stream), &token, now)
        .unwrap();
    println!("  late dashboard subscribed: {replayed} messages replayed from the Orphanage");

    println!("phase 2: 5 more minutes with all three consumers live…");
    sim.run_until(SimTime::from_secs(600));

    let g = sim.garnet();
    println!("\nresults:");
    println!("  raw deliveries to logger      {}", raw_count.load(Ordering::Relaxed));
    println!("  derived msgs at late consumer {}", late_count.load(Ordering::Relaxed));
    println!("  duplicates eliminated         {}", g.filtering().duplicate_count());
    println!("  streams catalogued            {}", g.streams().len());
    println!("  consumers subscribed          {}", g.dispatching().subscriber_count());
    assert!(late_count.load(Ordering::Relaxed) as usize >= replayed);
}
