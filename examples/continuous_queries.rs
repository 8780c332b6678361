//! Continuous queries over a shared sensor stream: the Fjords parallel
//! (§7) as running code, plus demand-driven quiescence.
//!
//! ```text
//! cargo run --example continuous_queries
//! ```
//!
//! One temperature sensor serves three continuous queries of very
//! different cadences through a single acquisition stream — the query
//! host asks the Resource Manager for the fastest rate any query needs
//! (exactly what a Fjords sensor proxy would do), and each query's
//! results publish on their own derived stream. A second, unwatched
//! sensor gets quiesced by the middleware to save its battery.

use std::sync::atomic::Ordering;

use garnet::baselines::querydb::{Aggregate, Query};
use garnet::core::middleware::{ActuationOutcome, GarnetConfig, QuiesceConfig};
use garnet::core::TopicFilter;
use garnet::radio::field::Diurnal;
use garnet::radio::geometry::Point;
use garnet::radio::{
    Medium, Propagation, Receiver, SensorCaps, SensorNode, StreamConfig, Transmitter,
};
use garnet::simkit::{SimDuration, SimTime};
use garnet::wire::{ActuationTarget, SensorCommand, SensorId, StreamId, StreamIndex};
use garnet::workloads::pipeline::{PipelineConfig, PipelineSim, SharedCountConsumer};
use garnet::workloads::ContinuousQueryConsumer;

fn main() {
    println!("Continuous queries — one acquisition stream, three cadences\n");

    let receivers = Receiver::grid(Point::ORIGIN, 2, 2, 120.0, 200.0);
    let transmitters = Transmitter::grid(Point::ORIGIN, 2, 2, 120.0, 200.0);
    let config = PipelineConfig {
        seed: 7,
        medium: Medium::ideal(Propagation::UnitDisk { range_m: 200.0 }),
        garnet: GarnetConfig {
            receivers,
            transmitters,
            quiesce: Some(QuiesceConfig {
                idle_after: SimDuration::from_secs(120),
                slow_interval_ms: 300_000,
                restore_interval_ms: 5_000,
            }),
            ..GarnetConfig::default()
        },
        peer_range_m: None,
    };
    let field = Diurnal { mean: 15.0, amplitude: 8.0, period_s: 86_400.0, gx: 0.0 };
    let mut sim = PipelineSim::new(config, Box::new(field));

    // The watched sensor and a second one nobody subscribes to.
    for (id, pos) in [(1u32, Point::new(60.0, 60.0)), (2, Point::new(120.0, 60.0))] {
        sim.add_sensor(
            SensorNode::new(SensorId::new(id).unwrap(), pos)
                .with_caps(SensorCaps::sophisticated())
                .with_stream(StreamIndex::new(0), StreamConfig::every(SimDuration::from_secs(30))),
        );
    }

    // The query host: three cadences over sensor 1.
    let mut host = ContinuousQueryConsumer::new("query-host");
    let q_fast = host.register(Query::latest_every(SimDuration::from_secs(10)));
    let q_avg =
        host.register(Query { interval: SimDuration::from_secs(60), aggregate: Aggregate::Avg });
    let q_max =
        host.register(Query { interval: SimDuration::from_secs(300), aggregate: Aggregate::Max });
    let acquisition = host.acquisition_interval().expect("queries registered");
    println!("query host needs acquisition every {acquisition} (fastest of 10s/60s/300s queries)");

    let token = sim.garnet_mut().issue_default_token("ops");
    let host_id = sim.garnet_mut().register_consumer(Box::new(host), &token, 2).unwrap();
    let physical = StreamId::new(SensorId::new(1).unwrap(), StreamIndex::new(0));
    sim.garnet_mut().subscribe(host_id, TopicFilter::Stream(physical), &token).unwrap();

    // The host asks the Resource Manager for its acquisition rate — the
    // Fjords-proxy move.
    let now = sim.now();
    let outcome = sim
        .garnet_mut()
        .request_actuation(
            host_id,
            &token,
            ActuationTarget::Stream(physical),
            SensorCommand::SetReportInterval {
                stream: StreamIndex::new(0),
                interval_ms: acquisition.as_millis() as u32,
            },
            now,
        )
        .expect("authorized");
    if let ActuationOutcome::Granted { plan, .. } = outcome {
        sim.carry_out(garnet::core::middleware::StepOutput {
            control: vec![plan],
            ..Default::default()
        });
        println!("acquisition rate granted and transmitted to the sensor\n");
    }

    // Three dashboards, one per result stream.
    let virt = sim.garnet_mut().virtual_sensor(host_id).unwrap();
    let mut dashboards = Vec::new();
    for (label, idx) in [("10s-latest", q_fast), ("60s-avg", q_avg), ("300s-max", q_max)] {
        let (dash, count) = SharedCountConsumer::new(label);
        let id = sim.garnet_mut().register_consumer(Box::new(dash), &token, 0).unwrap();
        sim.garnet_mut()
            .subscribe(id, TopicFilter::Stream(StreamId::new(virt, StreamIndex::new(idx))), &token)
            .unwrap();
        dashboards.push((label, count));
    }

    println!("running 20 simulated minutes…");
    sim.run_until(SimTime::from_secs(1_200));

    println!("\nresults per dashboard:");
    for (label, count) in &dashboards {
        println!("  {label:>10}: {} reports", count.load(Ordering::Relaxed));
    }
    let g = sim.garnet();
    println!("\nmiddleware:");
    println!(
        "  sensor 1 acquisition interval (merged): {:?} ms",
        g.resource().effective_interval_ms(SensorId::new(1).unwrap(), StreamIndex::new(0))
    );
    println!("  sensor 2 quiesced: {} action(s)", g.quiesce_action_count());
    println!(
        "  sensor energy: watched {:.2} mJ, unwatched {:.2} mJ",
        sim.sensors()[0].energy_consumed_nj() as f64 / 1e6,
        sim.sensors()[1].energy_consumed_nj() as f64 / 1e6,
    );
}
