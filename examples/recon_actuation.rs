//! Reconnaissance with dynamic sensor control: detection, location
//! inference, hints, and the return actuation path.
//!
//! ```text
//! cargo run --example recon_actuation
//! ```
//!
//! A target crosses a field of mostly simple (transmit-only) sensors. A
//! detector consumer publishes a derived detections stream and supplies
//! location hints from its site survey. On first contact, the operator
//! accelerates the sophisticated sensors via the Resource
//! Manager/Actuation Service and reads an inferred sensor location back
//! from the Location Service.

use std::sync::atomic::Ordering;

use garnet::core::middleware::ActuationOutcome;
use garnet::net::TopicFilter;
use garnet::simkit::SimTime;
use garnet::wire::{ActuationTarget, SensorCommand, StreamId, StreamIndex};
use garnet::workloads::pipeline::SharedCountConsumer;
use garnet::workloads::recon::TargetDetector;
use garnet::workloads::ReconScenario;

fn main() {
    println!("Reconnaissance — detection, derived streams, hints, actuation\n");

    let scenario = ReconScenario::default();
    let survey = scenario.survey();
    let mut sim = scenario.build();
    let token = sim.garnet_mut().issue_default_token("recon-ops");

    // The detector watches every physical sensor.
    let (detector, detections) = TargetDetector::new("detector", 10.0, survey.clone());
    let det_id = sim.garnet_mut().register_consumer(Box::new(detector), &token, 3).unwrap();
    for (sensor, _) in &survey {
        sim.garnet_mut().subscribe(det_id, TopicFilter::Sensor(*sensor), &token).unwrap();
    }

    // An ops console subscribes to the detector's *derived* stream.
    let derived =
        StreamId::new(sim.garnet_mut().virtual_sensor(det_id).unwrap(), StreamIndex::new(0));
    let (console, console_count) = SharedCountConsumer::new("ops-console");
    let console_id = sim.garnet_mut().register_consumer(Box::new(console), &token, 0).unwrap();
    sim.garnet_mut().subscribe(console_id, TopicFilter::Stream(derived), &token).unwrap();

    println!("phase 1: target ingress (40 simulated seconds)…");
    sim.run_until(SimTime::from_secs(40));
    println!("  detections so far: {}", detections.lock().unwrap().len());
    println!("  location hints supplied: {}", sim.garnet().location().hint_count());

    // On contact, ops accelerates every sophisticated sensor.
    println!("phase 2: accelerating sophisticated sensors to 1 Hz via the actuation path…");
    let now = sim.now();
    let mut granted = 0;
    let sophisticated: Vec<_> =
        scenario.sensors().iter().filter(|s| s.caps().receive_capable).map(|s| s.id()).collect();
    for sensor in &sophisticated {
        let outcome = sim
            .garnet_mut()
            .request_actuation(
                console_id,
                &token,
                ActuationTarget::Sensor(*sensor),
                SensorCommand::SetReportInterval {
                    stream: StreamIndex::new(0),
                    interval_ms: 1_000,
                },
                now,
            )
            .expect("authorized");
        if let ActuationOutcome::Granted { plan, .. } = outcome {
            println!(
                "  {} → {} transmitter(s){}",
                sensor,
                plan.transmitters.len(),
                if plan.flooded { " (flooded: no location fix yet)" } else { " (targeted)" }
            );
            granted += 1;
            sim.carry_out(garnet::core::middleware::StepOutput {
                control: vec![plan],
                ..Default::default()
            });
        }
    }
    println!("  {granted}/{} requests granted by the Resource Manager", sophisticated.len());

    println!("phase 3: target egress (to t=120 s)…");
    sim.run_until(SimTime::from_secs(120));

    // Read an inferred location back (ReadLocation capability).
    let now = sim.now();
    if let Ok(Some(est)) = sim.garnet().locate(&token, sophisticated[0], now) {
        println!(
            "\ninferred location of {}: {} ± {:.0} m from {} sightings",
            sophisticated[0], est.position, est.radius_m, est.evidence_count
        );
    }

    let g = sim.garnet();
    println!("\nresults:");
    println!("  detections               {}", detections.lock().unwrap().len());
    println!("  derived msgs at console  {}", console_count.load(Ordering::Relaxed));
    println!("  control deliveries       {}", sim.control_delivery_count());
    println!("  actuation acks received  {}", g.actuation().acknowledged_count());
    println!("  duplicates eliminated    {}", g.filtering().duplicate_count());
}
