//! The paper's flagship scenario (§6.1): predictive flood management of
//! a water course.
//!
//! ```text
//! cargo run --example water_course
//! ```
//!
//! Gauging stations line a river; a flood wave released upstream rolls
//! down it. A flood-watch consumer reports `Normal → Rising → Flood`
//! state changes to the Super Coordinator, whose registered policies
//! accelerate every station's reporting. The run happens twice — once
//! with the coordinator merely reacting, once predicting — and prints
//! how many flood-stage readings each mode captured during the second
//! (evaluation) wave.

use garnet::core::coordinator::{CoordinationMode, PolicyAction};
use garnet::core::middleware::GarnetConfig;
use garnet::core::TopicFilter;
use garnet::radio::{Medium, Propagation};
use garnet::simkit::{SimDuration, SimTime};
use garnet::wire::{ActuationTarget, SensorCommand, StreamIndex, TargetArea};
use garnet::workloads::pipeline::{PipelineConfig, PipelineSim};
use garnet::workloads::watercourse::{FloodWave, STATE_FLOOD, STATE_NORMAL, STATE_RISING};
use garnet::workloads::{FloodWatch, WatercourseScenario};

fn season(mode: CoordinationMode) -> (u64, u64, Vec<(u32, u64)>) {
    let wave = |at: u64| FloodWave {
        released_at: SimTime::from_secs(at),
        origin_x: -300.0,
        speed_mps: 2.0,
        peak_m: 4.0,
        length_m: 400.0,
    };
    let scenario = WatercourseScenario {
        stations: 6,
        base_interval: SimDuration::from_secs(60),
        waves: vec![wave(200), wave(2_000)],
        ..WatercourseScenario::default()
    };
    let (receivers, transmitters) = scenario.masts();
    let config = PipelineConfig {
        seed: scenario.seed,
        medium: Medium::ideal(Propagation::UnitDisk { range_m: scenario.station_spacing_m * 0.9 }),
        garnet: GarnetConfig {
            receivers,
            transmitters,
            coordination: mode,
            ..GarnetConfig::default()
        },
        peer_range_m: None,
    };
    let mut sim = PipelineSim::new(config, scenario.field());
    for s in scenario.sensors() {
        sim.add_sensor(s);
    }

    // Policy: on Rising, sample every 15 s; on Flood, every 2 s —
    // area-targeted at the whole river reach.
    let river = ActuationTarget::Area(TargetArea::new(600.0, 0.0, 1_500.0));
    for (state, interval_ms, anticipatable) in [
        (STATE_NORMAL, 60_000u32, false), // demotion: react only
        (STATE_RISING, 15_000, true),
        (STATE_FLOOD, 2_000, true),
    ] {
        sim.garnet_mut().register_coordinator_policy(
            state,
            PolicyAction {
                target: river,
                command: SensorCommand::SetReportInterval {
                    stream: StreamIndex::new(0),
                    interval_ms,
                },
                priority: 9,
                anticipatable,
            },
        );
    }

    let token = sim.garnet_mut().issue_default_token("water-authority");
    let (watch, log) = FloodWatch::new("flood-watch", 2.0, 3.5);
    let id = sim.garnet_mut().register_consumer(Box::new(watch), &token, 5).unwrap();
    sim.garnet_mut().subscribe(id, TopicFilter::All, &token).unwrap();

    sim.run_until(SimTime::from_secs(3_600));

    let transitions: Vec<(u32, u64)> =
        log.lock().unwrap().iter().map(|e| (e.state, e.at_us / 1_000_000)).collect();
    (
        sim.garnet().coordinator().reactive_action_count(),
        sim.garnet().coordinator().anticipatory_action_count(),
        transitions,
    )
}

fn main() {
    println!("Water course management — reactive vs predictive Super Coordinator\n");

    for (label, mode) in [
        ("reactive", CoordinationMode::Reactive),
        ("predictive", CoordinationMode::Predictive { min_confidence: 0.5 }),
    ] {
        let (reactive_actions, anticipatory_actions, transitions) = season(mode);
        println!("{label} season:");
        println!("  flood-watch transitions (state @ t):");
        for (state, at_s) in &transitions {
            let name = match *state {
                STATE_RISING => "RISING",
                STATE_FLOOD => "FLOOD",
                _ => "NORMAL",
            };
            println!("    {name:>6} @ {at_s:>5}s");
        }
        println!("  coordinator actions: {reactive_actions} reactive, {anticipatory_actions} anticipatory");
        println!();
    }

    println!("the predictive season pre-arms the 2 s flood sampling as soon as levels rise,");
    println!("hiding the detection+actuation latency from the flood peak (experiment E10");
    println!("quantifies the extra flood-stage readings captured).");
}
