//! E10 — predictive vs reactive coordination on the water course
//! (§6.1).
//!
//! Two identical flood seasons are simulated — a training wave and an
//! evaluation wave — under two Super Coordinator modes. Policies:
//! *Rising* accelerates all stations moderately; *Flood* accelerates
//! them hard. In reactive mode the hard acceleration waits until water
//! actually crosses the flood threshold; in predictive mode the learned
//! `Rising → Flood` transition pre-fires it as soon as levels start
//! rising, so the flood peak is sampled at the fast rate from the start.
//! The metric: flood-stage readings captured during the evaluation wave
//! — the data a water authority actually wants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use garnet_core::consumer::{Consumer, ConsumerCtx};
use garnet_core::coordinator::{CoordinationMode, PolicyAction};
use garnet_core::filtering::Delivery;
use garnet_core::middleware::GarnetConfig;
use garnet_core::TopicFilter;
use garnet_radio::{Medium, Propagation, Reading};
use garnet_simkit::{SimDuration, SimTime};
use garnet_wire::{ActuationTarget, SensorCommand, StreamIndex, TargetArea};
use garnet_workloads::pipeline::{PipelineConfig, PipelineSim};
use garnet_workloads::watercourse::{
    FloodWave, WatercourseScenario, STATE_FLOOD, STATE_NORMAL, STATE_RISING,
};
use garnet_workloads::FloodWatch;

use crate::table::{n, Table};

/// Results of one mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictivePoint {
    /// High-stage readings (level ≥ rising threshold) delivered during
    /// the evaluation wave — the data resolution of the event.
    pub flood_readings: u64,
    /// Anticipatory actions the coordinator fired.
    pub anticipatory_actions: u64,
    /// Reactive actions the coordinator fired.
    pub reactive_actions: u64,
}

/// Counts delivered readings at or above a threshold after a start time.
struct FloodSampleCounter {
    name: String,
    threshold: f64,
    after: SimTime,
    count: Arc<AtomicU64>,
}

impl Consumer for FloodSampleCounter {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_data(&mut self, delivery: &Delivery, _ctx: &mut ConsumerCtx) {
        if delivery.delivered_at < self.after {
            return;
        }
        if let Some(r) = Reading::decode(delivery.msg.payload()) {
            if r.value >= self.threshold {
                self.count.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

const RISING_THRESHOLD: f64 = 1.4;
const FLOOD_THRESHOLD: f64 = 3.5;
const EVAL_WAVE_AT: u64 = 2_000; // seconds

fn scenario() -> WatercourseScenario {
    let wave = |at: u64| FloodWave {
        released_at: SimTime::from_secs(at),
        origin_x: -300.0,
        speed_mps: 2.0,
        peak_m: 4.0,
        length_m: 400.0,
    };
    WatercourseScenario {
        stations: 6,
        station_spacing_m: 200.0,
        base_interval: SimDuration::from_secs(60),
        base_level_m: 1.0,
        waves: vec![wave(200), wave(EVAL_WAVE_AT)],
        seed: 0xE10,
    }
}

/// Runs one coordinator mode over the two-wave season.
pub(crate) fn run_mode(mode: CoordinationMode) -> PredictivePoint {
    let s = scenario();
    let (receivers, transmitters) = s.masts();
    let config = PipelineConfig {
        seed: s.seed,
        medium: Medium::ideal(Propagation::UnitDisk { range_m: s.station_spacing_m * 0.9 }),
        garnet: GarnetConfig {
            receivers,
            transmitters,
            coordination: mode,
            ..GarnetConfig::default()
        },
        peer_range_m: None,
    };
    let mut sim = PipelineSim::new(config, s.field());
    for node in s.sensors() {
        sim.add_sensor(node);
    }

    // Policies: the whole river accelerates on Rising, goes hard on
    // Flood, and relaxes back to the base cadence on Normal (without the
    // relax policy both modes would stay fast after the training wave and
    // the comparison would be vacuous).
    let river = ActuationTarget::Area(TargetArea::new(600.0, 0.0, 1_500.0));
    for (state, interval_ms, anticipatable) in [
        // Relaxing back to the base cadence is a demotion: never
        // pre-fired on a prediction that the flood "will end".
        (STATE_NORMAL, 60_000u32, false),
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

    let token = sim.garnet_mut().issue_default_token("authority");
    let (watch, _log) = FloodWatch::new("flood-watch", RISING_THRESHOLD, FLOOD_THRESHOLD);
    let watch_id = sim.garnet_mut().register_consumer(Box::new(watch), &token, 5).unwrap();
    sim.garnet_mut().subscribe(watch_id, TopicFilter::All, &token).unwrap();

    let count = Arc::new(AtomicU64::new(0));
    let counter = FloodSampleCounter {
        name: "flood-sampler".into(),
        threshold: RISING_THRESHOLD,
        after: SimTime::from_secs(EVAL_WAVE_AT),
        count: Arc::clone(&count),
    };
    let counter_id = sim.garnet_mut().register_consumer(Box::new(counter), &token, 0).unwrap();
    sim.garnet_mut().subscribe(counter_id, TopicFilter::All, &token).unwrap();

    sim.run_until(SimTime::from_secs(3_600));
    PredictivePoint {
        flood_readings: count.load(Ordering::Relaxed),
        anticipatory_actions: sim.garnet().coordinator().anticipatory_action_count(),
        reactive_actions: sim.garnet().coordinator().reactive_action_count(),
    }
}

/// Runs both modes.
pub fn run() -> (PredictivePoint, PredictivePoint, Table) {
    let reactive = run_mode(CoordinationMode::Reactive);
    let predictive = run_mode(CoordinationMode::Predictive { min_confidence: 0.5 });
    let mut table = Table::new(
        "E10 — water course: reactive vs predictive Super Coordinator",
        &["mode", "high-stage readings (eval wave)", "anticipatory actions", "reactive actions"],
    );
    table.row(&[
        "reactive".into(),
        n(reactive.flood_readings),
        n(reactive.anticipatory_actions),
        n(reactive.reactive_actions),
    ]);
    table.row(&[
        "predictive".into(),
        n(predictive.flood_readings),
        n(predictive.anticipatory_actions),
        n(predictive.reactive_actions),
    ]);
    (reactive, predictive, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictive_captures_more_flood_readings() {
        let (reactive, predictive, _) = run();
        assert_eq!(reactive.anticipatory_actions, 0);
        assert!(predictive.anticipatory_actions > 0, "prediction must fire");
        assert!(
            predictive.flood_readings > reactive.flood_readings,
            "predictive {} must beat reactive {}",
            predictive.flood_readings,
            reactive.flood_readings
        );
        assert!(reactive.flood_readings > 0, "reactive still samples the flood");
    }
}
