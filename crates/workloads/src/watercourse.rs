//! The water-course management scenario (§6.1).
//!
//! "We are actively developing suitable models which could be applied to
//! the management of a complex water course. In such a scenario, the
//! ability of the super coordinator to anticipate changes to water
//! bodies and preempt actuation requests is expected to be significant."
//!
//! The model: gauging stations sit along a river (the x-axis). Flood
//! waves released upstream travel downstream at a fixed celerity, so a
//! station's future is literally written in its upstream neighbour's
//! present — the ideal substrate for predictive coordination
//! (experiment E10). The [`FloodWatch`] consumer watches levels, reports
//! `Normal → Rising → Flood` state changes, and the Super Coordinator's
//! registered policies accelerate station reporting ahead of the wave.

use std::sync::{Arc, Mutex, PoisonError};

use garnet_core::consumer::{Consumer, ConsumerCtx};
use garnet_core::coordinator::ConsumerStateId;
use garnet_core::filtering::Delivery;
use garnet_radio::field::DynField;
use garnet_radio::geometry::Point;
use garnet_radio::{Reading, Receiver, SensorCaps, SensorNode, StreamConfig, Transmitter};
use garnet_simkit::{SimDuration, SimTime};
use garnet_wire::{SensorId, StreamIndex};

/// FloodWatch state: everything nominal.
pub const STATE_NORMAL: ConsumerStateId = 0;
/// FloodWatch state: levels rising at some station.
pub const STATE_RISING: ConsumerStateId = 1;
/// FloodWatch state: flood threshold exceeded.
pub const STATE_FLOOD: ConsumerStateId = 2;

/// A flood wave released into the river.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FloodWave {
    /// When the wave enters at `origin_x`.
    pub released_at: SimTime,
    /// Where it enters (m along the river).
    pub origin_x: f64,
    /// Downstream celerity (m/s).
    pub speed_mps: f64,
    /// Peak stage increase (m).
    pub peak_m: f64,
    /// Characteristic wave length (m).
    pub length_m: f64,
}

impl FloodWave {
    fn contribution(&self, x: f64, t: SimTime) -> f64 {
        if t < self.released_at {
            return 0.0;
        }
        let dt = t.saturating_since(self.released_at).as_secs_f64();
        let front = self.origin_x + self.speed_mps * dt;
        let sigma = self.length_m / 3.0;
        let d = x - front;
        self.peak_m * (-d * d / (2.0 * sigma * sigma)).exp()
    }
}

/// Water stage along the river as a scalar field (only `x` matters).
#[derive(Clone, Debug)]
pub(crate) struct RiverField {
    /// Baseline stage (m).
    pub base_level_m: f64,
    /// Waves in play.
    pub waves: Vec<FloodWave>,
}

impl garnet_radio::ScalarField for RiverField {
    fn sample(&self, p: Point, t: SimTime) -> f64 {
        self.base_level_m + self.waves.iter().map(|w| w.contribution(p.x, t)).sum::<f64>()
    }
}

/// A recorded state transition, for measuring detection/actuation
/// timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateEvent {
    /// The state entered.
    pub state: ConsumerStateId,
    /// When the consumer entered it.
    pub at_us: u64,
}

/// The flood-watch consumer: thresholds on water stage, reports state
/// transitions to the Super Coordinator.
///
/// The watch tracks the latest level *per station* and classifies on the
/// maximum — otherwise interleaved readings from a receded upstream
/// station and a cresting downstream one would flap the state.
#[derive(Debug)]
pub struct FloodWatch {
    name: String,
    rising_threshold_m: f64,
    flood_threshold_m: f64,
    current: ConsumerStateId,
    latest_by_station: std::collections::HashMap<u32, f64>,
    log: Arc<Mutex<Vec<StateEvent>>>,
}

impl FloodWatch {
    /// Creates a flood watch and the shared log of its transitions.
    pub fn new(
        name: impl Into<String>,
        rising_threshold_m: f64,
        flood_threshold_m: f64,
    ) -> (FloodWatch, Arc<Mutex<Vec<StateEvent>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (
            FloodWatch {
                name: name.into(),
                rising_threshold_m,
                flood_threshold_m,
                current: STATE_NORMAL,
                latest_by_station: std::collections::HashMap::new(),
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn classify(&self, level: f64) -> ConsumerStateId {
        // Hysteresis: once in Flood, stay there until the water is back
        // below the rising threshold (no flapping through Rising on the
        // way down, which would pollute the coordinator's transition
        // model with Rising→Normal edges).
        if self.current == STATE_FLOOD {
            if level >= self.rising_threshold_m {
                STATE_FLOOD
            } else {
                STATE_NORMAL
            }
        } else if level >= self.flood_threshold_m {
            STATE_FLOOD
        } else if level >= self.rising_threshold_m {
            STATE_RISING
        } else {
            STATE_NORMAL
        }
    }
}

impl Consumer for FloodWatch {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_data(&mut self, delivery: &Delivery, ctx: &mut ConsumerCtx) {
        let Some(reading) = Reading::decode(delivery.msg.payload()) else {
            return;
        };
        self.latest_by_station.insert(delivery.msg.stream().to_raw(), reading.value);
        let worst = self.latest_by_station.values().copied().fold(f64::NEG_INFINITY, f64::max);
        let state = self.classify(worst);
        if state != self.current {
            self.current = state;
            self.log
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(StateEvent { state, at_us: ctx.now().as_micros() });
            ctx.report_state(state);
        }
    }
}

/// Parameters of a river deployment.
#[derive(Clone, Debug)]
pub struct WatercourseScenario {
    /// Number of gauging stations along the river.
    pub stations: usize,
    /// Metres between stations.
    pub station_spacing_m: f64,
    /// Quiescent reporting interval.
    pub base_interval: SimDuration,
    /// Baseline stage.
    pub base_level_m: f64,
    /// Flood waves to release.
    pub waves: Vec<FloodWave>,
    /// Physical-layer seed.
    pub seed: u64,
}

impl Default for WatercourseScenario {
    fn default() -> Self {
        WatercourseScenario {
            stations: 8,
            station_spacing_m: 200.0,
            base_interval: SimDuration::from_secs(60),
            base_level_m: 1.0,
            waves: vec![FloodWave {
                released_at: SimTime::from_secs(300),
                origin_x: -200.0,
                speed_mps: 2.0,
                peak_m: 3.0,
                length_m: 300.0,
            }],
            seed: 0x71E5,
        }
    }
}

impl WatercourseScenario {
    /// The river stage field.
    pub fn field(&self) -> DynField {
        Box::new(RiverField { base_level_m: self.base_level_m, waves: self.waves.clone() })
    }

    /// Gauging stations: sophisticated (receive-capable) sensors so the
    /// actuation path can accelerate their reporting.
    ///
    /// # Panics
    ///
    /// If `stations` exceeds [`SensorId::MAX`].
    #[expect(
        clippy::expect_used,
        reason = "station ids run 1..=stations, inside the 2^24 id space for any river that fits in memory"
    )]
    pub fn sensors(&self) -> Vec<SensorNode> {
        (0..self.stations)
            .map(|i| {
                SensorNode::new(
                    SensorId::new(i as u32 + 1).expect("station ids stay small"),
                    Point::new(i as f64 * self.station_spacing_m, 0.0),
                )
                .with_caps(SensorCaps::sophisticated())
                .with_stream(StreamIndex::new(0), StreamConfig::every(self.base_interval))
            })
            .collect()
    }

    /// One receiver+transmitter mast per station, on the bank.
    pub fn masts(&self) -> (Vec<Receiver>, Vec<Transmitter>) {
        let range = self.station_spacing_m * 0.9;
        let rx =
            Receiver::grid(Point::new(0.0, 20.0), self.stations, 1, self.station_spacing_m, range);
        let tx = Transmitter::grid(
            Point::new(0.0, 20.0),
            self.stations,
            1,
            self.station_spacing_m,
            range,
        );
        (rx, tx)
    }

    /// Assembles the closed-loop pipeline (no consumers registered yet).
    #[cfg(test)]
    pub(crate) fn build(&self) -> crate::pipeline::PipelineSim {
        use crate::pipeline::{PipelineConfig, PipelineSim};
        use garnet_core::middleware::GarnetConfig;
        use garnet_radio::{Medium, Propagation};
        let (receivers, transmitters) = self.masts();
        let config = PipelineConfig {
            seed: self.seed,
            medium: Medium::ideal(),
            garnet: GarnetConfig {
                receivers,
                propagation: Propagation::UnitDisk { range_m: self.station_spacing_m * 0.9 },
                transmitters,
                ..GarnetConfig::default()
            },
            peer_range_m: None,
        };
        let mut sim = PipelineSim::new(config, self.field());
        for s in self.sensors() {
            sim.add_sensor(s);
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_core::TopicFilter;
    use garnet_radio::ScalarField;

    #[test]
    fn wave_propagates_downstream() {
        let wave = FloodWave {
            released_at: SimTime::from_secs(100),
            origin_x: 0.0,
            speed_mps: 2.0,
            peak_m: 3.0,
            length_m: 100.0,
        };
        let field = RiverField { base_level_m: 1.0, waves: vec![wave] };
        // Before release: baseline everywhere.
        assert_eq!(field.sample(Point::new(500.0, 0.0), SimTime::ZERO), 1.0);
        // At t = 100s + 250s the front is at x = 500: peak there.
        let at_front = field.sample(Point::new(500.0, 0.0), SimTime::from_secs(350));
        assert!((at_front - 4.0).abs() < 1e-9, "level={at_front}");
        // Downstream station not yet reached.
        let downstream = field.sample(Point::new(1200.0, 0.0), SimTime::from_secs(350));
        assert!(downstream < 1.1);
        // The same station floods later: the wave is *coming*.
        let later = field.sample(Point::new(1200.0, 0.0), SimTime::from_secs(700));
        assert!(later > 3.5, "level={later}");
    }

    #[test]
    fn upstream_station_sees_wave_first() {
        let s = WatercourseScenario::default();
        let field = s.field();
        let up = Point::new(0.0, 0.0);
        let down = Point::new(1400.0, 0.0);
        let mut t_up = None;
        let mut t_down = None;
        for sec in 0..3600u64 {
            let t = SimTime::from_secs(sec);
            if t_up.is_none() && field.sample(up, t) > 2.0 {
                t_up = Some(sec);
            }
            if t_down.is_none() && field.sample(down, t) > 2.0 {
                t_down = Some(sec);
            }
        }
        assert!(t_up.unwrap() < t_down.unwrap());
    }

    #[test]
    fn floodwatch_classifies_and_reports_transitions() {
        let (mut fw, log) = FloodWatch::new("fw", 2.0, 3.5);
        let mut ctx = ConsumerCtx::new(SimTime::from_secs(10));
        let delivery = |level: f64| {
            let payload = Reading::new(level, SimTime::from_secs(9)).encode();
            Delivery {
                msg: garnet_wire::DataMessage::builder(garnet_wire::StreamId::from_raw(0x0100))
                    .payload(payload)
                    .build()
                    .unwrap(),
                first_received_at: SimTime::from_secs(10),
                delivered_at: SimTime::from_secs(10),
            }
        };
        fw.on_data(&delivery(1.0), &mut ctx);
        assert!(log.lock().unwrap().is_empty(), "already normal: no transition");
        fw.on_data(&delivery(2.5), &mut ctx);
        fw.on_data(&delivery(2.6), &mut ctx);
        fw.on_data(&delivery(4.0), &mut ctx);
        fw.on_data(&delivery(1.0), &mut ctx);
        let states: Vec<u32> = log.lock().unwrap().iter().map(|e| e.state).collect();
        assert_eq!(states, vec![STATE_RISING, STATE_FLOOD, STATE_NORMAL]);
        assert_eq!(ctx.take_actions().len(), 3, "one report per transition");
    }

    #[test]
    fn scenario_builds_and_detects_flood_end_to_end() {
        let scenario = WatercourseScenario {
            stations: 4,
            base_interval: SimDuration::from_secs(10),
            waves: vec![FloodWave {
                released_at: SimTime::from_secs(60),
                origin_x: -100.0,
                speed_mps: 5.0,
                peak_m: 4.0,
                length_m: 200.0,
            }],
            ..WatercourseScenario::default()
        };
        let mut sim = scenario.build();
        let token = sim.garnet_mut().issue_default_token("flood-watch");
        let (fw, log) = FloodWatch::new("flood-watch", 2.0, 3.5);
        let id = sim.garnet_mut().register_consumer(Box::new(fw), &token, 5).unwrap();
        sim.garnet_mut().subscribe(id, TopicFilter::All, &token).unwrap();
        sim.run_until(SimTime::from_secs(600));
        let states: Vec<u32> = log.lock().unwrap().iter().map(|e| e.state).collect();
        assert!(states.contains(&STATE_FLOOD), "flood must be detected: {states:?}");
        // The coordinator amassed the consumer's state history.
        assert!(sim.garnet().coordinator().report_count() >= 2);
    }
}
