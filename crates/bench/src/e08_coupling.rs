//! E8 — CORIE-style coupling vs Garnet decoupling (§7, Steere et al.).
//!
//! CORIE "assumes that at most a few competing applications will run
//! concurrently", so per-application coupling is tolerable there. The
//! sweep shows where it stops being tolerable: sensor-side transmissions
//! (the battery budget) and sensor reconfigurations under the coupled
//! model grow linearly in consumers, while the decoupled (Garnet) sensor
//! cost is flat. The second series validates the analytic model against
//! the actual middleware: a live pipeline with n subscribers keeps
//! sensor transmissions constant while fixed-network deliveries scale.

use std::sync::atomic::Ordering;

use garnet_baselines::coupled::{coupled_cost, decoupled_cost, CouplingReport};
use garnet_core::TopicFilter;
use garnet_simkit::{SimDuration, SimTime};
use garnet_workloads::pipeline::SharedCountConsumer;
use garnet_workloads::HabitatScenario;

use crate::table::{n, Table};

/// One consumer-count point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CouplingPoint {
    /// The analytic coupled model.
    pub coupled: CouplingReport,
    /// The analytic decoupled model.
    pub decoupled: CouplingReport,
    /// Measured: sensor transmissions in a live Garnet pipeline with
    /// this many subscribers.
    pub measured_sensor_tx: u64,
    /// Measured: total consumer deliveries in the live pipeline.
    pub measured_deliveries: u64,
}

/// Runs one point: analytic models plus a live single-sensor pipeline
/// with `consumers` subscribers.
pub(crate) fn run_point(consumers: usize) -> CouplingPoint {
    let interval = SimDuration::from_secs(2);
    let horizon = SimTime::from_secs(60);
    let coupled = coupled_cost(consumers, interval, horizon);
    let decoupled = decoupled_cost(consumers, interval, horizon);

    // Live validation: a 1-sensor habitat pipeline with n subscribers.
    let scenario = HabitatScenario {
        grid_side: 1,
        report_interval: interval,
        receiver_side: 1,
        ..HabitatScenario::default()
    };
    let mut sim = scenario.build();
    let token = sim.garnet_mut().issue_default_token("apps");
    let mut counters = Vec::new();
    for i in 0..consumers {
        let (c, count) = SharedCountConsumer::new(format!("app-{i}"));
        let id = sim.garnet_mut().register_consumer(Box::new(c), &token, 0).unwrap();
        sim.garnet_mut().subscribe(id, TopicFilter::All, &token).unwrap();
        counters.push(count);
    }
    sim.run_until(horizon);
    CouplingPoint {
        coupled,
        decoupled,
        measured_sensor_tx: sim.transmission_count(),
        measured_deliveries: counters.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
    }
}

/// Runs the consumer sweep.
pub fn run() -> (Vec<CouplingPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E8 — coupled (CORIE-style) vs decoupled (Garnet): sensor cost vs consumers",
        &[
            "consumers",
            "coupled sensor tx",
            "Garnet sensor tx (model)",
            "Garnet sensor tx (measured)",
            "deliveries (measured)",
            "coupled reconfigs",
        ],
    );
    for &consumers in &[1usize, 2, 8, 32, 64] {
        let p = run_point(consumers);
        table.row(&[
            n(p.coupled.consumers as u64),
            n(p.coupled.sensor_tx),
            n(p.decoupled.sensor_tx),
            n(p.measured_sensor_tx),
            n(p.measured_deliveries),
            n(p.coupled.sensor_reconfigurations),
        ]);
        points.push(p);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensor_cost_flat_in_garnet_linear_when_coupled() {
        let (points, _) = run();
        let measured: Vec<u64> = points.iter().map(|p| p.measured_sensor_tx).collect();
        assert!(
            measured.windows(2).all(|w| w[0] == w[1]),
            "Garnet sensor tx must not depend on consumers: {measured:?}"
        );
        let coupled: Vec<u64> = points.iter().map(|p| p.coupled.sensor_tx).collect();
        assert!(coupled.windows(2).all(|w| w[1] > w[0]));
        // At 64 consumers the coupled model costs 64x the sensor battery.
        let last = points.last().unwrap();
        assert_eq!(last.coupled.sensor_tx, last.decoupled.sensor_tx * 64);
    }

    #[test]
    fn deliveries_scale_with_consumers() {
        let one = run_point(1);
        let many = run_point(8);
        assert!(many.measured_deliveries >= one.measured_deliveries * 7);
    }
}
