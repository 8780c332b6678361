//! E3 — the Figure 1 data path, end to end: sensor → medium → receivers
//! → Filtering → Dispatching → consumer.
//!
//! Measures delivery rate and end-to-end latency (sensing instant to
//! middleware delivery) of the habitat scenario as the aggregate message
//! rate scales. The shape to reproduce: latency stays flat (the
//! middleware is not the bottleneck at sensor-network rates) while
//! throughput scales linearly with offered load.

use garnet_net::TopicFilter;
use garnet_simkit::{SimDuration, SimTime};
use garnet_workloads::pipeline::LatencyProbe;
use garnet_workloads::HabitatScenario;

use crate::table::{f2, n, Table};

/// One operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelinePoint {
    /// Sensors deployed.
    pub sensors: usize,
    /// Aggregate offered message rate (msg/s).
    pub offered_rate: f64,
    /// Messages delivered to the consumer.
    pub delivered: u64,
    /// Delivery ratio (delivered / transmitted).
    pub delivery_ratio: f64,
    /// Median end-to-end latency (µs).
    pub p50_us: u64,
    /// 99th-percentile end-to-end latency (µs).
    pub p99_us: u64,
}

/// Runs one operating point: a `side × side` grid reporting every
/// `interval`, simulated for `horizon`.
pub(crate) fn run_point(side: usize, interval: SimDuration, horizon: SimTime) -> PipelinePoint {
    let scenario = HabitatScenario {
        grid_side: side,
        report_interval: interval,
        ..HabitatScenario::default()
    };
    let mut sim = scenario.build();
    let token = sim.garnet_mut().issue_default_token("probe");
    let (probe, hist) = LatencyProbe::new("probe");
    let id = sim.garnet_mut().register_consumer(Box::new(probe), &token, 0).unwrap();
    sim.garnet_mut().subscribe(id, TopicFilter::All, &token).unwrap();
    sim.run_until(horizon);
    // Drain receptions of the final reporting round (in flight for the
    // medium's sub-millisecond latency) without starting a new round.
    sim.run_until(horizon.saturating_add(garnet_simkit::SimDuration::from_millis(100)));

    let h = hist.lock().expect("probe histogram");
    let sensors = scenario.sensor_count();
    let transmitted = sim.transmission_count().max(1);
    PipelinePoint {
        sensors,
        offered_rate: sensors as f64 / interval.as_secs_f64(),
        delivered: h.count(),
        delivery_ratio: h.count() as f64 / transmitted as f64,
        p50_us: h.p50(),
        p99_us: h.p99(),
    }
}

/// Runs the rate sweep.
pub fn run() -> (Vec<PipelinePoint>, Table) {
    let horizon = SimTime::from_secs(120);
    let mut points = Vec::new();
    let mut table = Table::new(
        "E3 — Fig. 1 pipeline: end-to-end latency & throughput vs offered load",
        &["sensors", "offered msg/s", "delivered", "delivery ratio", "p50 µs", "p99 µs"],
    );
    for (side, interval_ms) in [(3usize, 10_000u64), (6, 5_000), (10, 2_000), (14, 1_000)] {
        let p = run_point(side, SimDuration::from_millis(interval_ms), horizon);
        table.row(&[
            n(p.sensors as u64),
            f2(p.offered_rate),
            n(p.delivered),
            f2(p.delivery_ratio),
            n(p.p50_us),
            n(p.p99_us),
        ]);
        points.push(p);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_delivers_with_flat_latency() {
        let slow = run_point(3, SimDuration::from_secs(10), SimTime::from_secs(60));
        let fast = run_point(6, SimDuration::from_secs(1), SimTime::from_secs(60));
        assert!(slow.delivered >= 9 * 5);
        assert!(fast.delivered > slow.delivered * 5);
        // Delivery is lossless under unit-disk coverage.
        assert!(slow.delivery_ratio > 0.95, "ratio={}", slow.delivery_ratio);
        // Latency does not blow up with 60x the load.
        assert!(fast.p99_us < slow.p99_us.max(2_000) * 10, "fast p99 {}", fast.p99_us);
    }
}
