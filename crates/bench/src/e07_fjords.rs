//! E7 — Fjords-style sensor-proxy sharing (§7, Madden & Franklin).
//!
//! Reproduces "the sharing resulted in significant improvements to their
//! ability to handle simultaneous queries": sensor transmissions with a
//! shared proxy stay flat as the number of simultaneous queries grows,
//! while per-query acquisition scales linearly. The second half of the
//! experiment shows Garnet's MergeMax resource mediation computes the
//! same shared acquisition rate a Fjords proxy would.

use garnet_baselines::querydb::{compare_sharing, Query, QueryEngine, SharingComparison};
use garnet_core::resource::{Decision, MediationPolicy, ResourceManager};
use garnet_core::SubscriberId;
use garnet_simkit::{SimDuration, SimTime};
use garnet_wire::{ActuationTarget, SensorCommand, SensorId, StreamIndex};

use crate::table::{f2, n, Table};

/// One query-count point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FjordsPoint {
    /// The sharing counts.
    pub comparison: SharingComparison,
    /// Effective interval Garnet's MergeMax mediation grants (ms).
    pub garnet_effective_interval_ms: Option<u32>,
    /// Interval a Fjords proxy would acquire at (ms).
    pub proxy_interval_ms: Option<u32>,
}

/// The query mixes swept: `q` queries with intervals cycling through
/// 1s/2s/5s.
pub(crate) fn query_mix(q: usize) -> Vec<Query> {
    let intervals = [1u64, 2, 5];
    (0..q).map(|i| Query::latest_every(SimDuration::from_secs(intervals[i % 3]))).collect()
}

/// Runs one point.
pub(crate) fn run_point(q: usize, horizon: SimTime) -> FjordsPoint {
    let queries = query_mix(q);
    let comparison = compare_sharing(&queries, horizon);

    // The proxy's acquisition interval…
    let mut engine = QueryEngine::new();
    for &query in &queries {
        engine.register(query);
    }
    let proxy_interval_ms = engine.shared_acquisition_interval().map(|i| i.as_millis() as u32);

    // …equals what Garnet's resource manager grants when each query
    // arrives as a mutually-unaware consumer's rate demand.
    let sensor = SensorId::new(7).unwrap();
    let mut rm = ResourceManager::new(MediationPolicy::MergeMax);
    for (i, query) in queries.iter().enumerate() {
        let decision = rm.request(
            SubscriberId::new(i as u32),
            0,
            &ActuationTarget::Sensor(sensor),
            &SensorCommand::SetReportInterval {
                stream: StreamIndex::new(0),
                interval_ms: query.interval.as_millis() as u32,
            },
        );
        assert!(matches!(decision, Decision::Granted { .. }));
    }
    FjordsPoint {
        comparison,
        garnet_effective_interval_ms: rm.effective_interval_ms(sensor, StreamIndex::new(0)),
        proxy_interval_ms,
    }
}

/// Runs the query-count sweep.
pub fn run() -> (Vec<FjordsPoint>, Table) {
    let horizon = SimTime::from_secs(600);
    let mut points = Vec::new();
    let mut table = Table::new(
        "E7 — Fjords proxy sharing: sensor tx (shared vs per-query) & Garnet MergeMax equivalence",
        &[
            "queries",
            "tx shared",
            "tx per-query",
            "saving x",
            "proxy interval ms",
            "Garnet interval ms",
        ],
    );
    for &q in &[1usize, 4, 16, 64, 256] {
        let p = run_point(q, horizon);
        let saving =
            p.comparison.sensor_tx_per_query as f64 / p.comparison.sensor_tx_shared.max(1) as f64;
        table.row(&[
            n(q as u64),
            n(p.comparison.sensor_tx_shared),
            n(p.comparison.sensor_tx_per_query),
            f2(saving),
            p.proxy_interval_ms.map_or("-".into(), |v| v.to_string()),
            p.garnet_effective_interval_ms.map_or("-".into(), |v| v.to_string()),
        ]);
        points.push(p);
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_flat_per_query_linear() {
        let (points, _) = run();
        // EXPERIMENTS.md's figures: the shared proxy costs 600 sensor
        // transmissions at every query count, and 256 per-query streams
        // cost at least 145x that.
        let shared: Vec<u64> = points.iter().map(|p| p.comparison.sensor_tx_shared).collect();
        assert!(shared.iter().all(|&tx| tx == 600), "shared cost flat at 600: {shared:?}");
        let per_query: Vec<u64> = points.iter().map(|p| p.comparison.sensor_tx_per_query).collect();
        assert!(per_query.windows(2).all(|w| w[1] > w[0]));
        let last = points.last().unwrap();
        assert_eq!(last.comparison.queries, 256);
        let saving =
            last.comparison.sensor_tx_per_query as f64 / last.comparison.sensor_tx_shared as f64;
        assert!(saving >= 145.0, "saving={saving}");
    }

    #[test]
    fn garnet_mergemax_equals_fjords_proxy() {
        let (points, _) = run();
        for p in &points {
            assert_eq!(p.garnet_effective_interval_ms, p.proxy_interval_ms);
        }
    }
}
