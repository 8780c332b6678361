//! A miniature Fjords-style continuous-query engine (Madden & Franklin,
//! ICDE'02) over sensor streams.
//!
//! Fjords interpose a *sensor proxy* between a physical sensor and the
//! queries over its data: the sensor transmits once at the fastest rate
//! any query needs, and the proxy fans samples out, downsampling per
//! query. The alternative — each query acquiring its own feed — costs
//! the sensor one transmission per query per sample.
//!
//! The paper (§7) notes both systems "share the notion of separating the
//! consumer of the data from its source", and that Fjords' proxies
//! parallel Garnet's resource manager "adjusting sensor output based on
//! user demand". Experiment E7 reproduces the sharing win and shows
//! Garnet's MergeMax mediation produces the same sensor-side behaviour.

use std::collections::BTreeMap;

use garnet_simkit::{SimDuration, SimTime};

/// The aggregate a continuous query computes over each reporting window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// Latest value in the window.
    Last,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// A continuous query: "every `interval`, report `aggregate` of the
/// samples since the last report".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Query {
    /// Reporting interval.
    pub interval: SimDuration,
    /// Aggregate computed per window.
    pub aggregate: Aggregate,
}

impl Query {
    /// A `Last`-value query at the given interval.
    pub fn latest_every(interval: SimDuration) -> Query {
        Query { interval, aggregate: Aggregate::Last }
    }
}

/// One query's produced results.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct QueryOutput {
    /// `(report time, value)` pairs.
    pub results: Vec<(SimTime, f64)>,
}

#[derive(Clone, Debug)]
struct QueryState {
    query: Query,
    window: Vec<f64>,
    next_report: SimTime,
    output: QueryOutput,
}

impl QueryState {
    fn new(query: Query) -> Self {
        QueryState {
            query,
            window: Vec::new(),
            next_report: SimTime::ZERO + query.interval,
            output: QueryOutput::default(),
        }
    }

    fn ingest(&mut self, at: SimTime, value: f64) {
        // Close any windows that ended before this sample.
        while at >= self.next_report {
            self.emit();
        }
        self.window.push(value);
    }

    fn emit(&mut self) {
        let value = match self.query.aggregate {
            Aggregate::Last => self.window.last().copied(),
            Aggregate::Avg => (!self.window.is_empty())
                .then(|| self.window.iter().sum::<f64>() / self.window.len() as f64),
            Aggregate::Min => self.window.iter().copied().reduce(f64::min),
            Aggregate::Max => self.window.iter().copied().reduce(f64::max),
        };
        if let Some(v) = value {
            self.output.results.push((self.next_report, v));
        }
        self.window.clear();
        self.next_report += self.query.interval;
    }

    #[cfg(test)]
    fn finish(&mut self, horizon: SimTime) {
        while self.next_report <= horizon {
            self.emit();
        }
    }
}

/// The query engine over one sensor stream.
#[derive(Debug, Default)]
pub struct QueryEngine {
    queries: BTreeMap<usize, QueryState>,
    next_id: usize,
    samples_ingested: u64,
}

impl QueryEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a query, returning its id.
    pub fn register(&mut self, query: Query) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.queries.insert(id, QueryState::new(query));
        id
    }

    /// Feeds one sample to every registered query.
    pub fn ingest(&mut self, at: SimTime, value: f64) {
        self.samples_ingested += 1;
        for q in self.queries.values_mut() {
            q.ingest(at, value);
        }
    }

    /// Closes all windows up to `horizon` and returns each query's
    /// output.
    #[cfg(test)]
    pub(crate) fn finish(mut self, horizon: SimTime) -> BTreeMap<usize, QueryOutput> {
        for q in self.queries.values_mut() {
            q.finish(horizon);
        }
        self.queries.into_iter().map(|(id, q)| (id, q.output)).collect()
    }

    /// Drains every result produced so far, as `(query id, report time,
    /// value)` triples in query-id order — the incremental interface a
    /// live proxy uses to forward results as windows close.
    pub fn drain_results(&mut self) -> Vec<(usize, SimTime, f64)> {
        let mut out = Vec::new();
        for (&id, q) in self.queries.iter_mut() {
            for (at, v) in q.output.results.drain(..) {
                out.push((id, at, v));
            }
        }
        out
    }

    /// Samples ingested so far.
    pub fn samples_ingested(&self) -> u64 {
        self.samples_ingested
    }

    /// The fastest interval any registered query needs — the rate a
    /// shared sensor proxy asks the sensor for (and exactly what
    /// Garnet's MergeMax resource mediation computes).
    pub fn shared_acquisition_interval(&self) -> Option<SimDuration> {
        self.queries.values().map(|q| q.query.interval).min()
    }
}

/// Message/transmission counts for the shared-proxy vs per-query
/// comparison (experiment E7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharingComparison {
    /// Number of simultaneous queries.
    pub queries: usize,
    /// Sensor radio transmissions with a shared proxy.
    pub sensor_tx_shared: u64,
    /// Sensor radio transmissions with per-query acquisition.
    pub sensor_tx_per_query: u64,
    /// Fixed-network messages with a shared proxy (proxy input +
    /// per-query deliveries).
    pub fixednet_msgs_shared: u64,
    /// Fixed-network messages with per-query acquisition.
    pub fixednet_msgs_per_query: u64,
}

/// Computes transmission counts for `queries` running over `horizon`
/// against a sensor sampled by demand.
///
/// * **Shared proxy**: the sensor transmits at the fastest requested
///   interval; the proxy delivers each query its own (downsampled)
///   report stream.
/// * **Per-query**: each query independently drives the sensor at its
///   own interval.
pub fn compare_sharing(queries: &[Query], horizon: SimTime) -> SharingComparison {
    let h = horizon.as_micros();
    let reports = |interval: SimDuration| -> u64 {
        if interval.is_zero() {
            0
        } else {
            h / interval.as_micros().max(1)
        }
    };
    let per_query_tx: u64 = queries.iter().map(|q| reports(q.interval)).sum();
    let min_interval = queries.iter().map(|q| q.interval).min();
    let shared_tx = min_interval.map_or(0, reports);
    SharingComparison {
        queries: queries.len(),
        sensor_tx_shared: shared_tx,
        sensor_tx_per_query: per_query_tx,
        fixednet_msgs_shared: shared_tx + per_query_tx, // proxy in + fan-out
        fixednet_msgs_per_query: 2 * per_query_tx,      // acquisition + delivery
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn last_query_reports_latest_per_window() {
        let mut e = QueryEngine::new();
        let q = e.register(Query::latest_every(secs(2)));
        for t in 0..6u64 {
            e.ingest(SimTime::from_secs(t), t as f64);
        }
        let out = e.finish(SimTime::from_secs(6));
        let results = &out[&q].results;
        // Windows (0,2], (2,4], (4,6]: last samples are 1, 3, 5.
        assert_eq!(results.iter().map(|&(_, v)| v).collect::<Vec<_>>(), vec![1.0, 3.0, 5.0]);
        assert_eq!(results[0].0, SimTime::from_secs(2));
    }

    #[test]
    fn aggregates_compute_correctly() {
        for (agg, expected) in [
            (Aggregate::Avg, 2.0),
            (Aggregate::Min, 1.0),
            (Aggregate::Max, 3.0),
            (Aggregate::Last, 3.0),
        ] {
            let mut e = QueryEngine::new();
            let q = e.register(Query { interval: secs(10), aggregate: agg });
            for (t, v) in [(1u64, 1.0f64), (2, 2.0), (3, 3.0)] {
                e.ingest(SimTime::from_secs(t), v);
            }
            let out = e.finish(SimTime::from_secs(10));
            assert_eq!(out[&q].results, vec![(SimTime::from_secs(10), expected)], "{agg:?}");
        }
    }

    #[test]
    fn empty_window_emits_nothing() {
        let mut e = QueryEngine::new();
        let q = e.register(Query::latest_every(secs(1)));
        e.ingest(SimTime::from_secs(0), 5.0);
        // No samples in windows 2..5.
        let out = e.finish(SimTime::from_secs(5));
        assert_eq!(out[&q].results.len(), 1);
    }

    #[test]
    fn queries_subsample_a_shared_stream_independently() {
        let mut e = QueryEngine::new();
        let fast = e.register(Query::latest_every(secs(1)));
        let slow = e.register(Query::latest_every(secs(5)));
        assert_eq!(e.shared_acquisition_interval(), Some(secs(1)));
        for t in 0..10u64 {
            e.ingest(SimTime::from_secs(t), t as f64);
        }
        let out = e.finish(SimTime::from_secs(10));
        assert_eq!(out[&fast].results.len(), 10);
        assert_eq!(out[&slow].results.len(), 2);
    }

    #[test]
    fn sharing_saves_sensor_transmissions() {
        // 8 identical 1 Hz queries for an hour.
        let queries = vec![Query::latest_every(secs(1)); 8];
        let cmp = compare_sharing(&queries, SimTime::from_secs(3600));
        assert_eq!(cmp.sensor_tx_shared, 3600);
        assert_eq!(cmp.sensor_tx_per_query, 8 * 3600);
        assert!(cmp.sensor_tx_per_query / cmp.sensor_tx_shared == 8);
    }

    #[test]
    fn sharing_win_grows_with_query_count() {
        let mut prev_ratio = 0.0;
        for n in [1usize, 2, 8, 64] {
            let queries = vec![Query::latest_every(secs(2)); n];
            let cmp = compare_sharing(&queries, SimTime::from_secs(600));
            let ratio = cmp.sensor_tx_per_query as f64 / cmp.sensor_tx_shared.max(1) as f64;
            assert!(ratio >= prev_ratio, "n={n}");
            prev_ratio = ratio;
        }
        assert!(prev_ratio >= 60.0);
    }

    #[test]
    fn heterogeneous_intervals_share_at_the_fastest() {
        let queries = vec![
            Query::latest_every(secs(1)),
            Query::latest_every(secs(10)),
            Query::latest_every(secs(60)),
        ];
        let cmp = compare_sharing(&queries, SimTime::from_secs(600));
        assert_eq!(cmp.sensor_tx_shared, 600, "driven by the 1s query");
        assert_eq!(cmp.sensor_tx_per_query, 600 + 60 + 10);
    }

    #[test]
    fn no_queries_no_traffic() {
        let cmp = compare_sharing(&[], SimTime::from_secs(600));
        assert_eq!(cmp.sensor_tx_shared, 0);
        assert_eq!(cmp.sensor_tx_per_query, 0);
    }

    #[test]
    fn samples_counted() {
        let mut e = QueryEngine::new();
        e.register(Query::latest_every(secs(1)));
        e.ingest(SimTime::ZERO, 0.0);
        e.ingest(SimTime::from_secs(1), 1.0);
        assert_eq!(e.samples_ingested(), 2);
    }
}
