//! Lightweight metrics: counters and log-bucketed histograms.
//!
//! Every experiment reports throughput (counters over a window) and
//! latency percentiles (histograms). The histogram uses HDR-style
//! log-linear bucketing: values are grouped by their binary magnitude with
//! 16 linear sub-buckets per octave, giving a worst-case relative
//! quantile error of ~6% across the full `u64` range with a fixed 1KiB-ish
//! footprint — adequate for simulation reporting and cheap enough to keep
//! always-on.

use std::collections::BTreeMap;
use std::fmt;

/// Builds a metric name under the `stage.metric` convention: a
/// lowercase stage (the emitting service or subsystem — `filtering`,
/// `dispatching`, `orphanage`, `location`, `resource`, `actuation`,
/// `replicator`, `coordinator`, `consumers`, `streams`, `overload`) and
/// a snake_case metric within it. Every Garnet metric name is emitted
/// through this one helper so the convention can't drift per call site.
///
/// # Example
///
/// ```
/// use garnet_simkit::metrics::stage_key;
///
/// assert_eq!(stage_key("filtering", "delivered"), "filtering.delivered");
/// ```
pub fn stage_key(stage: &str, metric: &str) -> String {
    debug_assert!(
        !stage.is_empty() && !metric.is_empty() && !stage.contains('.'),
        "stage/metric must be non-empty and the stage un-dotted: {stage:?}.{metric:?}"
    );
    format!("{stage}.{metric}")
}

/// Interned metric names for per-frame call sites.
///
/// [`stage_key`] allocates a fresh `String` per call, which is fine for
/// cold paths (snapshot assembly, `Garnet::metrics()`) but not for names
/// that would be rebuilt on every routed frame. The telemetry plane's
/// hot-path names live here as `&'static str` constants so per-frame
/// recording never formats; `stage_key` remains the constructor for
/// everything assembled once per snapshot.
pub mod keys {
    /// Sim-time from first boundary admission to filtering emission.
    pub const FILTERING_LATENCY_US: &str = "filtering.latency_us";
    /// Sim-time from filtering emission to dispatch fan-out.
    pub const DISPATCHING_LATENCY_US: &str = "dispatching.latency_us";
    /// Sim-time from first boundary admission to dispatch fan-out.
    pub const PIPELINE_E2E_LATENCY_US: &str = "pipeline.e2e_latency_us";
    /// Frames admitted since the router last went quiescent.
    pub const QUEUE_DEPTH: &str = "overload.queue_depth";
}

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use garnet_simkit::Counter;
///
/// let mut delivered = Counter::new();
/// delivered.incr();
/// delivered.add(4);
/// assert_eq!(delivered.get(), 5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

const SUB_BUCKET_BITS: u32 = 4; // 16 linear sub-buckets per octave
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
const OCTAVES: usize = 64;

/// A log-linear histogram over `u64` values.
///
/// Recording is O(1); quantile queries walk the (bounded) bucket array.
/// Relative error of reported quantiles is at most `1/16` (one linear
/// sub-bucket within an octave).
///
/// # Example
///
/// ```
/// use garnet_simkit::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.5);
/// assert!((450..=560).contains(&p50), "p50={p50}");
/// ```
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>, // OCTAVES * SUB_BUCKETS, lazily sized
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; OCTAVES * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros(); // >= SUB_BUCKET_BITS
        let shift = octave - SUB_BUCKET_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        ((octave - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Representative (lower-bound) value of a bucket.
    fn bucket_floor(index: usize) -> u64 {
        let octave = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if octave == 0 {
            return sub;
        }
        let shift = (octave - 1) as u32;
        ((SUB_BUCKETS as u64) << shift) | (sub << shift)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Inclusive upper bound of a bucket: one below the next bucket's
    /// floor. The final bucket is unbounded above.
    fn bucket_ceil(index: usize) -> u64 {
        if index + 1 >= OCTAVES * SUB_BUCKETS {
            u64::MAX
        } else {
            Self::bucket_floor(index + 1) - 1
        }
    }

    /// The value at quantile `q` in `[0, 1]` (approximate; see type docs).
    /// Returns 0 when empty.
    ///
    /// The reported value is the midpoint of the sub-bucket holding the
    /// requested rank (clamped to the observed min/max), halving the
    /// bucket-floor bias that under-reported small-count histograms.
    /// Octave-zero buckets are unit-width, so small values stay exact.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let floor = Self::bucket_floor(i);
                let mid = floor + (Self::bucket_ceil(i) - floor) / 2;
                return mid.max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Convenience accessor for the median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Convenience accessor for the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clears all recorded observations.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

/// A sampled level with min/max watermarks: the instantaneous reading a
/// counter can't express (queue depth, outstanding jobs, buffer
/// residency).
///
/// Recording overwrites `last` and folds the watermarks; nothing else is
/// retained, so the footprint is four words and recording is branch-free
/// enough for per-frame call sites.
///
/// Merging is defined for folding per-shard gauges into a node-level
/// view: `last` values **sum** (the merged gauge reads as the total
/// instantaneous level across shards), watermarks take the min-of-mins /
/// max-of-maxes, and sample counts add. This makes merge commutative and
/// associative, which the registry's [`MetricsRegistry::merge`] relies
/// on.
///
/// # Example
///
/// ```
/// use garnet_simkit::Gauge;
///
/// let mut depth = Gauge::new();
/// depth.record(3);
/// depth.record(7);
/// depth.record(2);
/// assert_eq!((depth.last(), depth.min(), depth.max(), depth.samples()), (2, 2, 7, 3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    last: u64,
    min: u64,
    max: u64,
    samples: u64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Creates an empty gauge.
    pub fn new() -> Self {
        Gauge { last: 0, min: u64::MAX, max: 0, samples: 0 }
    }

    /// Records the current level.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.last = value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.samples += 1;
    }

    /// Most recently recorded level, or 0 when empty.
    pub fn last(&self) -> u64 {
        if self.samples == 0 {
            0
        } else {
            self.last
        }
    }

    /// Lowest level ever recorded, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.samples == 0 {
            0
        } else {
            self.min
        }
    }

    /// Highest level ever recorded, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of recordings.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Folds another gauge into this one (see type docs for semantics).
    pub fn merge(&mut self, other: &Gauge) {
        if other.samples == 0 {
            return;
        }
        if self.samples == 0 {
            *self = *other;
            return;
        }
        self.last += other.last;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.samples += other.samples;
    }

    /// Clears the gauge back to empty.
    pub fn reset(&mut self) {
        *self = Gauge::new();
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gauge")
            .field("last", &self.last())
            .field("min", &self.min())
            .field("max", &self.max())
            .field("samples", &self.samples())
            .finish()
    }
}

/// A named registry of counters and histograms, used by services to
/// expose operational statistics without threading dozens of references.
///
/// # Example
///
/// ```
/// use garnet_simkit::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.counter("filtering.duplicates").add(3);
/// m.histogram("dispatch.latency_us").record(120);
/// assert_eq!(m.counter("filtering.duplicates").get(), 3);
/// let report = m.report();
/// assert!(report.contains("dispatch.latency_us"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, Gauge>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        self.counters.entry(name.to_owned()).or_default()
    }

    /// Reads a counter without creating it.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.get())
    }

    /// Returns the histogram named `name`, creating it empty on first use.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_owned()).or_default()
    }

    /// Reads a histogram without creating it.
    pub fn histogram_ref(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Returns the gauge named `name`, creating it empty on first use.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        self.gauges.entry(name.to_owned()).or_default()
    }

    /// Reads a gauge without creating it.
    pub fn gauge_ref(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &Gauge)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry into this one: counters add, histograms
    /// merge bucket-wise, gauges merge per [`Gauge::merge`]. Merging is
    /// commutative, so per-shard registries fold deterministically in
    /// any order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, c) in &other.counters {
            self.counter(name).add(c.get());
        }
        for (name, h) in &other.histograms {
            self.histogram(name).merge(h);
        }
        for (name, g) in &other.gauges {
            self.gauge(name).merge(g);
        }
    }

    /// Renders a deterministic plain-text report (name order).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, c) in &self.counters {
            let _ = writeln!(out, "{name} = {}", c.get());
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name}: n={} mean={:.1} p50={} p99={} max={}",
                h.count(),
                h.mean(),
                h.p50(),
                h.p99(),
                h.max()
            );
        }
        for (name, g) in &self.gauges {
            let _ = writeln!(
                out,
                "{name}: last={} min={} max={} samples={}",
                g.last(),
                g.min(),
                g.max(),
                g.samples()
            );
        }
        out
    }

    /// Clears every metric.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.histograms.clear();
        self.gauges.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(2);
        assert_eq!(c.get(), 3);
        assert_eq!(c.to_string(), "3");
    }

    #[test]
    fn histogram_empty_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_single_value() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        assert_eq!(h.quantile(0.0), 42);
        assert_eq!(h.quantile(1.0), 42);
        assert!((h.mean() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_small_values_exact() {
        // Values below SUB_BUCKETS land in exact unit buckets.
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 3, 3, 10] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.max(), 10);
    }

    #[test]
    fn histogram_quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, exact) in &[(0.5, 50_000u64), (0.9, 90_000), (0.99, 99_000)] {
            let est = h.quantile(q);
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.08, "q={q} est={est} exact={exact} rel={rel}");
        }
    }

    #[test]
    fn histogram_handles_extreme_values() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 7);
            } else {
                b.record(v * 7);
            }
            combined.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), combined.quantile(q));
        }
    }

    #[test]
    fn histogram_reset_clears_everything() {
        let mut h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_out_of_range() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn bucket_floor_is_monotone_and_inverts_index() {
        let mut prev = 0;
        for v in (0..20_000u64).chain([1 << 40, u64::MAX / 2, u64::MAX]) {
            let idx = Histogram::bucket_index(v);
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            // floor must be within one sub-bucket of the value
            if v >= SUB_BUCKETS as u64 {
                assert!(v - floor <= v / SUB_BUCKETS as u64 + 1, "v={v} floor={floor}");
            } else {
                assert_eq!(floor, v);
            }
            let _ = prev;
            prev = idx;
        }
    }

    #[test]
    fn registry_report_is_deterministic() {
        let mut m = MetricsRegistry::new();
        m.counter("b").incr();
        m.counter("a").add(2);
        m.histogram("lat").record(10);
        let r1 = m.report();
        let r2 = m.report();
        assert_eq!(r1, r2);
        assert!(r1.starts_with("a = 2\n"));
    }

    #[test]
    fn registry_read_without_create() {
        let m = MetricsRegistry::new();
        assert_eq!(m.counter_value("missing"), 0);
        assert!(m.histogram_ref("missing").is_none());
        assert!(m.gauge_ref("missing").is_none());
    }

    #[test]
    fn quantile_midpoint_stays_inside_the_bucket() {
        // 1000 copies of a value deep inside an octave: the estimate must
        // clamp to the observed value, not report the bucket midpoint.
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(1_000_000);
        }
        assert_eq!(h.quantile(0.5), 1_000_000);
        // Mixed values: the midpoint lands within half a sub-bucket.
        let mut h = Histogram::new();
        for v in [900_000u64, 1_000_000, 1_100_000] {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let rel = (p50 as f64 - 1_000_000.0).abs() / 1_000_000.0;
        assert!(rel < 1.0 / 16.0, "p50={p50} rel={rel}");
    }

    #[test]
    fn gauge_basics_and_empty() {
        let g = Gauge::new();
        assert_eq!((g.last(), g.min(), g.max(), g.samples()), (0, 0, 0, 0));
        let mut g = Gauge::new();
        g.record(5);
        g.record(9);
        g.record(1);
        assert_eq!((g.last(), g.min(), g.max(), g.samples()), (1, 1, 9, 3));
        g.reset();
        assert_eq!(g.samples(), 0);
    }

    #[test]
    fn gauge_merge_sums_levels_and_folds_watermarks() {
        let mut a = Gauge::new();
        a.record(4);
        a.record(2);
        let mut b = Gauge::new();
        b.record(10);
        let mut empty = Gauge::new();
        // Empty is the identity on both sides.
        let mut via_empty = a;
        via_empty.merge(&empty);
        assert_eq!(via_empty, a);
        empty.merge(&a);
        assert_eq!(empty, a);
        a.merge(&b);
        assert_eq!((a.last(), a.min(), a.max(), a.samples()), (12, 2, 10, 3));
    }

    #[test]
    fn registry_merge_equals_combined_recording() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let mut combined = MetricsRegistry::new();
        a.counter("offered").add(3);
        b.counter("offered").add(5);
        combined.counter("offered").add(8);
        b.counter("only_b").incr();
        combined.counter("only_b").incr();
        for v in [10u64, 20, 30] {
            a.histogram("lat").record(v);
            combined.histogram("lat").record(v);
        }
        for v in [40u64, 50] {
            b.histogram("lat").record(v);
            combined.histogram("lat").record(v);
        }
        a.merge(&b);
        assert_eq!(a.report(), combined.report());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn quantiles_are_monotone_in_q(values in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            let mut prev = 0;
            for &q in &qs {
                let v = h.quantile(q);
                prop_assert!(v >= prev, "quantile({q}) = {v} < {prev}");
                prev = v;
            }
            // Extremes are exact.
            prop_assert_eq!(h.quantile(1.0), *values.iter().max().unwrap());
            prop_assert!(h.quantile(0.0) >= *values.iter().min().unwrap());
        }

        #[test]
        fn merge_is_commutative(
            a in proptest::collection::vec(0u64..1_000_000, 0..100),
            b in proptest::collection::vec(0u64..1_000_000, 0..100),
        ) {
            let build = |vals: &[u64]| {
                let mut h = Histogram::new();
                for v in vals {
                    h.record(*v);
                }
                h
            };
            let mut ab = build(&a);
            ab.merge(&build(&b));
            let mut ba = build(&b);
            ba.merge(&build(&a));
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert_eq!(ab.min(), ba.min());
            prop_assert_eq!(ab.max(), ba.max());
            for q in [0.25, 0.5, 0.9] {
                prop_assert_eq!(ab.quantile(q), ba.quantile(q));
            }
        }

        #[test]
        fn quantile_within_relative_error(values in proptest::collection::vec(1u64..1_000_000, 1..300), q in 0.01f64..0.99) {
            let mut h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = h.quantile(q);
            // Log-linear bucketing with midpoint interpolation: half a
            // sub-bucket of relative error.
            let tolerance = (exact / 16).max(1);
            prop_assert!(
                est <= exact && exact - est <= tolerance || est > exact && est - exact <= tolerance,
                "q={q} est={est} exact={exact}"
            );
        }

        #[test]
        fn registry_merge_is_commutative_and_equals_combined(
            a in proptest::collection::vec((0usize..3, 0u64..10_000), 0..60),
            b in proptest::collection::vec((0usize..3, 0u64..10_000), 0..60),
        ) {
            // Each sample records into one of three names, exercising
            // counters, histograms and gauges under partial key overlap.
            let build = |samples: &[(usize, u64)]| {
                let mut m = MetricsRegistry::new();
                for &(slot, v) in samples {
                    let name = ["alpha", "beta", "gamma"][slot];
                    m.counter(name).add(v);
                    m.histogram(name).record(v);
                    m.gauge(name).record(v);
                }
                m
            };
            let mut ab = build(&a);
            ab.merge(&build(&b));
            let mut ba = build(&b);
            ba.merge(&build(&a));
            // Commutative on everything except gauge `last` order
            // sensitivity — which the sum semantics removes entirely.
            prop_assert_eq!(ab.report(), ba.report());
            // Counter and histogram folds match combined recording.
            let mut all = a.clone();
            all.extend(b.iter().copied());
            let combined = build(&all);
            for (name, v) in combined.counters() {
                prop_assert_eq!(ab.counter_value(name), v);
            }
            for (name, h) in combined.histograms() {
                let folded = ab.histogram_ref(name).unwrap();
                prop_assert_eq!(folded.count(), h.count());
                prop_assert_eq!(folded.min(), h.min());
                prop_assert_eq!(folded.max(), h.max());
                prop_assert_eq!(folded.p50(), h.p50());
                prop_assert_eq!(folded.p99(), h.p99());
            }
            // Gauge watermarks and sample counts match combined
            // recording; `last` is the sum of the per-registry lasts.
            for (name, g) in combined.gauges() {
                let folded = ab.gauge_ref(name).unwrap();
                prop_assert_eq!(folded.min(), g.min());
                prop_assert_eq!(folded.max(), g.max());
                prop_assert_eq!(folded.samples(), g.samples());
            }
        }
    }
}
