//! The telemetry plane: latency spans, windowed snapshots, health
//! scoring, and the JSONL/Prometheus exporters behind `garnetctl`.
//!
//! The paper pitches Garnet as the operational backbone between sensor
//! fields and city-scale consumers; an operator of such a backbone needs
//! latency truth (how long does a reading take to reach its consumers?),
//! rates over time (is this node keeping up?), and a health verdict (is
//! it safe to walk away?). This module supplies all three without
//! touching wall clock: every measurement is driven by [`SimTime`], so
//! the same input schedule always produces the same numbers — the same
//! invariant the router itself is held to.
//!
//! Three layers:
//!
//! * **Spans** — `PipelineSpans` histograms ([`keys::FILTERING_LATENCY_US`],
//!   [`keys::DISPATCHING_LATENCY_US`], [`keys::PIPELINE_E2E_LATENCY_US`])
//!   recorded once per dispatched delivery by the router, plus
//!   `QueueDepthGauges` sampling admission depth.
//! * **Snapshots** — [`TelemetrySnapshot`] captures a sim-time window:
//!   cumulative counters, window deltas (rates), histogram quantile
//!   summaries, gauge watermarks, the match-cache hit rate, and a
//!   [`HealthReport`]. Deterministic serializers render one JSONL line
//!   ([`TelemetrySnapshot::to_jsonl`]) or Prometheus text exposition
//!   ([`TelemetrySnapshot::to_prometheus`]).
//! * **Export** — `TelemetryService` owns the window state machine and
//!   an optional rotating `telemetry-*.jsonl` file sink
//!   (`TelemetrySink`) that `garnetctl` tails.
//!
//! These types are the one reporting vocabulary: `garnetctl` parses a
//! sink line back into a [`TelemetrySnapshot`] and escalates its verdict
//! with the scorer's own starvation rule, [`starved_classes`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use garnet_simkit::metrics::keys;
use garnet_simkit::{Gauge, Histogram, MetricsRegistry, SimDuration, SimTime};

use crate::qos::PriorityClass;

/// Always-on latency histograms for the frame pipeline, recorded at the
/// router's dispatch fan-out point.
///
/// All three spans derive from the two sim-time stamps a delivery
/// already carries (`first_received_at`, `delivered_at`) plus the
/// dispatch-time `now`, so recording costs three histogram increments
/// and no allocation:
///
/// * `filtering` — first boundary admission → filtering emission
///   (duplicate-window and reorder-buffer residency included).
/// * `dispatching` — filtering emission → dispatch fan-out.
/// * `e2e` — first boundary admission → dispatch fan-out.
///
/// Durations saturate at zero, so replayed or reordered stamps can never
/// panic the hot path.
#[derive(Clone, Debug, Default)]
pub(crate) struct PipelineSpans {
    enabled: bool,
    filtering: Histogram,
    dispatching: Histogram,
    e2e: Histogram,
}

impl PipelineSpans {
    /// Creates empty, enabled spans.
    pub(crate) fn new() -> Self {
        PipelineSpans {
            enabled: true,
            filtering: Histogram::new(),
            dispatching: Histogram::new(),
            e2e: Histogram::new(),
        }
    }

    /// Turns recording on or off.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records one dispatched delivery.
    #[inline]
    pub(crate) fn record(
        &mut self,
        first_received_at: SimTime,
        delivered_at: SimTime,
        now: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        self.filtering.record(delivered_at.saturating_since(first_received_at).as_micros());
        self.dispatching.record(now.saturating_since(delivered_at).as_micros());
        self.e2e.record(now.saturating_since(first_received_at).as_micros());
    }

    /// First admission → filtering emission.
    #[cfg(test)]
    pub(crate) fn filtering(&self) -> &Histogram {
        &self.filtering
    }

    /// Filtering emission → dispatch fan-out.
    #[cfg(test)]
    pub(crate) fn dispatching(&self) -> &Histogram {
        &self.dispatching
    }

    /// First admission → dispatch fan-out.
    #[cfg(test)]
    pub(crate) fn e2e(&self) -> &Histogram {
        &self.e2e
    }

    /// Folds the three histograms into `m` under their interned names.
    pub(crate) fn fold_into(&self, m: &mut MetricsRegistry) {
        m.histogram(keys::FILTERING_LATENCY_US).merge(&self.filtering);
        m.histogram(keys::DISPATCHING_LATENCY_US).merge(&self.dispatching);
        m.histogram(keys::PIPELINE_E2E_LATENCY_US).merge(&self.e2e);
    }
}

/// The admission queue-depth gauge, sampled at frame admission.
///
/// Depth here is "frames admitted since the router last went quiescent"
/// — the same quantity `overload.peak_queue_depth` tracks as a single
/// peak, but with min/last watermarks. Counts reset at quiescence; the
/// gauge keeps its watermarks.
#[derive(Clone, Debug, Default)]
pub(crate) struct QueueDepthGauges {
    enabled: bool,
    total: Gauge,
    queued: u64,
}

impl QueueDepthGauges {
    /// Creates an enabled gauge.
    pub(crate) fn new() -> Self {
        QueueDepthGauges { enabled: true, total: Gauge::new(), queued: 0 }
    }

    /// Turns sampling on or off alongside the latency spans.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records one admitted frame.
    #[inline]
    pub(crate) fn note_admitted(&mut self) {
        if !self.enabled {
            return;
        }
        self.queued += 1;
        self.total.record(self.queued);
    }

    /// Resets the depth count at a quiescence point; watermarks survive.
    pub(crate) fn note_quiescent(&mut self) {
        self.queued = 0;
    }

    /// The depth gauge.
    pub(crate) fn total(&self) -> &Gauge {
        &self.total
    }
}

// Thresholds the health scorer applies to each snapshot window. Ratios
// are in parts-per-million so scoring never touches floating point
// (reasons must be byte-stable across runs).

/// Window shed ratio (shed/offered, ppm) that degrades the node: 0.1 %.
const SHED_DEGRADED_PPM: u64 = 1_000;
/// Window shed ratio (ppm) that marks the node critical: 10 %.
const SHED_CRITICAL_PPM: u64 = 100_000;
/// Archive records dropped in the window that mark critical (each one
/// is lost boundary input).
const ARCHIVE_DROPPED_CRITICAL: u64 = 1;
/// e2e p99 growth vs the previous window that degrades, in percent
/// (200 = doubled).
const P99_REGRESSION_PCT: u64 = 200;
/// e2e p99 below this floor never counts as a regression (µs).
const P99_FLOOR_US: u64 = 1_000;

/// The verdict a snapshot window earns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Everything within thresholds.
    Healthy,
    /// Service continues but an operator should look.
    Degraded {
        /// Deterministic, human-readable causes.
        reasons: Vec<String>,
    },
    /// Data is being lost or the node is burning its failure budget.
    Critical {
        /// Deterministic, human-readable causes.
        reasons: Vec<String>,
    },
}

/// A typed health verdict derived from one snapshot window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthReport {
    /// The scored state.
    pub state: HealthState,
}

impl HealthReport {
    /// `"healthy"`, `"degraded"` or `"critical"`.
    pub fn label(&self) -> &'static str {
        match self.state {
            HealthState::Healthy => "healthy",
            HealthState::Degraded { .. } => "degraded",
            HealthState::Critical { .. } => "critical",
        }
    }

    /// Numeric severity: 0 healthy, 1 degraded, 2 critical.
    pub fn severity(&self) -> u64 {
        match self.state {
            HealthState::Healthy => 0,
            HealthState::Degraded { .. } => 1,
            HealthState::Critical { .. } => 2,
        }
    }

    /// The reasons behind a non-healthy verdict (empty when healthy).
    pub fn reasons(&self) -> &[String] {
        match &self.state {
            HealthState::Healthy => &[],
            HealthState::Degraded { reasons } | HealthState::Critical { reasons } => reasons,
        }
    }
}

/// The QoS classes starved in a window, in [`PriorityClass::ALL`] order,
/// each with its offers: a class whose `qos.<class>.offered` delta is
/// positive while its `qos.<class>.delivered` delta is 0. The health
/// scorer marks each one critical, and `garnetctl health` applies the
/// same rule to a sink line, so a line whose scorer predates the rule is
/// still escalated.
pub fn starved_classes(deltas: &BTreeMap<String, u64>) -> Vec<(PriorityClass, u64)> {
    PriorityClass::ALL
        .into_iter()
        .filter_map(|class| {
            let offered = delta(deltas, &format!("qos.{}.offered", class.name()));
            let delivered = delta(deltas, &format!("qos.{}.delivered", class.name()));
            (offered > 0 && delivered == 0).then_some((class, offered))
        })
        .collect()
}

/// Counter `name`'s increment in a window (0 when it did not move).
fn delta(deltas: &BTreeMap<String, u64>, name: &str) -> u64 {
    deltas.get(name).copied().unwrap_or(0)
}

/// Scores one window from its counter increments and the e2e p99 of
/// this and the previous window (µs; `None` for the first window).
/// Critical reasons trump degraded ones; both lists are assembled in a
/// fixed rule order so the report is byte-stable.
pub(crate) fn evaluate_health(
    deltas: &BTreeMap<String, u64>,
    prev_e2e_p99: Option<u64>,
    e2e_p99: u64,
) -> HealthReport {
    let mut degraded = Vec::new();
    let mut critical = Vec::new();
    let offered = delta(deltas, "overload.offered");
    let shed = delta(deltas, "overload.shed");
    if let Some(shed_ppm) = shed.saturating_mul(1_000_000).checked_div(offered) {
        if shed_ppm >= SHED_CRITICAL_PPM {
            critical.push(format!("shed {shed_ppm}ppm of {offered} offered frames"));
        } else if shed_ppm >= SHED_DEGRADED_PPM {
            degraded.push(format!("shed {shed_ppm}ppm of {offered} offered frames"));
        }
    }
    let archive_dropped = delta(deltas, "archive.dropped");
    if archive_dropped >= ARCHIVE_DROPPED_CRITICAL {
        critical.push(format!("{archive_dropped} archive records dropped"));
    }
    for (class, offered) in starved_classes(deltas) {
        critical
            .push(format!("qos: {} class starved ({offered} offered, 0 delivered)", class.name()));
    }
    if let Some(prev) = prev_e2e_p99 {
        if prev > 0
            && e2e_p99 >= P99_FLOOR_US
            && e2e_p99.saturating_mul(100) >= prev.saturating_mul(P99_REGRESSION_PCT)
        {
            degraded.push(format!("e2e p99 regressed {prev}us -> {e2e_p99}us"));
        }
    }
    let state = if !critical.is_empty() {
        critical.extend(degraded);
        HealthState::Critical { reasons: critical }
    } else if !degraded.is_empty() {
        HealthState::Degraded { reasons: degraded }
    } else {
        HealthState::Healthy
    };
    HealthReport { state }
}

/// Quantile summary of one histogram at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Arithmetic mean (µs).
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSummary {
    /// Summarises `h`.
    pub(crate) fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.p50(),
            p90: h.quantile(0.90),
            p99: h.p99(),
            min: h.min(),
            max: h.max(),
        }
    }
}

/// Watermark summary of one gauge at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSummary {
    /// Most recent level.
    pub last: u64,
    /// Lowest level observed.
    pub min: u64,
    /// Highest level observed.
    pub max: u64,
    /// Recordings folded in.
    pub samples: u64,
}

impl GaugeSummary {
    /// Summarises `g`.
    pub(crate) fn of(g: &Gauge) -> Self {
        GaugeSummary { last: g.last(), min: g.min(), max: g.max(), samples: g.samples() }
    }
}

/// One exported telemetry window.
///
/// `counters` are cumulative since node start (Prometheus-style);
/// `deltas` are this window's increments, from which
/// [`TelemetrySnapshot::rate_per_sec`] derives rates. Histogram and
/// gauge summaries are cumulative (histograms in this codebase are
/// never reset mid-run, so quantiles describe the whole run).
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Monotonic snapshot number, starting at 1.
    pub seq: u64,
    /// Window start (µs of sim time).
    pub window_start_us: u64,
    /// Window end (µs of sim time).
    pub window_end_us: u64,
    /// Cumulative counters, including `telemetry.*`/`health.*` meta.
    pub counters: BTreeMap<String, u64>,
    /// Counter increments within this window.
    pub deltas: BTreeMap<String, u64>,
    /// Histogram quantile summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Gauge watermark summaries.
    pub gauges: BTreeMap<String, GaugeSummary>,
    /// Dispatch match-cache hit rate, parts per million.
    pub match_cache_hit_ppm: u64,
    /// The scored health verdict for this window.
    pub health: HealthReport,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `metric.name` → `garnet_metric_name` (Prometheus charset).
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("garnet_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl TelemetrySnapshot {
    /// The window length in seconds.
    pub fn window_secs(&self) -> f64 {
        (self.window_end_us.saturating_sub(self.window_start_us)) as f64 / 1e6
    }

    /// This window's rate for counter `name`, in events per sim-second
    /// (0.0 for an unknown counter or an empty window).
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        let secs = self.window_secs();
        if secs <= 0.0 {
            return 0.0;
        }
        self.deltas.get(name).copied().unwrap_or(0) as f64 / secs
    }

    /// Renders the snapshot as one JSONL line (no trailing newline).
    /// Field and key order are fixed, so identical snapshots render to
    /// identical bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"seq\":{},\"window_start_us\":{},\"window_end_us\":{},\"health\":\"{}\",\"reasons\":[",
            self.seq,
            self.window_start_us,
            self.window_end_us,
            self.health.label()
        );
        for (i, reason) in self.health.reasons().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(reason));
        }
        let _ =
            write!(out, "],\"match_cache_hit_ppm\":{},\"counters\":{{", self.match_cache_hit_ppm);
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), value);
        }
        out.push_str("},\"deltas\":{");
        for (i, (name, value)) in self.deltas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{},\"min\":{},\"max\":{}}}",
                json_escape(name),
                h.count,
                h.mean,
                h.p50,
                h.p90,
                h.p99,
                h.min,
                h.max
            );
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"last\":{},\"min\":{},\"max\":{},\"samples\":{}}}",
                json_escape(name),
                g.last,
                g.min,
                g.max,
                g.samples
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders Prometheus text exposition format. Counters export
    /// cumulatively, histograms as summaries with quantile labels,
    /// gauges as the last level plus `_min`/`_max` watermarks. Names
    /// render in BTreeMap order, so the output is byte-stable.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(out, "# TYPE garnet_telemetry_seq counter");
        let _ = writeln!(out, "garnet_telemetry_seq {}", self.seq);
        let _ = writeln!(out, "# TYPE garnet_telemetry_window_end_us gauge");
        let _ = writeln!(out, "garnet_telemetry_window_end_us {}", self.window_end_us);
        let _ = writeln!(out, "# TYPE garnet_health_state gauge");
        let _ = writeln!(out, "garnet_health_state {}", self.health.severity());
        let _ = writeln!(out, "# TYPE garnet_dispatch_match_cache_hit_ppm gauge");
        let _ = writeln!(out, "garnet_dispatch_match_cache_hit_ppm {}", self.match_cache_hit_ppm);
        for (name, value) in &self.counters {
            let p = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {p} counter");
            let _ = writeln!(out, "{p} {value}");
        }
        for (name, h) in &self.histograms {
            let p = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {p} summary");
            let _ = writeln!(out, "{p}{{quantile=\"0.5\"}} {}", h.p50);
            let _ = writeln!(out, "{p}{{quantile=\"0.9\"}} {}", h.p90);
            let _ = writeln!(out, "{p}{{quantile=\"0.99\"}} {}", h.p99);
            let _ = writeln!(out, "{p}_count {}", h.count);
            let _ = writeln!(out, "{p}_min {}", h.min);
            let _ = writeln!(out, "{p}_max {}", h.max);
        }
        for (name, g) in &self.gauges {
            let p = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {}", g.last);
            let _ = writeln!(out, "{p}_min {}", g.min);
            let _ = writeln!(out, "{p}_max {}", g.max);
        }
        out
    }
}

/// Telemetry plane configuration, carried on `GarnetConfig.telemetry`.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Record latency spans and queue-depth gauges (default on, and on
    /// in every `perfbench` workload, so `frames_per_s` includes their
    /// cost; `core.telemetry.*` prices the snapshot side).
    pub spans: bool,
    /// Auto-emit a snapshot every `interval` of sim time as the facade
    /// observes ticks and frame bursts. `None` (default) emits only on
    /// explicit `Garnet::telemetry()` calls.
    pub interval: Option<SimDuration>,
    /// Directory for the rotating `telemetry-*.jsonl` sink (created on
    /// first emission). `None` keeps snapshots in memory only.
    pub sink_dir: Option<PathBuf>,
    /// Snapshot lines per sink file before rotating to the next.
    pub rotate_lines: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { spans: true, interval: None, sink_dir: None, rotate_lines: 4_096 }
    }
}

/// A rotating JSONL file sink: `telemetry-000000.jsonl`,
/// `telemetry-000001.jsonl`, … under one directory, rotating every
/// `rotate_lines` lines. Construction resumes after the highest
/// existing index so a restarted node never clobbers history.
#[derive(Debug)]
pub(crate) struct TelemetrySink {
    dir: PathBuf,
    rotate_lines: usize,
    file_index: u64,
    lines_in_file: usize,
}

impl TelemetrySink {
    /// Opens (and creates) the sink directory.
    pub(crate) fn new(dir: &Path, rotate_lines: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut next_index = 0u64;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) =
                name.strip_prefix("telemetry-").and_then(|s| s.strip_suffix(".jsonl"))
            {
                if let Ok(index) = stem.parse::<u64>() {
                    next_index = next_index.max(index + 1);
                }
            }
        }
        Ok(TelemetrySink {
            dir: dir.to_path_buf(),
            rotate_lines: rotate_lines.max(1),
            file_index: next_index,
            lines_in_file: 0,
        })
    }

    /// The file the next line will land in.
    pub(crate) fn current_path(&self) -> PathBuf {
        self.dir.join(format!("telemetry-{:06}.jsonl", self.file_index))
    }

    /// Appends one line (newline added here), rotating afterwards if the
    /// file reached its line budget.
    pub(crate) fn append(&mut self, line: &str) -> std::io::Result<()> {
        let path = self.current_path();
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        self.lines_in_file += 1;
        if self.lines_in_file >= self.rotate_lines {
            self.file_index += 1;
            self.lines_in_file = 0;
        }
        Ok(())
    }
}

/// The facade-side window state machine: tracks previous-window counter
/// values for deltas, the previous e2e p99 for regression scoring, the
/// snapshot sequence, and the optional file sink.
#[derive(Debug)]
pub(crate) struct TelemetryService {
    config: TelemetryConfig,
    seq: u64,
    window_start: SimTime,
    next_due: Option<SimTime>,
    prev_counters: BTreeMap<String, u64>,
    prev_e2e_p99: Option<u64>,
    sink: Option<TelemetrySink>,
    sink_error: Option<String>,
    last: Option<TelemetrySnapshot>,
}

impl TelemetryService {
    /// Builds the service; the sink directory is not touched until the
    /// first emission.
    pub(crate) fn new(config: TelemetryConfig) -> Self {
        TelemetryService {
            config,
            seq: 0,
            window_start: SimTime::ZERO,
            next_due: None,
            prev_counters: BTreeMap::new(),
            prev_e2e_p99: None,
            sink: None,
            sink_error: None,
            last: None,
        }
    }

    /// True when the auto-emit interval has elapsed at `now`.
    pub(crate) fn due(&self, now: SimTime) -> bool {
        match (self.config.interval, self.next_due) {
            (None, _) => false,
            (Some(interval), None) => now >= self.window_start.saturating_add(interval),
            (Some(_), Some(due)) => now >= due,
        }
    }

    /// The most recently emitted snapshot.
    pub(crate) fn last(&self) -> Option<&TelemetrySnapshot> {
        self.last.as_ref()
    }

    /// The first sink I/O error, if any (telemetry never panics the
    /// data path; a broken sink turns into a sticky diagnostic).
    pub(crate) fn sink_error(&self) -> Option<&str> {
        self.sink_error.as_deref()
    }

    /// Assembles, records and (when a sink is configured) exports the
    /// snapshot for the window ending at `now` over the already-folded
    /// registry `m`.
    pub(crate) fn emit(&mut self, m: &MetricsRegistry, now: SimTime) -> TelemetrySnapshot {
        let mut counters: BTreeMap<String, u64> =
            m.counters().map(|(name, value)| (name.to_owned(), value)).collect();
        let deltas: BTreeMap<String, u64> = counters
            .iter()
            .map(|(name, &value)| {
                let prev = self.prev_counters.get(name).copied().unwrap_or(0);
                (name.clone(), value.saturating_sub(prev))
            })
            .collect();
        let histograms: BTreeMap<String, HistogramSummary> =
            m.histograms().map(|(name, h)| (name.to_owned(), HistogramSummary::of(h))).collect();
        let gauges: BTreeMap<String, GaugeSummary> =
            m.gauges().map(|(name, g)| (name.to_owned(), GaugeSummary::of(g))).collect();
        let hits = counters.get("dispatch.match_cache.hits").copied().unwrap_or(0);
        let misses = counters.get("dispatch.match_cache.misses").copied().unwrap_or(0);
        let match_cache_hit_ppm =
            hits.saturating_mul(1_000_000).checked_div(hits + misses).unwrap_or(0);
        let e2e_p99 = histograms.get(keys::PIPELINE_E2E_LATENCY_US).map_or(0, |h| h.p99);
        let health = evaluate_health(&deltas, self.prev_e2e_p99, e2e_p99);
        self.seq += 1;
        counters.insert("telemetry.windows".to_owned(), self.seq);
        counters.insert("health.state".to_owned(), health.severity());
        let snapshot = TelemetrySnapshot {
            seq: self.seq,
            window_start_us: self.window_start.as_micros(),
            window_end_us: now.as_micros(),
            counters,
            deltas,
            histograms,
            gauges,
            match_cache_hit_ppm,
            health,
        };
        self.prev_counters =
            snapshot.deltas.keys().map(|k| (k.clone(), snapshot.counters[k])).collect();
        self.prev_e2e_p99 = Some(e2e_p99);
        self.window_start = now;
        if let Some(interval) = self.config.interval {
            self.next_due = Some(now.saturating_add(interval));
        }
        self.export(&snapshot);
        self.last = Some(snapshot.clone());
        snapshot
    }

    fn export(&mut self, snapshot: &TelemetrySnapshot) {
        let Some(dir) = self.config.sink_dir.clone() else {
            return;
        };
        if self.sink_error.is_some() {
            return;
        }
        if self.sink.is_none() {
            match TelemetrySink::new(&dir, self.config.rotate_lines) {
                Ok(sink) => self.sink = Some(sink),
                Err(e) => {
                    self.sink_error = Some(format!("open telemetry sink {}: {e}", dir.display()));
                    return;
                }
            }
        }
        if let Some(sink) = &mut self.sink {
            if let Err(e) = sink.append(&snapshot.to_jsonl()) {
                self.sink_error = Some(format!("append telemetry sink {}: {e}", dir.display()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_the_three_latency_legs() {
        let mut spans = PipelineSpans::new();
        let t0 = SimTime::from_micros(100);
        let t1 = SimTime::from_micros(140);
        let t2 = SimTime::from_micros(150);
        spans.record(t0, t1, t2);
        assert_eq!(spans.filtering().max(), 40);
        assert_eq!(spans.dispatching().max(), 10);
        assert_eq!(spans.e2e().max(), 50);
        spans.set_enabled(false);
        spans.record(t0, t1, t2);
        assert_eq!(spans.e2e().count(), 1);
    }

    #[test]
    fn spans_saturate_on_reordered_stamps() {
        let mut spans = PipelineSpans::new();
        spans.record(SimTime::from_micros(50), SimTime::from_micros(40), SimTime::from_micros(30));
        assert_eq!(spans.filtering().max(), 0);
        assert_eq!(spans.e2e().max(), 0);
    }

    #[test]
    fn depth_gauge_tracks_watermarks_across_quiescence() {
        let mut d = QueueDepthGauges::new();
        for _ in 0..3 {
            d.note_admitted();
        }
        assert_eq!(d.total().max(), 3);
        d.note_quiescent();
        d.note_admitted();
        assert_eq!(d.total().last(), 1);
        assert_eq!(d.total().max(), 3, "watermarks survive quiescence");
        d.set_enabled(false);
        d.note_admitted();
        assert_eq!(d.total().last(), 1, "a disabled gauge records nothing");
    }

    fn deltas(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(name, value)| (name.to_owned(), value)).collect()
    }

    #[test]
    fn health_rules_escalate_in_order() {
        let healthy = evaluate_health(&deltas(&[]), None, 0);
        assert_eq!(healthy.label(), "healthy");
        assert_eq!(healthy.severity(), 0);
        let degraded =
            evaluate_health(&deltas(&[("overload.offered", 1_000), ("overload.shed", 1)]), None, 0);
        assert_eq!(degraded.label(), "degraded");
        assert!(degraded.reasons()[0].contains("shed"));
        let critical = evaluate_health(
            &deltas(&[("overload.offered", 10), ("overload.shed", 5)]),
            Some(1_000),
            2_000,
        );
        assert_eq!(critical.label(), "critical");
        // Critical verdicts carry the degraded reasons too.
        assert_eq!(critical.reasons().len(), 2);
        let dropped = evaluate_health(&deltas(&[("archive.dropped", 1)]), None, 0);
        assert_eq!(dropped.label(), "critical");
    }

    #[test]
    fn health_flags_a_starved_qos_class_as_critical() {
        let starved = evaluate_health(&deltas(&[("qos.data.offered", 7)]), None, 0);
        assert_eq!(starved.label(), "critical");
        assert_eq!(starved.reasons(), ["qos: data class starved (7 offered, 0 delivered)"]);
        // One delivery in the window clears the verdict.
        let fed = evaluate_health(
            &deltas(&[("qos.data.offered", 7), ("qos.data.delivered", 1)]),
            None,
            0,
        );
        assert_eq!(fed.label(), "healthy");
    }

    #[test]
    fn health_p99_regression_needs_a_floor() {
        let quiet = evaluate_health(&deltas(&[]), Some(10), 900);
        assert_eq!(quiet.label(), "healthy", "sub-floor p99 never regresses");
        let regressed = evaluate_health(&deltas(&[]), Some(1_000), 2_000);
        assert_eq!(regressed.label(), "degraded");
    }

    #[test]
    fn snapshot_serializers_are_deterministic() {
        let mut m = MetricsRegistry::new();
        m.counter("overload.offered").add(10);
        m.counter("overload.delivered").add(10);
        m.histogram(keys::PIPELINE_E2E_LATENCY_US).record(120);
        m.gauge(keys::QUEUE_DEPTH).record(4);
        let mut svc = TelemetryService::new(TelemetryConfig::default());
        let snap = svc.emit(&m, SimTime::from_secs(1));
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.counters["telemetry.windows"], 1);
        assert_eq!(snap.counters["health.state"], 0);
        let line = snap.to_jsonl();
        assert!(line.starts_with("{\"seq\":1,"));
        assert!(line.contains("\"overload.offered\":10"));
        assert!(line.contains("\"pipeline.e2e_latency_us\":{\"count\":1"));
        assert_eq!(line, snap.to_jsonl(), "rendering is pure");
        let prom = snap.to_prometheus();
        assert!(prom.contains("garnet_overload_offered 10"));
        assert!(prom.contains("garnet_pipeline_e2e_latency_us{quantile=\"0.99\"} 120"));
        assert!(prom.contains("garnet_overload_queue_depth 4"));
        assert_eq!(prom, snap.to_prometheus());
        assert!((snap.rate_per_sec("overload.offered") - 10.0).abs() < 1e-9);
    }

    #[test]
    fn windows_report_deltas_not_totals() {
        let mut m = MetricsRegistry::new();
        m.counter("overload.offered").add(10);
        let mut svc = TelemetryService::new(TelemetryConfig {
            interval: Some(SimDuration::from_secs(1)),
            ..TelemetryConfig::default()
        });
        assert!(!svc.due(SimTime::from_millis(500)));
        assert!(svc.due(SimTime::from_secs(1)));
        let first = svc.emit(&m, SimTime::from_secs(1));
        assert_eq!(first.deltas["overload.offered"], 10);
        assert!(!svc.due(SimTime::from_secs(1)));
        m.counter("overload.offered").add(5);
        let second = svc.emit(&m, SimTime::from_secs(2));
        assert_eq!(second.seq, 2);
        assert_eq!(second.counters["overload.offered"], 15);
        assert_eq!(second.deltas["overload.offered"], 5);
        assert_eq!(second.window_start_us, 1_000_000);
    }

    #[test]
    fn sink_rotates_and_resumes_after_existing_files() {
        let dir = std::env::temp_dir().join(format!(
            "garnet-telemetry-sink-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = TelemetrySink::new(&dir, 2).unwrap();
        for i in 0..5 {
            sink.append(&format!("{{\"seq\":{i}}}")).unwrap();
        }
        assert!(dir.join("telemetry-000000.jsonl").exists());
        assert!(dir.join("telemetry-000001.jsonl").exists());
        assert!(dir.join("telemetry-000002.jsonl").exists());
        // A new sink in the same directory continues past old files.
        let resumed = TelemetrySink::new(&dir, 2).unwrap();
        assert_eq!(resumed.current_path(), dir.join("telemetry-000003.jsonl"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
