//! Metric definitions (the same names, units, directions and bounds
//! `BENCHMARK.json` declares), the one-line result the driver reads,
//! the all-workloads result document, and `--compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use garnet_ctl::{parse_json, Json};

use crate::run::EndToEnd;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One metric the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// The end-to-end metrics, reported on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("frames_per_s", "1/s", Better::Higher, 0.25),
    e2e("delivery_latency_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run, in reporting order.
pub const PER_LAYER: [MetricDef; 50] = [
    layer("wire.decode_ns_per_frame", "ns", Lower),
    layer("wire.reject_share", "share", Lower),
    layer("core.filtering.self_ns_per_frame", "ns", Lower),
    layer("core.filtering.tick_us_per_call", "us", Lower),
    layer("core.filtering.duplicate_share", "share", Lower),
    layer("core.filtering.reordered_share", "share", Lower),
    layer("core.filtering.gap_count", "count", Lower),
    layer("core.filtering.streams_resident", "count", Lower),
    layer("core.dispatching.route_ns_per_frame", "ns", Lower),
    layer("core.dispatching.fanout_mean", "count", Higher),
    layer("net.pubsub.cache_hit_share", "share", Higher),
    layer("net.pubsub.cache_invalidations", "count", Lower),
    layer("net.pubsub.write_ns_per_op", "ns", Lower),
    layer("core.qos.offer_release_ns_per_frame", "ns", Lower),
    layer("core.qos.stage_ns_per_delivery", "ns", Lower),
    layer("core.qos.shed_share", "share", Lower),
    layer("core.qos.coalesced_share", "share", Lower),
    layer("core.qos.control_shed", "count", Lower),
    layer("core.qos.retunes", "count", Lower),
    layer("store.encode_ns_per_record", "ns", Lower),
    layer("store.mem.append_ns_per_record", "ns", Lower),
    layer("store.file.append_ns_per_record", "ns", Lower),
    layer("store.bytes_per_record", "B", Lower),
    layer("store.segments_rolled", "count", Lower),
    layer("store.file.sync_ms", "ms", Lower),
    layer("store.recover_ms", "ms", Lower),
    layer("core.archive.dropped_share", "share", Lower),
    layer("core.driver.fifo_ns_per_frame", "ns", Lower),
    layer("core.driver.threaded_ns_per_frame", "ns", Lower),
    layer("core.router.self_ns_per_frame", "ns", Lower),
    layer("net.coordination_ns_per_frame", "ns", Lower),
    layer("net.shardpool.roundtrip_ns_per_job_8", "ns", Lower),
    layer("net.shardpool.roundtrip_ns_per_job_64", "ns", Lower),
    layer("net.edge_submits_per_frame", "count", Lower),
    layer("net.shard_restarts", "count", Lower),
    layer("core.telemetry.snapshot_us", "us", Lower),
    layer("core.telemetry.emits", "count", Lower),
    layer("core.telemetry.jsonl_bytes_per_snapshot", "B", Lower),
    layer("core.middleware.facade_ns_per_frame", "ns", Lower),
    layer("core.middleware.self_ns_per_frame", "ns", Lower),
    layer("core.middleware.layer_sum_share", "share", Higher),
    layer("core.middleware.allocs_per_frame", "count", Lower),
    layer("core.middleware.alloc_bytes_per_frame", "B", Lower),
    layer("core.middleware.shutdown_ms", "ms", Lower),
    layer("bench.delivery_latency_p90_us", "us", Lower),
    layer("bench.delivery_latency_p99_us", "us", Lower),
    layer("bench.generator.ns_per_frame", "ns", Lower),
    layer("bench.generator.late_p99_us", "us", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.failed_share", "share", Lower),
];

/// The end-to-end values of one run, in [`END_TO_END`] order.
pub fn end_to_end_values(r: &EndToEnd) -> [f64; 4] {
    [r.frames_per_s.median, r.latency_p50_us.median, r.peak_rss_mb, r.setup_s.median]
}

/// A JSON number with all its digits; non-finite values (a ratio over
/// zero samples) become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_object<'a>(metrics: impl Iterator<Item = (&'a MetricDef, f64)>) -> String {
    let body: Vec<String> = metrics
        .map(|(m, v)| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(v), m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one JSON object a `--workload` run prints last.
pub fn result_line(attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    )
}

/// One workload's parsed result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Parsed {
    /// `correct`.
    pub correct: bool,
    /// `attempted`.
    pub attempted: u64,
    /// `failed`.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Parsed {
    /// Reads a result object (a line of `--workload` output, or one
    /// entry of the result document).
    pub fn from_json(v: &Json) -> Result<Parsed, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing \"{k}\""));
        let correct = matches!(field("correct")?, Json::Bool(true));
        let attempted = field("attempted")?.as_u64().ok_or("\"attempted\" is not a count")?;
        let failed = field("failed")?.as_u64().ok_or("\"failed\" is not a count")?;
        let Json::Obj(members) = field("metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in members {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric \"{name}\" has no numeric value"))?;
            metrics.insert(name.clone(), value);
        }
        Ok(Parsed { correct, attempted, failed, metrics })
    }

    /// Reads the last line of a `--workload` run's standard output.
    pub fn from_stdout(stdout: &str) -> Result<Parsed, String> {
        let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
        Parsed::from_json(&parse_json(line)?)
    }
}

/// Everything one invocation measured: per workload, the untraced and
/// (when run) the traced result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Document {
    /// Generator seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Per workload, in run order: name, end-to-end, per-layer.
    pub workloads: Vec<(String, Parsed, Option<Parsed>)>,
}

fn parsed_json(p: &Parsed, defs: &[MetricDef]) -> String {
    let metrics =
        metrics_object(defs.iter().filter_map(|m| p.metrics.get(m.name).map(|v| (m, *v))));
    result_line(p.attempted, p.failed, &metrics)
}

impl Document {
    /// The result document. No gain is claimed by a benchmark run:
    /// `"claim": null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"claim\": null,");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"seconds\": {},", number(self.seconds));
        let _ = writeln!(out, "  \"workloads\": [");
        for (i, (name, e2e, layers)) in self.workloads.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{name}\",");
            let _ = write!(out, "      \"end_to_end\": {}", parsed_json(e2e, &END_TO_END));
            if let Some(layers) = layers {
                let _ = write!(out, ",\n      \"per_layer\": {}", parsed_json(layers, &PER_LAYER));
            }
            let comma = if i + 1 < self.workloads.len() { "," } else { "" };
            let _ = writeln!(out, "\n    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a result document.
    pub fn from_json(text: &str) -> Result<Document, String> {
        let v = parse_json(text)?;
        let seed = v.get("seed").and_then(Json::as_u64).ok_or("missing \"seed\"")?;
        let seconds = v.get("seconds").and_then(Json::as_f64).ok_or("missing \"seconds\"")?;
        let Some(Json::Arr(entries)) = v.get("workloads") else {
            return Err("missing \"workloads\"".into());
        };
        let mut workloads = Vec::new();
        for w in entries {
            let name = w.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
            let e2e = Parsed::from_json(w.get("end_to_end").ok_or("workload without end_to_end")?)?;
            let layers = w.get("per_layer").map(Parsed::from_json).transpose()?;
            workloads.push((name.to_owned(), e2e, layers));
        }
        Ok(Document { seed, seconds, workloads })
    }
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Baseline value.
    pub base: f64,
    /// This run's value.
    pub now: f64,
    /// How much worse this run is, as a share of the baseline
    /// (negative: better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Whether the row is within its bound.
    pub ok: bool,
}

/// Compares `now` against `base`: one row per workload × end-to-end
/// metric, plus a `failed` row per workload (it may not rise). A
/// workload or metric missing from either side is a failed row.
pub fn compare(base: &Document, now: &Document) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, b, _) in &base.workloads {
        let n = now.workloads.iter().find(|(w, _, _)| w == name).map(|(_, p, _)| p);
        for m in &END_TO_END {
            let (bv, nv) =
                (b.metrics.get(m.name).copied(), n.and_then(|p| p.metrics.get(m.name)).copied());
            let (base, now) = (bv.unwrap_or(f64::NAN), nv.unwrap_or(f64::NAN));
            let worse_by = match m.better {
                Better::Higher => (base - now) / base,
                Better::Lower => (now - base) / base,
            };
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                base,
                now,
                worse_by,
                bound: m.bound,
                ok: worse_by.is_finite() && worse_by <= m.bound,
            });
        }
        let (base, now) = (b.failed as f64, n.map_or(f64::NAN, |p| p.failed as f64));
        rows.push(Row {
            workload: name.clone(),
            metric: "failed",
            base,
            now,
            worse_by: now - base,
            bound: 0.0,
            ok: now <= base,
        });
    }
    rows
}

/// Renders comparison rows as an aligned table.
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "this run", "worse by", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:<26} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.now,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.ok { "ok" } else { "WORSE" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(fps: f64, p50: f64, failed: u64) -> Parsed {
        let mut metrics = BTreeMap::new();
        for (m, v) in END_TO_END.iter().zip([fps, p50, 8.0, 0.1]) {
            metrics.insert(m.name.to_owned(), v);
        }
        Parsed { correct: failed == 0, attempted: 1_000, failed, metrics }
    }

    fn doc(p: Parsed) -> Document {
        Document { seed: 1, seconds: 10.0, workloads: vec![("steady-fifo".into(), p, None)] }
    }

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let p = parsed(1_128_203.211_028_077, 46.547, 0);
        let line = parsed_json(&p, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"frames_per_s\": {\"value\": 1128203.211028077, \"unit\": \"1/s\"}"));
        assert_eq!(Parsed::from_stdout(&format!("noise\n{line}\n\n")).unwrap(), p);
        assert_eq!(number(f64::NAN), "0");
    }

    #[test]
    fn document_round_trips_and_claims_nothing() {
        let mut d = doc(parsed(1e6, 50.0, 0));
        let mut layers =
            Parsed { correct: true, attempted: 5, failed: 0, metrics: BTreeMap::new() };
        layers.metrics.insert("wire.decode_ns_per_frame".into(), 31.5);
        d.workloads[0].2 = Some(layers);
        let text = d.to_json();
        assert!(text.contains("\"claim\": null"));
        assert_eq!(Document::from_json(&text).unwrap(), d);
    }

    #[test]
    fn compare_flags_only_what_is_worse_than_its_bound() {
        let base = doc(parsed(1_000_000.0, 50.0, 0));
        // 24% slower throughput is inside the 25% bound; 26% is not.
        let rows = compare(&base, &doc(parsed(760_000.0, 50.0, 0)));
        assert!(rows.iter().all(|r| r.ok), "{}", render_rows(&rows));
        let rows = compare(&base, &doc(parsed(740_000.0, 50.0, 0)));
        let bad: Vec<_> = rows.iter().filter(|r| !r.ok).map(|r| r.metric).collect();
        assert_eq!(bad, ["frames_per_s"]);
        // Better is never a regression; lower-is-better flips the sign.
        let rows = compare(&base, &doc(parsed(2_000_000.0, 63.0, 0)));
        let bad: Vec<_> = rows.iter().filter(|r| !r.ok).map(|r| r.metric).collect();
        assert_eq!(bad, ["delivery_latency_p50_us"]);
        // Failures may not rise, and a missing workload fails every row.
        let rows = compare(&base, &doc(parsed(1_000_000.0, 50.0, 3)));
        assert_eq!(rows.iter().filter(|r| !r.ok).map(|r| r.metric).collect::<Vec<_>>(), ["failed"]);
        let rows = compare(&base, &Document::default());
        assert!(rows.iter().all(|r| !r.ok));
        assert_eq!(rows.len(), END_TO_END.len() + 1);
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{m:?}");
            assert!(seen.insert(m.name), "{} repeats", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match v.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_owned();
        let word = |b: Better| if b == Better::Higher { "higher" } else { "lower" };
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared = list(key);
            assert_eq!(declared.len(), defs.len(), "{key}");
            for (d, m) in declared.iter().zip(defs) {
                assert_eq!(
                    (text(d, "name"), text(d, "unit"), text(d, "better")),
                    (m.name.to_owned(), m.unit.to_owned(), word(m.better).to_owned())
                );
                if key == "end_to_end" {
                    assert_eq!(d.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
                }
            }
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workload::ALL.len());
        for (d, spec) in workloads.iter().zip(&crate::workload::ALL) {
            assert_eq!(
                (text(d, "name"), text(d, "why")),
                (spec.name.to_owned(), spec.why.to_owned())
            );
        }
    }
}
