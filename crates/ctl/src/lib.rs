//! `garnetctl`: operator-side inspector for the Garnet telemetry plane.
//!
//! A Garnet node with [`TelemetryConfig::sink_dir`] set exports one
//! JSONL line per telemetry window into a rotating
//! `telemetry-NNNNNN.jsonl` series (see [`garnet_core::telemetry`]). This
//! crate is the other half of that contract: it parses the sink back
//! into the node's own [`TelemetrySnapshot`] values ([`parse_snapshot`],
//! whose output renders back to the line it read) and renders operator
//! views — rate tables (`dump`), a compact per-window log (`tail`), the
//! latest health verdict (`health`, with the state as the exit code,
//! escalated by the node's own starvation rule), and per-stage roll-ups
//! of a flight-recorder drain (`trace`).
//!
//! The parser is a minimal recursive-descent JSON reader with a nesting
//! cap. The sink serialiser is hand-rolled on the node side (no JSON
//! dependency in the data path) and this crate mirrors that choice: its
//! one dependency is `garnet-core`, for the types it parses into. It
//! accepts any JSON, not just the exact byte shapes the node emits.
//!
//! [`TelemetryConfig::sink_dir`]: garnet_core::telemetry::TelemetryConfig::sink_dir

// The inspector parses whatever a sink holds: a malformed line is an
// error message, never an unwrap, expect or panic!.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use garnet_core::telemetry::{
    starved_classes, GaugeSummary, HealthReport, HealthState, HistogramSummary, TelemetrySnapshot,
};
use garnet_core::PriorityClass;

/// A parsed JSON value. Integers that fit `u64` are kept exact
/// ([`Json::Int`]) — telemetry counters are `u64` and must not round
/// through `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse_json`] accepts. A telemetry
/// line nests three deep and a benchmark report four, so this only stops
/// a hostile line from recursing the reader off its stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document, rejecting trailing garbage and arrays or
/// objects nested more than 128 deep.
///
/// # Errors
///
/// A message naming the byte offset and what went wrong.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, `depth` arrays/objects deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_owned())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash as one
                // slice: both stops are ASCII, so a run cut from `&str`
                // input is whole UTF-8, and each byte is checked once.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// Parses one sink line back into the node's own [`TelemetrySnapshot`],
/// the inverse of [`TelemetrySnapshot::to_jsonl`]. A health label other
/// than `healthy` or `degraded` parses as critical (an operator tool must
/// not underreport); a `healthy` line's reasons are dropped, as a healthy
/// report holds none.
///
/// # Errors
///
/// Invalid JSON or a line without the snapshot's required fields.
pub fn parse_snapshot(line: &str) -> Result<TelemetrySnapshot, String> {
    let v = parse_json(line)?;
    let u = |key: &str| {
        v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing numeric field {key:?}"))
    };
    let (seq, window_start_us, window_end_us) =
        (u("seq")?, u("window_start_us")?, u("window_end_us")?);
    let label = v.get("health").and_then(Json::as_str).ok_or("missing field \"health\"")?;
    let match_cache_hit_ppm = u("match_cache_hit_ppm")?;
    let reasons = match v.get("reasons") {
        Some(Json::Arr(reasons)) => {
            reasons.iter().filter_map(Json::as_str).map(str::to_owned).collect()
        }
        _ => Vec::new(),
    };
    let state = match label {
        "healthy" => HealthState::Healthy,
        "degraded" => HealthState::Degraded { reasons },
        _ => HealthState::Critical { reasons },
    };
    // Each object-valued section, as (name, member) pairs; a missing or
    // non-object section is empty.
    let section = |key: &str| match v.get(key) {
        Some(Json::Obj(members)) => members.as_slice(),
        _ => &[],
    };
    let numbers = |key: &str| -> BTreeMap<String, u64> {
        section(key)
            .iter()
            .filter_map(|(name, value)| Some((name.clone(), value.as_u64()?)))
            .collect()
    };
    let field = |member: &Json, key: &str| member.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(TelemetrySnapshot {
        seq,
        window_start_us,
        window_end_us,
        counters: numbers("counters"),
        deltas: numbers("deltas"),
        histograms: section("histograms")
            .iter()
            .map(|(name, h)| {
                let summary = HistogramSummary {
                    count: field(h, "count"),
                    mean: h.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
                    p50: field(h, "p50"),
                    p90: field(h, "p90"),
                    p99: field(h, "p99"),
                    min: field(h, "min"),
                    max: field(h, "max"),
                };
                (name.clone(), summary)
            })
            .collect(),
        gauges: section("gauges")
            .iter()
            .map(|(name, g)| {
                let summary = GaugeSummary {
                    last: field(g, "last"),
                    min: field(g, "min"),
                    max: field(g, "max"),
                    samples: field(g, "samples"),
                };
                (name.clone(), summary)
            })
            .collect(),
        match_cache_hit_ppm,
        health: HealthReport { state },
    })
}

/// The sink files of `dir` in emission order (`telemetry-*.jsonl`,
/// ascending index).
///
/// # Errors
///
/// Directory I/O failure.
pub fn sink_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("telemetry-") && n.ends_with(".jsonl"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Every snapshot in the sink directory, in emission order. Unparsable
/// lines abort with their file and line number — a telemetry sink is
/// machine-written, so damage means truncation worth surfacing, not
/// noise worth skipping.
///
/// # Errors
///
/// Directory or file I/O failure, or a corrupt line.
pub fn load_sink(dir: &Path) -> Result<Vec<TelemetrySnapshot>, String> {
    let mut snapshots = Vec::new();
    for path in sink_files(dir)? {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let snap =
                parse_snapshot(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            snapshots.push(snap);
        }
    }
    Ok(snapshots)
}

/// Left-pads `s` to `width`.
fn pad(s: &str, width: usize) -> String {
    format!("{s:>width$}")
}

/// The rate table for one window: every counter that moved, its delta
/// and its per-second rate, plus latency quantiles and depth
/// watermarks.
pub fn render_rates(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "window #{} [{} .. {}] {:.3}s  health={}",
        snap.seq,
        snap.window_start_us,
        snap.window_end_us,
        snap.window_secs(),
        snap.health.label()
    );
    for reason in snap.health.reasons() {
        let _ = writeln!(out, "  ! {reason}");
    }
    let _ = writeln!(out, "  match_cache_hit_ppm={}", snap.match_cache_hit_ppm);
    let _ = writeln!(out, "  {} {} {}", pad("counter", 36), pad("delta", 12), pad("rate/s", 12));
    for (name, delta) in &snap.deltas {
        if *delta == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {} {} {}",
            pad(name, 36),
            pad(&delta.to_string(), 12),
            pad(&format!("{:.1}", snap.rate_per_sec(name)), 12)
        );
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(
            out,
            "  {} {} {} {} {} {}",
            pad("histogram", 36),
            pad("count", 10),
            pad("p50", 8),
            pad("p90", 8),
            pad("p99", 8),
            pad("max", 8)
        );
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "  {} {} {} {} {} {}",
                pad(name, 36),
                pad(&h.count.to_string(), 10),
                pad(&h.p50.to_string(), 8),
                pad(&h.p90.to_string(), 8),
                pad(&h.p99.to_string(), 8),
                pad(&h.max.to_string(), 8)
            );
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(
            out,
            "  {} {} {} {} {}",
            pad("gauge", 36),
            pad("last", 10),
            pad("min", 8),
            pad("max", 8),
            pad("samples", 10)
        );
        for (name, g) in &snap.gauges {
            let _ = writeln!(
                out,
                "  {} {} {} {} {}",
                pad(name, 36),
                pad(&g.last.to_string(), 10),
                pad(&g.min.to_string(), 8),
                pad(&g.max.to_string(), 8),
                pad(&g.samples.to_string(), 10)
            );
        }
    }
    out
}

/// One compact line per window (for `tail`).
pub fn render_tail_line(snap: &TelemetrySnapshot) -> String {
    let offered = snap.deltas.get("overload.offered").copied().unwrap_or(0);
    let shed = snap.deltas.get("overload.shed").copied().unwrap_or(0);
    let p99 = snap.histograms.get("pipeline.e2e_latency_us").map_or(0, |h| h.p99);
    format!(
        "#{seq:<5} end={end:<12} {health:<8} offered={offered:<8} shed={shed:<6} e2e_p99_us={p99}",
        seq = snap.seq,
        end = snap.window_end_us,
        health = snap.health.label(),
    )
}

/// Exit severity for the `health` subcommand: the node's own verdict,
/// escalated to critical when the window shows a starved QoS class
/// ([`starved_classes`]) the node did not score.
pub fn health_severity(snap: &TelemetrySnapshot) -> u64 {
    if starved_classes(&snap.deltas).is_empty() {
        snap.health.severity()
    } else {
        2
    }
}

/// The health view over the latest window (for `health`).
pub fn render_health(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "health: {}", snap.health.label());
    let _ = writeln!(out, "window: #{} ending at {}us", snap.seq, snap.window_end_us);
    for reason in snap.health.reasons() {
        let _ = writeln!(out, "reason: {reason}");
    }
    let delta = |class: PriorityClass, what: &str| {
        snap.deltas.get(&format!("qos.{}.{what}", class.name())).copied().unwrap_or(0)
    };
    if PriorityClass::ALL.into_iter().any(|class| delta(class, "offered") > 0) {
        for class in PriorityClass::ALL {
            let _ = writeln!(
                out,
                "qos.{}: offered={} shed={} coalesced={} delivered={}",
                class.name(),
                delta(class, "offered"),
                delta(class, "shed"),
                delta(class, "coalesced"),
                delta(class, "delivered"),
            );
        }
    }
    for (class, offered) in starved_classes(&snap.deltas) {
        let _ = writeln!(out, "starved class: {} ({offered} offered, 0 delivered)", class.name());
    }
    out
}

/// Per-stage roll-up of a flight-recorder drain (`trace` subcommand):
/// hop counts per stage/kind/outcome triple, in first-seen order.
///
/// # Errors
///
/// A corrupt (non-JSON) line, with its line number.
pub fn render_trace_rollup(jsonl: &str) -> Result<String, String> {
    let mut order: Vec<(String, String, String)> = Vec::new();
    let mut hops: BTreeMap<(String, String, String), u64> = BTreeMap::new();
    let mut total = 0u64;
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |key: &str| v.get(key).and_then(Json::as_str).unwrap_or("?").to_owned();
        let key = (field("stage"), field("kind"), field("outcome"));
        if !hops.contains_key(&key) {
            order.push(key.clone());
        }
        *hops.entry(key).or_insert(0) += 1;
        total += 1;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} {} {} {}",
        pad("stage", 12),
        pad("kind", 10),
        pad("outcome", 10),
        pad("hops", 10)
    );
    for key in &order {
        let _ = writeln!(
            out,
            "{} {} {} {}",
            pad(&key.0, 12),
            pad(&key.1, 10),
            pad(&key.2, 10),
            pad(&hops[key].to_string(), 10)
        );
    }
    let _ = writeln!(out, "total hops: {total}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"seq":3,"window_start_us":1000,"window_end_us":3000,"health":"degraded","reasons":["shed ratio 2000ppm >= 1000ppm"],"match_cache_hit_ppm":500000,"counters":{"overload.offered":100,"telemetry.windows":3},"deltas":{"overload.offered":40,"overload.shed":2},"histograms":{"pipeline.e2e_latency_us":{"count":40,"mean":12.500,"p50":12,"p90":14,"p99":15,"min":10,"max":15}},"gauges":{"overload.queue_depth":{"last":4,"min":1,"max":9,"samples":40}}}"#;

    #[test]
    fn parses_a_snapshot_line() {
        let snap = parse_snapshot(LINE).unwrap();
        assert_eq!(snap.seq, 3);
        assert_eq!(snap.health.label(), "degraded");
        assert_eq!(snap.health.severity(), 1);
        assert_eq!(snap.health.reasons().len(), 1);
        assert_eq!(snap.counters["overload.offered"], 100);
        assert_eq!(snap.deltas["overload.shed"], 2);
        let h = &snap.histograms["pipeline.e2e_latency_us"];
        assert_eq!((h.count, h.p50, h.p99, h.max), (40, 12, 15, 15));
        assert!((h.mean - 12.5).abs() < 1e-9);
        let g = &snap.gauges["overload.queue_depth"];
        assert_eq!((g.last, g.min, g.max, g.samples), (4, 1, 9, 40));
        // 40 offered over the 2ms window → 20k/s.
        assert!((snap.rate_per_sec("overload.offered") - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a":[1,2.5,"x\ny",{"b":null,"c":true}],"d":"A"}"#).unwrap();
        assert_eq!(v.get("d").and_then(Json::as_str), Some("A"));
        let Some(Json::Arr(items)) = v.get("a") else { panic!("array") };
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_str(), Some("x\ny"));
        assert_eq!(items[3].get("b"), Some(&Json::Null));
        assert!(parse_json("{\"a\":1}garbage").is_err());
        assert!(parse_json("{\"a\":").is_err());
        let text = parse_json(r#""h\u00e9llo \"w\u00f6rld\" \u2192 pr\u00fcfen \/ ok""#).unwrap();
        assert_eq!(text.as_str(), Some("héllo \"wörld\" → prüfen / ok"));
        assert_eq!(parse_json("\"→ wörld\"").unwrap().as_str(), Some("→ wörld"));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let line = open.repeat(1_000_000);
            assert!(parse_json(&line).unwrap_err().contains("nesting deeper than 128"));
            assert!(parse_snapshot(&line).is_err());
        }
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_json(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn an_unknown_health_label_parses_as_critical() {
        let line = LINE.replacen("\"health\":\"degraded\"", "\"health\":\"on fire\"", 1);
        let snap = parse_snapshot(&line).unwrap();
        assert_eq!(snap.health.label(), "critical");
        assert_eq!(snap.health.reasons(), ["shed ratio 2000ppm >= 1000ppm"]);
        assert_eq!(health_severity(&snap), 2);
    }

    #[test]
    fn json_string_parse_is_linear_in_its_length() {
        let line = format!("{{\"s\":\"{}\\n\"}}", "é".repeat(2 << 20));
        let start = std::time::Instant::now();
        let v = parse_json(&line).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(5), "{:?}", start.elapsed());
        assert_eq!(v.get("s").and_then(Json::as_str).map(str::len), Some((4 << 20) + 1));
    }

    #[test]
    fn rate_table_lists_moved_counters_only() {
        let snap = parse_snapshot(LINE).unwrap();
        let table = render_rates(&snap);
        assert!(table.contains("overload.offered"));
        assert!(table.contains("health=degraded"));
        assert!(table.contains("shed ratio"));
        // telemetry.windows moved 0 this window (absent from deltas).
        assert!(!table.contains("telemetry.windows"));
    }

    #[test]
    fn tail_and_health_views_render() {
        let snap = parse_snapshot(LINE).unwrap();
        let line = render_tail_line(&snap);
        assert!(line.contains("#3"));
        assert!(line.contains("degraded"));
        assert!(line.contains("e2e_p99_us=15"));
        let health = render_health(&snap);
        assert!(health.starts_with("health: degraded"));
    }

    #[test]
    fn health_view_flags_a_starved_qos_class() {
        // A sink line whose node-side scorer missed the starvation:
        // health says healthy, but the deltas show a data class that
        // was offered frames and delivered none.
        let line = LINE
            .replacen("\"health\":\"degraded\"", "\"health\":\"healthy\"", 1)
            .replacen("\"reasons\":[\"shed ratio 2000ppm >= 1000ppm\"]", "\"reasons\":[]", 1)
            .replacen(
                "\"deltas\":{",
                "\"deltas\":{\"qos.control.offered\":5,\"qos.control.delivered\":5,\
                 \"qos.data.offered\":9,\"qos.data.delivered\":0,",
                1,
            );
        let snap = parse_snapshot(&line).unwrap();
        assert_eq!(snap.health.severity(), 0);
        assert_eq!(starved_classes(&snap.deltas), [(PriorityClass::Data, 9)]);
        assert_eq!(health_severity(&snap), 2, "starvation escalates the exit code");
        let view = render_health(&snap);
        assert!(view.contains("starved class: data (9 offered, 0 delivered)"));
        assert!(view.contains("qos.control: offered=5 shed=0 coalesced=0 delivered=5"));
        // A window with no qos rows renders no qos table and no flags.
        let plain = parse_snapshot(LINE).unwrap();
        assert!(starved_classes(&plain.deltas).is_empty());
        assert_eq!(health_severity(&plain), 1);
        assert!(!render_health(&plain).contains("qos."));
    }

    #[test]
    fn sink_loads_in_rotation_order() {
        let dir = std::env::temp_dir().join(format!("garnetctl-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let line = |seq: u64| LINE.replacen("\"seq\":3", &format!("\"seq\":{seq}"), 1);
        std::fs::write(dir.join("telemetry-000000.jsonl"), format!("{}\n{}\n", line(1), line(2)))
            .unwrap();
        std::fs::write(dir.join("telemetry-000001.jsonl"), format!("{}\n", line(3))).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let snaps = load_sink(&dir).unwrap();
        assert_eq!(snaps.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_rollup_counts_stage_hops() {
        let jsonl = concat!(
            "{\"at_us\":1,\"stage\":\"ingest\",\"kind\":\"frame\",\"outcome\":\"ok\",\"age_us\":0}\n",
            "{\"at_us\":2,\"stage\":\"ingest\",\"kind\":\"frame\",\"outcome\":\"ok\",\"age_us\":1}\n",
            "{\"at_us\":3,\"stage\":\"dispatch\",\"kind\":\"deliver\",\"outcome\":\"ok\",\"age_us\":2}\n",
        );
        let table = render_trace_rollup(jsonl).unwrap();
        assert!(table.contains("total hops: 3"));
        assert!(table.contains("ingest"));
        assert!(table.contains("dispatch"));
        assert!(render_trace_rollup("not json\n").is_err());
    }
}
