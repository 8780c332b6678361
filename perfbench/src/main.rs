//! `perf` — the Garnet benchmark's entry point. See `PERF.md`.
//!
//! `perf --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload in this process and prints one JSON object last.
//! Without `--workload` it runs every workload, each in a process of
//! its own (so `peak_rss_mb` is that workload's alone), prints every
//! metric by name and writes one result document.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use garnet_perf::report::{
    compare, end_to_end_values, metrics_object, render_rows, result_line, Document, Parsed,
    END_TO_END, PER_LAYER,
};
use garnet_perf::run::{measure, EndToEnd, Plan, Scratch};
use garnet_perf::workload::{self, Spec};
use garnet_perf::{layers, onecore};

const USAGE: &str = "usage: perf [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
            [--quick] [--out <result.json>] [--compare <result.json>] [--selfcheck]
            [--trace-dir <dir>]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    plan: Plan,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<PathBuf>,
    selfcheck: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        plan: Plan { seed: 1, seconds: 10.0, quick: false },
        trace: false,
        out: None,
        compare: None,
        selfcheck: false,
        trace_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.plan.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.plan.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--quick" => args.plan.quick = true,
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some(value()?.into()),
            "--selfcheck" => args.selfcheck = true,
            "--trace-dir" => args.trace_dir = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.plan.seconds > 0.0 && args.plan.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// A measurement is only worth its name on an optimised build with no
/// test toggle steering the program's defaults.
fn refuse(plan: &Plan) -> Option<String> {
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_str().is_some_and(|k| k.starts_with("GARNET_TEST_")))
    {
        return Some(format!(
            "{} is set: unset every GARNET_TEST_* toggle",
            name.to_string_lossy()
        ));
    }
    if cfg!(debug_assertions) && !plan.quick {
        return Some(
            "built with debug assertions: measure with --release (or pass --quick)".into(),
        );
    }
    None
}

/// Confines the run to one core (see [`onecore`]) and says what the
/// host offered.
fn confine() -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if onecore::confine() {
        format!("host cores {cores}, run confined to one")
    } else {
        format!("host cores {cores}, run NOT confined to one: the kernel refused")
    }
}

fn print_end_to_end(spec: &Spec, plan: &Plan, host: &str, r: &EndToEnd) {
    let loop_kind = match spec.period_us {
        Some(p) => format!("open loop, a burst of {} due every {p} us", spec.burst),
        None => format!("closed loop, bursts of {}", spec.burst),
    };
    println!("{}  seed {}  {loop_kind}  engine {:?}  {host}", spec.name, plan.seed, spec.driver);
    let f = &r.frames_per_s;
    let stretches: Vec<String> = r.stretch_frames_per_s.iter().map(|v| format!("{v:.0}")).collect();
    println!(
        "  {:<26} {:>14.1} 1/s  ({:.1} ns/frame; median of {} slices of {} frames, q1 {:.1}, q3 {:.1}; per stretch: {})",
        "frames_per_s",
        f.median,
        1e9 / f.median,
        f.n,
        plan.slice_frames(spec),
        f.q1,
        f.q3,
        stretches.join(" ")
    );
    let l = &r.latency_p50_us;
    println!(
        "  {:<26} {:>14.3} us   (median of the slices' medians, q1 {:.3}, q3 {:.3}; {} samples)",
        "delivery_latency_p50_us", l.median, l.q1, l.q3, r.latency_samples
    );
    // The tails: printed, not gated — on a shared host they measure
    // the host (see PERF.md).
    for (name, l) in [
        ("p90".to_owned(), &r.latency_p90_us),
        (format!("p{}", r.tail_percentile), &r.latency_tail_us),
    ] {
        println!(
            "  {:<26} {:>14.3} us   (median over slices, q1 {:.3}, q3 {:.3})",
            format!("{name} latency, not gated"),
            l.median,
            l.q1,
            l.q3
        );
    }
    println!("  {:<26} {:>14.3} MB", "peak_rss_mb", r.peak_rss_mb);
    let s = &r.setup_s;
    println!(
        "  {:<26} {:>14.4} s    (q1 {:.4}, q3 {:.4}, n={} set-ups)",
        "setup_s", s.median, s.q1, s.q3, s.n
    );
    println!(
        "  {:<26} {:>14.6}      ({} of {} frames)",
        "failed_share",
        r.verdict.failed as f64 / r.attempted as f64,
        r.verdict.failed,
        r.attempted
    );
    println!(
        "  generator {:.1} ns/frame outside the timed region, late p99 {:.1} us; shutdown {:.3} ms",
        r.generator_ns_per_frame, r.late_p99_us, r.shutdown_ms
    );
    for note in &r.verdict.notes {
        println!("  FAILED: {note}");
    }
}

/// One workload, in this process.
fn run_one(spec: &'static Spec, args: &Args) -> Result<(), String> {
    // Before anything starts a thread: threads inherit the mask.
    let host = confine();
    let label = format!("{}-{}", spec.name, u8::from(args.trace));
    let scratch = Scratch::create(&label).map_err(|e| format!("scratch directory: {e}"))?;
    let io = |e: std::io::Error| format!("{}: {e}", spec.name);
    if args.trace {
        let t = layers::trace(spec, &args.plan, &scratch).map_err(io)?;
        println!("{}  seed {}  traced run  {host}", spec.name, args.plan.seed);
        for m in &PER_LAYER {
            println!("  {:<42} {:>16.4} {}", m.name, t.metrics[m.name], m.unit);
        }
        for note in &t.verdict.notes {
            println!("  FAILED: {note}");
        }
        if let Some(dir) = &args.trace_dir {
            std::fs::create_dir_all(dir).map_err(io)?;
            let path = dir.join(format!("trace-{}.jsonl", spec.name));
            let file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
            t.recorder.write_jsonl(file).map_err(io)?;
            println!("  {} spans written to {}", t.recorder.spans().len(), path.display());
        }
        let metrics = metrics_object(PER_LAYER.iter().map(|m| (m, t.metrics[m.name])));
        println!("{}", result_line(t.attempted, t.verdict.failed, &metrics));
    } else {
        let r = measure(spec, &args.plan, &scratch).map_err(io)?;
        print_end_to_end(spec, &args.plan, &host, &r);
        let metrics = metrics_object(END_TO_END.iter().zip(end_to_end_values(&r)));
        println!("{}", result_line(r.attempted, r.verdict.failed, &metrics));
    }
    Ok(())
}

/// Re-executes this binary for one workload and parses its last line.
fn run_child(spec: &Spec, args: &Args, trace: bool) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &args.plan.seed.to_string()])
        .args(["--seconds", &args.plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.plan.quick {
        cmd.arg("--quick");
    }
    if let Some(dir) = &args.trace_dir {
        cmd.arg("--trace-dir").arg(dir);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: could not start: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (human, _) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{human}");
    if !out.status.success() {
        return Err(format!("{}: exited with {}", spec.name, out.status));
    }
    Parsed::from_stdout(&stdout).map_err(|e| format!("{}: {e}", spec.name))
}

/// Every workload, each in its own process: untraced and — unless only
/// the end-to-end metrics are wanted, for a comparison — traced.
fn run_all(args: &Args, traced: bool) -> Result<Document, String> {
    let mut doc =
        Document { seed: args.plan.seed, seconds: args.plan.seconds, workloads: Vec::new() };
    for spec in &workload::ALL {
        let e2e = run_child(spec, args, false)?;
        let layers = if traced { Some(run_child(spec, args, true)?) } else { None };
        doc.workloads.push((spec.name.to_owned(), e2e, layers));
    }
    Ok(doc)
}

fn all_correct(doc: &Document) -> bool {
    doc.workloads.iter().all(|(_, e, l)| e.correct && l.as_ref().is_none_or(|l| l.correct))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some(why) = refuse(&args.plan) {
        return Err(format!("perf refuses to measure: {why}"));
    }
    if let Some(name) = &args.workload {
        let spec = workload::by_name(name).ok_or_else(|| {
            let names: Vec<_> = workload::ALL.iter().map(|s| s.name).collect();
            format!("no workload named {name}; there are: {}", names.join(", "))
        })?;
        // A printed result is a completed run, whatever its verdict: the
        // reader takes correctness from the line itself.
        return run_one(spec, &args).map(|()| true);
    }
    if args.selfcheck {
        let (a, b) = (run_all(&args, false)?, run_all(&args, false)?);
        let mut rows = compare(&a, &b);
        rows.extend(compare(&b, &a));
        print!("{}", render_rows(&rows));
        return Ok(rows.iter().all(|r| r.ok) && all_correct(&a) && all_correct(&b));
    }
    if let Some(path) = &args.compare {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let base = Document::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let now = run_all(&args, false)?;
        let rows = compare(&base, &now);
        print!("{}", render_rows(&rows));
        return Ok(rows.iter().all(|r| r.ok) && all_correct(&now));
    }
    let doc = run_all(&args, true)?;
    match &args.out {
        Some(path) => {
            std::fs::write(path, doc.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("result written to {}", path.display());
        }
        None => print!("{}", doc.to_json()),
    }
    Ok(all_correct(&doc))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
