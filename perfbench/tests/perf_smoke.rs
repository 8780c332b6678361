//! `perf --quick` end to end: every workload passes its correctness
//! check, every named metric is emitted, `--compare` reads the result
//! back, and nothing is left behind beside the executable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use garnet_perf::report::{Document, END_TO_END, PER_LAYER};
use garnet_perf::workload;

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .env_remove("GARNET_TEST_DRIVER")
        .env_remove("GARNET_TEST_BATCH")
        .env_remove("GARNET_TEST_MATCH_CACHE")
        .env_remove("GARNET_TEST_QOS")
        .output()
        .expect("the perf binary starts")
}

fn exe_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_perf")).parent().expect("the binary has a directory").to_owned()
}

fn assert_no_scratch_left() {
    let scratch = exe_dir().join("perf-scratch");
    let left: Vec<_> = std::fs::read_dir(&scratch).into_iter().flatten().flatten().collect();
    assert!(left.is_empty(), "scratch left behind: {left:?}");
}

#[test]
fn quick_run_is_correct_complete_and_comparable() {
    let result = exe_dir().join(format!("perf-smoke-{}.json", std::process::id()));
    let result_arg = result.to_str().expect("utf-8 path");

    let out = perf(&["--quick", "--out", result_arg]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perf --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Document::from_json(&std::fs::read_to_string(&result).expect("result written"))
        .expect("result parses");
    assert_eq!(doc.workloads.len(), workload::ALL.len());
    for ((name, e2e, layers), spec) in doc.workloads.iter().zip(&workload::ALL) {
        assert_eq!(name, spec.name);
        let layers = layers.as_ref().expect("a full run traces every workload");
        assert!(e2e.correct && layers.correct, "{name} failed its checks:\n{stdout}");
        assert_eq!((e2e.failed, layers.failed), (0, 0), "{name}");
        assert!(e2e.attempted >= 1 && layers.attempted >= 1);
        for m in &END_TO_END {
            let v = e2e.metrics.get(m.name).unwrap_or_else(|| panic!("{name}: no {}", m.name));
            assert!(*v > 0.0, "{name}: {} = {v} must never be 0", m.name);
            assert!(stdout.contains(m.name), "{} not printed by name", m.name);
        }
        for m in &PER_LAYER {
            assert!(layers.metrics.contains_key(m.name), "{name}: no {}", m.name);
            assert!(stdout.contains(m.name), "{} not printed by name", m.name);
        }
    }
    assert_no_scratch_left();

    // The same code against its own result: exactly one row per
    // workload run and metric (plus `failed`), every row with a value
    // on both sides, and an exit code that is a verdict, not a crash.
    // Quick runs are too short for the verdict itself to mean anything.
    let out = perf(&["--quick", "--compare", result_arg]);
    std::fs::remove_file(&result).expect("result removed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(matches!(out.status.code(), Some(0 | 1)), "compare crashed:\n{stdout}");
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .filter(|l| l.ends_with("ok") || l.ends_with("WORSE"))
        .map(|l| l.split_whitespace().collect())
        .collect();
    let mut expected = Vec::new();
    for spec in &workload::ALL {
        expected.extend(END_TO_END.iter().map(|m| (spec.name, m.name)));
        expected.push((spec.name, "failed"));
    }
    let got: Vec<(&str, &str)> = rows.iter().map(|r| (r[0], r[1])).collect();
    assert_eq!(got, expected, "{stdout}");
    for row in &rows {
        assert!(row[2..5].iter().all(|v| !v.contains("NaN")), "a side is missing:\n{stdout}");
        if row[1] == "failed" {
            assert_eq!(row[6], "ok", "{stdout}");
        }
    }
    assert_no_scratch_left();
}

#[test]
fn refuses_test_toggles_and_unknown_workloads_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--quick", "--workload", "steady-fifo"])
        .env("GARNET_TEST_DRIVER", "threaded")
        .output()
        .expect("the perf binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refusal prints no result");
    assert!(String::from_utf8_lossy(&out.stderr).contains("GARNET_TEST_DRIVER"));

    let out = perf(&["--quick", "--workload", "no-such-workload"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("steady-fifo"));

    let out = perf(&["--quick", "--compare", "/nonexistent/result.json"]);
    assert_eq!(out.status.code(), Some(2));
}
