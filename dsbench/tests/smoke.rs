//! Tiny-scale smoke run of every workload: every metric named in
//! `BENCHMARK.json` is printed with its unit, the oracle passes, and a
//! corrupted report shows up as a failed operation.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_seq)
        .expect(key)
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("dsbench-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the benchmark at tiny scale; returns its stdout and parsed result.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .arg("--out")
        .arg(out_dir())
        .args(extra)
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line").to_string();
    let v = serde_json::from_str(&last).expect("last line is JSON");
    (stdout, v)
}

fn count(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).expect(key)
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let m = manifest();
    let workloads = names(&m, "workloads");
    assert!(workloads.len() >= 2);
    for (workload, _) in &workloads {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (stdout, v) = run(workload, trace, &[]);
            assert!(
                stdout.contains("--seed"),
                "{workload}: output must say what --seed feeds"
            );
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{workload}");
            assert_eq!(count(&v, "failed"), 0, "{workload}");
            assert!(count(&v, "attempted") > 0, "{workload}");
            let metrics = v.get("metrics").and_then(Value::as_map).expect("metrics");
            let expected = names(&m, key);
            assert_eq!(metrics.len(), expected.len(), "{workload} {key}");
            for (name, unit) in expected {
                let got = v.get("metrics").and_then(|ms| ms.get(&name));
                let got = got.unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(got.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                let value = got.get("value").and_then(Value::as_f64).expect("value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{workload}: {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn a_perturbed_report_is_a_failed_operation() {
    for (workload, _) in names(&manifest(), "workloads") {
        let (_, v) = run(&workload, false, &["--perturb"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)), "{workload}");
        assert!(count(&v, "failed") >= 1, "{workload}");
    }
}

#[test]
fn the_traced_run_writes_spans_and_phases() {
    let (_, v) = run("ckpt_rand_rw_8c", true, &[]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    let path = out_dir().join("trace-ckpt_rand_rw_8c-seed5.json");
    let text = std::fs::read_to_string(path).expect("trace file");
    let t: Value = serde_json::from_str(&text).expect("trace file parses");
    let spans = t.get("spans").and_then(Value::as_seq).expect("spans");
    for name in ["sim.advance", "ckpt.encode", "ckpt.load", "ckpt.restore"] {
        assert!(
            spans
                .iter()
                .any(|s| s.get("name").and_then(Value::as_str) == Some(name)),
            "no {name} span"
        );
    }
    assert_eq!(
        t.get("phases").and_then(Value::as_seq).map(<[Value]>::len),
        Some(7)
    );
}
