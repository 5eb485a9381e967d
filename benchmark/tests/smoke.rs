//! Smoke tests of the benchmark driver at tiny sizing: every workload
//! prints every metric `BENCHMARK.json` names, with its unit, and zero
//! failures; a planted fault is counted as a failure, never passed.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use agave_telemetry::parse::{parse, Value};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["characterize", "design_sweep", "serve_mix"];

/// `(name, unit)` of every metric of `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the driver at tiny sizing and parses its last stdout line.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_agave-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .args(extra)
        .output()
        .expect("run the driver");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("the result line is JSON")
}

fn assert_clean(result: &Value, workload: &str, section: &str) {
    let obj = result.as_object().expect("result object");
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64) >= Some(1),
        "{workload}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let want = declared(section);
    assert_eq!(metrics.len(), want.len(), "{workload}: metric count");
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload} {name}"
        );
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload} {name}: {value:?}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_zero_failures() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let result = run(workload, 100 + i as u64, false, &[]);
        assert_clean(&result, workload, "end_to_end");
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            assert!(value > 0.0, "{workload}: end-to-end {name} must not be 0");
        }
    }
}

/// The per-layer metrics each workload measures: all must be above 0.
/// The rest print 0, as do `serve.retries` without backpressure and the
/// two `layers.*` shares, which may sit at or below 0 on tiny rounds.
const MEASURED: [(&str, &[&str]); 3] = [
    (
        "characterize",
        &[
            "engine.sim_s",
            "engine.ns_per_block",
            "engine.blocks",
            "engine.words",
            "trace.batches",
            "replay.encode_s",
            "replay.encode_mb_per_s",
            "replay.bytes_per_record",
            "core.report_s",
            "replay.decode_mb_per_s",
            "replay.validate_mb_per_s",
            "analysis.summary_ns_per_block",
            "layers.traced_rounds",
        ],
    ),
    (
        "design_sweep",
        &[
            "engine.ns_per_block",
            "engine.blocks",
            "engine.words",
            "trace.batches",
            "replay.encode_mb_per_s",
            "replay.bytes_per_record",
            "replay.decode_s",
            "replay.decode_mb_per_s",
            "replay.validate_mb_per_s",
            "analysis.sweep_s",
            "analysis.sweep_ns_per_cell_block",
            "cache.accesses",
            "cache.l1_misses",
            "cache.l2_misses",
            "cache.walk_ns_per_block",
            "layers.traced_rounds",
        ],
    ),
    (
        "serve_mix",
        &[
            "engine.ns_per_block",
            "engine.blocks",
            "engine.words",
            "trace.batches",
            "replay.encode_mb_per_s",
            "replay.bytes_per_record",
            "replay.decode_mb_per_s",
            "replay.validate_mb_per_s",
            "analysis.summary_ns_per_block",
            "analysis.sketch_ns_per_block",
            "cache.walk_ns_per_block",
            "serve.queue_wait_p50_ms",
            "serve.handle_p50_ms",
            "serve.wire_p50_ms",
            "serve.upload_p50_ms",
            "serve.analyze_summary_p50_ms",
            "serve.analyze_cache_p50_ms",
            "serve.analyze_sketch_p50_ms",
            "serve.sweep_p50_ms",
            "serve.list_p50_ms",
            "serve.request_p99_ms",
            "serve.repeat_share",
            "layers.traced_rounds",
        ],
    ),
];

#[test]
fn every_workload_prints_every_per_layer_metric_with_zero_failures() {
    for (i, (workload, measured)) in MEASURED.iter().enumerate() {
        let result = run(workload, 200 + i as u64, true, &[]);
        assert_clean(&result, workload, "per_layer");
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        for name in *measured {
            let value = metrics
                .get(*name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload}: {name} is not measured ({value:?})"
            );
        }
    }
}

#[test]
fn planted_faults_are_counted_as_failures() {
    // characterize and design_sweep flip a byte in a recorded trace;
    // serve_mix tampers with one served response.
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let result = run(workload, 300 + i as u64, false, &["--plant-fault"]);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
        let failed = result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        assert!(failed >= 1, "{workload}: the planted fault passed silently");
    }
}
