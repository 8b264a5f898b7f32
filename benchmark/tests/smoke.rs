//! Smoke test of the benchmark binary: every workload emits every metric
//! named for it, with its unit, and passes its output checks; the metric
//! lists agree with `BENCHMARK.json`.  That a corrupted result digest is
//! caught is tested in `src/check.rs`.  Run it optimised:
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use grasp_benchmark::{end_to_end_of, END_TO_END, PER_LAYER, STREAM_END_TO_END, WORKLOADS};
use std::process::Command;

/// Run the benchmark and return its stdout.
fn run(workload: &str, traced: bool, out: &std::path::Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_grasp-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} (traced: {traced}) failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// Check the result line names exactly `metrics`, each with its unit, and
/// reports a correct run without failures.
fn check_result(stdout: &str, metrics: &[(&str, &str)]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");
    assert!(last.contains("\"failed\":0,"), "{last}");
    for (name, unit) in metrics {
        let entry = format!("\"{name}\":{{\"value\":");
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing from {last}"));
        let rest = &last[at + entry.len()..];
        let value: f64 = rest[..rest.find(',').expect("value then unit")]
            .parse()
            .expect("a numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest.contains(&format!("\"unit\":\"{unit}\"")),
            "{name} lacks unit {unit}"
        );
    }
    assert_eq!(
        last.matches("\"value\":").count(),
        metrics.len(),
        "exactly the named metrics: {last}"
    );
}

fn out_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("an output directory");
    dir
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let out = out_dir("untraced");
    for workload in WORKLOADS {
        check_result(&run(workload, false, &out), &end_to_end_of(workload));
    }
}

#[test]
fn a_traced_run_reports_every_layer_and_writes_a_chrome_trace() {
    let out = out_dir("traced");
    check_result(&run("farm-threads", true, &out), PER_LAYER);
    let trace = std::fs::read_to_string(out.join("trace-farm-threads-7.json"))
        .expect("the trace file is written");
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    for span in [
        "threads.execute",
        "proc.execute",
        "sim.execute",
        "service job",
    ] {
        assert!(trace.contains(&format!("\"name\":\"{span}\"")), "{span}");
    }
}

#[test]
fn benchmark_json_lists_the_same_metrics_and_workloads() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let section = |key: &str, next: &str| -> String {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let end = json[start..]
            .find(&format!("\"{next}\""))
            .map_or(json.len(), |e| start + e);
        json[start..end].to_string()
    };
    let names = |text: &str| -> Vec<String> {
        text.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    };
    // Every gated workload is one the binary runs (service-stream runs but
    // is not gated; see README.md).
    let workloads = names(&section("workloads", "end_to_end"));
    assert!(!workloads.is_empty());
    assert!(
        workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())),
        "{workloads:?}"
    );
    let e2e = section("end_to_end", "per_layer");
    assert_eq!(
        names(&e2e),
        END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    let layers = section("per_layer", "run_seconds");
    assert_eq!(
        names(&layers),
        PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    // Metrics only the ungated service-stream reports are not listed.
    for (name, _) in STREAM_END_TO_END {
        assert!(!json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry}");
    }
}
