//! Runs the benchmark's smoke mode on every workload, untraced and
//! traced, and checks the result line against `BENCHMARK.json`.

use std::process::Command;

const WORKLOADS: &[&str] = &["corpus_cold", "corpus_warm", "served_warm"];

/// Metric names of one section of `BENCHMARK.json`.
fn names(spec: &str, section: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has {section}"));
    let body = &spec[start..start + spec[start..].find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate")
}

fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .env_remove("SLING_PARALLELISM")
        .env_remove("SLING_VERIFY")
        .env_remove("SLING_EXECUTOR")
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    (stdout, last)
}

#[test]
fn every_workload_reports_every_metric() {
    let spec = spec();
    for workload in WORKLOADS {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (stdout, last) = run(workload, trace);
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {stdout}"
            );
            assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
            for name in names(&spec, section) {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} trace={trace} lacks {name}: {last}"
                );
                assert!(
                    stdout.contains(&format!("metric {name} ")),
                    "{name} in the table"
                );
            }
            if trace == 1 {
                assert!(!stdout.contains("traced replay differs"), "{stdout}");
            }
        }
    }
}

#[test]
fn set_variables_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "corpus_cold",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("SLING_PARALLELISM", "1")
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result is printed");
}
