//! The benchmark against its own contract: `BENCHMARK.json` and the tables
//! in `metrics.rs` name the same metrics, and a `--quick` run of every
//! workload prints every one of them with nothing failing.

use beas_benchmark::json::Json;
use beas_benchmark::metrics::{END_TO_END, PER_LAYER};
use beas_benchmark::script::WORKLOADS;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(section: &Json) -> Vec<(String, String)> {
    section
        .as_arr()
        .expect("an array of metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_and_the_metric_tables_agree() {
    let spec = benchmark_json();
    assert_eq!(
        names_and_units(spec.get("end_to_end").unwrap()),
        owned(&END_TO_END)
    );
    assert_eq!(
        names_and_units(spec.get("per_layer").unwrap()),
        owned(&PER_LAYER)
    );
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, known);
    // the regression bounds parse, sit inside the driver's limit, and
    // set-up time carries the widest
    let bounds = beas_benchmark::compare::bounds_of(&spec).unwrap();
    assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    let widest = bounds.iter().map(|b| b.bound).fold(0.0, f64::max);
    assert_eq!(
        bounds.iter().find(|b| b.name == "setup_s").unwrap().bound,
        widest
    );
}

/// Run the built binary on one workload at smoke-test size and parse the
/// last line it prints.
fn quick_run(workload: &str, trace: &str) -> Json {
    let scratch = std::env::temp_dir().join(format!("beas_benchmark_smoke_{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_beas_benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--quick"])
        .env("CARGO_TARGET_DIR", &scratch)
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} --trace {trace}: {stderr}"
    );
    if trace == "1" {
        let spans = scratch
            .join("beas_benchmark")
            .join(format!("trace-{workload}.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
        assert!(text.lines().count() >= 200, "{workload}: too few spans");
        assert!(text.lines().all(|l| Json::parse(l).is_ok()));
        std::fs::remove_dir_all(&scratch).expect("scratch directory removes");
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses")
}

#[test]
fn quick_run_emits_every_metric_on_every_workload_and_nothing_fails() {
    for workload in &WORKLOADS {
        for (trace, declared) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let result = quick_run(workload.name, trace);
            let what = format!("{} --trace {trace}", workload.name);
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
            assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0), "{what}");
            assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            let metrics = result.get("metrics").unwrap().as_obj().unwrap();
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let wanted: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, wanted, "{what}");
            for ((name, m), (_, unit)) in metrics.iter().zip(declared) {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{what}: {name}");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                // an end-to-end metric is never 0: every workload reads,
                // writes, accesses tuples and occupies memory
                assert!(trace == "1" || value.unwrap() > 0.0, "{what}: {name} is 0");
            }
        }
    }
}

#[test]
fn usage_errors_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--bogus"],
        &["--trace", "2"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_beas_benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
