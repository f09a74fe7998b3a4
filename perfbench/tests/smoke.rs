//! The benchmark through its command line, at smoke-test size: every
//! workload, end to end and traced, must report every metric
//! `BENCHMARK.json` names exactly once, finite, with nothing failed.

use std::collections::HashSet;
use std::path::Path;
use std::process::Command;

use xorp_perfbench::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_xorp-bench");

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn quick_runs_report_every_metric_once() {
    let spec = Json::parse(
        &std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .unwrap(),
    )
    .unwrap();
    for workload in names(&spec, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(BIN)
                .args(["--workload", &workload, "--seed", "7", "--seconds", "3"])
                .args(["--trace", trace, "--quick"])
                .output()
                .expect("run xorp-bench");
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).unwrap();
            let result = Json::parse(stdout.lines().last().unwrap()).expect("result line");
            let keys: Vec<&str> = result.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

            let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
            let expected = names(&spec, key);
            let mut seen = HashSet::new();
            for (name, m) in metrics {
                assert!(seen.insert(name.clone()), "{name} reported twice");
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(m.get("unit").and_then(Json::as_str).is_some());
                // Every metric also appears by name, with its unit, in
                // the text above the result line.
                assert!(
                    stdout.lines().any(|l| l.starts_with(name.as_str())),
                    "{name}"
                );
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload}: {name} must never be 0");
                }
            }
            assert_eq!(
                seen,
                expected.iter().cloned().collect::<HashSet<_>>(),
                "{workload} trace {trace}"
            );
        }
        // The traced run leaves its spans behind, as one JSON document.
        let trace = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace_{workload}.json"));
        let doc = Json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert!(spans.len() > 100);
        assert!(spans
            .iter()
            .any(|s| s.get("parent").and_then(Json::as_f64) == Some(0.0)));
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such", "--seed", "1"][..],
        &["--workload", "full_b1"],
        &["--workload", "full_b1", "--seed", "1", "--trace", "2"],
        &["compare", "/nonexistent/a.json"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
