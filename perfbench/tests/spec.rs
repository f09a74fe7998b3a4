//! `BENCHMARK.json` and the code must name the same workloads and metrics,
//! and the file must stay inside the driver's limits.

use std::collections::HashSet;
use std::path::Path;

use xorp_perfbench::json::Json;
use xorp_perfbench::spec;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn has_exactly_the_contract_keys() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths, [Json::str("perfbench")]);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(spec::RUN_SECONDS as f64)
    );
    let command = doc.get("command").and_then(Json::as_arr).unwrap();
    assert!(command.len() <= 32);
    assert!(command
        .iter()
        .any(|c| c.as_str() == Some("perfbench/Cargo.toml")));
}

#[test]
fn workloads_match_the_code() {
    let doc = benchmark_json();
    let listed = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), spec::WORKLOADS.len());
    assert!((2..=8).contains(&listed.len()));
    for (json, code) in listed.iter().zip(&spec::WORKLOADS) {
        assert_eq!(json.as_obj().unwrap().len(), 2, "exactly name and why");
        assert_eq!(text(json, "name"), code.name);
        assert_eq!(text(json, "why"), code.why);
        assert!(valid_name(code.name));
        assert!(
            code.why.len() <= 200 && !code.why.contains('\n'),
            "{}",
            code.why.len()
        );
        assert!(spec::workload(code.name).is_some());
    }
}

#[test]
fn metrics_match_the_code() {
    let doc = benchmark_json();
    let mut names = HashSet::new();
    for (key, defs, keys) in [
        ("end_to_end", spec::END_TO_END, 4),
        ("per_layer", spec::PER_LAYER, 3),
    ] {
        let listed = doc.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (json, def) in listed.iter().zip(defs) {
            assert_eq!(json.as_obj().unwrap().len(), keys, "{}", def.name);
            assert_eq!(text(json, "name"), def.name);
            assert_eq!(text(json, "unit"), def.unit);
            assert_eq!(text(json, "better"), def.better.as_str());
            assert!(valid_name(def.name) && valid_unit(def.unit), "{}", def.name);
            assert!(names.insert(def.name), "{} used twice", def.name);
            assert!(names.iter().all(|n| spec::workload(n).is_none()));
            if key == "end_to_end" {
                let bound = json.get("bound").and_then(Json::as_f64).unwrap();
                assert_eq!(bound, def.bound, "{}", def.name);
                assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
            } else {
                assert_eq!(def.bound, 0.0, "{}", def.name);
            }
        }
    }
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let widest = spec::END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
}
