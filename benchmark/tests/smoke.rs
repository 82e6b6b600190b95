//! `--smoke`: all six workloads at `*Config::test` scale must emit every
//! end-to-end and per-layer name `BENCHMARK.json` declares, exactly once
//! per applicable workload, with its unit; and the driver's line must
//! hold exactly what the contract asks for.

mod common;

use std::collections::BTreeSet;

use carlos_benchmark::spec::{self, Workload};
use common::{bench, json_parse, out_dir, read_json, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn declared(doc: &JsonValue, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_is_what_the_code_declares() {
    assert_eq!(BENCHMARK_JSON, spec::benchmark_json());
    let doc = json_parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
}

#[test]
fn smoke_run_emits_every_declared_metric_once_per_applicable_workload() {
    let out = out_dir("smoke-all");
    let stdout = bench(&["--smoke", "--out", out.to_str().unwrap()]);
    let results = read_json(&out.join("results.json"));
    let doc = json_parse(BENCHMARK_JSON).unwrap();
    let names: Vec<(String, String)> = declared(&doc, "end_to_end")
        .into_iter()
        .chain(declared(&doc, "per_layer"))
        .collect();
    assert_eq!(
        results.get("scale").and_then(JsonValue::as_str),
        Some("smoke")
    );
    assert!(results.get("pinned").is_some() && results.get("nproc").is_some());

    for w in Workload::ALL {
        let run = results
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .unwrap_or_else(|| panic!("{} missing from results.json", w.name()));
        assert_eq!(
            run.get("correct"),
            Some(&JsonValue::Bool(true)),
            "{}",
            w.name()
        );
        let mut emitted = BTreeSet::new();
        for table in ["end_to_end", "per_layer"] {
            for (name, m) in run.get(table).and_then(JsonValue::as_object).expect(table) {
                assert!(valid_name(name), "{name}");
                assert!(emitted.insert(name.clone()), "{name} in both tables");
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name}"
                );
                let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
                let declared_unit = names
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, u)| u.as_str());
                assert_eq!(Some(unit), declared_unit, "{}: {name}", w.name());
                // "Exactly once": it is also printed exactly once, by name.
                let line = format!("{}  {name} = ", w.name());
                assert_eq!(stdout.matches(&line).count(), 1, "{line}");
            }
        }
        for (name, _) in &names {
            let applicable = spec::applies(name, w).expect("declared names are known");
            assert_eq!(
                emitted.contains(name),
                applicable,
                "{}: {name} applicable {applicable}",
                w.name()
            );
        }
        // Spans: every repetition and traced/checked run was recorded.
        let spans = read_json(&out.join(format!("{}.spans.json", w.name())));
        let events = spans
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("spans");
        let has = |prefix: &str| {
            events.iter().any(|e| {
                e.get("name")
                    .and_then(JsonValue::as_str)
                    .is_some_and(|n| n.starts_with(prefix))
            })
        };
        for prefix in ["setup", "warmup", "rep #", "calibrate", "traced"] {
            assert!(has(prefix), "{}: no `{prefix}` span", w.name());
        }
    }
    // The fault-free workloads fail nothing; chaos reproduces its row.
    let fail_frac = |w: &str| {
        results.get("workloads").and_then(|ws| {
            ws.get(w)?
                .get("end_to_end")?
                .get("fail_frac")?
                .get("value")?
                .as_f64()
        })
    };
    for w in Workload::ALL {
        if w == Workload::KvChaos8 {
            assert!((fail_frac(w.name()).unwrap() - 317.0 / 1603.0).abs() < 1e-12);
        } else {
            assert_eq!(fail_frac(w.name()), Some(0.0), "{}", w.name());
        }
    }
}

/// The driver's protocol on one workload: the last line of stdout.
fn driver_metrics(workload: &str, trace: &str) -> Vec<(String, String)> {
    let out = out_dir(&format!("smoke-driver-{workload}-{trace}"));
    let stdout = bench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
        "--out",
        out.to_str().unwrap(),
    ]);
    let line = stdout.trim_end().lines().last().expect("a last line");
    let doc = json_parse(line).expect("the last line is one JSON object");
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    assert!(doc.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    assert_eq!(doc.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    doc.get("metrics")
        .and_then(JsonValue::as_object)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> = m.as_object().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["unit", "value"], "{name}");
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name}"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_owned(),
            )
        })
        .collect()
}

#[test]
fn driver_line_holds_exactly_the_declared_metrics() {
    let doc = json_parse(BENCHMARK_JSON).unwrap();
    let sorted = |mut v: Vec<(String, String)>| {
        v.sort();
        v
    };
    // Applications have no serving metrics and kv-chaos-8 injects
    // time-outs: both must still emit every name and report no failure.
    for w in ["qsort-hybrid-4", "kv-chaos-8"] {
        assert_eq!(
            driver_metrics(w, "0"),
            sorted(declared(&doc, "end_to_end")),
            "{w}"
        );
        assert_eq!(
            driver_metrics(w, "1"),
            sorted(declared(&doc, "per_layer")),
            "{w}"
        );
    }
}
