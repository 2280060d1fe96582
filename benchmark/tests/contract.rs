//! The benchmark's contract with its driver, checked end to end:
//! `BENCHMARK.json` and the spec tables name the same workloads and
//! metrics, and a run of every workload (at `--smoke` size) prints exactly
//! those names — no more, no fewer — with units, on its last line.

use dpa_benchmark::json::Json;
use dpa_benchmark::spec::{self, MetricSpec};
use std::collections::BTreeSet;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("string {key:?} in {v:?}"))
}

/// Hold one metric list of the manifest to its spec table, entry by entry.
fn assert_metrics_match(listed: &Json, table: &[MetricSpec], with_bound: bool) {
    let listed = listed.as_arr().expect("a metric list");
    assert_eq!(listed.len(), table.len(), "metric count");
    for (entry, m) in listed.iter().zip(table) {
        let want_keys: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(entry), want_keys, "keys of {entry:?}");
        assert_eq!(str_of(entry, "name"), m.name);
        assert_eq!(str_of(entry, "unit"), m.unit, "unit of {}", m.name);
        assert_eq!(
            str_of(entry, "better"),
            m.better.as_str(),
            "direction of {}",
            m.name
        );
        if with_bound {
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                m.bound,
                "bound of {}",
                m.name
            );
        }
    }
}

#[test]
fn manifest_mirrors_the_spec_tables() {
    let b = manifest();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ],
        "BENCHMARK.json has exactly the contract's keys"
    );

    let paths: Vec<&str> = b
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = b
        .get("command")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(
        command.contains(&"benchmark/Cargo.toml"),
        "the command builds this package: {command:?}"
    );
    assert!(
        command
            .iter()
            .all(|c| !c.starts_with('/') && !c.contains("..")),
        "{command:?}"
    );
    let seconds = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = b.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, spec::WORKLOADS);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "why of {}: {} chars",
            str_of(w, "name"),
            why.len()
        );
    }

    assert_metrics_match(b.get("end_to_end").unwrap(), spec::END_TO_END, true);
    assert_metrics_match(b.get("per_layer").unwrap(), spec::PER_LAYER, false);
}

/// One single-run invocation of the built binary at `--smoke` size.
fn run_once(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_dpa-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env_remove("DPA_SIM_THREADS")
        .env_remove("DPA_SIM_QUEUE")
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Json::parse(stdout.lines().last().expect("a result line"))
        .expect("the last line is the result object")
}

#[test]
fn every_workload_emits_exactly_the_names_of_record() {
    for workload in spec::WORKLOADS {
        for (trace, table) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
            let r = run_once(workload, trace);
            assert_eq!(
                keys(&r),
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                r.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} trace={trace}"
            );
            assert_eq!(
                r.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload} trace={trace}"
            );
            assert!(r.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

            let metrics = r.get("metrics").unwrap();
            let got: BTreeSet<&str> = keys(metrics).into_iter().collect();
            let want: BTreeSet<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{workload} trace={trace}: metric names");
            for m in table {
                let entry = metrics.get(m.name).unwrap();
                assert_eq!(keys(entry), ["value", "unit"]);
                assert_eq!(str_of(entry, "unit"), m.unit);
                let value = entry.get("value").and_then(Json::as_f64);
                let value =
                    value.unwrap_or_else(|| panic!("{workload}: {} is not a number", m.name));
                // An end-to-end metric that read 0 would make every later
                // relative comparison meaningless.
                assert!(
                    value.is_finite() && (trace || value > 0.0),
                    "{workload}: {} = {value}",
                    m.name
                );
            }
        }
        let trace_file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/trace-{workload}.json"));
        let trace = Json::parse(
            &std::fs::read_to_string(&trace_file).expect("the traced run wrote its trace"),
        )
        .unwrap();
        assert!(
            !trace
                .get("traceEvents")
                .and_then(Json::as_arr)
                .unwrap()
                .is_empty(),
            "{workload}: empty trace"
        );
    }
}

#[test]
fn refuses_to_run_with_the_engine_overrides_set() {
    for var in ["DPA_SIM_THREADS", "DPA_SIM_QUEUE"] {
        let out = Command::new(env!("CARGO_BIN_EXE_dpa-benchmark"))
            .args([
                "--workload",
                "bh16",
                "--seed",
                "1",
                "--seconds",
                "0.1",
                "--trace",
                "0",
                "--smoke",
            ])
            .env(var, "2")
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{var} set");
        assert!(out.stdout.is_empty(), "no result line when refusing");
    }
}
