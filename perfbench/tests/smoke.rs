//! Fast smoke runs of every workload: each metric `BENCHMARK.json` names is
//! emitted with its unit, the correctness checks ran, and the I/O counts
//! repeat at a fixed seed.

mod json;

use std::path::PathBuf;
use std::process::Command;

use json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_perfbench");

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: PathBuf) -> Json {
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn benchmark() -> Json {
    read_json(manifest_dir().join("../BENCHMARK.json"))
}

struct Run {
    stdout: String,
    result: Json,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(EXE)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    Run { stdout, result }
}

/// (name, unit) of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark()
        .get(list)
        .expect("metric list")
        .arr()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_workload(workload: &str, checks: &[&str]) {
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let r = run(workload, 7, trace);
        let res = &r.result;
        assert_eq!(
            res.keys(),
            ["attempted", "correct", "failed", "metrics"],
            "result keys"
        );
        assert_eq!(res.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(res.get("failed").and_then(Json::num), Some(0.0));
        assert!(res.get("attempted").and_then(Json::num).expect("attempted") >= 1.0);
        let metrics = res.get("metrics").expect("metrics");
        let want = declared(list);
        let mut names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        assert_eq!(metrics.keys(), names, "{workload}: emitted {list} metrics");
        for (name, unit) in &want {
            let m = metrics.get(name).expect("declared metric");
            assert_eq!(
                m.get("unit").and_then(Json::str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = m.get("value").and_then(Json::num).expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            if trace == 0 {
                assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
            }
            let line = format!("{name} = ");
            assert!(
                r.stdout
                    .lines()
                    .any(|l| l.starts_with(&line) && l.ends_with(unit.as_str())),
                "{workload}: no printed line for {name}"
            );
        }
        assert!(r.stdout.contains("\nfailed_ratio = 0 ratio\n"));
        let ran = r
            .stdout
            .lines()
            .find_map(|l| l.strip_prefix("checks: "))
            .expect("checks line");
        for kind in checks {
            let count = ran
                .split(' ')
                .find_map(|kv| kv.strip_prefix(&format!("{kind}=")))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            assert!(count > 0, "{workload}: check {kind} never ran ({ran})");
        }
    }
}

#[test]
fn ingest_file_emits_every_metric_and_checks() {
    check_workload(
        "ingest-file",
        &[
            "verify_document_order",
            "recovered_probe",
            "recovered_len",
            "label_count",
        ],
    );
}

#[test]
fn query_mem_emits_every_metric_and_checks() {
    check_workload(
        "query-mem",
        &[
            "ancestor_pair",
            "control_pair",
            "verify_document_order",
            "recovered_probe",
        ],
    );
}

#[test]
fn snapshot_mix_emits_every_metric_and_checks() {
    check_workload(
        "snapshot-mix",
        &[
            "snapshot_probe",
            "inserted_order",
            "recovered_probe",
            "recovered_len",
        ],
    );
}

#[test]
fn counts_repeat_exactly_at_a_fixed_seed() {
    let counts = [
        "io_per_update",
        "io_per_lookup",
        "wal_bytes_per_update",
        "space_bytes_per_label",
    ];
    for workload in ["ingest-file", "query-mem"] {
        let a = run(workload, 3, 0).result;
        let b = run(workload, 3, 0).result;
        for name in counts {
            let value = |r: &Json| r.get("metrics").and_then(|m| m.get(name)).cloned();
            assert_eq!(
                value(&a),
                value(&b),
                "{workload}: {name} differs between runs"
            );
        }
    }
}

#[test]
fn layer_map_covers_every_per_layer_metric() {
    let bench = benchmark();
    let map = read_json(manifest_dir().join("layers.json"));
    let mut mapped: Vec<(String, String)> = map
        .get("layers")
        .expect("layers")
        .arr()
        .iter()
        .map(|l| {
            let field = |k| {
                l.get(k)
                    .and_then(Json::str)
                    .expect("metric and unit")
                    .to_owned()
            };
            (field("metric"), field("unit"))
        })
        .collect();
    let mut want = declared("per_layer");
    mapped.sort();
    want.sort();
    assert_eq!(
        mapped, want,
        "layers.json and BENCHMARK.json per_layer disagree"
    );

    let e2e: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
    // BENCHMARK.json gates a subset of the workloads the program runs;
    // layers.json names them.
    let workloads = ["ingest-file", "query-mem", "snapshot-mix"];
    let gated: Vec<&str> = bench
        .get("workloads")
        .expect("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("workload name"))
        .collect();
    let listed: Vec<&str> = map
        .get("gated_workloads")
        .expect("gated_workloads")
        .arr()
        .iter()
        .map(|w| w.str().expect("workload name"))
        .collect();
    assert_eq!(gated, listed, "layers.json gated_workloads");
    for w in &gated {
        assert!(workloads.contains(w), "{w} is not a workload");
    }
    for l in map.get("layers").expect("layers").arr() {
        for m in l.get("moves").expect("moves").arr() {
            let m = m.str().expect("metric name");
            assert!(
                e2e.iter().any(|e| e == m),
                "{m} is not an end-to-end metric"
            );
        }
        for w in l.get("workloads").expect("workloads").arr() {
            let w = w.str().expect("workload name");
            assert!(workloads.contains(&w), "{w} is not a workload");
        }
    }
}

#[test]
fn bad_arguments_exit_with_code_2_and_no_result() {
    let out = Command::new(EXE)
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("benchmark starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
