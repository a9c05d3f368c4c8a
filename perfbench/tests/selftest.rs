//! Self-test of the benchmark at tiny sizes: every workload runs, prints
//! every metric `BENCHMARK.json` names with its unit, and passes its
//! checks — and the checks bite when a served answer is flipped or a view
//! edit is skipped.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use json::Json;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// `<target>` of this test build: the test binary sits in
/// `<target>/<profile>/deps/`.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .expect("test executable path")
        .ancestors()
        .nth(3)
        .expect("target directory")
        .to_path_buf()
}

/// The `qoco-serve` binary, built once per test process.
fn serve_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = target_dir();
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "qoco-serve",
            ])
            .arg("--manifest-path")
            .arg(root().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building qoco-serve failed");
        target.join("release").join("qoco-serve")
    })
}

/// Run one tiny workload; returns the parsed result line.
fn run(workload: &str, trace: u8, inject: Option<&str>) -> Json {
    let out = target_dir().join(format!(
        "perfbench-selftest-{workload}-{trace}-{}",
        inject.unwrap_or("none")
    ));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(root())
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--scale",
            "tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .arg("--out")
        .arg(&out)
        .arg("--serve-bin")
        .arg(serve_bin());
    if let Some(what) = inject {
        cmd.args(["--inject", what]);
    }
    let output = cmd.output().expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    let _ = std::fs::remove_dir_all(&out);
    result
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn assert_complete(workload: &str, trace: u8) {
    let result = run(workload, trace, None);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {result:?}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let section = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in declared(section) {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} is not printed"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
    }
    if trace == 0 {
        for name in ["setup_s", "latency_ms.p50", "work_ms.p50"] {
            let v = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(
                v.is_some_and(|v| v > 0.0),
                "{workload}: {name} is not positive"
            );
        }
    }
}

#[test]
fn clean_prints_every_metric() {
    assert_complete("clean", 0);
    assert_complete("clean", 1);
}

#[test]
fn serve_prints_every_metric() {
    assert_complete("serve", 0);
    assert_complete("serve", 1);
}

#[test]
fn engine_prints_every_metric() {
    assert_complete("engine", 0);
    assert_complete("engine", 1);
}

#[test]
fn a_flipped_served_answer_fails_the_run() {
    let result = run("serve", 0, Some("flip-answer"));
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(false)),
        "{result:?}"
    );
    assert!(result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
}

#[test]
fn a_skipped_view_edit_fails_the_run() {
    let result = run("engine", 0, Some("skip-edit"));
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(false)),
        "{result:?}"
    );
    assert!(result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
}
