//! `perfbench` — the QOCO benchmark: three workloads, one command.
//!
//! ```text
//! perfbench --workload clean|serve|engine [--seed N] [--seconds S] [--trace 0|1]
//!           [--serve-bin PATH] [--out DIR] [--scale full|tiny]
//!           [--inject flip-answer|skip-edit]
//! perfbench compare RESULT_A.json RESULT_B.json
//! ```
//!
//! A run prints a `stamp` line, a `samples` line and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The same
//! object, stamped, is written to `DIR/result-<workload>-seed<N>-trace<T>.json`
//! and the traced run's spans to `DIR/spans-<workload>.jsonl`. See
//! `perfbench/README.md` for what each metric measures and why each workload
//! exists.

mod clean;
mod engine;
mod json;
mod serve;
mod soccer;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use json::{quote, Json};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics: name, unit. Every workload reports every one; what
/// the operation is differs per workload (see README.md).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("success_rate", "fraction"),
    ("peak_rss_mb", "MiB"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("work_ms.p50", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics: name, unit. A layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("datasets.generate_ms", "ms"),
    ("datasets.plant_ms", "ms"),
    ("data.build_ms", "ms"),
    ("data.clone_us", "us"),
    ("query.parse_us", "us"),
    ("engine.answer_set_us", "us"),
    ("engine.witnesses_us", "us"),
    ("engine.view_new_ms", "ms"),
    ("engine.apply_edit_us", "us"),
    ("engine.apply_edit_us.p99", "us"),
    ("engine.dense_eval_ms", "ms"),
    ("engine.selective_eval_ms", "ms"),
    ("engine.dense_assignments", "count"),
    ("engine.selective_assignments", "count"),
    ("engine.delta_answers", "count"),
    ("crowd.oracle_calls", "count"),
    ("crowd.questions_per_session", "count"),
    ("crowd.oracle_us.p50", "us"),
    ("crowd.oracle_us.p99", "us"),
    ("crowd.oracle_share", "fraction"),
    ("crowd.oracle_ms.verify_fact", "ms"),
    ("crowd.oracle_ms.verify_answer", "ms"),
    ("crowd.oracle_ms.verify_satisfiable", "ms"),
    ("crowd.oracle_ms.complete", "ms"),
    ("crowd.oracle_ms.complete_result", "ms"),
    ("core.self_ms.p50", "ms"),
    ("core.session_ms.sequential", "ms"),
    ("core.session_ms.batched", "ms"),
    ("core.session_ms.ucq", "ms"),
    ("core.deletion_self_us", "us"),
    ("core.insertion_self_us", "us"),
    ("core.submit_ms.p50", "ms"),
    ("core.submit_ms.p99", "ms"),
    ("core.replay_ratio", "ratio"),
    ("core.store_append_us.p50", "us"),
    ("core.store_append_us.p99", "us"),
    ("core.store_create_ms", "ms"),
    ("serve.pending_rtt_us.p50", "us"),
    ("serve.pending_rtt_us.p99", "us"),
    ("serve.create_body_kb", "KiB"),
    ("serve.server_cpu_ms_per_answer", "ms"),
    ("serve.server_rss_mb", "MiB"),
    ("trace.overhead", "fraction"),
    ("self_ms.datasets", "ms"),
    ("self_ms.data", "ms"),
    ("self_ms.query", "ms"),
    ("self_ms.engine", "ms"),
    ("self_ms.crowd", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.serve", "ms"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Flip the first yes/no answer the serve client sends.
    FlipAnswer,
    /// Leave one edit of the engine's edit stream out of the view.
    SkipEdit,
}

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub inject: Inject,
    pub serve_bin: Option<PathBuf>,
    pub out: PathBuf,
}

impl Config {
    /// How many times set-up runs; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.tiny {
            1
        } else {
            3
        }
    }

    /// The measured phases: the untraced run measures once for the whole
    /// budget; the traced run measures half untraced, then half traced, so
    /// the two halves give the tracing overhead.
    pub fn phase_budget(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }
}

/// Checked operations: every correctness check counts into these.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end values (untraced run) or per-layer values (traced run).
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts and which percentile each tail is, for the record.
    pub samples: BTreeMap<String, String>,
    pub stamp: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, name: &str, value: impl ToString) {
        self.samples.insert(name.to_string(), value.to_string());
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of the set-up durations, in seconds.
pub fn setup_seconds(times: &[Duration]) -> f64 {
    let s: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    stats::median(&s)
}

/// Per-layer values derivable from any span file: the self-time table.
pub fn layer_self_table(tree: &trace::SpanTree, out: &mut Outcome) {
    let table = tree.layer_self_ns();
    for layer in [
        "datasets", "data", "query", "engine", "crowd", "core", "serve",
    ] {
        let ns = table.get(layer).copied().unwrap_or(0);
        out.set(&format!("self_ms.{layer}"), ns as f64 / 1e6);
    }
}

/// Durations of the spans named `name`, in `unit_ns` units.
pub fn durations(tree: &trace::SpanTree, name: &str, unit_ns: f64) -> Vec<f64> {
    tree.named(name)
        .map(|s| s.dur_ns() as f64 / unit_ns)
        .collect()
}

/// Write the traced run's spans and read them back: every per-layer figure
/// is derived from the file, not from memory.
pub fn spans_from_file(cfg: &Config) -> Result<trace::SpanTree, String> {
    let path = cfg.out.join(format!("spans-{}.jsonl", cfg.workload));
    trace::write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(trace::SpanTree::new(trace::read(&path)?))
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload clean|serve|engine [--seed N] [--seconds S] [--trace 0|1] \
         [--serve-bin PATH] [--out DIR] [--scale full|tiny] [--inject flip-answer|skip-edit]\n       \
         perfbench compare RESULT_A.json RESULT_B.json"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject: Inject::None,
        serve_bin: None,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                cfg.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds must be a positive number")?
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--serve-bin" => cfg.serve_bin = Some(PathBuf::from(value()?)),
            "--out" => cfg.out = PathBuf::from(value()?),
            "--scale" => {
                cfg.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err("--scale must be full or tiny".into()),
                }
            }
            "--inject" => {
                cfg.inject = match value()?.as_str() {
                    "flip-answer" => Inject::FlipAnswer,
                    "skip-edit" => Inject::SkipEdit,
                    _ => return Err("--inject must be flip-answer or skip-edit".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["clean", "serve", "engine"].contains(&cfg.workload.as_str()) {
        return Err("--workload must be clean, serve or engine".into());
    }
    Ok(cfg)
}

/// The commit the run measured: git's HEAD when the tree is a checkout,
/// otherwise a digest of the sources (the benchmark may run from an export).
fn commit_id() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        if let Some(r) = head.strip_prefix("ref: ") {
            if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(r)) {
                return id.trim().to_string();
            }
        }
        return head.to_string();
    }
    let mut files = Vec::new();
    for dir in ["src", "crates", "shims", "perfbench/src"] {
        collect_files(Path::new(dir), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(PathBuf::from));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree-{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_files(&p, out);
            }
        } else {
            out.push(p);
        }
    }
}

/// The result's `metrics` object. A value that is not a finite number (a
/// metric with no samples) is written as 0 and fails the run's check.
fn render_metrics(cfg: &Config, out: &mut Outcome) -> String {
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut parts = Vec::new();
    for (name, unit) in names {
        let mut value = out.metrics.get(*name).copied().unwrap_or(0.0);
        out.tally.check(value.is_finite(), || {
            format!("metric {name} is not a number")
        });
        if !value.is_finite() {
            value = 0.0;
        }
        parts.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            quote(name),
            quote(unit)
        ));
    }
    format!("{{{}}}", parts.join(","))
}

fn run(cfg: &Config) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let started = Instant::now();
    let mut out = match cfg.workload.as_str() {
        "clean" => clean::run(cfg)?,
        "serve" => serve::run(cfg)?,
        _ => engine::run(cfg)?,
    };
    if !cfg.trace {
        let t = &out.tally;
        let rate = 1.0 - t.failed as f64 / t.attempted.max(1) as f64;
        out.set("success_rate", rate);
    }
    out.note("wall_s", format!("{:.1}", started.elapsed().as_secs_f64()));
    let mut stamp = std::mem::take(&mut out.stamp);
    stamp.insert("workload", cfg.workload.clone());
    stamp.insert("seed", cfg.seed.to_string());
    stamp.insert("trace", (cfg.trace as u8).to_string());
    stamp.insert("scale", if cfg.tiny { "tiny" } else { "full" }.into());
    stamp.insert("seconds", cfg.seconds.to_string());
    stamp.insert("nproc", stats::nproc().to_string());
    stamp.insert("commit", commit_id());
    let stamp_json = format!(
        "{{{}}}",
        stamp
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect::<Vec<_>>()
            .join(",")
    );
    let samples_json = format!(
        "{{{}}}",
        out.samples
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect::<Vec<_>>()
            .join(",")
    );
    let metrics = render_metrics(cfg, &mut out);
    if let Some(f) = &out.tally.first_failure {
        eprintln!("perfbench: first failed check: {f}");
    }
    let correct = out.tally.failed == 0;
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        out.tally.attempted.max(1),
        out.tally.failed
    );
    let file = cfg.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        cfg.workload, cfg.seed, cfg.trace as u8
    ));
    let record =
        format!("{{\"stamp\":{stamp_json},\"samples\":{samples_json},\"result\":{result}}}\n");
    std::fs::write(&file, record).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("stamp {stamp_json}");
    println!("samples {samples_json}");
    println!("{result}");
    Ok(())
}

/// Compare two result files metric by metric, refusing when they were not
/// measured under the same conditions.
fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(text.trim()).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let stamp = |j: &Json, k: &str| {
        j.get("stamp")
            .and_then(|s| s.get(k))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    for key in [
        "workload",
        "nproc",
        "scale",
        "trace",
        "seconds",
        "serve_flags",
        "fsync",
        "telemetry",
    ] {
        let (va, vb) = (stamp(&ja, key), stamp(&jb, key));
        if va != vb {
            return Err(format!(
                "refusing to compare: {key} differs ({va:?} vs {vb:?})"
            ));
        }
    }
    let metrics = |j: &Json| -> BTreeMap<String, f64> {
        match j.get("result").and_then(|r| r.get("metrics")) {
            Some(Json::Object(m)) => m
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
            _ => BTreeMap::new(),
        }
    };
    let (ma, mb) = (metrics(&ja), metrics(&jb));
    println!(
        "{:<36} {:>14} {:>14} {:>8}",
        "metric",
        stamp(&ja, "commit").chars().take(14).collect::<String>(),
        stamp(&jb, "commit").chars().take(14).collect::<String>(),
        "b/a"
    );
    for (k, va) in &ma {
        let Some(vb) = mb.get(k) else { continue };
        let ratio = if *va != 0.0 { vb / va } else { f64::NAN };
        println!("{k:<36} {va:>14.4} {vb:>14.4} {ratio:>8.3}");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => usage(),
        }
    } else {
        match parse_args(&args) {
            Ok(cfg) => run(&cfg),
            Err(e) => {
                eprintln!("perfbench: {e}");
                usage()
            }
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
