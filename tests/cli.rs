//! Integration test for the `qoco-cli` binary: drives a full session —
//! declare schema, save fixture databases, load them, define the Figure 1
//! query, clean, and save the result.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use qoco::data::{load_dir, save_dir, tup, Database, Schema};
use qoco::engine::answer_set;
use qoco::query::parse_query;

/// A fresh directory per call: the tests run as threads of one process, so
/// the pid alone would let one test's fixtures overwrite another's.
fn tmp(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qoco-cli-test-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> std::sync::Arc<Schema> {
    Schema::builder()
        .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
        .relation("Teams", &["country", "continent"])
        .build()
        .unwrap()
}

fn fixtures() -> (PathBuf, PathBuf, PathBuf) {
    let s = schema();
    let mut d = Database::empty(s.clone());
    for (dt, w, r, st, u) in [
        ("11.07.10", "ESP", "NED", "Final", "1:0"),
        ("12.07.98", "ESP", "NED", "Final", "4:2"), // false
        ("13.07.14", "GER", "ARG", "Final", "1:0"),
        ("08.07.90", "GER", "ARG", "Final", "1:0"),
    ] {
        d.insert_named("Games", tup![dt, w, r, st, u]).unwrap();
    }
    d.insert_named("Teams", tup!["ESP", "EU"]).unwrap();
    d.insert_named("Teams", tup!["GER", "EU"]).unwrap();
    let mut g = Database::empty(s.clone());
    for (dt, w, r, st, u) in [
        ("11.07.10", "ESP", "NED", "Final", "1:0"),
        ("13.07.14", "GER", "ARG", "Final", "1:0"),
        ("08.07.90", "GER", "ARG", "Final", "1:0"),
    ] {
        g.insert_named("Games", tup![dt, w, r, st, u]).unwrap();
    }
    g.insert_named("Teams", tup!["ESP", "EU"]).unwrap();
    g.insert_named("Teams", tup!["GER", "EU"]).unwrap();

    let dirty_dir = tmp("dirty");
    let ground_dir = tmp("ground");
    let out_dir = tmp("out");
    save_dir(&d, &dirty_dir).unwrap();
    save_dir(&g, &ground_dir).unwrap();
    (dirty_dir, ground_dir, out_dir)
}

fn run_cli(script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qoco-cli"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qoco-cli");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write script");
    let output = child.wait_with_output().expect("cli exits");
    assert!(output.status.success(), "cli failed: {output:?}");
    String::from_utf8(output.stdout).expect("utf8 output")
}

#[test]
fn full_session_cleans_and_saves() {
    let (dirty, ground, out_dir) = fixtures();
    let script = format!(
        "relation Games date winner runner_up stage result\n\
         relation Teams country continent\n\
         load {dirty}\n\
         ground {ground}\n\
         query Q1(x) :- Games(d1, x, y, \"Final\", u1), Games(d2, x, z, \"Final\", u2), Teams(x, \"EU\"), d1 != d2.\n\
         show Q1\n\
         diff\n\
         clean Q1 qoco provenance\n\
         show Q1\n\
         save {out}\n\
         quit\n",
        dirty = dirty.display(),
        ground = ground.display(),
        out = out_dir.display(),
    );
    let output = run_cli(&script);
    // before cleaning: ESP and GER answer; after: only GER
    assert!(output.contains("Q1(D): 2 answer(s)"), "{output}");
    assert!(output.contains("Q1(D): 1 answer(s)"), "{output}");
    assert!(output.contains("wrong answer(s) removed"), "{output}");
    assert!(output.contains("distance 1"), "{output}");

    // the saved database reloads and matches the cleaned view
    let s = schema();
    let cleaned = load_dir(s.clone(), &out_dir).unwrap();
    let q = parse_query(
        &s,
        r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
    )
    .unwrap();
    assert_eq!(answer_set(&q, &cleaned), vec![tup!["GER"]]);

    for d in [dirty, ground, out_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn telemetry_flag_exports_jsonl_trace() {
    let (dirty, ground, _) = fixtures();
    let trace =
        std::env::temp_dir().join(format!("qoco-cli-test-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace);
    let script = format!(
        "relation Games date winner runner_up stage result\n\
         relation Teams country continent\n\
         load {dirty}\n\
         ground {ground}\n\
         query Q1(x) :- Games(d1, x, y, \"Final\", u1), Games(d2, x, z, \"Final\", u2), Teams(x, \"EU\"), d1 != d2.\n\
         clean Q1 qoco provenance\n\
         quit\n",
        dirty = dirty.display(),
        ground = ground.display(),
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_qoco-cli"))
        .arg("--telemetry")
        .arg(&trace)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qoco-cli");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write");
    let output = child.wait_with_output().expect("cli exits");
    assert!(output.status.success(), "cli failed: {output:?}");

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!text.trim().is_empty(), "trace must not be empty");
    // every line is a single JSON object
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not JSONL: {line}"
        );
    }
    // spans cover the eval, deletion, insertion and crowd phases
    for name in [
        "\"name\":\"clean.session\"",
        "\"name\":\"eval.assignments\"",
        "\"name\":\"clean.deletion_phase\"",
        "\"name\":\"clean.insertion_phase\"",
        "\"name\":\"deletion.remove_answer\"",
    ] {
        assert!(text.contains(name), "missing {name} in trace:\n{text}");
    }
    assert!(text.contains("\"type\":\"span\""), "{text}");
    assert!(text.contains("\"type\":\"event\""), "{text}");
    assert!(text.contains("crowd."), "crowd events missing:\n{text}");
    // the final metrics snapshot is appended
    assert!(text.contains("eval.assignments_tried"), "{text}");
    assert!(text.contains("crowd.questions_asked"), "{text}");

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_dir_all(dirty);
    let _ = std::fs::remove_dir_all(ground);
}

#[test]
fn errors_are_reported_not_fatal() {
    let script = "bogus-command\n\
                  relation Teams country continent\n\
                  show NoSuchQuery\n\
                  clean NoSuchQuery\n\
                  facts\n\
                  quit\n";
    let output = run_cli(script);
    assert!(output.contains("unknown command"), "{output}");
    assert!(output.contains("unknown query"), "{output}");
    assert!(output.contains("Teams: 0 fact(s)"), "{output}");
}

#[test]
fn explain_minimize_and_transcript_commands() {
    let (dirty, ground, _) = fixtures();
    let script = format!(
        "relation Games date winner runner_up stage result\n\
         relation Teams country continent\n\
         load {dirty}\n\
         ground {ground}\n\
         query QM(x) :- Teams(x, c), Teams(x, k)\n\
         minimize QM\n\
         query Q1(x) :- Games(d1, x, y, \"Final\", u1), Games(d2, x, z, \"Final\", u2), Teams(x, \"EU\"), d1 != d2.\n\
         explain Q1\n\
         transcript\n\
         clean Q1\n\
         transcript\n\
         quit\n",
        dirty = dirty.display(),
        ground = ground.display(),
    );
    let output = run_cli(&script);
    assert!(
        output.contains("QM minimized from 2 to 1 atoms"),
        "{output}"
    );
    assert!(output.contains("plan for Q1"), "{output}");
    assert!(
        output.contains("no cleaning session recorded yet"),
        "{output}"
    );
    assert!(output.contains("interaction(s):"), "{output}");
    assert!(output.contains("TRUE("), "{output}");
    let _ = std::fs::remove_dir_all(dirty);
    let _ = std::fs::remove_dir_all(ground);
}

#[test]
fn witnesses_command_lists_supporting_facts() {
    let (dirty, ground, _) = fixtures();
    let script = format!(
        "relation Games date winner runner_up stage result\n\
         relation Teams country continent\n\
         load {dirty}\n\
         ground {ground}\n\
         query Q1(x) :- Games(d1, x, y, \"Final\", u1), Games(d2, x, z, \"Final\", u2), Teams(x, \"EU\"), d1 != d2.\n\
         witnesses Q1 ESP\n\
         quit\n",
        dirty = dirty.display(),
        ground = ground.display(),
    );
    let output = run_cli(&script);
    assert!(output.contains("witness(es) for (ESP)"), "{output}");
    assert!(output.contains("witness 1:"), "{output}");
    let _ = std::fs::remove_dir_all(dirty);
    let _ = std::fs::remove_dir_all(ground);
}
