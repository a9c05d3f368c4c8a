//! The `serve` workload: the `clean` workload's sequential instances,
//! served over HTTP by the real `qoco-serve serve` binary (a child process
//! with default flags and a fresh store), driven by one closed-loop client
//! that keeps several sessions parked and answers them round-robin with no
//! think time, replaying the answers a direct run of the same instance
//! recorded during set-up, so the client does no cleaning work of its own.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qoco_core::{clean_view, CleaningConfig, SessionMachine, SessionSpec, SessionStore};
use qoco_crowd::{Answer, QuestionKind, SingleExpert};
use qoco_query::parse_query;

use crate::json::Json;
use crate::soccer::{
    answer_item, build_pool, par_map, report_edits, spec_body, Pool, PoolShape, ReplayOracle,
    SimOracle, GRID,
};
use crate::stats::{cpu_ms, mean, median, peak_rss_mb, percentile};
use crate::trace;
use crate::{durations, layer_self_table, ms, setup_seconds, spans_from_file, Config, Inject};
use crate::{Outcome, Tally};

/// Answers per run number in the thousands, but the slowest percent are
/// the last answers of the one or two longest sessions (every step replays
/// the whole log), which the seed decides: p90 spans every long session.
const TAIL_PERCENTILE: f64 = 90.0;
/// Sessions the client keeps parked at once.
const PARKED: usize = 4;
/// Sessions the traced run parks for its `GET …/pending` round-trip probe,
/// and requests per session: p99 then has ten samples beyond it.
const PENDING_SESSIONS: usize = 4;
const PENDING_PROBES: usize = 260;

pub const SERVE_FLAGS: &str = "serve --addr 127.0.0.1:0 --store <fresh temp dir>";

/// A running `qoco-serve`. Dropping it kills the process, waits for it and
/// deletes its store — on every exit path, a failed check or a panic too.
pub struct Server {
    child: Child,
    /// The server's stdout, held open: it prints more after its address,
    /// and a closed pipe would make that print fail.
    _stdout: Option<BufReader<std::process::ChildStdout>>,
    store: PathBuf,
    pub addr: String,
}

impl Server {
    pub fn start(bin: &Path, out: &Path) -> Result<Server, String> {
        static STARTED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = STARTED.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let store = out.join(format!("store-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--store"])
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        // Own the process before anything can fail, so Drop cleans up.
        let stdout = child.stdout.take().map(BufReader::new);
        let mut server = Server {
            child,
            _stdout: stdout,
            store,
            addr: String::new(),
        };
        let mut line = String::new();
        if let Some(out) = server._stdout.as_mut() {
            let _ = out.read_line(&mut line);
        }
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("qoco-serve did not report its address (got {line:?})"))?
            .to_string();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// Removes a directory when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One request over a fresh connection (the server closes every one).
fn http(addr: &str, method: &str, path: &str, body: &str, id: &str) -> Result<(u16, Json), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Request-Id: {id}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    Ok((status, Json::parse(body.trim())?))
}

/// What a direct run of one instance produced: the served session must
/// reproduce it exactly.
struct Direct {
    log: Vec<(QuestionKind, Answer)>,
    edits: Vec<String>,
    report_text: String,
    cost: usize,
    body: String,
}

struct Setup {
    pool: Pool,
    direct: Vec<Direct>,
    server: Server,
}

fn setup(cfg: &Config, shape: &PoolShape) -> Result<Setup, String> {
    let threads = crate::stats::nproc();
    let pool = build_pool(cfg.seed, shape, threads);
    let direct = par_map(&pool.instances, threads, |inst| {
        let mut db = inst.dirty.clone();
        let mut crowd = SingleExpert::new(SimOracle::recording(pool.ground.clone()));
        let report = clean_view(&inst.query, &mut db, &mut crowd, CleaningConfig::default())
            .unwrap_or_else(|e| panic!("{}: direct run failed: {e}", inst.label));
        let mut cleaned = qoco_engine::answer_set(&inst.query, &db);
        cleaned.sort();
        assert!(
            !report.is_partial() && cleaned == inst.truth,
            "{}: the direct run did not clean the view",
            inst.label
        );
        Direct {
            log: crowd.oracle().log.clone().unwrap_or_default(),
            edits: report_edits(&report, &inst.dirty),
            report_text: report.to_string(),
            cost: report.total_stats.total_cost(),
            body: spec_body(&inst.query, &inst.dirty),
        }
    });
    let bin = cfg
        .serve_bin
        .as_deref()
        .ok_or("the serve workload needs --serve-bin PATH")?;
    let server = Server::start(bin, &cfg.out)?;
    Ok(Setup {
        pool,
        direct,
        server,
    })
}

#[derive(Default)]
struct Load {
    next_question: Vec<f64>,
    first_question: Vec<f64>,
    answers: usize,
    /// Sessions that finished and matched their direct run.
    finished: usize,
    tally: Tally,
}

struct Live {
    sid: String,
    inst: usize,
    /// The seq the session is parked on.
    next: u64,
}

fn str_at<'a>(j: &'a Json, path: &[&str]) -> Option<&'a str> {
    path.iter().try_fold(j, |v, k| v.get(k))?.as_str()
}

fn pending_head(j: &Json) -> Option<(u64, &str)> {
    let p = j.get("pending")?.as_array()?.first()?;
    Some((p.get("seq")?.as_f64()? as u64, p.get("kind")?.as_str()?))
}

/// Check a status body against the direct run: parked on `next`, with the
/// kind the direct run was asked, or finished after its last answer.
fn expect_state(j: &Json, d: &Direct, next: u64) -> Result<bool, String> {
    let state = j.get("state").and_then(Json::as_str).unwrap_or("");
    if next as usize > d.log.len() {
        return if state == "finished" {
            Ok(true)
        } else {
            Err(format!(
                "expected finished after {} answers, got {state}",
                d.log.len()
            ))
        };
    }
    let want = d.log[next as usize - 1].0.as_str();
    match pending_head(j) {
        Some((seq, kind)) if state == "awaiting" && seq == next && kind == want => Ok(false),
        other => Err(format!(
            "expected pending seq {next} ({want}), got {state} {other:?}"
        )),
    }
}

fn check_report(addr: &str, sid: &str, d: &Direct) -> Result<(), String> {
    let (status, j) = {
        let _s = trace::span("serve.report", sid);
        http(addr, "GET", &format!("/sessions/{sid}/report"), "", sid)?
    };
    if status != 200 || j.get("partial") != Some(&Json::Bool(false)) {
        return Err(format!(
            "report: HTTP {status}, partial {:?}",
            j.get("partial")
        ));
    }
    let questions = j.get("questions").and_then(Json::as_f64).unwrap_or(-1.0);
    if questions as usize != d.log.len() {
        return Err(format!(
            "report: {questions} questions, direct run asked {}",
            d.log.len()
        ));
    }
    let edits: Vec<String> = j
        .get("edits")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|e| {
            let cells: Vec<&str> = e
                .get("fact")
                .and_then(|f| f.get("tuple"))
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_str)
                .collect();
            format!(
                "{} {} [{}]",
                str_at(e, &["op"]).unwrap_or("?"),
                str_at(e, &["fact", "rel"]).unwrap_or("?"),
                cells.join(",")
            )
        })
        .collect();
    if edits != d.edits {
        return Err("report: edits differ from the direct run's".into());
    }
    if str_at(&j, &["report_text"]) != Some(d.report_text.as_str()) {
        return Err("report: text differs from the direct run's".into());
    }
    Ok(())
}

/// Create a session for instance `inst`; `None` when it finished at once.
fn create(
    addr: &str,
    direct: &[Direct],
    inst: usize,
    tag: &str,
    load: &mut Load,
) -> Result<Option<Live>, String> {
    let d = &direct[inst];
    let t = Instant::now();
    let (status, j) = {
        let _s = trace::span("serve.create", tag);
        http(addr, "POST", "/sessions", &d.body, tag)?
    };
    load.first_question.push(ms(t.elapsed()));
    let sid = j
        .get("session")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    if status != 201 || sid.is_empty() {
        return Err(format!("create: HTTP {status}"));
    }
    if expect_state(&j, d, 1)? {
        check_report(addr, &sid, d)?;
        load.finished += 1;
        return Ok(None);
    }
    Ok(Some(Live { sid, inst, next: 1 }))
}

/// The closed-loop client: cycles through the pool in its order, keeping
/// [`PARKED`] sessions parked and answering them round-robin with no think
/// time, until `budget` is spent; every run of the same length serves the
/// same mix of cells. Sessions still parked then are left unfinished.
/// Returns the load and its wall time.
///
/// One client, not one per core: the server applies every request under
/// one registry lock, so a second client only queues behind the first. On
/// a 2-core host two clients gave 160 answers/s against one client's 166,
/// doubled the p50 latency, and doubled its run-to-run spread.
fn closed_loop(s: &Setup, budget: Duration, flip: bool) -> (Load, f64) {
    let (addr, direct) = (s.server.addr.as_str(), &s.direct);
    let mut load = Load::default();
    let mut queue = (0..direct.len()).cycle();
    let mut slots: Vec<Option<Live>> = (0..PARKED).map(|_| None).collect();
    let mut flip = flip;
    let mut created = 0usize;
    let start = Instant::now();
    while start.elapsed() < budget {
        for slot in slots.iter_mut() {
            if slot.is_none() {
                let inst = queue.next().expect("the pool is not empty");
                created += 1;
                let tag = format!("new{created}");
                let result = create(addr, direct, inst, &tag, &mut load);
                load.tally.check(result.is_ok(), || {
                    format!(
                        "{tag}: {}",
                        result.as_ref().err().cloned().unwrap_or_default()
                    )
                });
                *slot = result.ok().flatten();
                continue;
            }
            let live = slot.as_mut().expect("checked above");
            let d = &direct[live.inst];
            let mut answer = d.log[live.next as usize - 1].1.clone();
            if flip {
                if let Answer::Bool(b) = answer {
                    answer = Answer::Bool(!b);
                    flip = false;
                }
            }
            let body = format!(
                "{{\"epoch\":1,\"answers\":[{}]}}",
                answer_item(live.next, &answer)
            );
            let t = Instant::now();
            let sent = {
                let _s = trace::span("serve.answer", &live.sid);
                http(
                    addr,
                    "POST",
                    &format!("/sessions/{}/answers", live.sid),
                    &body,
                    &live.sid,
                )
            };
            load.next_question.push(ms(t.elapsed()));
            let checked = sent.and_then(|(status, j)| {
                let applied = j
                    .get("results")
                    .and_then(Json::as_array)
                    .and_then(|r| r.first())
                    .and_then(|r| r.get("status"))
                    .and_then(Json::as_str);
                if status != 200 || applied != Some("applied") {
                    return Err(format!("answer {}: HTTP {status}, {applied:?}", live.next));
                }
                load.answers += 1;
                let done = expect_state(&j, d, live.next + 1)?;
                if done {
                    check_report(addr, &live.sid, d)?;
                }
                Ok(done)
            });
            let sid = live.sid.clone();
            load.tally.check(checked.is_ok(), || {
                format!(
                    "{sid}: {}",
                    checked.as_ref().err().cloned().unwrap_or_default()
                )
            });
            match checked {
                Ok(false) => live.next += 1,
                Ok(true) => {
                    load.finished += 1;
                    *slot = None;
                }
                Err(_) => *slot = None,
            }
        }
    }
    (load, start.elapsed().as_secs_f64())
}

/// `GET …/pending` on a few freshly created sessions: HTTP and JSON with
/// no cleaner compute behind them.
fn pending_probe(s: &Setup, tally: &mut Tally) {
    let mut load = Load::default();
    for inst in 0..PENDING_SESSIONS.min(s.direct.len()) {
        let tag = format!("pending-probe-{inst}");
        let created = create(&s.server.addr, &s.direct, inst, &tag, &mut load);
        let Ok(Some(live)) = created else {
            tally.check(false, || format!("{tag}: could not park a session"));
            continue;
        };
        let sid = live.sid;
        for _ in 0..PENDING_PROBES {
            let got = {
                let _s = trace::span("serve.pending", &sid);
                http(
                    &s.server.addr,
                    "GET",
                    &format!("/sessions/{sid}/pending"),
                    "",
                    &sid,
                )
            };
            let ok = got.is_ok_and(|(status, j)| {
                status == 200 && expect_state(&j, &s.direct[inst], 1) == Ok(false)
            });
            tally.check(ok, || format!("{sid}: pending does not show seq 1"));
        }
    }
}

/// The served session's core path in process: store create, then per
/// answer a journal append (with fsync) and a `SessionMachine::submit`.
/// Returns Σ submit ÷ the direct system time, per instance probed.
fn machine_probe(cfg: &Config, s: &Setup, budget: Duration, tally: &mut Tally) -> Vec<f64> {
    let dir = TempDir(cfg.out.join(format!("probe-store-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let store = match SessionStore::open(&dir.0) {
        Ok(store) => store,
        Err(e) => {
            tally.check(false, || format!("probe store: {e}"));
            return Vec::new();
        }
    };
    let mut ratios = Vec::new();
    let start = Instant::now();
    for (i, (inst, d)) in s.pool.instances.iter().zip(&s.direct).enumerate() {
        if i > 0 && start.elapsed() >= budget {
            break;
        }
        let id = format!("probe{i}");
        let _root = trace::root_span("core.probe", &id);
        let dirty = {
            let _s = trace::span("data.clone", "");
            inst.dirty.clone()
        };
        let query = {
            let _s = trace::span("query.parse", "");
            parse_query(dirty.schema(), &inst.query.display())
        };
        let Ok(query) = query else {
            tally.check(false, || format!("{id}: query does not re-parse"));
            continue;
        };
        let spec = SessionSpec {
            query,
            dirty,
            config: CleaningConfig::default(),
            deadline_ms: None,
        };
        let created = {
            let _s = trace::span("core.store_create", "");
            store.create(&id, &spec)
        };
        tally.check(created.is_ok(), || format!("{id}: store create failed"));
        let mut machine = {
            let _s = trace::span("core.machine_new", "");
            SessionMachine::new(spec)
        };
        let mut submit_ns = 0u128;
        for (k, (kind, answer)) in d.log.iter().enumerate() {
            let seq = k as u64 + 1;
            let record = machine.record_for(Ok(answer.clone()));
            let ok = record
                .as_ref()
                .is_some_and(|r| r.kind == *kind && r.seq == seq);
            let appended = record.is_some_and(|r| {
                let _s = trace::span("core.store_append", "");
                store.append_answer(&id, &r).is_ok()
            });
            let t = Instant::now();
            let submitted = {
                let _s = trace::span("core.submit", "");
                machine.submit(seq, Ok(answer.clone()))
            };
            submit_ns += t.elapsed().as_nanos();
            tally.check(ok && appended && submitted.is_ok(), || {
                format!("{id}: answer {seq} not applied in process")
            });
        }
        let same = machine
            .finished()
            .is_some_and(|f| f.report.to_string() == d.report_text);
        tally.check(same, || format!("{id}: in-process report differs"));

        // the direct system time of the same instance, answers replayed
        let mut db = inst.dirty.clone();
        let mut crowd = SingleExpert::new(ReplayOracle::new(&d.log));
        let t = Instant::now();
        let replayed = {
            let _s = trace::span("core.replay_session", "");
            clean_view(&inst.query, &mut db, &mut crowd, CleaningConfig::default())
        };
        let system_ns = t.elapsed().as_nanos();
        tally.check(
            replayed.is_ok() && crowd.oracle().consumed_exactly(),
            || format!("{id}: replayed run did not consume its log"),
        );
        ratios.push(submit_ns as f64 / system_ns.max(1) as f64);
    }
    ratios
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.stamp.insert("serve_flags", SERVE_FLAGS.into());
    out.stamp.insert("fsync", "one per applied answer".into());
    out.stamp
        .insert("telemetry", "on (qoco-serve default)".into());
    let shape = if cfg.tiny {
        PoolShape {
            per_cell: 1,
            cells: vec![GRID[0], GRID[2]],
            unions: 0,
        }
    } else {
        PoolShape {
            per_cell: 3,
            cells: GRID.to_vec(),
            unions: 0,
        }
    };

    trace::set_enabled(cfg.trace);
    let mut setups = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..cfg.setup_reps() {
        drop(current.take());
        let t = Instant::now();
        current = Some(setup(cfg, &shape)?);
        setups.push(t.elapsed());
    }
    let s = current.expect("at least one set-up");
    trace::set_enabled(false);
    let pid = s.server.pid();
    let body_kb = mean(
        &s.direct
            .iter()
            .map(|d| d.body.len() as f64 / 1024.0)
            .collect::<Vec<_>>(),
    );
    // Every finished served session is checked to reproduce its direct run
    // report (stats lines included), so the pool's direct cost is the
    // served cost too.
    let questions = mean(&s.direct.iter().map(|d| d.cost as f64).collect::<Vec<_>>());
    let cpu_before = cpu_ms(pid);

    let flip = cfg.inject == Inject::FlipAnswer;
    let (untraced, wall) = closed_loop(&s, cfg.phase_budget(), flip);
    let mut tally = Tally::default();
    out.note("client_threads", 1);
    out.note("parked", PARKED);
    out.note("pool_instances", s.pool.instances.len());
    out.note("answers", untraced.answers);
    out.note("sessions_created", untraced.first_question.len());
    out.note("sessions_finished", untraced.finished);
    if !cfg.trace {
        out.note(
            "latency_tail",
            format!("p{TAIL_PERCENTILE} of {}", untraced.next_question.len()),
        );
        out.note("crowd_questions_per_session", questions);
        out.set("setup_s", setup_seconds(&setups));
        out.set("peak_rss_mb", peak_rss_mb(&pid.to_string()));
        out.set("latency_ms.p50", median(&untraced.next_question));
        out.set(
            "latency_ms.tail",
            percentile(&untraced.next_question, TAIL_PERCENTILE),
        );
        out.set("work_ms.p50", median(&untraced.first_question));
        out.set("throughput_per_s", untraced.answers as f64 / wall);
        tally.absorb(untraced.tally);
        out.tally = tally;
        return Ok(out);
    }

    trace::set_enabled(true);
    let (traced, _) = closed_loop(&s, cfg.phase_budget(), false);
    let answers = untraced.answers + traced.answers;
    let cpu = cpu_ms(pid) - cpu_before;
    pending_probe(&s, &mut tally);
    let ratios = machine_probe(cfg, &s, cfg.phase_budget(), &mut tally);
    trace::set_enabled(false);
    let server_rss = peak_rss_mb(&pid.to_string());
    drop(s);
    tally.absorb(untraced.tally);
    tally.absorb(traced.tally);
    out.tally = tally;
    out.note("traced_answers", traced.answers);
    out.note("replay_ratio_instances", ratios.len());

    let tree = spans_from_file(cfg)?;
    layer_self_table(&tree, &mut out);
    out.set("crowd.questions_per_session", questions);
    out.set(
        "trace.overhead",
        median(&traced.next_question) / median(&untraced.next_question) - 1.0,
    );
    out.set(
        "datasets.generate_ms",
        durations(&tree, "datasets.generate", 1e6).iter().sum(),
    );
    out.set(
        "datasets.plant_ms",
        durations(&tree, "datasets.plant", 1e6).iter().sum(),
    );
    out.set("data.clone_us", mean(&durations(&tree, "data.clone", 1e3)));
    out.set(
        "query.parse_us",
        mean(&durations(&tree, "query.parse", 1e3)),
    );
    let submit = durations(&tree, "core.submit", 1e6);
    out.set("core.submit_ms.p50", median(&submit));
    out.set("core.submit_ms.p99", percentile(&submit, 99.0));
    out.set("core.replay_ratio", median(&ratios));
    let append = durations(&tree, "core.store_append", 1e3);
    out.set("core.store_append_us.p50", median(&append));
    out.set("core.store_append_us.p99", percentile(&append, 99.0));
    out.set(
        "core.store_create_ms",
        mean(&durations(&tree, "core.store_create", 1e6)),
    );
    let pending = durations(&tree, "serve.pending", 1e3);
    out.set("serve.pending_rtt_us.p50", median(&pending));
    out.set("serve.pending_rtt_us.p99", percentile(&pending, 99.0));
    out.note("pending_samples", pending.len());
    out.note("submit_samples", submit.len());
    out.set("serve.create_body_kb", body_kb);
    out.set(
        "serve.server_cpu_ms_per_answer",
        cpu / answers.max(1) as f64,
    );
    out.set("serve.server_rss_mb", server_rss);
    Ok(out)
}
