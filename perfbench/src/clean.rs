//! The `clean` workload: direct Algorithm 3 sessions on the soccer
//! database, one at a time, in process, with the library's telemetry off.
//!
//! A pass runs every pooled instance sequentially (`clean_view`) and then
//! re-runs it twice with its recorded answers replayed; runs the first copy
//! of every grid cell batched (`clean_view_parallel`, a perfect panel of
//! `nproc` experts); and runs every union instance (`clean_union_view`).
//! Passes repeat until the budget is spent, so every run sees the same mix.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qoco_core::{
    clean_union_view, clean_view, clean_view_parallel, crowd_add_missing_answer,
    crowd_remove_wrong_answer, CleaningConfig, CleaningReport, ParallelMajorityCrowd,
};
use qoco_crowd::{Answer, QuestionKind, SingleExpert};
use qoco_data::{Database, Edit};
use qoco_engine::{answer_set, witnesses_for_answer, MaterializedView};
use qoco_query::parse_query;

use crate::soccer::{build_pool, Pool, PoolShape, ReplayOracle, SimOracle, GRID};
use crate::stats::{mean, median, percentile};
use crate::trace;
use crate::{
    durations, layer_self_table, ms, setup_seconds, spans_from_file, Config, Outcome, Tally,
};

/// Two or three passes give 88–132 sessions: p90 is the highest percentile
/// with about ten samples beyond it.
const TAIL_PERCENTILE: f64 = 90.0;
const REPLAYS_PER_INSTANCE: usize = 2;

pub fn shape(cfg: &Config) -> PoolShape {
    if cfg.tiny {
        PoolShape {
            per_cell: 1,
            cells: vec![GRID[0], GRID[2]],
            unions: 1,
        }
    } else {
        PoolShape {
            per_cell: 3,
            cells: GRID.to_vec(),
            unions: 8,
        }
    }
}

/// One instance's first sequential run: what replays and later passes are
/// checked against.
struct Recorded {
    log: Vec<(QuestionKind, Answer)>,
    cost: usize,
    edits: Vec<Edit>,
}

#[derive(Default)]
struct Samples {
    /// Every crowd-inclusive session (all variants), ms.
    session: Vec<f64>,
    /// Sequential sessions with replayed answers, ms.
    system: Vec<f64>,
    passes: usize,
}

fn sorted_answers(q: &qoco_query::ConjunctiveQuery, db: &Database) -> Vec<qoco_data::Tuple> {
    let mut v = answer_set(q, db);
    v.sort();
    v
}

fn finished(report: &Result<CleaningReport, qoco_core::CleanError>) -> bool {
    matches!(report, Ok(r) if !r.is_partial())
}

/// Run whole passes over the pool until `budget` is spent.
fn passes(
    pool: &Pool,
    threads: usize,
    budget: Duration,
    recorded: &mut BTreeMap<usize, Recorded>,
    tally: &mut Tally,
) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    while s.passes == 0 || start.elapsed() < budget {
        s.passes += 1;
        for (i, inst) in pool.instances.iter().enumerate() {
            let req = format!("p{}-{}", s.passes, inst.label);
            let q = &inst.query;

            // sequential, with the simulated crowd
            let mut db = inst.dirty.clone();
            let mut crowd = SingleExpert::new(SimOracle::recording(pool.ground.clone()));
            let t = Instant::now();
            let report = {
                let _s = trace::root_span("core.session.sequential", &req);
                clean_view(q, &mut db, &mut crowd, CleaningConfig::default())
            };
            s.session.push(ms(t.elapsed()));
            let log = crowd.oracle().log.clone().unwrap_or_default();
            let ok = finished(&report) && sorted_answers(q, &db) == inst.truth;
            match recorded.get(&i) {
                Some(first) => tally.check(ok && first.log == log, || {
                    format!("{req}: sequential session diverged from its first run")
                }),
                None => {
                    tally.check(ok, || format!("{req}: sequential view != Q(D_G)"));
                    let (cost, edits) = report
                        .map(|r| (r.total_stats.total_cost(), r.edits.edits().to_vec()))
                        .unwrap_or_default();
                    recorded.insert(i, Recorded { log, cost, edits });
                }
            }

            // the same session, answers replayed: system time only
            let log = &recorded[&i].log;
            for _ in 0..REPLAYS_PER_INSTANCE {
                let mut db = inst.dirty.clone();
                let mut crowd = SingleExpert::new(ReplayOracle::new(log));
                let t = Instant::now();
                let report = {
                    let _s = trace::root_span("core.replay_session", &req);
                    clean_view(q, &mut db, &mut crowd, CleaningConfig::default())
                };
                s.system.push(ms(t.elapsed()));
                let ok = finished(&report)
                    && crowd.oracle().consumed_exactly()
                    && sorted_answers(q, &db) == inst.truth;
                tally.check(ok, || {
                    format!("{req}: replayed run did not consume its log")
                });
            }

            // §6.2 batched verification with a perfect panel
            if inst.copy == 0 {
                let mut db = inst.dirty.clone();
                let panel = (0..threads)
                    .map(|_| SimOracle::new(pool.ground.clone()))
                    .collect();
                let mut crowd = ParallelMajorityCrowd::new(panel);
                let t = Instant::now();
                let report = {
                    let _s = trace::root_span("core.session.batched", &req);
                    clean_view_parallel(q, &mut db, &mut crowd, CleaningConfig::default())
                };
                s.session.push(ms(t.elapsed()));
                let ok = finished(&report) && sorted_answers(q, &db) == inst.truth;
                tally.check(ok, || format!("{req}: batched view != Q(D_G)"));
            }
        }
        for u in &pool.unions {
            let req = format!("p{}-{}", s.passes, u.label);
            let mut db = u.dirty.clone();
            let mut crowd = SingleExpert::new(SimOracle::new(pool.ground.clone()));
            let t = Instant::now();
            let report = {
                let _s = trace::root_span("core.session.ucq", &req);
                clean_union_view(&u.union, &mut db, &mut crowd, CleaningConfig::default())
            };
            s.session.push(ms(t.elapsed()));
            let mut after = qoco_core::union_answer_set(&u.union, &db);
            after.sort();
            tally.check(finished(&report) && after == u.truth, || {
                format!("{req}: union view != U(D_G)")
            });
        }
    }
    s
}

/// Per-instance calls into each layer's public functions, traced: what the
/// cleaner does inside a session, timed from outside it.
fn layer_probes(pool: &Pool, recorded: &BTreeMap<usize, Recorded>, tally: &mut Tally) {
    let config = CleaningConfig::default();
    for (i, inst) in pool.instances.iter().enumerate() {
        let q = &inst.query;
        let req = format!("probe-{}", inst.label);
        let _root = trace::root_span("core.probe", &req);
        let dirty = {
            let _s = trace::span("data.clone", "");
            inst.dirty.clone()
        };
        let parsed = {
            let _s = trace::span("query.parse", "");
            parse_query(dirty.schema(), &q.display())
        };
        tally.check(parsed.is_ok(), || format!("{req}: query does not re-parse"));
        {
            let _s = trace::span("engine.answer_set", "");
            std::hint::black_box(answer_set(q, &dirty));
        }
        for t in &inst.wrong {
            let _s = trace::span("engine.witnesses", "");
            std::hint::black_box(witnesses_for_answer(q, &dirty, t));
        }
        let mut view = {
            let _s = trace::span("engine.view_new", "");
            MaterializedView::new(q.clone(), &dirty)
        };

        // the session's own edits, replayed through a view
        let mut replayed = dirty.clone();
        for e in &recorded[&i].edits {
            let applied = replayed.apply(e).is_ok();
            let delta = {
                let _s = trace::span("engine.apply_edit", "");
                view.apply_edit(&replayed, e)
            };
            trace::count(
                "engine.delta_answers",
                delta.added.len() + delta.removed.len(),
            );
            tally.check(applied, || {
                format!("{req}: recorded edit {e:?} does not apply")
            });
        }
        let mut view_answers = view.answers();
        view_answers.sort();
        tally.check(view_answers == inst.truth, || {
            format!("{req}: view after the session's edits != Q(D_G)")
        });

        // Algorithm 1 per planted wrong answer, Algorithm 2 per missing one
        let mut db = dirty.clone();
        for t in &inst.wrong {
            let mut crowd = SingleExpert::new(SimOracle::new(pool.ground.clone()));
            let out = {
                let _s = trace::span("core.deletion", "");
                crowd_remove_wrong_answer(q, &mut db, t, &mut crowd, config.deletion)
            };
            let gone = out.is_ok() && !answer_set(q, &db).contains(t);
            tally.check(gone, || format!("{req}: {t} survived its removal"));
        }
        let mut split = config.split.build();
        for t in &inst.missing {
            let mut crowd = SingleExpert::new(SimOracle::new(pool.ground.clone()));
            let out = {
                let _s = trace::span("core.insertion", "");
                crowd_add_missing_answer(q, &mut db, t, &mut crowd, &mut *split, config.insertion)
            };
            tally.check(out.is_ok_and(|o| o.achieved), || {
                format!("{req}: {t} was not added")
            });
        }
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.stamp.insert("serve_flags", "-".into());
    out.stamp.insert("fsync", "none".into());
    out.stamp
        .insert("telemetry", "off (library default)".into());
    let shape = shape(cfg);
    let threads = crate::stats::nproc();

    trace::set_enabled(cfg.trace);
    let mut setups = Vec::new();
    let mut pool = None;
    for _ in 0..cfg.setup_reps() {
        drop(pool.take());
        let t = Instant::now();
        pool = Some(build_pool(cfg.seed, &shape, threads));
        setups.push(t.elapsed());
    }
    let pool = pool.expect("at least one set-up");
    trace::set_enabled(false);

    let mut recorded = BTreeMap::new();
    let mut tally = Tally::default();
    let untraced = passes(
        &pool,
        threads,
        cfg.phase_budget(),
        &mut recorded,
        &mut tally,
    );
    let questions: Vec<f64> = recorded.values().map(|r| r.cost as f64).collect();
    out.note("pool_instances", pool.instances.len());
    out.note("pool_unions", pool.unions.len());
    out.note("passes", untraced.passes);
    out.note("sessions", untraced.session.len());
    out.note("replays", untraced.system.len());

    if !cfg.trace {
        out.note(
            "latency_tail",
            format!("p{TAIL_PERCENTILE} of {}", untraced.session.len()),
        );
        out.set("setup_s", setup_seconds(&setups));
        out.set("peak_rss_mb", crate::stats::peak_rss_mb("self"));
        out.set("latency_ms.p50", median(&untraced.session));
        out.set(
            "latency_ms.tail",
            percentile(&untraced.session, TAIL_PERCENTILE),
        );
        out.set("work_ms.p50", median(&untraced.system));
        out.set("throughput_per_s", 1e3 / mean(&untraced.session));
        out.note("crowd_questions_per_session", mean(&questions));
        out.tally = tally;
        return Ok(out);
    }

    trace::set_enabled(true);
    let traced = passes(
        &pool,
        threads,
        cfg.phase_budget(),
        &mut recorded,
        &mut tally,
    );
    layer_probes(&pool, &recorded, &mut tally);
    trace::set_enabled(false);
    out.tally = tally;
    out.note("traced_sessions", traced.session.len());

    let tree = spans_from_file(cfg)?;
    layer_self_table(&tree, &mut out);
    out.set(
        "trace.overhead",
        median(&traced.session) / median(&untraced.session) - 1.0,
    );
    out.set("crowd.questions_per_session", mean(&questions));
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
    out.set(
        "engine.answer_set_us",
        mean(&durations(&tree, "engine.answer_set", 1e3)),
    );
    out.set(
        "engine.witnesses_us",
        mean(&durations(&tree, "engine.witnesses", 1e3)),
    );
    out.set(
        "engine.view_new_ms",
        mean(&durations(&tree, "engine.view_new", 1e6)),
    );
    out.set(
        "engine.apply_edit_us",
        mean(&durations(&tree, "engine.apply_edit", 1e3)),
    );
    out.set(
        "engine.delta_answers",
        trace::counter_mean("engine.delta_answers"),
    );

    // the crowd as seen from inside the sessions
    let oracle_us: Vec<f64> = tree
        .spans
        .iter()
        .filter(|s| s.name.starts_with("core.session."))
        .flat_map(|s| tree.children(s, "crowd.oracle."))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    out.set("crowd.oracle_us.p50", median(&oracle_us));
    out.set("crowd.oracle_us.p99", percentile(&oracle_us, 99.0));
    out.note("oracle_calls_sampled", oracle_us.len());
    let sequential: Vec<&trace::Span> = tree.named("core.session.sequential").collect();
    let n_seq = sequential.len().max(1) as f64;
    let calls: usize = sequential
        .iter()
        .map(|s| tree.children(s, "crowd.oracle.").len())
        .sum();
    out.set("crowd.oracle_calls", calls as f64 / n_seq);
    let wall: u64 = sequential.iter().map(|s| s.dur_ns()).sum();
    let oracle: u64 = sequential
        .iter()
        .map(|s| tree.child_ns(s, "crowd.oracle."))
        .sum();
    out.set("crowd.oracle_share", oracle as f64 / wall.max(1) as f64);
    for kind in [
        "verify_fact",
        "verify_answer",
        "verify_satisfiable",
        "complete",
        "complete_result",
    ] {
        let prefix = format!("crowd.oracle.{kind}");
        let total: u64 = sequential
            .iter()
            .flat_map(|s| tree.children(s, &prefix))
            .filter(|c| c.name == prefix)
            .map(|c| c.dur_ns())
            .sum();
        out.set(
            &format!("crowd.oracle_ms.{kind}"),
            total as f64 / 1e6 / n_seq,
        );
    }

    // the core loop: session wall minus the crowd
    let self_ms: Vec<f64> = sequential
        .iter()
        .map(|s| tree.self_ns(s) as f64 / 1e6)
        .collect();
    out.set("core.self_ms.p50", median(&self_ms));
    for variant in ["sequential", "batched", "ucq"] {
        let name = format!("core.session.{variant}");
        out.set(
            &format!("core.session_ms.{variant}"),
            median(&durations(&tree, &name, 1e6)),
        );
    }
    let self_us = |name: &str| -> f64 {
        let v: Vec<f64> = tree
            .named(name)
            .map(|s| tree.self_ns(s) as f64 / 1e3)
            .collect();
        mean(&v)
    };
    out.set("core.deletion_self_us", self_us("core.deletion"));
    out.set("core.insertion_self_us", self_us("core.insertion"));
    Ok(out)
}
