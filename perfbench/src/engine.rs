//! The `engine` workload: the two join shapes of the eval scaling sweep at
//! 10⁵ tuples per relation — `dense` (every candidate survives, 10⁶
//! assignments) and `selective` (200-tuple posting lists, one survivor per
//! probe). A round evaluates both in full, then streams delete/re-insert
//! edits of random `A`-facts through a `MaterializedView` of the selective
//! query. No crowd, cleaning loop or serving code runs.

use std::time::{Duration, Instant};

use qoco_data::{tup, Database, Edit, Fact, Schema};
use qoco_engine::{all_assignments, answer_set, Assignment, EvalOptions, MaterializedView};
use qoco_query::{parse_query, ConjunctiveQuery};

use crate::soccer::Rng;
use crate::stats::{mean, median, percentile};
use crate::trace;
use crate::{durations, layer_self_table, ms, setup_seconds, spans_from_file, Config, Inject};
use crate::{Outcome, Tally};

/// Edits per round: delete/re-insert pairs, so the database is whole again
/// when the next round's evaluations run.
const EDITS_PER_ROUND: usize = 4000;

/// Build one shape. `b_flipped` selects the selective shape, where `B`
/// mirrors `A` as `(g, x)`.
fn build(n: usize, group: usize, b_flipped: bool) -> (Database, ConjunctiveQuery) {
    let schema = Schema::builder()
        .relation("A", &["x", "g"])
        .relation("B", if b_flipped { &["g", "x"] } else { &["y", "g"] })
        .build()
        .expect("static schema");
    let build_span = trace::span("data.build", "");
    let mut db = Database::empty(schema.clone());
    let groups = (n / group).max(1);
    for i in 0..n {
        let (x, g) = (format!("a{i:06}"), format!("g{:06}", i % groups));
        let b = if b_flipped {
            tup![g.clone(), x.clone()]
        } else {
            tup![format!("b{i:06}"), g.clone()]
        };
        db.insert_named("A", tup![x, g]).expect("arity 2");
        db.insert_named("B", b).expect("arity 2");
    }
    db.ensure_indexes();
    drop(build_span);
    let datalog = if b_flipped {
        "Q(x) :- A(x, g), B(g, x)."
    } else {
        "Q(x, y) :- A(x, g), B(y, g)."
    };
    let q = {
        let _s = trace::span("query.parse", "");
        parse_query(&schema, datalog).expect("static query parses")
    };
    (db, q)
}

struct Setup {
    dense: (Database, ConjunctiveQuery),
    selective: (Database, ConjunctiveQuery),
    view: MaterializedView,
    /// The `A`-facts the edit stream draws from.
    a_facts: Vec<Fact>,
}

fn setup(n: usize) -> Setup {
    let dense = build(n, 10, false);
    let selective = build(n, 200, true);
    let view = {
        let _s = trace::span("engine.view_new", "");
        MaterializedView::new(selective.1.clone(), &selective.0)
    };
    let a = selective.0.schema().rel_id("A").expect("A exists");
    let a_facts = selective
        .0
        .relation(a)
        .sorted()
        .into_iter()
        .map(|t| Fact::new(a, t))
        .collect();
    Setup {
        dense,
        selective,
        view,
        a_facts,
    }
}

#[derive(Default)]
struct Samples {
    edit: Vec<f64>,
    /// Full evaluations, ms.
    dense: Vec<f64>,
    selective: Vec<f64>,
    rounds: usize,
}

fn count(q: &ConjunctiveQuery, db: &Database) -> usize {
    all_assignments(q, db, &Assignment::new(), EvalOptions::default())
        .assignments
        .len()
}

fn rounds(
    s: &mut Setup,
    n: usize,
    rng: &mut Rng,
    budget: Duration,
    skip_edit: &mut bool,
    tally: &mut Tally,
) -> Samples {
    let mut out = Samples::default();
    let start = Instant::now();
    while out.rounds == 0 || start.elapsed() < budget {
        out.rounds += 1;
        let t = Instant::now();
        let dense = {
            let _s = trace::span("engine.eval_dense", "");
            count(&s.dense.1, &s.dense.0)
        };
        out.dense.push(ms(t.elapsed()));
        let t = Instant::now();
        let selective = {
            let _s = trace::span("engine.eval_selective", "");
            count(&s.selective.1, &s.selective.0)
        };
        out.selective.push(ms(t.elapsed()));
        trace::count("engine.dense_assignments", dense);
        trace::count("engine.selective_assignments", selective);
        // closed forms: n/10 groups of 10 on both sides; one survivor per x
        tally.check(dense == 10 * n, || {
            format!("dense: {dense} assignments, want {}", 10 * n)
        });
        tally.check(selective == n, || {
            format!("selective: {selective} assignments, want {n}")
        });

        for _ in 0..EDITS_PER_ROUND / 2 {
            let f = s.a_facts[rng.below(s.a_facts.len())].clone();
            for (edit, expect_removed) in
                [(Edit::delete(f.clone()), true), (Edit::insert(f), false)]
            {
                let applied = {
                    let _s = trace::span("data.apply", "");
                    s.selective.0.apply(&edit)
                };
                if std::mem::take(skip_edit) {
                    continue;
                }
                let t = Instant::now();
                let delta = {
                    let _s = trace::span("engine.apply_edit", "");
                    s.view.apply_edit(&s.selective.0, &edit)
                };
                let dt = t.elapsed();
                out.edit.push(dt.as_secs_f64() * 1e3);
                trace::count(
                    "engine.delta_answers",
                    delta.added.len() + delta.removed.len(),
                );
                let (moved, other) = if expect_removed {
                    (delta.removed.len(), delta.added.len())
                } else {
                    (delta.added.len(), delta.removed.len())
                };
                tally.check(applied == Ok(true) && moved == 1 && other == 0, || {
                    format!("edit {edit:?}: delta {delta:?}")
                });
            }
        }
    }
    out
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.stamp.insert("serve_flags", "-".into());
    out.stamp.insert("fsync", "none".into());
    out.stamp
        .insert("telemetry", "off (library default)".into());
    let n = if cfg.tiny { 2_000 } else { 100_000 };
    out.note("tuples_per_relation", n);

    trace::set_enabled(cfg.trace);
    let mut setups = Vec::new();
    let mut current = None;
    for _ in 0..cfg.setup_reps() {
        drop(current.take());
        let t = Instant::now();
        current = Some(setup(n));
        setups.push(t.elapsed());
    }
    let mut s = current.expect("at least one set-up");
    trace::set_enabled(false);

    let mut rng = Rng::new(cfg.seed ^ 0xed17);
    let mut skip = cfg.inject == Inject::SkipEdit;
    let mut tally = Tally::default();
    let untraced = rounds(
        &mut s,
        n,
        &mut rng,
        cfg.phase_budget(),
        &mut skip,
        &mut tally,
    );
    out.note("rounds", untraced.rounds);
    out.note("edits", untraced.edit.len());

    let traced = if cfg.trace {
        trace::set_enabled(true);
        let t = rounds(
            &mut s,
            n,
            &mut rng,
            cfg.phase_budget(),
            &mut false,
            &mut tally,
        );
        trace::set_enabled(false);
        Some(t)
    } else {
        None
    };

    // the view after the whole edit stream must equal a fresh evaluation
    let mut fresh = answer_set(&s.selective.1, &s.selective.0);
    fresh.sort();
    let mut kept = s.view.answers();
    kept.sort();
    tally.check(kept == fresh, || {
        format!(
            "view has {} answers after the edit stream, a fresh evaluation {}",
            kept.len(),
            fresh.len()
        )
    });
    out.tally = tally;

    let Some(traced) = traced else {
        // Reads, not edits, carry the end-to-end figures: an edit takes
        // ~25 µs and moved by up to 30% with the shared host's memory
        // contention, a full evaluation by half that.
        let reads: Vec<f64> = untraced
            .dense
            .iter()
            .zip(&untraced.selective)
            .map(|(d, s)| d + s)
            .collect();
        out.note(
            "evaluations",
            untraced.dense.len() + untraced.selective.len(),
        );
        out.set("setup_s", setup_seconds(&setups));
        out.set("peak_rss_mb", crate::stats::peak_rss_mb("self"));
        out.set("latency_ms.p50", median(&untraced.selective));
        out.set("latency_ms.tail", median(&untraced.dense));
        out.set("work_ms.p50", median(&reads));
        out.set(
            "throughput_per_s",
            11.0 * n as f64 * untraced.dense.len() as f64 / (reads.iter().sum::<f64>() / 1e3),
        );
        return Ok(out);
    };

    out.note("traced_rounds", traced.rounds);
    let tree = spans_from_file(cfg)?;
    layer_self_table(&tree, &mut out);
    out.set(
        "trace.overhead",
        median(&traced.edit) / median(&untraced.edit) - 1.0,
    );
    out.set(
        "data.build_ms",
        durations(&tree, "data.build", 1e6).iter().sum(),
    );
    out.set(
        "query.parse_us",
        mean(&durations(&tree, "query.parse", 1e3)),
    );
    out.set(
        "engine.view_new_ms",
        mean(&durations(&tree, "engine.view_new", 1e6)),
    );
    let edits = durations(&tree, "engine.apply_edit", 1e3);
    out.set("engine.apply_edit_us", mean(&edits));
    out.set("engine.apply_edit_us.p99", percentile(&edits, 99.0));
    out.set(
        "engine.dense_eval_ms",
        median(&durations(&tree, "engine.eval_dense", 1e6)),
    );
    out.set(
        "engine.selective_eval_ms",
        median(&durations(&tree, "engine.eval_selective", 1e6)),
    );
    out.set(
        "engine.dense_assignments",
        trace::counter_mean("engine.dense_assignments"),
    );
    out.set(
        "engine.selective_assignments",
        trace::counter_mean("engine.selective_assignments"),
    );
    out.set(
        "engine.delta_answers",
        trace::counter_mean("engine.delta_answers"),
    );
    Ok(out)
}
