//! The session pool shared by the `clean` and `serve` workloads: planted
//! instances of the 4,475-fact soccer database, the oracles the benchmark
//! wraps around the simulated crowd, and the inline session specs that
//! `qoco-serve` is fed.

use std::cell::Cell;

use qoco_core::CleaningReport;
use qoco_crowd::{Answer, Oracle, OracleError, PerfectOracle, Question, QuestionKind};
use qoco_data::{Database, EditKind, Tuple, Value};
use qoco_datasets::{
    generate_soccer, plant_mixed, plant_wrong_answers, soccer_queries, SoccerConfig,
};
use qoco_engine::answer_set;
use qoco_query::{parse_query, unfold_at_least, ConjunctiveQuery, UnionQuery, Var};

use crate::json::quote;
use crate::trace;

/// SplitMix64: the benchmark's own seeded stream, so inputs depend only on
/// `--seed` and not on any RNG the program ships.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The Figure 3 grid the pool is drawn from: Q1 at (2 wrong, 1 missing) as
/// in `fig3c`, and Q2–Q5 at (5, 5) and (10, 10).
pub const GRID: [(usize, usize, usize); 9] = [
    (1, 2, 1),
    (2, 5, 5),
    (3, 5, 5),
    (4, 5, 5),
    (5, 5, 5),
    (2, 10, 10),
    (3, 10, 10),
    (4, 10, 10),
    (5, 10, 10),
];

/// One planted single-query instance.
pub struct Instance {
    pub label: String,
    /// Which copy of its grid cell this is (0-based).
    pub copy: usize,
    pub query: ConjunctiveQuery,
    pub dirty: Database,
    pub wrong: Vec<Tuple>,
    pub missing: Vec<Tuple>,
    /// `Q(D_G)`, sorted.
    pub truth: Vec<Tuple>,
}

/// One planted instance of the two-disjunct union view.
pub struct UnionInstance {
    pub label: String,
    pub union: UnionQuery,
    pub dirty: Database,
    pub truth: Vec<Tuple>,
}

pub struct Pool {
    pub ground: Database,
    /// In session order.
    pub instances: Vec<Instance>,
    pub unions: Vec<UnionInstance>,
}

/// How many instances of each grid cell, and which cells.
pub struct PoolShape {
    pub per_cell: usize,
    pub cells: Vec<(usize, usize, usize)>,
    pub unions: usize,
}

/// `f` over `items` on `threads` threads that take the next item as they
/// finish one, results in item order. A panic in `f` propagates.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, items.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a set-up worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

/// Build the pool for `seed`: generate `D_G` and plant every instance in
/// parallel over `threads`, each with a plant seed drawn from `seed`. A
/// planting panic propagates: an instance is never skipped.
pub fn build_pool(seed: u64, shape: &PoolShape, threads: usize) -> Pool {
    let ground = {
        let _s = trace::span("datasets.generate", "");
        generate_soccer(SoccerConfig::default())
    };
    let queries = soccer_queries(ground.schema());
    let mut rng = Rng::new(seed);
    let mut jobs: Vec<(String, usize, usize, usize, usize, u64)> = Vec::new();
    for &(qi, kw, km) in &shape.cells {
        for copy in 0..shape.per_cell {
            let label = format!("Q{qi}({kw},{km})#{copy}");
            jobs.push((label, copy, qi, kw, km, rng.next() >> 1));
        }
    }
    let mut instances = par_map(&jobs, threads, |(label, copy, qi, kw, km, plant_seed)| {
        let q = &queries[qi - 1];
        let planted = {
            let _s = trace::span("datasets.plant", "");
            plant_mixed(q, &ground, *kw, *km, *plant_seed)
        };
        Instance {
            label: label.clone(),
            copy: *copy,
            query: q.clone(),
            dirty: planted.db,
            wrong: planted.wrong,
            missing: planted.missing,
            truth: sorted(answer_set(q, &ground)),
        }
    });
    // Round by round through the grid: any prefix of the order then has a
    // fixed mix of cells, whatever the seed planted.
    instances.sort_by_key(|inst| inst.copy);

    let unions = (0..shape.unions)
        .map(|i| union_instance(&ground, i, rng.next() >> 1))
        .collect();
    Pool {
        ground,
        instances,
        unions,
    }
}

/// "Teams that won at least two finals" ∪ "teams that lost at least three",
/// after `examples/threshold_views.rs`, with one wrong answer planted per
/// disjunct.
fn union_instance(ground: &Database, i: usize, plant_seed: u64) -> UnionInstance {
    let schema = ground.schema();
    let won = parse_query(schema, r#"Won(x) :- Games(d, x, y, "Final", u)"#)
        .expect("static query parses");
    let lost = parse_query(schema, r#"Lost(x) :- Games(d, y, x, "Final", u)"#)
        .expect("static query parses");
    let d = Var::new("d");
    let union = UnionQuery::new(
        "Decorated",
        vec![
            unfold_at_least(&won, &d, 2).expect("threshold view"),
            unfold_at_least(&lost, &d, 3).expect("threshold view"),
        ],
    )
    .expect("union of same-width views")
    .minimized();
    assert_eq!(
        union.disjuncts().len(),
        2,
        "the union view must keep both disjuncts"
    );
    let mut dirty = ground.clone();
    for (j, q) in union.disjuncts().iter().enumerate() {
        let _s = trace::span("datasets.plant", "");
        dirty = plant_wrong_answers(q, &dirty, 1, 2, plant_seed.wrapping_add(j as u64)).db;
    }
    let truth = sorted(qoco_core::union_answer_set(&union, ground));
    UnionInstance {
        label: format!("Decorated#{i}"),
        union,
        dirty,
        truth,
    }
}

// ---------------------------------------------------------------------------
// oracles

fn oracle_span_name(kind: QuestionKind) -> &'static str {
    match kind {
        QuestionKind::VerifyFact => "crowd.oracle.verify_fact",
        QuestionKind::VerifyAllFacts => "crowd.oracle.verify_facts_all",
        QuestionKind::VerifyAnswer => "crowd.oracle.verify_answer",
        QuestionKind::VerifySatisfiable => "crowd.oracle.verify_satisfiable",
        QuestionKind::Complete => "crowd.oracle.complete",
        QuestionKind::CompleteResult => "crowd.oracle.complete_result",
    }
}

/// The simulated crowd as the benchmark sees it: a [`PerfectOracle`] with a
/// span around every answer, optionally recording what it answered.
pub struct SimOracle {
    inner: PerfectOracle,
    pub log: Option<Vec<(QuestionKind, Answer)>>,
}

impl SimOracle {
    pub fn new(ground: Database) -> SimOracle {
        SimOracle {
            inner: PerfectOracle::new(ground),
            log: None,
        }
    }

    pub fn recording(ground: Database) -> SimOracle {
        SimOracle {
            log: Some(Vec::new()),
            ..SimOracle::new(ground)
        }
    }
}

impl Oracle for SimOracle {
    fn answer(&mut self, q: &Question) -> Result<Answer, OracleError> {
        let answer = {
            let _s = trace::span(oracle_span_name(q.kind()), "");
            self.inner.answer(q)
        };
        if let (Some(log), Ok(a)) = (self.log.as_mut(), &answer) {
            log.push((q.kind(), a.clone()));
        }
        answer
    }
}

/// Replays a recorded answer log, so a re-run of the session pays for the
/// system only. Any divergence — an extra question, a question of another
/// kind — is remembered and makes the run fail its check.
pub struct ReplayOracle<'a> {
    log: &'a [(QuestionKind, Answer)],
    pos: usize,
    diverged: Cell<bool>,
}

impl<'a> ReplayOracle<'a> {
    pub fn new(log: &'a [(QuestionKind, Answer)]) -> ReplayOracle<'a> {
        ReplayOracle {
            log,
            pos: 0,
            diverged: Cell::new(false),
        }
    }

    /// Every recorded answer consumed, each by a question of its kind.
    pub fn consumed_exactly(&self) -> bool {
        !self.diverged.get() && self.pos == self.log.len()
    }
}

impl Oracle for ReplayOracle<'_> {
    fn answer(&mut self, q: &Question) -> Result<Answer, OracleError> {
        match self.log.get(self.pos) {
            Some((kind, answer)) if *kind == q.kind() => {
                self.pos += 1;
                Ok(answer.clone())
            }
            _ => {
                self.diverged.set(true);
                Err(OracleError::Dropped)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// the wire forms `qoco-serve` speaks

/// A value as the serve API tags it: `i:1990`, `s:GER`.
pub fn tagged(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i:{i}"),
        Value::Text(s) => format!("s:{s}"),
    }
}

fn tagged_cells(t: &Tuple) -> String {
    let cells: Vec<String> = t.values().iter().map(|v| quote(&tagged(v))).collect();
    format!("[{}]", cells.join(","))
}

/// The `POST /sessions` body for an inline spec: schema, rows and query.
pub fn spec_body(q: &ConjunctiveQuery, dirty: &Database) -> String {
    let schema = dirty.schema();
    let mut rels = Vec::new();
    let mut rows = Vec::new();
    for (id, decl) in schema.iter() {
        let attrs: Vec<String> = decl.attrs().iter().map(|a| quote(a)).collect();
        rels.push(format!(
            "{{\"name\":{},\"attrs\":[{}]}}",
            quote(decl.name()),
            attrs.join(",")
        ));
        let tuples: Vec<String> = dirty
            .relation(id)
            .sorted()
            .iter()
            .map(|t| {
                let cells: Vec<String> = t
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => i.to_string(),
                        Value::Text(s) => quote(s),
                    })
                    .collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        rows.push(format!("{}:[{}]", quote(decl.name()), tuples.join(",")));
    }
    format!(
        "{{\"schema\":[{}],\"rows\":{{{}}},\"query\":{}}}",
        rels.join(","),
        rows.join(","),
        quote(&q.display())
    )
}

/// One `POST …/answers` item answering question `seq` with `answer`.
pub fn answer_item(seq: u64, answer: &Answer) -> String {
    match answer {
        Answer::Bool(b) => format!("{{\"seq\":{seq},\"bool\":{b}}}"),
        Answer::MissingAnswer(None) => format!("{{\"seq\":{seq},\"missing\":null}}"),
        Answer::MissingAnswer(Some(t)) => {
            format!("{{\"seq\":{seq},\"missing\":{}}}", tagged_cells(t))
        }
        Answer::Completion(None) => format!("{{\"seq\":{seq},\"completion\":null}}"),
        Answer::Completion(Some(a)) => {
            let binds: Vec<String> = a
                .iter()
                .map(|(var, value)| format!("{}:{}", quote(var.name()), quote(&tagged(value))))
                .collect();
            format!("{{\"seq\":{seq},\"completion\":{{{}}}}}", binds.join(","))
        }
    }
}

/// A report's edits in the served report's terms: `op rel [cells]`.
pub fn report_edits(report: &CleaningReport, dirty: &Database) -> Vec<String> {
    report
        .edits
        .edits()
        .iter()
        .map(|e| {
            let op = match e.kind {
                EditKind::Insert => "insert",
                EditKind::Delete => "delete",
            };
            let rel = dirty.schema().rel_name(e.fact.rel);
            let cells: Vec<String> = e.fact.tuple.values().iter().map(tagged).collect();
            format!("{op} {rel} [{}]", cells.join(","))
        })
        .collect()
}
