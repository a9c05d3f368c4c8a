//! Golden equivalence for the Algorithm 3 entry points.
//!
//! `clean_view` (sequential sweeps), `clean_view_parallel` (§6.2 batched
//! sweeps) and `clean_union_view` (UCQs) run on planted soccer instances
//! with perfect crowds. Every observable of a session is pinned: the
//! iteration count, the wrong/missing/anomaly tallies, the per-phase crowd
//! ledgers, the edit log and the cleaned view. The edit log and the answer
//! set are pinned by length and an FNV-1a digest of their rendering, so a
//! change to a single edit or answer fails the test.

use qoco_core::{clean_union_view, clean_view, clean_view_parallel, union_answer_set};
use qoco_core::{CleaningConfig, CleaningReport, ParallelMajorityCrowd};
use qoco_crowd::{CrowdStats, PerfectOracle, SingleExpert};
use qoco_data::{Database, Tuple};
use qoco_datasets::{
    generate_soccer, plant_missing_answers, plant_mixed, plant_wrong_answers, soccer_query,
    SoccerConfig,
};
use qoco_engine::answer_set;
use qoco_query::{parse_query, unfold_at_least, UnionQuery, Var};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The non-zero fields of a crowd ledger, `name=value` comma-joined.
fn ledger(stats: &CrowdStats) -> String {
    let debug = format!("{stats:?}");
    let body = debug
        .trim_start_matches("CrowdStats { ")
        .trim_end_matches(" }");
    body.split(", ")
        .filter(|field| !field.ends_with(": 0"))
        .map(|field| field.replace(": ", "="))
        .collect::<Vec<_>>()
        .join(",")
}

/// One line per session observable.
fn summary(report: &CleaningReport, answers: &[Tuple]) -> String {
    let edits = format!("{:?}", report.edits.edits());
    let rendered: Vec<String> = answers.iter().map(Tuple::to_string).collect();
    let answers = rendered.join(";");
    format!(
        "iterations={} wrong={} missing={} anomalies={} unresolved={}\n\
         deletion: {}\ninsertion: {}\ntotal: {}\n\
         upper_bounds={}/{} edits={}#{:016x} answers={}#{:016x}",
        report.iterations,
        report.wrong_answers,
        report.missing_answers,
        report.anomalies,
        report.unresolved.len(),
        ledger(&report.deletion_stats),
        ledger(&report.insertion_stats),
        ledger(&report.total_stats),
        report.deletion_upper_bound,
        report.insertion_upper_bound,
        report.edits.len(),
        fnv1a(&edits),
        rendered.len(),
        fnv1a(&answers),
    )
}

fn ground() -> Database {
    generate_soccer(SoccerConfig::default())
}

/// Q1–Q3 with two wrong and two missing answers planted per query.
fn soccer_instances(ground: &Database) -> Vec<(usize, Database)> {
    (1..=3)
        .map(|i| {
            let q = soccer_query(ground.schema(), i);
            (i, plant_mixed(&q, ground, 2, 2, 40 + i as u64).db)
        })
        .collect()
}

/// The two-disjunct view of `examples/threshold_views.rs`: teams with at
/// least two won finals ∪ teams with at least three lost finals.
fn decorated(ground: &Database) -> UnionQuery {
    let schema = ground.schema();
    let won = parse_query(schema, r#"Won(x) :- Games(d, x, y, "Final", u)"#).unwrap();
    let lost = parse_query(schema, r#"Lost(x) :- Games(d, y, x, "Final", u)"#).unwrap();
    let d = Var::new("d");
    let union = UnionQuery::new(
        "Decorated",
        vec![
            unfold_at_least(&won, &d, 2).unwrap(),
            unfold_at_least(&lost, &d, 3).unwrap(),
        ],
    )
    .unwrap()
    .minimized();
    assert_eq!(union.disjuncts().len(), 2);
    union
}

const SEQUENTIAL: [&str; 3] = [
    "iterations=1 wrong=2 missing=2 anomalies=0 unresolved=0\n\
     deletion: verify_answer_questions=5,verify_fact_questions=5,closed_answers=10,verify_answer_crowd_answers=5,verify_fact_crowd_answers=5\n\
     insertion: satisfiable_questions=2,complete_tasks=2,complete_result_tasks=3,filled_variables=6,missing_answers_provided=2,closed_answers=2,satisfiable_crowd_answers=2,open_answer_variables=8\n\
     total: verify_answer_questions=5,verify_fact_questions=5,satisfiable_questions=2,complete_tasks=2,complete_result_tasks=3,filled_variables=6,missing_answers_provided=2,closed_answers=12,verify_answer_crowd_answers=5,verify_fact_crowd_answers=5,satisfiable_crowd_answers=2,open_answer_variables=8\n\
     upper_bounds=9/12 edits=6#61efac21c4f9e9cf answers=5#c57716215d5417a3",
    "iterations=1 wrong=2 missing=2 anomalies=0 unresolved=0\n\
     deletion: verify_answer_questions=43,verify_fact_questions=8,closed_answers=51,verify_answer_crowd_answers=43,verify_fact_crowd_answers=8\n\
     insertion: satisfiable_questions=2,complete_tasks=2,complete_result_tasks=3,filled_variables=8,missing_answers_provided=2,closed_answers=2,satisfiable_crowd_answers=2,open_answer_variables=12\n\
     total: verify_answer_questions=43,verify_fact_questions=8,satisfiable_questions=2,complete_tasks=2,complete_result_tasks=3,filled_variables=8,missing_answers_provided=2,closed_answers=53,verify_answer_crowd_answers=43,verify_fact_crowd_answers=8,satisfiable_crowd_answers=2,open_answer_variables=12\n\
     upper_bounds=10/14 edits=6#d975aacae710a3fa answers=43#82924003ad8566ea",
    "iterations=1 wrong=2 missing=2 anomalies=0 unresolved=0\n\
     deletion: verify_answer_questions=40,verify_fact_questions=4,closed_answers=44,verify_answer_crowd_answers=40,verify_fact_crowd_answers=4\n\
     insertion: satisfiable_questions=2,complete_tasks=2,complete_result_tasks=3,filled_variables=2,missing_answers_provided=2,closed_answers=2,satisfiable_crowd_answers=2,open_answer_variables=4\n\
     total: verify_answer_questions=40,verify_fact_questions=4,satisfiable_questions=2,complete_tasks=2,complete_result_tasks=3,filled_variables=2,missing_answers_provided=2,closed_answers=46,verify_answer_crowd_answers=40,verify_fact_crowd_answers=4,satisfiable_crowd_answers=2,open_answer_variables=4\n\
     upper_bounds=16/10 edits=6#24fe0fa203ae6352 answers=40#ef838ad2f9b4e2c7",
];

const BATCHED: [&str; 3] = [
    "iterations=1 wrong=2 missing=2 anomalies=0 unresolved=0\n\
     deletion: verify_answer_questions=5,verify_fact_questions=5,closed_answers=20,verify_answer_crowd_answers=10,verify_fact_crowd_answers=10\n\
     insertion: verify_answer_questions=2,verify_fact_questions=6,satisfiable_questions=2,complete_tasks=2,complete_result_tasks=9,filled_variables=6,missing_answers_provided=2,closed_answers=20,verify_answer_crowd_answers=4,verify_fact_crowd_answers=12,satisfiable_crowd_answers=4,open_answer_variables=8\n\
     total: verify_answer_questions=7,verify_fact_questions=11,satisfiable_questions=2,complete_tasks=2,complete_result_tasks=9,filled_variables=6,missing_answers_provided=2,closed_answers=40,verify_answer_crowd_answers=14,verify_fact_crowd_answers=22,satisfiable_crowd_answers=4,open_answer_variables=8\n\
     upper_bounds=9/12 edits=6#61efac21c4f9e9cf answers=5#c57716215d5417a3",
    "iterations=1 wrong=2 missing=2 anomalies=0 unresolved=0\n\
     deletion: verify_answer_questions=43,verify_fact_questions=8,closed_answers=102,verify_answer_crowd_answers=86,verify_fact_crowd_answers=16\n\
     insertion: verify_answer_questions=2,verify_fact_questions=8,satisfiable_questions=2,complete_tasks=2,complete_result_tasks=9,filled_variables=8,missing_answers_provided=2,closed_answers=24,verify_answer_crowd_answers=4,verify_fact_crowd_answers=16,satisfiable_crowd_answers=4,open_answer_variables=12\n\
     total: verify_answer_questions=45,verify_fact_questions=16,satisfiable_questions=2,complete_tasks=2,complete_result_tasks=9,filled_variables=8,missing_answers_provided=2,closed_answers=126,verify_answer_crowd_answers=90,verify_fact_crowd_answers=32,satisfiable_crowd_answers=4,open_answer_variables=12\n\
     upper_bounds=10/14 edits=6#d975aacae710a3fa answers=43#82924003ad8566ea",
    "iterations=1 wrong=2 missing=2 anomalies=0 unresolved=0\n\
     deletion: verify_answer_questions=40,verify_fact_questions=4,closed_answers=88,verify_answer_crowd_answers=80,verify_fact_crowd_answers=8\n\
     insertion: verify_answer_questions=2,verify_fact_questions=4,satisfiable_questions=2,complete_tasks=2,complete_result_tasks=9,filled_variables=2,missing_answers_provided=2,closed_answers=16,verify_answer_crowd_answers=4,verify_fact_crowd_answers=8,satisfiable_crowd_answers=4,open_answer_variables=4\n\
     total: verify_answer_questions=42,verify_fact_questions=8,satisfiable_questions=2,complete_tasks=2,complete_result_tasks=9,filled_variables=2,missing_answers_provided=2,closed_answers=104,verify_answer_crowd_answers=84,verify_fact_crowd_answers=16,satisfiable_crowd_answers=4,open_answer_variables=4\n\
     upper_bounds=16/10 edits=6#24fe0fa203ae6352 answers=40#ef838ad2f9b4e2c7",
];

/// One wrong answer planted per disjunct as in the example; then the same
/// after planting one missing answer in the first disjunct (it exercises the
/// host-disjunct question).
const UNION: [&str; 2] = [
    "iterations=1 wrong=2 missing=0 anomalies=0 unresolved=0\n\
     deletion: verify_answer_questions=11,verify_fact_questions=4,closed_answers=15,verify_answer_crowd_answers=11,verify_fact_crowd_answers=4\n\
     insertion: complete_result_tasks=2\n\
     total: verify_answer_questions=11,verify_fact_questions=4,complete_result_tasks=2,closed_answers=15,verify_answer_crowd_answers=11,verify_fact_crowd_answers=4\n\
     upper_bounds=7/0 edits=4#da7ddb4db25efa20 answers=6#cfd9fd7f949ca450",
    "iterations=1 wrong=2 missing=1 anomalies=0 unresolved=0\n\
     deletion: verify_answer_questions=10,verify_fact_questions=5,closed_answers=15,verify_answer_crowd_answers=10,verify_fact_crowd_answers=5\n\
     insertion: satisfiable_questions=2,complete_tasks=1,complete_result_tasks=3,filled_variables=3,missing_answers_provided=1,closed_answers=2,satisfiable_crowd_answers=2,open_answer_variables=4\n\
     total: verify_answer_questions=10,verify_fact_questions=5,satisfiable_questions=2,complete_tasks=1,complete_result_tasks=3,filled_variables=3,missing_answers_provided=1,closed_answers=17,verify_answer_crowd_answers=10,verify_fact_crowd_answers=5,satisfiable_crowd_answers=2,open_answer_variables=4\n\
     upper_bounds=7/6 edits=5#473c16b214bed46f answers=6#cfd9fd7f949ca450",
];

#[test]
fn sequential_sessions_match_the_golden_run() {
    let ground = ground();
    let runs: Vec<String> = soccer_instances(&ground)
        .into_iter()
        .map(|(i, mut db)| {
            let q = soccer_query(ground.schema(), i);
            let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
            let report = clean_view(&q, &mut db, &mut crowd, CleaningConfig::default()).unwrap();
            summary(&report, &answer_set(&q, &db))
        })
        .collect();
    assert_eq!(runs, SEQUENTIAL);
}

#[test]
fn batched_sessions_match_the_golden_run() {
    let ground = ground();
    let runs: Vec<String> = soccer_instances(&ground)
        .into_iter()
        .map(|(i, mut db)| {
            let q = soccer_query(ground.schema(), i);
            let panel = (0..3).map(|_| PerfectOracle::new(ground.clone())).collect();
            let mut crowd = ParallelMajorityCrowd::new(panel);
            let report =
                clean_view_parallel(&q, &mut db, &mut crowd, CleaningConfig::default()).unwrap();
            summary(&report, &answer_set(&q, &db))
        })
        .collect();
    assert_eq!(runs, BATCHED);
}

#[test]
fn union_sessions_match_the_golden_run() {
    let ground = ground();
    let union = decorated(&ground);
    let plant_wrong = |mut db: Database| {
        for (i, q) in union.disjuncts().iter().enumerate() {
            db = plant_wrong_answers(q, &db, 1, 2, 60 + i as u64).db;
        }
        db
    };
    let wrong_only = plant_wrong(ground.clone());
    let mixed = plant_wrong(plant_missing_answers(&union.disjuncts()[0], &ground, 1, 2).db);
    let runs: Vec<String> = [wrong_only, mixed]
        .into_iter()
        .map(|mut db| {
            let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
            let report =
                clean_union_view(&union, &mut db, &mut crowd, CleaningConfig::default()).unwrap();
            summary(&report, &union_answer_set(&union, &db))
        })
        .collect();
    assert_eq!(runs, UNION);
}
