//! Cleaning views defined by *unions* of conjunctive queries.
//!
//! The paper (Section 2) states all results extend to unions of CQs; the
//! Algorithm 3 loop in [`crate::cleaner`] carries that out on top of the
//! single-CQ algorithms:
//!
//! * a tuple is a **true** answer of `U = Q₁ ∪ … ∪ Qₖ` iff it is a true
//!   answer of *some* disjunct, so verification asks per-disjunct
//!   `TRUE(Qᵢ, t)?` until one says yes (at most `k` questions);
//! * a **wrong** answer must be removed from *every* disjunct that produces
//!   it — each removal is an Algorithm 1 run on that disjunct;
//! * a **missing** answer needs only *one* disjunct to produce it — QOCO
//!   asks which disjunct can host a witness (a satisfiability question on
//!   the embedded `Qᵢ|t`) and runs Algorithm 2 there.

use qoco_crowd::CrowdAccess;
use qoco_data::{Database, Tuple};
use qoco_engine::answer_set;
use qoco_query::UnionQuery;

use crate::cleaner::{crowd_decides, drive, sequential, CleaningConfig, CleaningReport};
use crate::error::CleanError;

/// The union's answer set over `db`: the union of the disjuncts' answers.
pub fn union_answer_set(uq: &UnionQuery, db: &Database) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = uq
        .disjuncts()
        .iter()
        .flat_map(|q| answer_set(q, db))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Clean a union view until `U(D′) = U(D_G)` as certified by the crowd —
/// the Algorithm 3 loop over the union's disjuncts.
pub fn clean_union_view<C: CrowdAccess + ?Sized>(
    uq: &UnionQuery,
    db: &mut Database,
    crowd: &mut C,
    config: CleaningConfig,
) -> Result<CleaningReport, CleanError> {
    let estimator = &mut crowd_decides();
    drive(
        sequential(),
        uq.name(),
        uq.disjuncts(),
        db,
        crowd,
        config,
        estimator,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_crowd::{PerfectOracle, SingleExpert};
    use qoco_data::{tup, Schema};
    use qoco_query::parse_query;
    use std::sync::Arc;

    /// Union view: teams that won a final ∪ teams that lost a final
    /// ("teams that played a final").
    fn setup() -> (Arc<Schema>, Database, Database, UnionQuery) {
        let schema = Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .build()
            .unwrap();
        let mut d = Database::empty(schema.clone());
        d.insert_named("Games", tup!["13.07.14", "GER", "ARG", "Final", "1:0"])
            .unwrap();
        // false: BRA never beat FRA in a final
        d.insert_named("Games", tup!["99.99.99", "BRA", "FRA", "Final", "9:0"])
            .unwrap();

        let mut g = Database::empty(schema.clone());
        g.insert_named("Games", tup!["13.07.14", "GER", "ARG", "Final", "1:0"])
            .unwrap();
        g.insert_named("Games", tup!["11.07.10", "ESP", "NED", "Final", "1:0"])
            .unwrap();

        let q_win = parse_query(&schema, r#"W(x) :- Games(d, x, y, "Final", u)"#).unwrap();
        let q_lose = parse_query(&schema, r#"L(x) :- Games(d, y, x, "Final", u)"#).unwrap();
        let uq = UnionQuery::new("Finalists", vec![q_win, q_lose]).unwrap();
        (schema, d, g, uq)
    }

    #[test]
    fn union_answers_union_the_disjuncts() {
        let (_, d, _, uq) = setup();
        let answers = union_answer_set(&uq, &d);
        // winners GER, BRA; losers ARG, FRA
        assert_eq!(
            answers,
            vec![tup!["ARG"], tup!["BRA"], tup!["FRA"], tup!["GER"]]
        );
    }

    #[test]
    fn union_cleaning_converges() {
        let (_, mut d, g, uq) = setup();
        let truth = {
            let gm = g.clone();
            union_answer_set(&uq, &gm)
        };
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let report = clean_union_view(&uq, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert_eq!(union_answer_set(&uq, &d), truth);
        // BRA and FRA were wrong (and fixed by the same fact deletion);
        // ESP and NED were missing — inserting the 2010 final for ESP
        // fixes NED as a side effect, so at least one is reported
        assert!(report.wrong_answers >= 1);
        assert!(report.missing_answers >= 1);
        assert_eq!(report.anomalies, 0);
    }

    #[test]
    fn answer_true_via_second_disjunct_is_kept() {
        let (_, mut d, g, uq) = setup();
        // ARG is a true answer via the *loser* disjunct only; cleaning must
        // not remove it even though the winner disjunct rejects it
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        clean_union_view(&uq, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert!(union_answer_set(&uq, &d).contains(&tup!["ARG"]));
    }

    #[test]
    fn clean_union_on_clean_db_is_free() {
        let (_, _, g, uq) = setup();
        let mut d = g.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let report = clean_union_view(&uq, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert!(report.edits.is_empty());
    }
}
