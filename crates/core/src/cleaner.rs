//! Algorithm 3: the iterative mixed cleaner (paper Section 6.1).
//!
//! Repeatedly: verify every unverified answer of `Q(D)` against the crowd,
//! removing the wrong ones (Algorithm 1); then ask the crowd for missing
//! answers (`COMPL(Q(D))`) and add each (Algorithm 2). Fixing one kind of
//! error can surface errors of the other kind (Example 6.1: inserting
//! `Teams(ITA, EU)` adds the wrong answer `(Totti)` as a side effect), so
//! the outer loop runs until the view is verified complete and correct. By
//! Proposition 3.3 every edit moves `D` towards `D_G`, so with a truthful
//! oracle the loop converges.
//!
//! One loop runs every variant of Algorithm 3. It cleans a union of
//! conjunctive queries — a CQ is the one-disjunct union — and keeps one
//! [`MaterializedView`] per disjunct, so no sweep re-evaluates a query. A
//! private sweep decides how questions reach the crowd: one at a time
//! ([`clean_view`], [`clean_union_view`](crate::ucq_clean::clean_union_view))
//! or batched over a whole verification sweep ([`clean_view_parallel`],
//! Section 6.2). The union-only steps (asking a later disjunct about an
//! answer the earlier ones rejected, and picking a disjunct to host a
//! missing answer) run only when there is more than one disjunct.

use std::collections::BTreeSet;
use std::slice::from_ref;

use qoco_crowd::{CompletenessEstimator, CrowdAccess, CrowdError, GroundTruthEstimator, Oracle};
use qoco_data::{Database, Tuple};
use qoco_engine::{Assignment, MaterializedView};
use qoco_query::{embed_answer, ConjunctiveQuery};
use qoco_telemetry::DecisionDetail;

use crate::deletion::{crowd_remove_wrong_answer_tracked, DeletionStrategy};
use crate::error::CleanError;
use crate::insertion::{crowd_add_missing_answer_tracked, InsertionOptions};
use crate::multi::ParallelMajorityCrowd;
pub use crate::report::CleaningReport;
use crate::report::UnresolvedPhase;
use crate::split::SplitStrategyKind;

/// Configuration for a full cleaning session.
#[derive(Debug, Clone, Copy)]
pub struct CleaningConfig {
    /// Deletion algorithm (Section 7.2 competitors).
    pub deletion: DeletionStrategy,
    /// Split strategy for insertions.
    pub split: SplitStrategyKind,
    /// Insertion options.
    pub insertion: InsertionOptions,
    /// Outer-loop budget; exceeded only with untruthful crowds.
    pub max_iterations: usize,
}

impl Default for CleaningConfig {
    fn default() -> Self {
        CleaningConfig {
            deletion: DeletionStrategy::Qoco,
            split: SplitStrategyKind::Provenance,
            insertion: InsertionOptions::default(),
            max_iterations: 25,
        }
    }
}

/// Run Algorithm 3: clean `db` until `Q(D′) = Q(D_G)` as certified by the
/// crowd, using the ground-truth-free protocol (the crowd is the only
/// source of truth; `db` is never compared to `D_G` directly).
///
/// The `estimator` is the enumeration black-box of Section 6.1 deciding
/// when the result is complete; pass a
/// [`GroundTruthEstimator`] for oracle-grade stopping or a
/// [`Chao92Estimator`](qoco_crowd::Chao92Estimator) for the statistical
/// variant. The crowd's `None` reply to `COMPL(Q(D))` also ends the
/// insertion phase.
pub fn clean_view_with_estimator<C: CrowdAccess + ?Sized>(
    q: &ConjunctiveQuery,
    db: &mut Database,
    crowd: &mut C,
    config: CleaningConfig,
    estimator: &mut dyn CompletenessEstimator,
) -> Result<CleaningReport, CleanError> {
    drive(
        sequential(),
        q.name(),
        from_ref(q),
        db,
        crowd,
        config,
        estimator,
    )
}

/// [`clean_view_with_estimator`] with a permissive estimator: the crowd's
/// `COMPL(Q(D))` replies alone decide completeness — the setting of the
/// paper's simulated-oracle experiments.
pub fn clean_view<C: CrowdAccess + ?Sized>(
    q: &ConjunctiveQuery,
    db: &mut Database,
    crowd: &mut C,
    config: CleaningConfig,
) -> Result<CleaningReport, CleanError> {
    clean_view_with_estimator(q, db, crowd, config, &mut crowd_decides())
}

/// Algorithm 3 with the Section 6.2 parallel verification sweep: all
/// unverified answers of `Q(D)` are verified concurrently and completion
/// questions go to the whole panel at once; the wrong answers are then
/// removed and the missing ones added sequentially (edits mutate `D`, and
/// Proposition 3.3's monotonicity argument is per-edit).
pub fn clean_view_parallel<O: Oracle + Send>(
    q: &ConjunctiveQuery,
    db: &mut Database,
    crowd: &mut ParallelMajorityCrowd<O>,
    config: CleaningConfig,
) -> Result<CleaningReport, CleanError> {
    let sweep: Sweep<ParallelMajorityCrowd<O>> = Sweep {
        batched: true,
        verify: |crowd, q, answers| crowd.verify_answers_parallel(q, answers),
        missing: |crowd, q, known| crowd.missing_answers_parallel(q, known),
    };
    drive(
        sweep,
        q.name(),
        from_ref(q),
        db,
        crowd,
        config,
        &mut crowd_decides(),
    )
}

/// An estimator that never claims completeness (`usize::MAX` distinct
/// answers will never be reached): the crowd's completeness judgement
/// alone ends the insertion phase.
pub(crate) fn crowd_decides() -> GroundTruthEstimator {
    GroundTruthEstimator::new(usize::MAX)
}

/// The crowd's replies to `TRUE(Q, t)?` for a list of answers, in order.
type Verdicts = Vec<Result<bool, CrowdError>>;

/// Verified missing answers, plus the crowd failure that cut the reply
/// short.
type Missing = (Vec<Tuple>, Option<CrowdError>);

/// How the loop puts `TRUE(Q, t)?` and `COMPL(Q(D))` to the crowd.
pub(crate) struct Sweep<C: ?Sized> {
    /// Verify every unverified answer up front (Section 6.2's "parallel
    /// foreach") instead of one answer at a time, right before acting on it.
    batched: bool,
    /// `TRUE(q, t)?` for every `t` of a slice.
    verify: fn(&mut C, &ConjunctiveQuery, &[Tuple]) -> Verdicts,
    /// The missing answers of `q` beyond the known ones.
    missing: fn(&mut C, &ConjunctiveQuery, &[Tuple]) -> Missing,
}

/// One question at a time, through [`CrowdAccess`].
pub(crate) fn sequential<C: CrowdAccess + ?Sized>() -> Sweep<C> {
    Sweep {
        batched: false,
        verify: |crowd, q, answers| answers.iter().map(|t| crowd.verify_answer(q, t)).collect(),
        missing: |crowd, q, known| match crowd.next_missing_answer(q, known) {
            Ok(t) => (t.into_iter().collect(), None),
            Err(e) => (Vec::new(), Some(e)),
        },
    }
}

/// The Algorithm 3 loop over the union of `disjuncts`, named `name`.
pub(crate) fn drive<C: CrowdAccess + ?Sized>(
    sweep: Sweep<C>,
    name: &str,
    disjuncts: &[ConjunctiveQuery],
    db: &mut Database,
    crowd: &mut C,
    config: CleaningConfig,
    estimator: &mut dyn CompletenessEstimator,
) -> Result<CleaningReport, CleanError> {
    let session_span = qoco_telemetry::span("clean.session")
        .field("query", name.to_string())
        .field("deletion", format!("{:?}", config.deletion))
        .field("split", format!("{:?}", config.split));
    let mut report = CleaningReport::new();
    let mut verified: BTreeSet<Tuple> = BTreeSet::new();
    let mut split = config.split.build();
    // The answer sets are maintained incrementally: every edit derived by
    // the tracked Algorithm 1/2 runs notifies every view, so the sweeps
    // below read cached answers instead of re-evaluating a query per
    // membership check.
    let mut views: Vec<MaterializedView> = disjuncts
        .iter()
        .map(|q| MaterializedView::new(q.clone(), db))
        .collect();

    loop {
        // resynchronize if the caller's database moved out of band
        for view in &mut views {
            view.sync(db);
        }
        // answers the crowd could not be reached about are skipped, so the
        // outer loop still terminates when the crowd dies
        let unverified: Vec<Tuple> = answers(&views)
            .into_iter()
            .filter(|t| !verified.contains(t) && !report.unresolved_about(t))
            .collect();
        // the first iteration runs even on an empty view (line 1's FirstIter)
        if report.iterations > 0 && unverified.is_empty() {
            break;
        }
        report.iterations += 1;
        if report.iterations > config.max_iterations {
            return Err(CleanError::IterationBudget {
                budget: config.max_iterations,
            });
        }
        let iteration = report.iterations;
        let iter_span = qoco_telemetry::span("clean.iteration").field("iteration", iteration);

        // ---- Deletion part (lines 2–6) ----
        let del_span =
            qoco_telemetry::span("clean.deletion_phase").field("unverified", unverified.len());
        let del_before = crowd.stats();
        let mut upfront = if sweep.batched {
            verify(&sweep, crowd, disjuncts, &unverified, iteration)
        } else {
            Vec::new()
        }
        .into_iter();
        for t in unverified {
            let verdict = match upfront.next() {
                Some(verdict) => verdict,
                // the answer may already have disappeared through earlier edits
                None if !hosted(&views, &t) => continue,
                None => verify(&sweep, crowd, disjuncts, from_ref(&t), iteration).remove(0),
            };
            match verdict {
                Ok(true) => {
                    verified.insert(t);
                }
                // a batched verdict can concern an answer an earlier
                // removal of the sweep already took out of the view
                Ok(false) if hosted(&views, &t) => {
                    qoco_telemetry::event("clean.wrong_answer", || format!("{t}"));
                    // a wrong answer must leave every disjunct producing it
                    let mut failure = None;
                    for (i, q) in disjuncts.iter().enumerate() {
                        if !views[i].contains(&t) {
                            continue;
                        }
                        let out = crowd_remove_wrong_answer_tracked(
                            q,
                            db,
                            &t,
                            crowd,
                            config.deletion,
                            &mut views,
                        )?;
                        report.deletion_upper_bound += out.upper_bound;
                        report.anomalies += out.anomalies;
                        report.edits.extend(out.edits);
                        failure = out.failure;
                        if failure.is_some() {
                            break;
                        }
                    }
                    match failure {
                        Some(e) => report.give_up(UnresolvedPhase::Delete, Some(t), &e),
                        // counted only when the removal actually completed —
                        // a crowd failure mid-removal leaves the answer in
                        // the view and is reported as unresolved instead
                        None => report.wrong_answers += 1,
                    }
                }
                Ok(false) => {}
                Err(e) => report.give_up(UnresolvedPhase::Verify, Some(t), &e),
            }
        }
        report
            .deletion_stats
            .absorb(&crowd.stats().since(&del_before));
        del_span.finish();

        // ---- Insertion part (lines 7–9) ----
        let ins_span = qoco_telemetry::span("clean.insertion_phase");
        let ins_before = crowd.stats();
        'insertion: loop {
            let known = answers(&views);
            if estimator.likely_complete(known.len()) {
                break;
            }
            let (batch, failure) = missing(&sweep, crowd, disjuncts, &known, iteration);
            if batch.is_empty() && failure.is_none() {
                break;
            }
            for t in batch {
                // an earlier insertion of the same batch may have added it
                if sweep.batched && hosted(&views, &t) {
                    verified.insert(t);
                    continue;
                }
                estimator.observe(&t);
                qoco_telemetry::event("clean.missing_answer", || format!("{t}"));
                // a missing answer needs one disjunct to produce it
                let mut achieved = false;
                for (i, q) in disjuncts.iter().enumerate() {
                    if disjuncts.len() > 1 {
                        match can_host(crowd, q, &t, i, disjuncts.len(), iteration) {
                            Ok(true) => {}
                            Ok(false) => continue,
                            Err(e) => {
                                report.give_up(UnresolvedPhase::Insert, Some(t), &e);
                                break 'insertion;
                            }
                        }
                    }
                    let out = crowd_add_missing_answer_tracked(
                        q,
                        db,
                        &t,
                        crowd,
                        &mut *split,
                        config.insertion,
                        &mut views,
                    )?;
                    report.insertion_upper_bound += out.upper_bound;
                    report.edits.extend(out.edits);
                    if let Some(e) = out.failure {
                        report.give_up(UnresolvedPhase::Insert, Some(t), &e);
                        break 'insertion;
                    }
                    if out.achieved {
                        achieved = true;
                        break;
                    }
                }
                report.missing_answers += 1;
                if achieved {
                    verified.insert(t);
                } else {
                    report.anomalies += 1;
                }
            }
            if let Some(e) = failure {
                report.give_up(UnresolvedPhase::Insert, None, &e);
                break;
            }
        }
        report
            .insertion_stats
            .absorb(&crowd.stats().since(&ins_before));
        ins_span.finish();
        iter_span.finish();
    }

    report.total_stats = report.deletion_stats;
    report.total_stats.absorb(&report.insertion_stats);
    session_span
        .field("iterations", report.iterations)
        .field("edits", report.edits.len())
        .finish();
    Ok(report)
}

/// The views' cached answers, sorted and distinct: the union's answer set.
fn answers(views: &[MaterializedView]) -> Vec<Tuple> {
    match views {
        [view] => view.answers(),
        _ => views
            .iter()
            .flat_map(MaterializedView::answers)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect(),
    }
}

/// Does some disjunct currently produce `t`?
fn hosted(views: &[MaterializedView], t: &Tuple) -> bool {
    views.iter().any(|v| v.contains(t))
}

/// Decision evidence shared by the loop's questions.
fn evidence(phase: &str, iteration: usize, i: usize, k: usize) -> Vec<(&'static str, String)> {
    let mut evidence = vec![
        ("phase", phase.to_string()),
        ("iteration", iteration.to_string()),
    ];
    if k > 1 {
        evidence.push(("disjunct", format!("{}/{k}", i + 1)));
    }
    evidence
}

fn outcome(reply: &Result<bool, CrowdError>) -> String {
    match reply {
        Ok(v) => v.to_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// `TRUE(U, t)?` for every answer. A union answer is true iff some
/// disjunct certifies it, so a later disjunct is asked only about the
/// answers every earlier one rejected; a crowd failure ends an answer's
/// questions.
fn verify<C: CrowdAccess + ?Sized>(
    sweep: &Sweep<C>,
    crowd: &mut C,
    disjuncts: &[ConjunctiveQuery],
    answers: &[Tuple],
    iteration: usize,
) -> Verdicts {
    let mut verdicts: Verdicts = answers.iter().map(|_| Ok(false)).collect();
    for (i, q) in disjuncts.iter().enumerate() {
        let open: Vec<usize> = (0..answers.len())
            .filter(|&j| matches!(verdicts[j], Ok(false)))
            .collect();
        if open.is_empty() {
            break;
        }
        let asked: Vec<Tuple> = open.iter().map(|&j| answers[j].clone()).collect();
        let decision = qoco_telemetry::begin_decision();
        let replies = (sweep.verify)(crowd, q, &asked);
        for (n, (&j, verdict)) in open.iter().zip(replies).enumerate() {
            // one decision per verdict; a batch's crowd calls ran on worker
            // threads, so only the first verdict's decision tags any of them
            let id = if n == 0 {
                decision
            } else {
                qoco_telemetry::begin_decision()
            };
            qoco_telemetry::finish_decision(id, "clean.verify_answer", || DecisionDetail {
                question: format!("TRUE({}, {})?", q.name(), answers[j]),
                outcome: outcome(&verdict),
                evidence: evidence("deletion-sweep", iteration, i, disjuncts.len()),
            });
            verdicts[j] = verdict;
        }
    }
    verdicts
}

/// `COMPL(U(D))`: each disjunct in turn, until one reports missing answers
/// or the crowd fails.
fn missing<C: CrowdAccess + ?Sized>(
    sweep: &Sweep<C>,
    crowd: &mut C,
    disjuncts: &[ConjunctiveQuery],
    known: &[Tuple],
    iteration: usize,
) -> Missing {
    for (i, q) in disjuncts.iter().enumerate() {
        let decision = qoco_telemetry::begin_decision();
        let (batch, failure) = (sweep.missing)(crowd, q, known);
        qoco_telemetry::finish_decision(decision, "clean.complete_result", || {
            let mut evidence = evidence("insertion-sweep", iteration, i, disjuncts.len());
            evidence.push(("known_answers", known.len().to_string()));
            let outcome = match (&failure, batch.as_slice()) {
                (Some(e), []) => format!("error: {e}"),
                (None, []) => "complete".to_string(),
                _ => {
                    let rendered: Vec<String> = batch.iter().map(Tuple::to_string).collect();
                    format!("missing: {}", rendered.join(", "))
                }
            };
            DecisionDetail {
                question: format!("COMPL({}(D))?", q.name()),
                outcome,
                evidence,
            }
        });
        if !batch.is_empty() || failure.is_some() {
            return (batch, failure);
        }
    }
    (Vec::new(), None)
}

/// `SAT(∅, Qᵢ|t)?`: can disjunct `i` of `k` host a witness for the missing
/// answer `t`? Insertion runs on the first disjunct that can. A disjunct
/// `t` cannot be embedded into is passed over without a question.
fn can_host<C: CrowdAccess + ?Sized>(
    crowd: &mut C,
    q: &ConjunctiveQuery,
    t: &Tuple,
    i: usize,
    k: usize,
    iteration: usize,
) -> Result<bool, CrowdError> {
    let Ok(q_t) = embed_answer(q, t.values()) else {
        return Ok(false);
    };
    let decision = qoco_telemetry::begin_decision();
    let hostable = crowd.verify_satisfiable(&q_t, &Assignment::new());
    qoco_telemetry::finish_decision(decision, "clean.pick_host_disjunct", || {
        let mut evidence = evidence("insertion-sweep", iteration, i, k);
        evidence.push(("missing_answer", t.to_string()));
        DecisionDetail {
            question: format!("SAT(∅, {})?", q_t.name()),
            outcome: outcome(&hostable),
            evidence,
        }
    });
    hostable
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_crowd::{PerfectOracle, SingleExpert};
    use qoco_data::{diff, tup, Schema};
    use qoco_engine::answer_set;
    use qoco_query::parse_query;
    use std::sync::Arc;

    /// Example 6.1's full scenario: the dirty D has
    ///  * missing Teams(ITA, EU) → (Pirlo) and (Totti) missing from Q2(D);
    ///  * false Goals(Totti, 09.06.06) → once Teams(ITA,EU) is added,
    ///    (Totti) would wrongly appear — unless QOCO removes the false
    ///    goal when it surfaces.
    fn setup() -> (Arc<Schema>, Database, Database, ConjunctiveQuery) {
        let schema = Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .relation("Players", &["name", "team", "birth_year", "birth_place"])
            .relation("Goals", &["name", "date"])
            .build()
            .unwrap();
        let mut d = Database::empty(schema.clone());
        d.insert_named("Games", tup!["09.06.06", "ITA", "FRA", "Final", "5:3"])
            .unwrap();
        for (c, k) in [("GER", "EU"), ("ESP", "EU")] {
            d.insert_named("Teams", tup![c, k]).unwrap();
        }
        d.insert_named("Players", tup!["Pirlo", "ITA", 1979, "ITA"])
            .unwrap();
        d.insert_named("Players", tup!["Totti", "ITA", 1976, "ITA"])
            .unwrap();
        d.insert_named("Goals", tup!["Pirlo", "09.06.06"]).unwrap();
        d.insert_named("Goals", tup!["Totti", "09.06.06"]).unwrap(); // false

        let mut g = Database::empty(schema.clone());
        g.insert_named("Games", tup!["09.06.06", "ITA", "FRA", "Final", "5:3"])
            .unwrap();
        for (c, k) in [("GER", "EU"), ("ESP", "EU"), ("ITA", "EU")] {
            g.insert_named("Teams", tup![c, k]).unwrap();
        }
        g.insert_named("Players", tup!["Pirlo", "ITA", 1979, "ITA"])
            .unwrap();
        g.insert_named("Players", tup!["Totti", "ITA", 1976, "ITA"])
            .unwrap();
        g.insert_named("Goals", tup!["Pirlo", "09.06.06"]).unwrap();

        let q = parse_query(
            &schema,
            r#"Q2(x) :- Players(x, y, z, w), Goals(x, d), Games(d, y, v, "Final", u), Teams(y, "EU")."#,
        )
        .unwrap();
        (schema, d, g, q)
    }

    #[test]
    fn converges_to_the_true_result() {
        let (_, mut d, g, q) = setup();
        let true_answers = {
            let gm = g.clone();
            answer_set(&q, &gm)
        };
        let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
        let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert_eq!(answer_set(&q, &d), true_answers);
        // Pirlo was missing; inserting Teams(ITA, EU) surfaced the wrong
        // (Totti) in a later iteration, which got removed.
        assert!(report.missing_answers >= 1);
        assert!(report.wrong_answers >= 1);
        assert!(report.iterations >= 2);
        // Q(D') = Q(D_G) even though D' ≠ D_G is allowed; here the false
        // goal fact must have been deleted:
        let goals = q.schema().rel_id("Goals").unwrap();
        assert!(!d.contains(&qoco_data::Fact::new(goals, tup!["Totti", "09.06.06"])));
    }

    #[test]
    fn every_edit_moves_towards_ground_truth() {
        // Proposition 3.3: replay the edit log and check the distance to
        // D_G never increases.
        let (_, d0, g, q) = setup();
        let mut d = d0.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
        let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        let mut replay = d0.clone();
        let mut dist = diff(&replay, &g).unwrap().distance();
        for e in report.edits.edits() {
            replay.apply(e).unwrap();
            let next = diff(&replay, &g).unwrap().distance();
            assert!(next <= dist, "edit {e:?} increased the distance");
            dist = next;
        }
    }

    #[test]
    fn clean_database_needs_no_edits() {
        let (_, _, g, q) = setup();
        let mut d = g.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert!(report.edits.is_empty());
        assert_eq!(report.wrong_answers, 0);
        assert_eq!(report.missing_answers, 0);
        // the single true answer (Pirlo; Totti has no goal in D_G) was
        // verified exactly once
        assert_eq!(report.total_stats.verify_answer_questions, 1);
    }

    #[test]
    fn empty_view_with_missing_answers_is_filled() {
        // first-iteration case: Q(D) empty but Q(D_G) not (line 1's
        // FirstIter flag).
        let (_, mut d, g, q) = setup();
        // remove everything that supports answers in D
        let goals = q.schema().rel_id("Goals").unwrap();
        d.remove(&qoco_data::Fact::new(goals, tup!["Pirlo", "09.06.06"]))
            .unwrap();
        d.remove(&qoco_data::Fact::new(goals, tup!["Totti", "09.06.06"]))
            .unwrap();
        assert!(answer_set(&q, &d).is_empty());
        let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
        let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        let true_answers = {
            let gm = g.clone();
            answer_set(&q, &gm)
        };
        assert_eq!(answer_set(&q, &d), true_answers);
        assert!(report.missing_answers >= 1);
    }

    #[test]
    fn ground_truth_estimator_stops_insertions_early() {
        let (_, mut d, g, q) = setup();
        // an estimator that claims completeness at 0 answers: no insertion
        // questions at all
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let mut estimator = GroundTruthEstimator::new(0);
        let report = clean_view_with_estimator(
            &q,
            &mut d,
            &mut crowd,
            CleaningConfig::default(),
            &mut estimator,
        )
        .unwrap();
        assert_eq!(report.missing_answers, 0);
        assert_eq!(report.total_stats.complete_result_tasks, 0);
    }

    #[test]
    fn all_strategy_combinations_converge() {
        let (_, d, g, q) = setup();
        let strategies = [
            (DeletionStrategy::Qoco, SplitStrategyKind::Provenance),
            (DeletionStrategy::QocoMinus, SplitStrategyKind::MinCut),
            (DeletionStrategy::Random(3), SplitStrategyKind::Random(3)),
            (DeletionStrategy::Qoco, SplitStrategyKind::Naive),
        ];
        let true_answers = {
            let gm = g.clone();
            answer_set(&q, &gm)
        };
        for (deletion, split) in strategies {
            let mut di = d.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
            let config = CleaningConfig {
                deletion,
                split,
                ..Default::default()
            };
            clean_view(&q, &mut di, &mut crowd, config).unwrap();
            assert_eq!(
                answer_set(&q, &di),
                true_answers,
                "strategy {deletion:?}/{split:?} failed to converge"
            );
        }
    }
}
