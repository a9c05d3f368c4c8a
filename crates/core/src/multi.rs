//! Multiple imperfect experts, in parallel (paper Section 6.2).
//!
//! Two ingredients:
//!
//! * **imperfection** — every closed question goes to a fixed-size panel
//!   with majority voting and early stop; open answers are re-verified with
//!   closed questions (this part is shared with
//!   [`qoco_crowd::MajorityCrowd`]);
//! * **parallelism** — "we verify the correctness of all tuples in `Q(D)`
//!   at the same time": [`ParallelMajorityCrowd`] fans a batch of
//!   verification questions out over worker threads (crossbeam scoped
//!   threads, one lock per expert), and
//!   [`clean_view_parallel`](crate::cleaner::clean_view_parallel) runs the
//!   Algorithm 3 loop with those batches as its verification sweep.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

use qoco_crowd::{
    ask_with_retry, Answer, CrowdAccess, CrowdError, CrowdStats, Oracle, OracleError, Question,
    RetryPolicy,
};
use qoco_data::{Fact, Tuple};
use qoco_engine::Assignment;
use qoco_query::ConjunctiveQuery;

/// A panel of experts usable from multiple threads: each expert sits behind
/// its own lock, so distinct questions proceed concurrently on distinct
/// experts.
pub struct ParallelMajorityCrowd<O: Oracle + Send> {
    experts: Vec<Mutex<O>>,
    /// Per-expert permanent-failure latches: an expert that returns
    /// [`OracleError::Dropped`] is excluded from every later question and
    /// the quorum shrinks to the experts still alive.
    dead: Vec<AtomicBool>,
    stats: Mutex<CrowdStats>,
    rotation: AtomicUsize,
    policy: RetryPolicy,
}

impl<O: Oracle + Send> ParallelMajorityCrowd<O> {
    /// Build from a panel (odd-sized panels make every majority decisive),
    /// with the default [`RetryPolicy`].
    ///
    /// # Panics
    /// Panics on an empty panel.
    pub fn new(experts: Vec<O>) -> Self {
        Self::with_policy(experts, RetryPolicy::default())
    }

    /// [`ParallelMajorityCrowd::new`] with an explicit retry policy.
    ///
    /// # Panics
    /// Panics on an empty panel.
    pub fn with_policy(experts: Vec<O>, policy: RetryPolicy) -> Self {
        assert!(!experts.is_empty(), "the crowd needs at least one expert");
        ParallelMajorityCrowd {
            dead: experts.iter().map(|_| AtomicBool::new(false)).collect(),
            experts: experts.into_iter().map(Mutex::new).collect(),
            stats: Mutex::new(CrowdStats::new()),
            rotation: AtomicUsize::new(0),
            policy,
        }
    }

    /// Panel size.
    pub fn size(&self) -> usize {
        self.experts.len()
    }

    /// Experts still alive (not permanently dropped).
    pub fn alive(&self) -> usize {
        self.dead
            .iter()
            .filter(|d| !d.load(Ordering::SeqCst))
            .count()
    }

    /// The alive experts, or the error a question gets when they are fewer
    /// than the policy's quorum.
    fn quorum(&self, q: &Question) -> Result<Vec<usize>, CrowdError> {
        let alive: Vec<usize> = (0..self.experts.len())
            .filter(|&i| !self.dead[i].load(Ordering::SeqCst))
            .collect();
        if alive.is_empty() || alive.len() < self.policy.min_quorum {
            return Err(CrowdError::new(q, 0, OracleError::Dropped));
        }
        Ok(alive)
    }

    /// Ask one expert one question under the retry policy: the sequential
    /// session's retry loop, run under this expert's lock, with its fault
    /// and retry accounting merged into the shared ledger.
    fn ask_one(&self, idx: usize, q: &Question) -> Result<Answer, OracleError> {
        let mut dead = self.dead[idx].load(Ordering::SeqCst);
        let mut stats = CrowdStats::new();
        let mut expert = self.experts[idx].lock();
        let reply = ask_with_retry(&mut *expert, q, &self.policy, &mut dead, &mut stats);
        drop(expert);
        if dead {
            self.dead[idx].store(true, Ordering::SeqCst);
        }
        self.stats.lock().absorb(&stats);
        reply.map_err(|e| e.last)
    }

    /// Majority-vote one closed question over the alive panel (early stop
    /// at a strict majority; failing experts escalate to the rest).
    fn majority_bool(&self, q: &Question) -> Result<bool, CrowdError> {
        let alive = self.quorum(q)?;
        let need = alive.len() / 2 + 1;
        let mut yes = 0usize;
        let mut no = 0usize;
        let mut answered = 0usize;
        let mut last = OracleError::Dropped;
        for (pos, &idx) in alive.iter().enumerate() {
            match self.ask_one(idx, q) {
                Ok(a) => {
                    let b = a.expect_bool();
                    answered += 1;
                    self.stats.lock().count_closed_answer(q);
                    if b {
                        yes += 1;
                    } else {
                        no += 1;
                    }
                    if yes >= need || no >= need {
                        break;
                    }
                }
                Err(e) => {
                    last = e;
                    if pos + 1 < alive.len() {
                        self.stats.lock().escalations += 1;
                        qoco_telemetry::counter_add("crowd.escalations", 1);
                        qoco_telemetry::record_decision("crowd.escalation", || {
                            qoco_telemetry::DecisionDetail {
                                question: format!("{q:?}"),
                                outcome: format!(
                                    "expert {idx} failed ({}); escalating to the next panelist",
                                    last.as_str()
                                ),
                                evidence: vec![
                                    ("expert", idx.to_string()),
                                    ("answered_so_far", answered.to_string()),
                                    ("panel", alive.len().to_string()),
                                ],
                            }
                        });
                    }
                }
            }
        }
        if answered == 0 {
            return Err(CrowdError::new(q, 0, last));
        }
        // Same verdict rule as the sequential MajorityCrowd: majority of
        // the answers actually delivered, ties → NO.
        Ok(yes > no)
    }

    /// Verify a whole batch of `TRUE(Q, t)?` questions concurrently — the
    /// "parallel foreach" of Section 6.2. Order of results matches the
    /// input order. Worker count is `min(batch, experts)`, so each worker
    /// tends to have an uncontended expert available.
    pub fn verify_answers_parallel(
        &self,
        q: &ConjunctiveQuery,
        answers: &[Tuple],
    ) -> Vec<Result<bool, CrowdError>> {
        if answers.is_empty() {
            return Vec::new();
        }
        {
            let mut s = self.stats.lock();
            s.verify_answer_questions += answers.len();
        }
        let verdicts: Vec<Mutex<Option<Result<bool, CrowdError>>>> =
            answers.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.experts.len().min(answers.len()).max(1);
        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= answers.len() {
                        break;
                    }
                    let question = Question::VerifyAnswer {
                        query: q.clone(),
                        answer: answers[i].clone(),
                    };
                    let verdict = self.majority_bool(&question);
                    *verdicts[i].lock() = Some(verdict);
                });
            }
        })
        .expect("verification workers do not panic");
        verdicts
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("every answer index is claimed by exactly one worker")
            })
            .collect()
    }
}

impl<O: Oracle + Send> CrowdAccess for ParallelMajorityCrowd<O> {
    fn verify_fact(&mut self, f: &Fact) -> Result<bool, CrowdError> {
        self.stats.lock().verify_fact_questions += 1;
        self.majority_bool(&Question::VerifyFact(f.clone()))
    }

    fn verify_answer(&mut self, q: &ConjunctiveQuery, t: &Tuple) -> Result<bool, CrowdError> {
        self.stats.lock().verify_answer_questions += 1;
        self.majority_bool(&Question::VerifyAnswer {
            query: q.clone(),
            answer: t.clone(),
        })
    }

    fn verify_satisfiable(
        &mut self,
        q: &ConjunctiveQuery,
        partial: &Assignment,
    ) -> Result<bool, CrowdError> {
        self.stats.lock().satisfiable_questions += 1;
        self.majority_bool(&Question::VerifySatisfiable {
            query: q.clone(),
            partial: partial.clone(),
        })
    }

    fn complete(
        &mut self,
        q: &ConjunctiveQuery,
        partial: &Assignment,
    ) -> Result<Option<Assignment>, CrowdError> {
        let question = Question::Complete {
            query: q.clone(),
            partial: partial.clone(),
        };
        self.open_question(&question, |answer| {
            let Some(total) = answer.expect_completion() else {
                return Ok(None);
            };
            let filled = total.len().saturating_sub(partial.len());
            {
                let mut s = self.stats.lock();
                s.filled_variables += filled;
                s.open_answer_variables += filled;
            }
            // re-verify the provided witness facts with closed questions
            for atom in q.atoms() {
                let Some(fact) = total.ground_atom(atom) else {
                    return Ok(None);
                };
                self.stats.lock().verify_fact_questions += 1;
                if !self.majority_bool(&Question::VerifyFact(fact))? {
                    return Ok(None);
                }
            }
            let consistent = q
                .inequalities()
                .iter()
                .all(|e| total.check_inequality(e) == Some(true));
            Ok(consistent.then_some(total))
        })
    }

    fn next_missing_answer(
        &mut self,
        q: &ConjunctiveQuery,
        known: &[Tuple],
    ) -> Result<Option<Tuple>, CrowdError> {
        let question = Question::CompleteResult {
            query: q.clone(),
            known: known.to_vec(),
        };
        self.open_question(&question, |answer| match answer.expect_missing() {
            Some(t) => Ok(self.confirm_missing(q, &t)?.then_some(t)),
            None => Ok(None),
        })
    }

    fn stats(&self) -> CrowdStats {
        *self.stats.lock()
    }
}

impl<O: Oracle + Send> ParallelMajorityCrowd<O> {
    /// Put an open question to one alive expert after another, in rotation,
    /// until `accept` takes a reply. A failing expert escalates to the next;
    /// a crowd where nobody replied is an error.
    fn open_question<T>(
        &self,
        question: &Question,
        mut accept: impl FnMut(Answer) -> Result<Option<T>, CrowdError>,
    ) -> Result<Option<T>, CrowdError> {
        let alive = self.quorum(question)?;
        let n = alive.len();
        let start = self.rotation.fetch_add(1, Ordering::Relaxed);
        let mut any_reply = false;
        let mut last = OracleError::Dropped;
        for i in 0..n {
            let idx = alive[(start + i) % n];
            self.count_open_task(question, 1);
            match self.ask_one(idx, question) {
                Ok(answer) => {
                    any_reply = true;
                    if let Some(accepted) = accept(answer)? {
                        return Ok(Some(accepted));
                    }
                }
                Err(e) => {
                    last = e;
                    self.stats.lock().escalations += 1;
                    qoco_telemetry::counter_add("crowd.escalations", 1);
                }
            }
        }
        if !any_reply {
            return Err(CrowdError::new(question, n, last));
        }
        Ok(None)
    }

    /// Count `n` tasks of an open question's kind in the ledger.
    fn count_open_task(&self, question: &Question, n: usize) {
        let mut s = self.stats.lock();
        match question {
            Question::Complete { .. } => s.complete_tasks += n,
            _ => s.complete_result_tasks += n,
        }
    }

    /// Majority-verify a missing answer an expert reported: open answers
    /// are re-verified with closed questions.
    fn confirm_missing(&self, q: &ConjunctiveQuery, t: &Tuple) -> Result<bool, CrowdError> {
        {
            let mut s = self.stats.lock();
            s.open_answer_variables += q.head().len();
            s.verify_answer_questions += 1;
        }
        let confirmed = self.majority_bool(&Question::VerifyAnswer {
            query: q.clone(),
            answer: t.clone(),
        })?;
        if confirmed {
            self.stats.lock().missing_answers_provided += 1;
        }
        Ok(confirmed)
    }

    /// Post `COMPL(Q(D))` to every alive expert concurrently ("post
    /// together multiple completion questions", Section 6.2), deduplicate
    /// the replies and majority-verify each candidate. Returns the
    /// verified missing answers plus the crowd failure that cut the batch
    /// short, if any (no alive expert replied, or verification lost its
    /// quorum mid-batch).
    pub fn missing_answers_parallel(
        &self,
        q: &ConjunctiveQuery,
        known: &[Tuple],
    ) -> (Vec<Tuple>, Option<CrowdError>) {
        let question = Question::CompleteResult {
            query: q.clone(),
            known: known.to_vec(),
        };
        let alive = match self.quorum(&question) {
            Ok(alive) => alive,
            Err(e) => return (Vec::new(), Some(e)),
        };
        let replies: Vec<Mutex<Result<Option<Tuple>, OracleError>>> = alive
            .iter()
            .map(|_| Mutex::new(Err(OracleError::Dropped)))
            .collect();
        crossbeam::thread::scope(|scope| {
            for (slot, &idx) in replies.iter().zip(&alive) {
                let question = &question;
                scope.spawn(move |_| {
                    *slot.lock() = self.ask_one(idx, question).map(|a| a.expect_missing());
                });
            }
        })
        .expect("completion workers do not panic");
        self.count_open_task(&question, alive.len());
        let outcomes: Vec<Result<Option<Tuple>, OracleError>> =
            replies.into_iter().map(|m| m.into_inner()).collect();
        if outcomes.iter().all(|r| r.is_err()) {
            let last = outcomes
                .into_iter()
                .filter_map(|r| r.err())
                .next_back()
                .unwrap_or(OracleError::Dropped);
            return (
                Vec::new(),
                Some(CrowdError::new(&question, alive.len(), last)),
            );
        }
        let mut candidates: Vec<Tuple> = outcomes
            .into_iter()
            .filter_map(|r| r.ok().flatten())
            .collect();
        candidates.sort();
        candidates.dedup();
        let mut verified = Vec::new();
        for t in candidates {
            match self.confirm_missing(q, &t) {
                Ok(true) => verified.push(t),
                Ok(false) => {}
                Err(e) => return (verified, Some(e)),
            }
        }
        (verified, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cleaner::{clean_view_parallel, CleaningConfig};
    use crate::report::UnresolvedPhase;
    use qoco_crowd::{FaultPlan, FaultyOracle, ImperfectOracle, PerfectOracle};
    use qoco_data::{tup, Database, Schema};
    use qoco_engine::answer_set;
    use qoco_query::parse_query;
    use std::sync::Arc;

    fn faulty(g: &Database, spec: &str) -> FaultyOracle<PerfectOracle> {
        let plan = if spec.is_empty() {
            FaultPlan::none()
        } else {
            spec.parse().unwrap()
        };
        FaultyOracle::new(PerfectOracle::new(g.clone()), plan)
    }

    fn setup() -> (Arc<Schema>, Database, Database, ConjunctiveQuery) {
        let schema = Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .build()
            .unwrap();
        let mut d = Database::empty(schema.clone());
        for (dt, w, r, s, u) in [
            ("11.07.10", "ESP", "NED", "Final", "1:0"),
            ("12.07.98", "ESP", "NED", "Final", "4:2"), // false
            ("13.07.14", "GER", "ARG", "Final", "1:0"),
            ("08.07.90", "GER", "ARG", "Final", "1:0"),
        ] {
            d.insert_named("Games", tup![dt, w, r, s, u]).unwrap();
        }
        d.insert_named("Teams", tup!["ESP", "EU"]).unwrap();
        d.insert_named("Teams", tup!["GER", "EU"]).unwrap();
        // ITA missing entirely
        let mut g = Database::empty(schema.clone());
        for (dt, w, r, s, u) in [
            ("11.07.10", "ESP", "NED", "Final", "1:0"),
            ("13.07.14", "GER", "ARG", "Final", "1:0"),
            ("08.07.90", "GER", "ARG", "Final", "1:0"),
            ("09.07.06", "ITA", "FRA", "Final", "5:3"),
            ("11.07.82", "ITA", "GER", "Final", "3:1"),
        ] {
            g.insert_named("Games", tup![dt, w, r, s, u]).unwrap();
        }
        for c in ["ESP", "GER", "ITA"] {
            g.insert_named("Teams", tup![c, "EU"]).unwrap();
        }
        let q = parse_query(
            &schema,
            r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
        )
        .unwrap();
        (schema, d, g, q)
    }

    fn true_answers(g: &Database, q: &ConjunctiveQuery) -> Vec<Tuple> {
        let gm = g.clone();
        answer_set(q, &gm)
    }

    #[test]
    fn parallel_batch_verification_matches_sequential() {
        let (_, d, g, q) = setup();
        let crowd = ParallelMajorityCrowd::new(
            (0..3)
                .map(|_| PerfectOracle::new(g.clone()))
                .collect::<Vec<_>>(),
        );
        let answers = answer_set(&q, &d);
        let verdicts = crowd.verify_answers_parallel(&q, &answers);
        assert_eq!(verdicts.len(), answers.len());
        let truth = true_answers(&g, &q);
        for (t, v) in answers.iter().zip(&verdicts) {
            assert_eq!(*v.as_ref().unwrap(), truth.contains(t), "verdict for {t}");
        }
        // early stop: 2 answers per question with unanimous experts
        assert_eq!(crowd.stats().closed_answers, 2 * answers.len());
    }

    #[test]
    fn parallel_cleaner_converges_with_perfect_panel() {
        let (_, mut d, g, q) = setup();
        let mut crowd = ParallelMajorityCrowd::new(
            (0..3)
                .map(|_| PerfectOracle::new(g.clone()))
                .collect::<Vec<_>>(),
        );
        let report =
            clean_view_parallel(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert_eq!(answer_set(&q, &d), true_answers(&g, &q));
        assert!(report.wrong_answers >= 1, "ESP must be caught");
        assert!(report.missing_answers >= 1, "ITA must be added");
    }

    #[test]
    fn parallel_cleaner_survives_one_liar() {
        let (_, mut d, g, q) = setup();
        // one always-lying expert outvoted by two perfect ones
        let experts: Vec<Box<dyn Oracle + Send>> = vec![
            Box::new(ImperfectOracle::new(g.clone(), 1.0, 99)),
            Box::new(PerfectOracle::new(g.clone())),
            Box::new(PerfectOracle::new(g.clone())),
        ];
        let mut crowd = ParallelMajorityCrowd::new(experts);
        let report =
            clean_view_parallel(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert_eq!(answer_set(&q, &d), true_answers(&g, &q));
        assert_eq!(report.anomalies, 0);
    }

    #[test]
    fn parallel_cleaner_with_noisy_experts_converges() {
        let (_, mut d, g, q) = setup();
        let experts: Vec<ImperfectOracle> = (0..5)
            .map(|i| ImperfectOracle::new(g.clone(), 0.1, 1000 + i))
            .collect();
        let mut crowd = ParallelMajorityCrowd::new(experts);
        let report = clean_view_parallel(
            &q,
            &mut d,
            &mut crowd,
            CleaningConfig {
                max_iterations: 50,
                ..Default::default()
            },
        );
        // with 5 experts at 10% error, majority voting virtually always
        // converges to the truth
        let report = report.expect("cleaning should converge");
        assert_eq!(answer_set(&q, &d), true_answers(&g, &q));
        assert!(report.total_stats.closed_answers > 0);
    }

    #[test]
    fn parallel_missing_answer_batch_collects_and_verifies() {
        let (_, d, g, q) = setup();
        let crowd = ParallelMajorityCrowd::new(
            (0..3)
                .map(|_| PerfectOracle::new(g.clone()))
                .collect::<Vec<_>>(),
        );
        let known = answer_set(&q, &d);
        let (batch, failure) = crowd.missing_answers_parallel(&q, &known);
        assert!(failure.is_none());
        // ITA is missing from the view; all experts report it, deduped
        assert_eq!(batch, vec![tup!["ITA"]]);
        let st = crowd.stats();
        assert_eq!(st.complete_result_tasks, 3, "one task per expert");
        assert_eq!(st.missing_answers_provided, 1, "deduplicated");
    }

    #[test]
    fn empty_batch_is_free() {
        let (_, _, g, q) = setup();
        let crowd = ParallelMajorityCrowd::new(vec![PerfectOracle::new(g)]);
        assert!(crowd.verify_answers_parallel(&q, &[]).is_empty());
        assert_eq!(crowd.stats().closed_answers, 0);
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn empty_panel_panics() {
        let _ = ParallelMajorityCrowd::<PerfectOracle>::new(vec![]);
    }

    #[test]
    fn parallel_crowd_degrades_quorum_when_an_expert_drops() {
        let (_, mut d, g, q) = setup();
        // one expert drops on its very first question, the other two stay
        let experts = vec![faulty(&g, "drop@0"), faulty(&g, ""), faulty(&g, "")];
        let mut crowd = ParallelMajorityCrowd::new(experts);
        let report =
            clean_view_parallel(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert_eq!(answer_set(&q, &d), true_answers(&g, &q));
        assert!(!report.is_partial(), "two alive experts still answer");
        assert_eq!(crowd.alive(), 2);
        assert!(crowd.stats().faults >= 1);
    }

    #[test]
    fn fully_dropped_parallel_panel_yields_a_partial_report() {
        let (_, mut d, g, q) = setup();
        let experts = vec![
            faulty(&g, "drop@0"),
            faulty(&g, "drop@0"),
            faulty(&g, "drop@0"),
        ];
        let mut crowd = ParallelMajorityCrowd::new(experts);
        let report = clean_view_parallel(&q, &mut d, &mut crowd, CleaningConfig::default())
            .expect("a dead crowd must yield a partial report, not an error");
        assert!(report.is_partial());
        assert!(report
            .unresolved
            .iter()
            .any(|u| u.phase == UnresolvedPhase::Verify));
        assert!(report
            .unresolved
            .iter()
            .any(|u| u.phase == UnresolvedPhase::Insert));
        assert_eq!(crowd.alive(), 0);
        assert!(
            report.edits.is_empty(),
            "nothing was confirmed, nothing edited"
        );
    }
}
