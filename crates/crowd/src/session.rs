//! Crowd sessions: the typed interface the cleaning algorithms use.
//!
//! [`CrowdAccess`] wraps oracles behind typed ask-methods and records every
//! interaction in a [`CrowdStats`] ledger. Two implementations:
//!
//! * [`SingleExpert`] — one oracle, each question asked once (the perfect
//!   oracle setting of Figure 3);
//! * [`MajorityCrowd`] — a panel of experts with majority voting and early
//!   stop, plus closed-question re-verification of every open answer
//!   (Section 6.2, Figure 4). This is the "simple estimation method where
//!   each question is posed to a fixed-size sample of the crowd members"
//!   with majority aggregation; any other black-box aggregator could be
//!   slotted in the same way.
//!
//! Oracles are fallible (see [`crate::fault`]): every ask-method returns
//! `Result<_, CrowdError>`. Failures are absorbed by a [`RetryPolicy`] —
//! transient timeouts are retried with a deterministic *simulated* backoff
//! (a counter, not a sleep), abstentions escalate to other panel members,
//! and permanently dropped experts shrink [`MajorityCrowd`]'s quorum. Only
//! when the policy is exhausted does a [`CrowdError`] surface, which the
//! cleaners turn into an `unresolved` entry of a partial report. With an
//! infallible oracle none of this machinery runs: the ask order, early-stop
//! points and stat counts are identical to the pre-fault implementation.

use std::fmt;

use qoco_data::{Fact, Tuple};
use qoco_engine::Assignment;
use qoco_query::ConjunctiveQuery;

use crate::fault::OracleError;
use crate::oracle::Oracle;
use crate::question::Question;
use crate::stats::CrowdStats;

/// Report one crowd interaction to the telemetry layer: bump the
/// `crowd.questions_asked` counter, the live `session.questions_asked`
/// gauge, and emit a timeline event, then advance the qoco-watch logical
/// clock — crowd-answer boundaries *are* the deterministic tick, so a
/// journal-resumed session replays the identical sample series. Inert
/// (one atomic load each) while telemetry is disabled or no watch runs.
fn tel_question(name: &'static str, detail: impl FnOnce() -> String) {
    qoco_telemetry::counter_add("crowd.questions_asked", 1);
    qoco_telemetry::gauge_add("session.questions_asked", 1.0);
    qoco_telemetry::event(name, detail);
    qoco_telemetry::watch_tick();
}

/// A question the crowd could not answer even after the retry policy was
/// exhausted. Carries enough context for a report's `unresolved` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrowdError {
    /// The question that went unanswered (its `Debug` rendering).
    pub question: String,
    /// Individual asks spent before giving up (across retries and panel
    /// members).
    pub attempts: usize,
    /// The final fault observed.
    pub last: OracleError,
}

impl CrowdError {
    /// The error for question `q`, unanswered after `attempts` asks.
    pub fn new(q: &Question, attempts: usize, last: OracleError) -> CrowdError {
        CrowdError {
            question: format!("{q:?}"),
            attempts,
            last,
        }
    }
}

impl fmt::Display for CrowdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crowd unavailable for {} after {} attempt(s): {}",
            self.question, self.attempts, self.last
        )
    }
}

/// How a session absorbs oracle faults before surfacing a [`CrowdError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries (beyond the first ask) for a *transient* fault (timeout) on
    /// the same expert. Abstentions and drops are never retried: an
    /// abstention is sticky per question, a drop is permanent.
    pub max_retries: usize,
    /// Base of the simulated exponential backoff schedule: retry *k* adds
    /// `backoff_base_ms << (k-1)` to [`CrowdStats::simulated_backoff_ms`].
    /// Nothing sleeps — the schedule is a deterministic, auditable counter.
    pub backoff_base_ms: usize,
    /// [`MajorityCrowd`] refuses to answer (rather than degrade further)
    /// once fewer than this many experts remain alive.
    pub min_quorum: usize,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            backoff_base_ms: 100,
            min_quorum: 1,
        }
    }
}

/// Ask one expert one question under a retry policy. `dead` is the
/// expert's permanent-failure latch: set when the expert drops, checked so
/// later questions fail fast without bothering the oracle.
pub fn ask_with_retry<O: Oracle + ?Sized>(
    oracle: &mut O,
    q: &Question,
    policy: &RetryPolicy,
    dead: &mut bool,
    stats: &mut CrowdStats,
) -> Result<Answer, CrowdError> {
    if *dead {
        return Err(CrowdError::new(q, 0, OracleError::Dropped));
    }
    let mut attempts = 0usize;
    loop {
        attempts += 1;
        match oracle.answer(q) {
            Ok(a) => return Ok(a),
            Err(e) => {
                stats.faults += 1;
                qoco_telemetry::counter_add("crowd.faults", 1);
                qoco_telemetry::event("crowd.fault", || format!("{} on {q:?}", e.as_str()));
                match e {
                    OracleError::Timeout if attempts <= policy.max_retries => {
                        let backoff = policy
                            .backoff_base_ms
                            .saturating_mul(1usize << (attempts - 1).min(16));
                        stats.simulated_backoff_ms =
                            stats.simulated_backoff_ms.saturating_add(backoff);
                        stats.retries += 1;
                        qoco_telemetry::counter_add("crowd.retries", 1);
                        qoco_telemetry::record_decision("crowd.retry", || {
                            qoco_telemetry::DecisionDetail {
                                question: format!("{q:?}"),
                                outcome: format!(
                                    "retry {attempts}/{} after {backoff}ms backoff",
                                    policy.max_retries
                                ),
                                evidence: vec![
                                    ("fault", e.as_str().to_string()),
                                    (
                                        "policy",
                                        format!(
                                            "max_retries={} backoff_base_ms={}",
                                            policy.max_retries, policy.backoff_base_ms
                                        ),
                                    ),
                                ],
                            }
                        });
                    }
                    OracleError::Dropped => {
                        *dead = true;
                        return Err(CrowdError::new(q, attempts, e));
                    }
                    _ => return Err(CrowdError::new(q, attempts, e)),
                }
            }
        }
    }
}

use crate::question::Answer;

/// The typed crowd interface used by the cleaning algorithms.
///
/// Every method returns `Err(CrowdError)` when the crowd could not produce
/// an answer at all (after retries/escalation); the cleaners record such
/// questions as `unresolved` instead of aborting the whole session.
pub trait CrowdAccess {
    /// `TRUE(R(ā))?`
    fn verify_fact(&mut self, f: &Fact) -> Result<bool, CrowdError>;
    /// `TRUE(Q, t)?`
    fn verify_answer(&mut self, q: &ConjunctiveQuery, t: &Tuple) -> Result<bool, CrowdError>;
    /// Is `α` satisfiable w.r.t. `q` and the ground truth?
    fn verify_satisfiable(
        &mut self,
        q: &ConjunctiveQuery,
        partial: &Assignment,
    ) -> Result<bool, CrowdError>;
    /// Composite question (Section 9 extension): are ALL of these facts
    /// true? The default asks each fact individually; sessions that support
    /// composite questions override it with a single interaction.
    fn verify_facts_all(&mut self, facts: &[Fact]) -> Result<bool, CrowdError> {
        for f in facts {
            if !self.verify_fact(f)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
    /// `COMPL(α, Q)`: extend `α` into a total valid assignment, if possible.
    fn complete(
        &mut self,
        q: &ConjunctiveQuery,
        partial: &Assignment,
    ) -> Result<Option<Assignment>, CrowdError>;
    /// `COMPL(Q(D))`: one answer missing from `known`, or `None`.
    fn next_missing_answer(
        &mut self,
        q: &ConjunctiveQuery,
        known: &[Tuple],
    ) -> Result<Option<Tuple>, CrowdError>;
    /// The interaction ledger so far.
    fn stats(&self) -> CrowdStats;
}

/// One oracle; every question asked exactly once (plus policy retries).
pub struct SingleExpert<O: Oracle> {
    oracle: O,
    stats: CrowdStats,
    policy: RetryPolicy,
    dead: bool,
}

impl<O: Oracle> SingleExpert<O> {
    /// Wrap an oracle with the default [`RetryPolicy`].
    pub fn new(oracle: O) -> Self {
        SingleExpert {
            oracle,
            stats: CrowdStats::new(),
            policy: RetryPolicy::default(),
            dead: false,
        }
    }

    /// Replace the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The wrapped oracle.
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    fn ask(&mut self, q: &Question) -> Result<Answer, CrowdError> {
        ask_with_retry(
            &mut self.oracle,
            q,
            &self.policy,
            &mut self.dead,
            &mut self.stats,
        )
    }
}

impl<O: Oracle> CrowdAccess for SingleExpert<O> {
    fn verify_fact(&mut self, f: &Fact) -> Result<bool, CrowdError> {
        self.stats.verify_fact_questions += 1;
        tel_question("crowd.verify_fact", || format!("{f:?}"));
        let b = self.ask(&Question::VerifyFact(f.clone()))?.expect_bool();
        self.stats.closed_answers += 1;
        self.stats.verify_fact_crowd_answers += 1;
        Ok(b)
    }

    fn verify_answer(&mut self, q: &ConjunctiveQuery, t: &Tuple) -> Result<bool, CrowdError> {
        self.stats.verify_answer_questions += 1;
        tel_question("crowd.verify_answer", || format!("{}({t})", q.name()));
        let b = self
            .ask(&Question::VerifyAnswer {
                query: q.clone(),
                answer: t.clone(),
            })?
            .expect_bool();
        self.stats.closed_answers += 1;
        self.stats.verify_answer_crowd_answers += 1;
        Ok(b)
    }

    fn verify_satisfiable(
        &mut self,
        q: &ConjunctiveQuery,
        partial: &Assignment,
    ) -> Result<bool, CrowdError> {
        self.stats.satisfiable_questions += 1;
        tel_question("crowd.verify_satisfiable", || {
            format!("{} with {} bound vars", q.name(), partial.len())
        });
        let b = self
            .ask(&Question::VerifySatisfiable {
                query: q.clone(),
                partial: partial.clone(),
            })?
            .expect_bool();
        self.stats.closed_answers += 1;
        self.stats.satisfiable_crowd_answers += 1;
        Ok(b)
    }

    fn verify_facts_all(&mut self, facts: &[Fact]) -> Result<bool, CrowdError> {
        self.stats.composite_questions += 1;
        tel_question("crowd.verify_facts_all", || {
            format!("{} facts", facts.len())
        });
        let b = self
            .ask(&Question::VerifyAllFacts(facts.to_vec()))?
            .expect_bool();
        self.stats.closed_answers += 1;
        Ok(b)
    }

    fn complete(
        &mut self,
        q: &ConjunctiveQuery,
        partial: &Assignment,
    ) -> Result<Option<Assignment>, CrowdError> {
        self.stats.complete_tasks += 1;
        tel_question("crowd.complete", || {
            format!("{} from {} bound vars", q.name(), partial.len())
        });
        let reply = self
            .ask(&Question::Complete {
                query: q.clone(),
                partial: partial.clone(),
            })?
            .expect_completion();
        if let Some(total) = &reply {
            let filled = total.len().saturating_sub(partial.len());
            self.stats.filled_variables += filled;
            self.stats.open_answer_variables += filled;
        }
        Ok(reply)
    }

    fn next_missing_answer(
        &mut self,
        q: &ConjunctiveQuery,
        known: &[Tuple],
    ) -> Result<Option<Tuple>, CrowdError> {
        self.stats.complete_result_tasks += 1;
        tel_question("crowd.complete_result", || {
            format!("{} with {} known answers", q.name(), known.len())
        });
        let reply = self
            .ask(&Question::CompleteResult {
                query: q.clone(),
                known: known.to_vec(),
            })?
            .expect_missing();
        if reply.is_some() {
            self.stats.missing_answers_provided += 1;
            self.stats.open_answer_variables += q.head().len();
        }
        Ok(reply)
    }

    fn stats(&self) -> CrowdStats {
        self.stats
    }
}

/// A fixed-size panel of experts with majority voting and early stop.
///
/// When experts drop out permanently, the panel *degrades its quorum*: the
/// majority threshold is recomputed over the experts still alive at each
/// question, so a 5-member panel that lost two experts behaves like a
/// 3-member panel. The panel only errors once fewer than
/// [`RetryPolicy::min_quorum`] experts remain (or nobody answers a given
/// question at all).
pub struct MajorityCrowd<O: Oracle> {
    experts: Vec<O>,
    /// Permanent-failure latch per expert; `dead[i]` ⇒ skip expert `i`.
    dead: Vec<bool>,
    stats: CrowdStats,
    policy: RetryPolicy,
    /// round-robin cursor for open questions
    next_open: usize,
}

impl<O: Oracle> MajorityCrowd<O> {
    /// Build a majority-vote crowd. The panel size should be odd so a
    /// majority always exists.
    ///
    /// # Panics
    /// Panics on an empty panel.
    pub fn new(experts: Vec<O>) -> Self {
        assert!(!experts.is_empty(), "the crowd needs at least one expert");
        let dead = vec![false; experts.len()];
        MajorityCrowd {
            experts,
            dead,
            stats: CrowdStats::new(),
            policy: RetryPolicy::default(),
            next_open: 0,
        }
    }

    /// Replace the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of experts on the panel.
    pub fn size(&self) -> usize {
        self.experts.len()
    }

    /// Number of experts still alive (not permanently dropped).
    pub fn alive(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    fn quorum_err(&self, q: &Question) -> CrowdError {
        CrowdError::new(q, 0, OracleError::Dropped)
    }

    /// Ask a closed question to the alive experts until a majority of them
    /// agrees (e.g. 2 of 3), counting each individual answer. An expert
    /// that fails the question is skipped (an *escalation* to the rest of
    /// the panel); the verdict is the majority of the answers actually
    /// delivered. Errors only when nobody answers.
    fn majority_bool(&mut self, q: &Question) -> Result<bool, CrowdError> {
        tel_question("crowd.majority_question", || q.kind().as_str().to_string());
        let alive: Vec<usize> = (0..self.experts.len()).filter(|&i| !self.dead[i]).collect();
        if alive.is_empty() || alive.len() < self.policy.min_quorum {
            return Err(self.quorum_err(q));
        }
        // Quorum degradation: the majority threshold tracks the panel that
        // is actually alive at this question, not the original size.
        let need = alive.len() / 2 + 1;
        let mut yes = 0usize;
        let mut no = 0usize;
        let mut answered = 0usize;
        let mut attempts = 0usize;
        let mut last = OracleError::Dropped;
        for (pos, &idx) in alive.iter().enumerate() {
            match ask_with_retry(
                &mut self.experts[idx],
                q,
                &self.policy,
                &mut self.dead[idx],
                &mut self.stats,
            ) {
                Ok(answer) => {
                    let b = answer.expect_bool();
                    answered += 1;
                    self.stats.count_closed_answer(q);
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
                    attempts += e.attempts;
                    last = e.last;
                    if pos + 1 < alive.len() {
                        self.stats.escalations += 1;
                        qoco_telemetry::counter_add("crowd.escalations", 1);
                    }
                }
            }
        }
        if answered == 0 {
            return Err(CrowdError::new(q, attempts, last));
        }
        // On a fully-answering panel this is the classic `yes >= need`
        // (early stop at `yes >= need` implies `yes > no`, and a full poll
        // reaches a strict majority iff `yes > no`); when experts failed
        // mid-question it is the majority of delivered answers, ties → NO.
        Ok(yes > no)
    }

    fn verify_completion(
        &mut self,
        q: &ConjunctiveQuery,
        total: &Assignment,
    ) -> Result<bool, CrowdError> {
        // Section 6.2: "if a set of tuples S is the answer to some question
        // COMPL(α,Q), the system poses the question TRUE(R(ā))? for each
        // tuple R(ā) ∈ S."
        for atom in q.atoms() {
            let Some(fact) = total.ground_atom(atom) else {
                return Ok(false);
            };
            self.stats.verify_fact_questions += 1;
            if !self.majority_bool(&Question::VerifyFact(fact))? {
                return Ok(false);
            }
        }
        // inequalities must hold on a valid assignment
        Ok(q.inequalities()
            .iter()
            .all(|e| total.check_inequality(e) == Some(true)))
    }
}

impl<O: Oracle> CrowdAccess for MajorityCrowd<O> {
    fn verify_fact(&mut self, f: &Fact) -> Result<bool, CrowdError> {
        self.stats.verify_fact_questions += 1;
        self.majority_bool(&Question::VerifyFact(f.clone()))
    }

    fn verify_answer(&mut self, q: &ConjunctiveQuery, t: &Tuple) -> Result<bool, CrowdError> {
        self.stats.verify_answer_questions += 1;
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
        self.stats.satisfiable_questions += 1;
        self.majority_bool(&Question::VerifySatisfiable {
            query: q.clone(),
            partial: partial.clone(),
        })
    }

    fn verify_facts_all(&mut self, facts: &[Fact]) -> Result<bool, CrowdError> {
        self.stats.composite_questions += 1;
        self.majority_bool(&Question::VerifyAllFacts(facts.to_vec()))
    }

    fn complete(
        &mut self,
        q: &ConjunctiveQuery,
        partial: &Assignment,
    ) -> Result<Option<Assignment>, CrowdError> {
        // Ask experts in rotation; accept the first completion whose facts
        // survive closed-question verification. An expert that fails the
        // task escalates to the next one in the rotation.
        let n = self.experts.len();
        if self.alive() == 0 || self.alive() < self.policy.min_quorum {
            return Err(self.quorum_err(&Question::Complete {
                query: q.clone(),
                partial: partial.clone(),
            }));
        }
        let mut any_reply = false;
        let mut attempts = 0usize;
        let mut last = OracleError::Dropped;
        let question = Question::Complete {
            query: q.clone(),
            partial: partial.clone(),
        };
        for i in 0..n {
            let idx = (self.next_open + i) % n;
            if self.dead[idx] {
                continue;
            }
            self.stats.complete_tasks += 1;
            tel_question("crowd.complete", || {
                format!("{} from {} bound vars", q.name(), partial.len())
            });
            let reply = match ask_with_retry(
                &mut self.experts[idx],
                &question,
                &self.policy,
                &mut self.dead[idx],
                &mut self.stats,
            ) {
                Ok(answer) => {
                    any_reply = true;
                    answer.expect_completion()
                }
                Err(e) => {
                    attempts += e.attempts;
                    last = e.last;
                    self.stats.escalations += 1;
                    qoco_telemetry::counter_add("crowd.escalations", 1);
                    continue;
                }
            };
            let Some(total) = reply else { continue };
            let filled = total.len().saturating_sub(partial.len());
            self.stats.open_answer_variables += filled;
            self.stats.filled_variables += filled;
            if self.verify_completion(q, &total)? {
                self.next_open = (idx + 1) % n;
                return Ok(Some(total));
            }
        }
        if !any_reply {
            return Err(CrowdError::new(&question, attempts, last));
        }
        self.next_open = (self.next_open + 1) % n;
        Ok(None)
    }

    fn next_missing_answer(
        &mut self,
        q: &ConjunctiveQuery,
        known: &[Tuple],
    ) -> Result<Option<Tuple>, CrowdError> {
        let n = self.experts.len();
        let question = Question::CompleteResult {
            query: q.clone(),
            known: known.to_vec(),
        };
        if self.alive() == 0 || self.alive() < self.policy.min_quorum {
            return Err(self.quorum_err(&question));
        }
        let mut any_reply = false;
        let mut attempts = 0usize;
        let mut last = OracleError::Dropped;
        for i in 0..n {
            let idx = (self.next_open + i) % n;
            if self.dead[idx] {
                continue;
            }
            self.stats.complete_result_tasks += 1;
            tel_question("crowd.complete_result", || {
                format!("{} with {} known answers", q.name(), known.len())
            });
            let reply = match ask_with_retry(
                &mut self.experts[idx],
                &question,
                &self.policy,
                &mut self.dead[idx],
                &mut self.stats,
            ) {
                Ok(answer) => {
                    any_reply = true;
                    answer.expect_missing()
                }
                Err(e) => {
                    attempts += e.attempts;
                    last = e.last;
                    self.stats.escalations += 1;
                    qoco_telemetry::counter_add("crowd.escalations", 1);
                    continue;
                }
            };
            let Some(t) = reply else { continue };
            self.stats.open_answer_variables += q.head().len();
            // Section 6.2: verify with the closed question TRUE(Q, t)?
            self.stats.verify_answer_questions += 1;
            if self.majority_bool(&Question::VerifyAnswer {
                query: q.clone(),
                answer: t.clone(),
            })? {
                self.stats.missing_answers_provided += 1;
                self.next_open = (idx + 1) % n;
                return Ok(Some(t));
            }
        }
        if !any_reply {
            return Err(CrowdError::new(&question, attempts, last));
        }
        self.next_open = (self.next_open + 1) % n;
        Ok(None)
    }

    fn stats(&self) -> CrowdStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultyOracle;
    use crate::imperfect::ImperfectOracle;
    use crate::perfect::PerfectOracle;
    use qoco_data::{tup, Database, Schema};
    use qoco_query::parse_query;
    use std::sync::Arc;

    fn ground() -> Database {
        let s = Schema::builder()
            .relation("Teams", &["country", "continent"])
            .build()
            .unwrap();
        let mut g = Database::empty(s);
        for (c, k) in [("GER", "EU"), ("ITA", "EU"), ("BRA", "SA")] {
            g.insert_named("Teams", tup![c, k]).unwrap();
        }
        g
    }

    fn schema() -> Arc<Schema> {
        ground().schema().clone()
    }

    fn faulty(spec: &str) -> FaultyOracle<PerfectOracle> {
        FaultyOracle::new(PerfectOracle::new(ground()), spec.parse().unwrap())
    }

    #[test]
    fn single_expert_counts_closed_questions() {
        let g = ground();
        let teams = g.schema().rel_id("Teams").unwrap();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        assert!(crowd
            .verify_fact(&Fact::new(teams, tup!["GER", "EU"]))
            .unwrap());
        assert!(!crowd
            .verify_fact(&Fact::new(teams, tup!["GER", "SA"]))
            .unwrap());
        let st = crowd.stats();
        assert_eq!(st.verify_fact_questions, 2);
        assert_eq!(st.closed_answers, 2);
    }

    #[test]
    fn single_expert_counts_filled_variables() {
        let g = ground();
        let q = parse_query(g.schema(), "(x, k) :- Teams(x, k)").unwrap();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let partial =
            Assignment::from_pairs([(qoco_query::Var::new("x"), qoco_data::Value::text("ITA"))]);
        let total = crowd.complete(&q, &partial).unwrap().unwrap();
        assert_eq!(total.len(), 2);
        let st = crowd.stats();
        assert_eq!(st.complete_tasks, 1);
        assert_eq!(st.filled_variables, 1); // only k was filled
        assert_eq!(st.open_answer_variables, 1);
    }

    #[test]
    fn single_expert_missing_answer_counts_head_vars() {
        let g = ground();
        let q = parse_query(g.schema(), r#"(x) :- Teams(x, "EU")"#).unwrap();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let t = crowd
            .next_missing_answer(&q, &[tup!["GER"]])
            .unwrap()
            .unwrap();
        assert_eq!(t, tup!["ITA"]);
        assert_eq!(crowd.stats().missing_answers_provided, 1);
        assert_eq!(crowd.stats().open_answer_variables, 1);
        assert_eq!(
            crowd
                .next_missing_answer(&q, &[tup!["GER"], tup!["ITA"]])
                .unwrap(),
            None
        );
    }

    #[test]
    fn single_expert_retries_through_transient_timeouts() {
        let g = ground();
        let teams = g.schema().rel_id("Teams").unwrap();
        // first two asks time out, the third succeeds — within the default
        // budget of 2 retries
        let mut crowd = SingleExpert::new(faulty("fail@1=timeout,fail@2=timeout"));
        assert!(crowd
            .verify_fact(&Fact::new(teams, tup!["GER", "EU"]))
            .unwrap());
        let st = crowd.stats();
        assert_eq!(st.faults, 2);
        assert_eq!(st.retries, 2);
        assert_eq!(st.simulated_backoff_ms, 100 + 200);
        assert_eq!(st.verify_fact_questions, 1);
        assert_eq!(st.closed_answers, 1);
    }

    #[test]
    fn single_expert_surfaces_exhaustion() {
        let g = ground();
        let teams = g.schema().rel_id("Teams").unwrap();
        // three timeouts exhaust 1 ask + 2 retries
        let mut crowd = SingleExpert::new(faulty("burst@1+3=timeout"));
        let err = crowd
            .verify_fact(&Fact::new(teams, tup!["GER", "EU"]))
            .unwrap_err();
        assert_eq!(err.last, OracleError::Timeout);
        assert_eq!(err.attempts, 3);
        // the question after the burst succeeds again
        assert!(crowd
            .verify_fact(&Fact::new(teams, tup!["GER", "EU"]))
            .unwrap());
    }

    #[test]
    fn abstentions_are_not_retried() {
        let g = ground();
        let teams = g.schema().rel_id("Teams").unwrap();
        let mut crowd = SingleExpert::new(faulty("fail@1=abstain"));
        let err = crowd
            .verify_fact(&Fact::new(teams, tup!["GER", "EU"]))
            .unwrap_err();
        assert_eq!(err.last, OracleError::Abstain);
        assert_eq!(err.attempts, 1);
        assert_eq!(crowd.stats().retries, 0);
    }

    #[test]
    fn dropped_single_expert_fails_fast_forever() {
        let g = ground();
        let teams = g.schema().rel_id("Teams").unwrap();
        let mut crowd = SingleExpert::new(faulty("drop@1"));
        let f = Fact::new(teams, tup!["GER", "EU"]);
        assert!(crowd.verify_fact(&f).unwrap()); // question 1 still answered
        assert_eq!(
            crowd.verify_fact(&f).unwrap_err().last,
            OracleError::Dropped
        );
        let faults_after_drop = crowd.stats().faults;
        // fail-fast: the latch answers, not the oracle
        assert_eq!(crowd.verify_fact(&f).unwrap_err().attempts, 0);
        assert_eq!(crowd.stats().faults, faults_after_drop);
    }

    #[test]
    fn majority_early_stops_with_perfect_experts() {
        let experts: Vec<PerfectOracle> = (0..3).map(|_| PerfectOracle::new(ground())).collect();
        let mut crowd = MajorityCrowd::new(experts);
        let teams = schema().rel_id("Teams").unwrap();
        assert!(crowd
            .verify_fact(&Fact::new(teams, tup!["GER", "EU"]))
            .unwrap());
        // early stop: only 2 of 3 experts answered
        assert_eq!(crowd.stats().closed_answers, 2);
        assert_eq!(crowd.stats().verify_fact_questions, 1);
    }

    #[test]
    fn majority_overrules_one_liar() {
        // experts 1 and 2 perfect, expert 0 always lies
        let experts: Vec<Box<dyn Oracle>> = vec![
            Box::new(ImperfectOracle::new(ground(), 1.0, 1)),
            Box::new(PerfectOracle::new(ground())),
            Box::new(PerfectOracle::new(ground())),
        ];
        let mut crowd = MajorityCrowd::new(experts);
        let teams = schema().rel_id("Teams").unwrap();
        assert!(crowd
            .verify_fact(&Fact::new(teams, tup!["GER", "EU"]))
            .unwrap());
        // liar disagreed, so all 3 answered
        assert_eq!(crowd.stats().closed_answers, 3);
    }

    #[test]
    fn majority_degrades_quorum_when_an_expert_drops() {
        // expert 0 drops before answering anything; the panel of 3 must
        // keep working as a panel of 2
        let experts: Vec<Box<dyn Oracle>> = vec![
            Box::new(faulty("drop@0")),
            Box::new(faulty("")),
            Box::new(faulty("")),
        ];
        let mut crowd = MajorityCrowd::new(experts);
        let teams = schema().rel_id("Teams").unwrap();
        let f = Fact::new(teams, tup!["GER", "EU"]);
        assert!(crowd.verify_fact(&f).unwrap());
        assert_eq!(crowd.alive(), 2);
        assert!(crowd.stats().escalations >= 1);
        assert!(crowd.stats().faults >= 1);
        // degraded need = 2 of 2: both survivors answer
        let before = crowd.stats().closed_answers;
        assert!(crowd.verify_fact(&f).unwrap());
        assert_eq!(crowd.stats().closed_answers, before + 2);
    }

    #[test]
    fn fully_dropped_panel_surfaces_a_crowd_error() {
        let experts: Vec<FaultyOracle<PerfectOracle>> = (0..3).map(|_| faulty("drop@0")).collect();
        let mut crowd = MajorityCrowd::new(experts);
        let teams = schema().rel_id("Teams").unwrap();
        let f = Fact::new(teams, tup!["GER", "EU"]);
        let err = crowd.verify_fact(&f).unwrap_err();
        assert_eq!(err.last, OracleError::Dropped);
        assert_eq!(crowd.alive(), 0);
        // later questions fail fast via the quorum check
        assert!(crowd.verify_fact(&f).is_err());
        let q = parse_query(&schema(), "(x, k) :- Teams(x, k)").unwrap();
        assert!(crowd.complete(&q, &Assignment::new()).is_err());
        assert!(crowd.next_missing_answer(&q, &[]).is_err());
    }

    #[test]
    fn open_questions_escalate_past_failing_experts() {
        // the rotation starts at expert 0, which drops immediately; the
        // completion must come from a surviving panel member
        let experts: Vec<Box<dyn Oracle>> = vec![
            Box::new(faulty("drop@0")),
            Box::new(faulty("")),
            Box::new(faulty("")),
        ];
        let mut crowd = MajorityCrowd::new(experts);
        let q = parse_query(&schema(), "(x, k) :- Teams(x, k)").unwrap();
        let total = crowd.complete(&q, &Assignment::new()).unwrap().unwrap();
        assert_eq!(total.len(), 2);
        assert!(crowd.stats().escalations >= 1);
    }

    #[test]
    fn min_quorum_refuses_to_degrade_below_threshold() {
        let experts: Vec<Box<dyn Oracle>> = vec![
            Box::new(faulty("drop@0")),
            Box::new(faulty("drop@0")),
            Box::new(faulty("")),
        ];
        let mut crowd = MajorityCrowd::new(experts).with_policy(RetryPolicy {
            min_quorum: 2,
            ..RetryPolicy::default()
        });
        let teams = schema().rel_id("Teams").unwrap();
        let f = Fact::new(teams, tup!["GER", "EU"]);
        // first question: two experts drop, the third still answers
        assert!(crowd.verify_fact(&f).unwrap());
        assert_eq!(crowd.alive(), 1);
        // now below min_quorum=2 → refuse outright
        assert!(crowd.verify_fact(&f).is_err());
    }

    #[test]
    fn majority_completion_is_verified_with_closed_questions() {
        let experts: Vec<PerfectOracle> = (0..3).map(|_| PerfectOracle::new(ground())).collect();
        let mut crowd = MajorityCrowd::new(experts);
        let q = parse_query(&schema(), "(x, k) :- Teams(x, k)").unwrap();
        let total = crowd.complete(&q, &Assignment::new()).unwrap().unwrap();
        assert_eq!(total.len(), 2);
        let st = crowd.stats();
        // one atom in the body → 1 verification fact question
        assert_eq!(st.verify_fact_questions, 1);
        assert!(st.closed_answers >= 2);
        assert_eq!(st.filled_variables, 2);
    }

    #[test]
    fn majority_rejects_corrupt_completions() {
        // A completing expert that always corrupts; verifiers perfect. The
        // corrupted completion usually fails fact verification; either the
        // next (perfect) expert's completion is accepted, or (if the
        // corruption happens to be the true fact) it passes — in both cases
        // the result must be a valid completion w.r.t. the ground truth.
        let experts: Vec<Box<dyn Oracle>> = vec![
            Box::new(ImperfectOracle::new(ground(), 1.0, 5)),
            Box::new(PerfectOracle::new(ground())),
            Box::new(PerfectOracle::new(ground())),
        ];
        let mut crowd = MajorityCrowd::new(experts);
        let q = parse_query(&schema(), "(x, k) :- Teams(x, k)").unwrap();
        let total = crowd.complete(&q, &Assignment::new()).unwrap();
        let total = total.expect("a perfect expert is on the panel");
        // the accepted completion grounds to a true fact
        let fact = total.ground_atom(&q.atoms()[0]).unwrap();
        assert!(ground().contains(&fact));
    }

    #[test]
    fn majority_missing_answer_is_verified() {
        let experts: Vec<PerfectOracle> = (0..3).map(|_| PerfectOracle::new(ground())).collect();
        let mut crowd = MajorityCrowd::new(experts);
        let q = parse_query(&schema(), r#"(x) :- Teams(x, "EU")"#).unwrap();
        let t = crowd.next_missing_answer(&q, &[]).unwrap().unwrap();
        assert!(t == tup!["GER"] || t == tup!["ITA"]);
        assert_eq!(crowd.stats().verify_answer_questions, 1);
        assert_eq!(crowd.stats().missing_answers_provided, 1);
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn empty_panel_panics() {
        let _ = MajorityCrowd::<PerfectOracle>::new(vec![]);
    }
}
