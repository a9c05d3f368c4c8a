//! The cost ledger: every figure in the paper's evaluation is an
//! aggregation over these counters.
//!
//! Counting rules (Section 7.2 and Figure 4's methodology):
//! * a *closed* (boolean) question costs one crowd answer per expert asked;
//! * an *open* question (completion) costs the number of unique variables
//!   the expert filled in;
//! * with majority voting, asking stops as soon as a majority agrees, so
//!   the per-expert answer counts can be below `sample_size × questions`.

use std::fmt;

use crate::question::Question;

/// Per-question-type counters for one cleaning session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrowdStats {
    /// `TRUE(Q, t)?` questions posed (distinct logical questions).
    pub verify_answer_questions: usize,
    /// `TRUE(R(ā))?` questions posed.
    pub verify_fact_questions: usize,
    /// Satisfiability checks (`CrowdVerify` on partially-ground bodies).
    pub satisfiable_questions: usize,
    /// Composite `TRUE-ALL` questions posed (Section 9 extension).
    pub composite_questions: usize,
    /// `COMPL(α, Q)` tasks posed.
    pub complete_tasks: usize,
    /// `COMPL(Q(D))` tasks posed.
    pub complete_result_tasks: usize,
    /// Variables filled by experts across all `COMPL(α, Q)` answers.
    pub filled_variables: usize,
    /// Missing answers provided by experts via `COMPL(Q(D))`.
    pub missing_answers_provided: usize,
    /// Total individual crowd answers to closed questions (≥ question count
    /// when several experts vote).
    pub closed_answers: usize,
    /// Crowd answers to `TRUE(Q, t)?` questions specifically.
    pub verify_answer_crowd_answers: usize,
    /// Crowd answers to `TRUE(R(ā))?` questions specifically.
    pub verify_fact_crowd_answers: usize,
    /// Crowd answers to satisfiability questions specifically.
    pub satisfiable_crowd_answers: usize,
    /// Total individual crowd answers to open questions, counted in filled
    /// variables (Figure 4's counting).
    pub open_answer_variables: usize,
    /// Oracle faults observed (timeouts, abstentions, drops), including the
    /// ones later recovered by a retry.
    pub faults: usize,
    /// Retries issued after a transient fault (timeouts only).
    pub retries: usize,
    /// Escalations: a question moved to another panel member after one
    /// expert failed to answer it.
    pub escalations: usize,
    /// Simulated backoff accumulated across retries, in milliseconds. No
    /// wall-clock time is spent — the counter makes the schedule auditable
    /// and deterministic.
    pub simulated_backoff_ms: usize,
}

impl CrowdStats {
    /// Fresh, all-zero ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closed questions of all kinds (a logical-question count).
    pub fn closed_questions(&self) -> usize {
        self.verify_answer_questions + self.verify_fact_questions + self.satisfiable_questions
    }

    /// The paper's "# questions" for deletion figures: tuple-verification
    /// questions (`TRUE(R(ā))?`).
    pub fn deletion_questions(&self) -> usize {
        self.verify_fact_questions
    }

    /// The paper's "# questions" for insertion figures: variables filled by
    /// the crowd, plus satisfiability checks answered along the way.
    pub fn insertion_questions(&self) -> usize {
        self.filled_variables + self.satisfiable_questions
    }

    /// Total crowd answers (Figure 4's y-axis): closed answers plus
    /// open-answer variables.
    pub fn total_crowd_answers(&self) -> usize {
        self.closed_answers + self.open_answer_variables
    }

    /// The session's total cost under the Section 7.2 accounting: each
    /// answer to a closed question costs 1, and each open (completion)
    /// answer costs the number of variables the expert filled in. This is
    /// what the paper charges the crowd for a whole cleaning session and is
    /// identical to [`total_crowd_answers`](Self::total_crowd_answers) —
    /// kept as its own name so call sites say what they mean.
    pub fn total_cost(&self) -> usize {
        self.total_crowd_answers()
    }

    /// Count one expert's answer to the closed question `q`.
    pub fn count_closed_answer(&mut self, q: &Question) {
        self.closed_answers += 1;
        match q {
            Question::VerifyAnswer { .. } => self.verify_answer_crowd_answers += 1,
            Question::VerifyFact(_) => self.verify_fact_crowd_answers += 1,
            Question::VerifySatisfiable { .. } => self.satisfiable_crowd_answers += 1,
            _ => {}
        }
    }

    /// Merge another ledger into this one.
    pub fn absorb(&mut self, other: &CrowdStats) {
        self.verify_answer_questions += other.verify_answer_questions;
        self.verify_fact_questions += other.verify_fact_questions;
        self.satisfiable_questions += other.satisfiable_questions;
        self.composite_questions += other.composite_questions;
        self.complete_tasks += other.complete_tasks;
        self.complete_result_tasks += other.complete_result_tasks;
        self.filled_variables += other.filled_variables;
        self.missing_answers_provided += other.missing_answers_provided;
        self.closed_answers += other.closed_answers;
        self.verify_answer_crowd_answers += other.verify_answer_crowd_answers;
        self.verify_fact_crowd_answers += other.verify_fact_crowd_answers;
        self.satisfiable_crowd_answers += other.satisfiable_crowd_answers;
        self.open_answer_variables += other.open_answer_variables;
        self.faults += other.faults;
        self.retries += other.retries;
        self.escalations += other.escalations;
        self.simulated_backoff_ms += other.simulated_backoff_ms;
    }

    /// The difference `self − baseline` (used to isolate one phase of a
    /// session). Saturates at zero.
    pub fn since(&self, baseline: &CrowdStats) -> CrowdStats {
        CrowdStats {
            verify_answer_questions: self
                .verify_answer_questions
                .saturating_sub(baseline.verify_answer_questions),
            verify_fact_questions: self
                .verify_fact_questions
                .saturating_sub(baseline.verify_fact_questions),
            satisfiable_questions: self
                .satisfiable_questions
                .saturating_sub(baseline.satisfiable_questions),
            composite_questions: self
                .composite_questions
                .saturating_sub(baseline.composite_questions),
            complete_tasks: self.complete_tasks.saturating_sub(baseline.complete_tasks),
            complete_result_tasks: self
                .complete_result_tasks
                .saturating_sub(baseline.complete_result_tasks),
            filled_variables: self
                .filled_variables
                .saturating_sub(baseline.filled_variables),
            missing_answers_provided: self
                .missing_answers_provided
                .saturating_sub(baseline.missing_answers_provided),
            closed_answers: self.closed_answers.saturating_sub(baseline.closed_answers),
            verify_answer_crowd_answers: self
                .verify_answer_crowd_answers
                .saturating_sub(baseline.verify_answer_crowd_answers),
            verify_fact_crowd_answers: self
                .verify_fact_crowd_answers
                .saturating_sub(baseline.verify_fact_crowd_answers),
            satisfiable_crowd_answers: self
                .satisfiable_crowd_answers
                .saturating_sub(baseline.satisfiable_crowd_answers),
            open_answer_variables: self
                .open_answer_variables
                .saturating_sub(baseline.open_answer_variables),
            faults: self.faults.saturating_sub(baseline.faults),
            retries: self.retries.saturating_sub(baseline.retries),
            escalations: self.escalations.saturating_sub(baseline.escalations),
            simulated_backoff_ms: self
                .simulated_backoff_ms
                .saturating_sub(baseline.simulated_backoff_ms),
        }
    }
}

impl fmt::Display for CrowdStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verify-answer: {}, verify-fact: {}, satisfiable: {}, complete: {} ({} vars), complete-result: {} ({} answers)",
            self.verify_answer_questions,
            self.verify_fact_questions,
            self.satisfiable_questions,
            self.complete_tasks,
            self.filled_variables,
            self.complete_result_tasks,
            self.missing_answers_provided,
        )?;
        if self.faults > 0 {
            write!(
                f,
                ", faults: {} ({} retries, {} escalations)",
                self.faults, self.retries, self.escalations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_fieldwise() {
        let mut a = CrowdStats {
            verify_fact_questions: 2,
            filled_variables: 3,
            ..Default::default()
        };
        let b = CrowdStats {
            verify_fact_questions: 1,
            closed_answers: 5,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.verify_fact_questions, 3);
        assert_eq!(a.filled_variables, 3);
        assert_eq!(a.closed_answers, 5);
    }

    #[test]
    fn fault_counters_absorb_and_subtract() {
        let mut a = CrowdStats {
            faults: 3,
            retries: 2,
            escalations: 1,
            simulated_backoff_ms: 300,
            ..Default::default()
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.faults, 6);
        assert_eq!(a.retries, 4);
        assert_eq!(a.simulated_backoff_ms, 600);
        let d = a.since(&b);
        assert_eq!(d.faults, 3);
        assert_eq!(d.escalations, 1);
        assert!(a.to_string().contains("faults: 6"));
    }

    #[test]
    fn since_is_a_saturating_difference() {
        let a = CrowdStats {
            verify_fact_questions: 5,
            ..Default::default()
        };
        let b = CrowdStats {
            verify_fact_questions: 2,
            closed_answers: 10,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.verify_fact_questions, 3);
        assert_eq!(d.closed_answers, 0);
    }

    #[test]
    fn aggregates() {
        let s = CrowdStats {
            verify_answer_questions: 1,
            verify_fact_questions: 2,
            satisfiable_questions: 3,
            filled_variables: 4,
            closed_answers: 6,
            open_answer_variables: 4,
            ..Default::default()
        };
        assert_eq!(s.closed_questions(), 6);
        assert_eq!(s.deletion_questions(), 2);
        assert_eq!(s.insertion_questions(), 7);
        assert_eq!(s.total_crowd_answers(), 10);
        assert_eq!(s.total_cost(), 10);
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = CrowdStats::default();
        let out = s.to_string();
        for key in [
            "verify-answer",
            "verify-fact",
            "satisfiable",
            "complete-result",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }
}
