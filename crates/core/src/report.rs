//! Cleaning-session reports.

use std::fmt;

use qoco_crowd::{CrowdError, CrowdStats};
use qoco_data::{EditLog, Tuple};

/// Which phase of the cleaning loop a question belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnresolvedPhase {
    /// Verifying whether a current answer is correct (`TRUE(Q, t)?`).
    Verify,
    /// Removing a confirmed wrong answer (Algorithm 1).
    Delete,
    /// Finding or adding a missing answer (Algorithm 2 / `COMPL(Q(D))`).
    Insert,
}

impl fmt::Display for UnresolvedPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnresolvedPhase::Verify => "verify",
            UnresolvedPhase::Delete => "delete",
            UnresolvedPhase::Insert => "insert",
        })
    }
}

/// A piece of cleaning work the session had to abandon because the crowd
/// became unavailable (after retries and escalation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnresolvedItem {
    /// Where in the loop the crowd failed.
    pub phase: UnresolvedPhase,
    /// The answer tuple being worked on, when one was in hand.
    pub answer: Option<Tuple>,
    /// Why the work was abandoned (the crowd error, rendered).
    pub reason: String,
}

impl fmt::Display for UnresolvedItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.answer {
            Some(t) => write!(f, "[{}] {t}: {}", self.phase, self.reason),
            None => write!(f, "[{}] {}", self.phase, self.reason),
        }
    }
}

/// Everything a cleaning session did, for auditing and for the figures.
#[derive(Debug, Clone, Default)]
pub struct CleaningReport {
    /// All edits applied, in order.
    pub edits: EditLog,
    /// Iterations of the outer loop (Algorithm 3).
    pub iterations: usize,
    /// Wrong answers discovered and removed.
    pub wrong_answers: usize,
    /// Missing answers discovered and added.
    pub missing_answers: usize,
    /// Crowd-interaction ledger for the deletion phases.
    pub deletion_stats: CrowdStats,
    /// Crowd-interaction ledger for the insertion phases.
    pub insertion_stats: CrowdStats,
    /// Combined ledger (equals the session's total).
    pub total_stats: CrowdStats,
    /// Sum of the per-answer naïve upper bounds for deletion (distinct
    /// witness tuples).
    pub deletion_upper_bound: usize,
    /// Sum of the per-answer naïve upper bounds for insertion (variables
    /// of `Q|t`).
    pub insertion_upper_bound: usize,
    /// Oracle inconsistencies observed (always 0 with a perfect oracle).
    pub anomalies: usize,
    /// Work abandoned because the crowd became unavailable. Empty for a
    /// complete report; see [`CleaningReport::is_partial`].
    pub unresolved: Vec<UnresolvedItem>,
}

impl CleaningReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this is a *partial* report: some answers could not be
    /// verified or repaired because the crowd became unavailable. The
    /// edits that were applied are still individually correct (each was
    /// confirmed before application); partiality means coverage, not
    /// validity, was lost.
    pub fn is_partial(&self) -> bool {
        !self.unresolved.is_empty()
    }

    /// Record work abandoned because the crowd could not be reached.
    pub(crate) fn give_up(
        &mut self,
        phase: UnresolvedPhase,
        answer: Option<Tuple>,
        e: &CrowdError,
    ) {
        let reason = e.to_string();
        qoco_telemetry::event("clean.unresolved", || match &answer {
            Some(t) => format!("{t}: {reason}"),
            None => reason.clone(),
        });
        self.unresolved.push(UnresolvedItem {
            phase,
            answer,
            reason,
        });
    }

    /// Was work on answer `t` abandoned?
    pub(crate) fn unresolved_about(&self, t: &Tuple) -> bool {
        self.unresolved.iter().any(|u| u.answer.as_ref() == Some(t))
    }

    /// The paper's three Figure 3f categories:
    /// (verify-answers, verify-tuples, fill-missing).
    pub fn question_breakdown(&self) -> (usize, usize, usize) {
        let verify_answers = self.total_stats.verify_answer_questions;
        let verify_tuples =
            self.total_stats.verify_fact_questions + self.total_stats.satisfiable_questions;
        let fill_missing =
            self.total_stats.filled_variables + self.total_stats.missing_answers_provided;
        (verify_answers, verify_tuples, fill_missing)
    }
}

impl fmt::Display for CleaningReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cleaning finished in {} iteration(s): {} wrong answer(s) removed, {} missing answer(s) added",
            self.iterations, self.wrong_answers, self.missing_answers
        )?;
        writeln!(
            f,
            "edits: {} deletions, {} insertions",
            self.edits.deletions(),
            self.edits.insertions()
        )?;
        writeln!(f, "deletion questions:  {}", self.deletion_stats)?;
        writeln!(f, "insertion questions: {}", self.insertion_stats)?;
        if self.anomalies > 0 {
            writeln!(f, "anomalies (oracle inconsistencies): {}", self.anomalies)?;
        }
        if self.is_partial() {
            writeln!(
                f,
                "PARTIAL REPORT — {} item(s) unresolved (crowd unavailable):",
                self.unresolved.len()
            )?;
            for item in &self.unresolved {
                writeln!(f, "  {item}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_summarizes() {
        let mut r = CleaningReport::new();
        r.iterations = 2;
        r.wrong_answers = 3;
        r.missing_answers = 1;
        let out = r.to_string();
        assert!(out.contains("2 iteration"));
        assert!(out.contains("3 wrong"));
        assert!(out.contains("1 missing"));
        assert!(!out.contains("anomalies"));
        r.anomalies = 1;
        assert!(r.to_string().contains("anomalies"));
    }

    #[test]
    fn partial_reports_render_their_unresolved_section() {
        let mut r = CleaningReport::new();
        assert!(!r.is_partial());
        assert!(!r.to_string().contains("PARTIAL"));
        r.unresolved.push(UnresolvedItem {
            phase: UnresolvedPhase::Verify,
            answer: Some(qoco_data::tup!["GER"]),
            reason: "the worker dropped out of the panel".into(),
        });
        r.unresolved.push(UnresolvedItem {
            phase: UnresolvedPhase::Insert,
            answer: None,
            reason: "the worker timed out".into(),
        });
        assert!(r.is_partial());
        let out = r.to_string();
        assert!(out.contains("PARTIAL REPORT — 2 item(s)"), "{out}");
        assert!(out.contains("[verify] (GER)"), "{out}");
        assert!(out.contains("[insert] the worker timed out"), "{out}");
    }

    #[test]
    fn breakdown_pulls_from_total_stats() {
        let mut r = CleaningReport::new();
        r.total_stats.verify_answer_questions = 4;
        r.total_stats.verify_fact_questions = 5;
        r.total_stats.satisfiable_questions = 2;
        r.total_stats.filled_variables = 7;
        r.total_stats.missing_answers_provided = 2;
        let (a, t, m) = r.question_breakdown();
        assert_eq!(a, 4);
        assert_eq!(t, 7);
        assert_eq!(m, 9);
    }
}
