//! # qoco-crowd — the oracle-crowd model of QOCO
//!
//! The paper models domain experts as *oracle crowds* (Sections 3.2, 6.2).
//! QOCO interacts with them through four question types:
//!
//! * `TRUE(R(ā))?` — is a fact true? ([`Question::VerifyFact`])
//! * `TRUE(Q, t)?` — is a result tuple a true answer? ([`Question::VerifyAnswer`])
//! * `COMPL(α, Q)` — if the partial assignment `α` is satisfiable, complete
//!   it into a witness ([`Question::Complete`]); the satisfiability check
//!   itself is [`Question::VerifySatisfiable`] (the `CrowdVerify` of
//!   Algorithm 2 on partially-ground bodies)
//! * `COMPL(Q(D))` — provide an answer missing from the result
//!   ([`Question::CompleteResult`])
//!
//! This crate provides the question/answer vocabulary, the
//! [`oracle::Oracle`] trait, a [`perfect::PerfectOracle`] backed by the
//! ground truth `D_G` (the measurement instrument of the paper's Figure 3
//! experiments), an [`imperfect::ImperfectOracle`] with a Bernoulli error
//! rate (Figure 4), the [`session::CrowdAccess`] trait that the cleaning
//! algorithms talk to, single-expert and majority-vote implementations, the
//! per-question-type cost ledger ([`stats::CrowdStats`]), and the
//! enumeration black-box (Trushkowsky et al. \[61\]) deciding when a result
//! is complete ([`enumeration`]).
//!
//! Crowds are *fallible*: oracles can time out, abstain, or drop out
//! ([`fault::OracleError`]), chaos is injected reproducibly by a
//! [`fault::FaultyOracle`] driven by a [`fault::FaultPlan`], sessions absorb
//! faults through a [`session::RetryPolicy`] (surfacing
//! [`session::CrowdError`] only on exhaustion), and every outcome can be
//! written ahead to a [`journal::Journal`] so a killed session resumes
//! bit-identically ([`journal`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enumeration;
pub mod fault;
pub mod imperfect;
pub mod journal;
pub mod oracle;
pub mod perfect;
pub mod question;
pub mod sampling;
pub mod session;
pub mod stats;
pub mod suspend;
pub mod transcript;

pub use enumeration::{Chao92Estimator, CompletenessEstimator, GroundTruthEstimator};
pub use fault::{Burst, FaultKind, FaultPlan, FaultyOracle, OracleError};
pub use imperfect::ImperfectOracle;
pub use journal::{Journal, JournalOracle, JournalRecord};
pub use oracle::Oracle;
pub use perfect::PerfectOracle;
pub use question::{Answer, Question, QuestionKind};
pub use sampling::SamplingOracle;
pub use session::{
    ask_with_retry, CrowdAccess, CrowdError, MajorityCrowd, RetryPolicy, SingleExpert,
};
pub use stats::CrowdStats;
pub use suspend::{
    install_suspend_hook, parse_tagged_value, tagged_value, PendingQuestion, SuspendSignal,
    SuspendingOracle,
};
pub use transcript::{RecordingCrowd, TranscriptEntry};
