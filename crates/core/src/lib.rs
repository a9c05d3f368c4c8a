//! # qoco-core — the QOCO cleaning algorithms
//!
//! The paper's contribution (Sections 4–6), implemented over the substrates
//! of the sibling crates:
//!
//! * [`hitting_set`] — the witness-cover structure behind answer removal:
//!   greedy selection, the unique-minimal-hitting-set test of Theorem 4.5,
//!   and an exact branch-and-bound solver used for ablations;
//! * [`heuristics`] — pluggable tuple-selection heuristics for deletion
//!   (most-frequent — the paper's default — plus the responsibility-,
//!   trust- and random-based alternatives Section 4 mentions);
//! * [`deletion`] — Algorithm 1 `CrowdRemoveWrongAnswer` and the baselines
//!   QOCO⁻ and Random of Section 7.2;
//! * [`split`] — the Split() implementations of Section 5.2: Provenance
//!   (WhyNot?-style), Min-Cut (Stoer–Wagner on the query graph), Random,
//!   and Naïve (no split);
//! * [`insertion`] — Algorithm 2 `CrowdAddMissingAnswer`;
//! * [`cleaner`] — Algorithm 3, the iterative mixed cleaner: one loop for
//!   single CQs, unions ([`ucq_clean`]) and Section 6.2's parallel batches;
//! * [`multi`] — the thread-safe panel of imperfect experts behind the
//!   parallel variant (Section 6.2);
//! * [`naive`] — the systematic-enumeration strategy of Proposition 3.4,
//!   kept as an illustrative (exponential) baseline;
//! * [`report`] — session reports: edits, per-phase question ledgers,
//!   convergence data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cleaner;
pub mod composite;
pub mod constrained;
pub mod deletion;
pub mod error;
pub mod figure1;
pub mod heuristics;
pub mod hitting_set;
pub mod insertion;
pub mod machine;
pub mod multi;
pub mod naive;
pub mod report;
pub mod split;
pub mod store;
pub mod ucq_clean;

pub use cleaner::{
    clean_view, clean_view_parallel, clean_view_with_estimator, CleaningConfig, CleaningReport,
};
pub use composite::{crowd_remove_wrong_answer_composite, find_false_facts};
pub use constrained::{
    apply_all_with_constraints, apply_edit_with_constraints, ConstrainedOutcome,
};
pub use deletion::{
    crowd_remove_wrong_answer, crowd_remove_wrong_answer_tracked, crowd_remove_wrong_answer_with,
    DeletionOutcome, DeletionStrategy,
};
pub use error::CleanError;
pub use figure1::{figure1_ground, figure1_spec};
pub use heuristics::{
    MostFrequentSelector, RandomSelector, ResponsibilitySelector, TrustSelector, TupleSelector,
};
pub use hitting_set::HittingSetInstance;
pub use insertion::{
    crowd_add_missing_answer, crowd_add_missing_answer_tracked, InsertionOptions, InsertionOutcome,
};
pub use machine::{
    FinishedSession, SessionMachine, SessionSpec, SessionState, SubmitError, SubmitOutcome,
};
pub use multi::ParallelMajorityCrowd;
pub use naive::{naive_enumeration, TargetAction};
pub use report::{UnresolvedItem, UnresolvedPhase};
pub use split::{
    InstrumentedSplit, MinCutSplit, NaiveSplit, ProvenanceSplit, RandomSplit, SplitStrategy,
    SplitStrategyKind,
};
pub use store::{deletion_from_str, deletion_to_str, split_from_str, split_to_str, SessionStore};
pub use ucq_clean::{clean_union_view, union_answer_set};
