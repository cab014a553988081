//! The SLING benchmark corpus and evaluation harness.
//!
//! This crate reproduces the paper's evaluation (§5):
//!
//! * [`corpus::all_benches`] — the 157 MiniC benchmark programs of
//!   Table 1, in 22 categories, with their input generators, documented
//!   ("ground truth") properties, and seeded bugs;
//! * [`predicates`] — the per-category inductive predicate library;
//! * [`matcher`] — the automated inferred-vs-documented property matcher
//!   (the paper checked by hand; a matcher lets one command regenerate
//!   the tables);
//! * [`eval`] — the harness that runs SLING over the corpus and
//!   regenerates Table 1 and Table 2 (against the `sling-biabduce`
//!   baseline).
//!
//! # Example
//!
//! Run one benchmark end to end:
//!
//! ```
//! use sling_suite::{corpus, eval};
//!
//! let bench = corpus::all_benches()
//!     .into_iter()
//!     .find(|b| b.name == "sll/reverse")
//!     .unwrap();
//! let run = eval::run_bench(&bench, &eval::EvalConfig::default());
//! assert!(run.report.invariant_count() > 0);
//! ```

#![warn(missing_docs)]

pub mod corpus;
pub mod eval;
pub mod fixtures;
pub mod matcher;
pub mod predicates;
pub mod program;
pub mod programs;
pub mod report;

pub use program::{ArgCand, Bench, BugKind, Category, Property};
