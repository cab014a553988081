//! # SLING — dynamic inference of separation-logic invariants
//!
//! A from-scratch Rust reproduction of *"SLING: Using Dynamic Analysis to
//! Infer Program Invariants in Separation Logic"* (Le, Zheng, Nguyen —
//! PLDI 2019).
//!
//! Given a MiniC program, inductive heap predicate definitions, and test
//! inputs, SLING:
//!
//! 1. **collects stack-heap models** at breakpoints (entry, labels, loop
//!    heads, returns) by running the program under an embedded debugger
//!    ([`collect_models`]);
//! 2. **partitions** each heap into per-variable sub-heaps with their
//!    boundary variables ([`split_heap`], §4.1);
//! 3. **searches** the predicate set for atomic formulae every sub-heap
//!    satisfies, via a symbolic-heap model checker that returns residual
//!    heaps and existential instantiations (`InferAtom`, §4.2);
//!
//! 4. conjoins the per-variable formulae with `∗`, then infers **pure
//!    equalities** over stack variables, existentials, `nil` and `res`
//!    ([`infer_pure`], §4.3);
//! 5. **validates** entry/exit pairs with the frame rule
//!    ([`validate_frame`], §4.4);
//! 6. optionally **grades** every reported invariant with a static
//!    verification post-pass — bounded-unfolding entailment checking
//!    against the sibling invariants, with refutation witnesses driving
//!    counterexample-guided re-collection rounds
//!    ([`SlingConfig::verify`], [`InvariantGrade`]).
//!
//! Steps 2 and 3 never copy a heap: each location's selected models
//! ([`select_models`]) are indexed once, with their cells in address
//! order, and every residue, sub-heap and rest is a bitset over that
//! index. The checker takes a sub-heap as a slice of indexed cells and
//! returns its residue as a bitset over the slice
//! ([`CheckCtx::check_prepared`](sling_checker::CheckCtx::check_prepared)).
//! Heaps are built only for the reported [`Invariant::residues`].
//! [`split_heap`] is the same split with heaps built, for callers that
//! hold models.
//!
//! # The engine API
//!
//! The public surface is a long-lived [`Engine`], built once per program
//! and predicate library and reused across many analyses. The engine
//! owns the checked program, its type environment, and the predicate
//! environment, and memoizes model-checker verdicts in a shared,
//! sharded entailment cache ([`CacheStats`] reports its effectiveness
//! per request), so analyzing several functions — or the same structure
//! shape at several locations — does not repeat work.
//!
//! * [`Engine::builder`] → [`EngineBuilder`]: supply the program
//!   (`program` / `program_source`), the predicates (`predicates` /
//!   `predicates_source` / `pred_env`), optionally a [`SlingConfig`], a
//!   shared cache, and a `parallelism` worker count, then `build()`.
//!   The builder is the one place settings enter an engine.
//! * [`AnalysisRequest`]: a target function and its test inputs
//!   (declarative [`InputSpec`]s, or custom closures as an escape
//!   hatch). Requests are `Send + Sync + Clone + Debug`.
//! * [`Engine::analyze`] serves one request as a [`Report`] — with its
//!   per-location inference fanned out over the engine's worker pool,
//!   so even a single-target request uses every core;
//!   [`Engine::analyze_all`] serves a batch as a [`BatchReport`] by
//!   running its requests in order, each over the whole pool, and
//!   [`Engine::analyze_all_with`] additionally hands each report to a
//!   sink as soon as it is done.
//! * [`EngineBuilder::cache_path`] makes the entailment cache
//!   persistent: the engine warm-starts from a snapshot saved by an
//!   earlier process ([`Engine::save_cache`]), and
//!   [`CacheStats::warm_hits`] reports what the warm start paid for.
//!   See [`sling_checker::persist`] for the format and its safety
//!   guarantees.
//!
//! # Example
//!
//! Infer the paper's `concat` specification (§2):
//!
//! ```
//! use sling::{AnalysisRequest, Engine, InputSpec, ListLayout, ValueSpec};
//! use sling_lang::Location;
//! use sling_logic::Symbol;
//!
//! let engine = Engine::builder()
//!     .program_source(
//!         "struct Node { next: Node*; prev: Node*; }
//!          fn concat(x: Node*, y: Node*) -> Node* {
//!              if (x == null) { return y; }
//!              var tmp: Node* = concat(x->next, y);
//!              x->next = tmp;
//!              if (tmp != null) { tmp->prev = x; }
//!              return x;
//!          }",
//!     )?
//!     .predicates_source(
//!         "pred dll(hd: Node*, pr: Node*, tl: Node*, nx: Node*) :=
//!              emp & hd == nx & pr == tl
//!            | exists u. hd -> Node{next: u, prev: pr} * dll(u, hd, tl, nx);",
//!     )?
//!     .build()?;
//!
//! // One input: x = 2-node dll, y = 1-node dll — declaratively.
//! let layout = ListLayout {
//!     ty: Symbol::intern("Node"),
//!     nfields: 2,
//!     next: 0,
//!     prev: Some(1),
//!     data: None,
//! };
//! let input = InputSpec::seeded(7)
//!     .arg(ValueSpec::dll(layout, 2))
//!     .arg(ValueSpec::dll(layout, 1));
//!
//! let report = engine.analyze(&AnalysisRequest::new("concat").input(input))?;
//! let entry = report.at(Location::Entry).expect("entry reached");
//! assert!(!entry.invariants.is_empty());
//! println!("precondition: {}", entry.invariants[0].formula);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same engine serves further requests — other inputs, other target
//! functions of the program — with the entailment cache already warm;
//! see [`Engine::analyze_all`] for batches and
//! [`Engine::analyze_all_with`] for streaming consumption.

#![warn(missing_docs)]

mod cells;
mod collect;
pub mod engine;
mod fanout;
mod infer;
mod pipeline;
mod pure;
pub mod report;
pub mod request;
pub mod spec;
mod split;
mod validate;

pub use collect::{collect_models, Collected, Executor, RunTrace};
pub use engine::{
    default_parallelism, AnalyzeError, BuildError, Engine, EngineBuilder, MAX_INPUT_CELLS,
};
pub use infer::{var_types, VarTy};
pub use pipeline::{select_models, SlingConfig};
pub use pure::infer_pure;
pub use report::{
    BatchReport, Invariant, InvariantGrade, InvariantStats, LocationAnalysis, Report, RunMetrics,
};
pub use request::{AnalysisRequest, InputBuilder, InputSource};
pub use sling_analysis::{
    analyze_program, codes as lint_codes, AnalysisSettings, Diagnostic, Diagnostics,
    ProgramAnalysis, Severity,
};
pub use spec::{ExactCell, ExactVal, InputSpec, ValueSpec};
pub use split::{split_heap, BoundaryItem, Split};
pub use validate::validate_frame;

// Re-exported so spec construction, report reading and cache
// persistence need no direct `sling_lang` / `sling_models` /
// `sling_checker` import.
pub use sling_checker::{persist, CacheStats, CheckCache, EnvProfile, MergeStats, PersistError};
pub use sling_lang::{DataOrder, ListLayout, Location, TreeKind, TreeLayout};
pub use sling_models::{Heap, HeapCell, Loc, Val};
pub use sling_vm::{BytecodeVm, CompiledProgram, Compiler};
