//! Symbolic-heap separation logic for the SLING reproduction.
//!
//! This crate provides the *syntax* side of the system: the AST of the
//! symbolic-heap fragment of separation logic used throughout the paper
//! (Figure 4), a parser and pretty-printer for the concrete notation,
//! inductive heap predicate definitions, structure (record) types, and the
//! supporting machinery (interned symbols, spans, substitution,
//! well-formedness, and the footprint summaries of predicates that
//! inference reads before it asks the checker anything).
//!
//! The semantic side — stack-heap models and the model checker — lives in
//! the `sling-models` and `sling-checker` crates.
//!
//! # Example
//!
//! Parse the paper's doubly-linked-list predicate and one of its inferred
//! invariants:
//!
//! ```
//! use sling_logic::{parse_formula, parse_predicates};
//!
//! let preds = parse_predicates(
//!     "pred dll(hd: Node*, pr: Node*, tl: Node*, nx: Node*) :=
//!          emp & hd == nx & pr == tl
//!        | exists u. hd -> Node{next: u, prev: pr} * dll(u, hd, tl, nx);",
//! )?;
//! assert_eq!(preds[0].arity(), 4);
//!
//! let inv = parse_formula(
//!     "exists u1, u3, u5. dll(x, u1, x, tmp) * dll(tmp, x, u3, y) \
//!      * dll(y, u3, u5, nil) & res == x",
//! )?;
//! assert_eq!(inv.pred_count(), 3);
//! # Ok::<(), sling_logic::ParseError>(())
//! ```

#![warn(missing_docs)]

mod ast;
mod footprint;
mod lexer;
mod parser;
mod pred;
mod print;
mod span;
mod subst;
mod symbol;
mod types;
mod wf;

pub use ast::{Expr, FieldAssign, Formula, PureAtom, SpatialAtom, SymHeap};
pub use footprint::{FieldRef, Footprints, ParamFacts};
pub use lexer::{lex, LexError, Token};
pub use parser::{parse_formula, parse_predicates, ParseError};
pub use pred::{PredDef, PredEnv, PredEnvError, PredParam};
pub use print::write_symheap;
pub use span::{Span, Spanned};
pub use subst::{subst_expr, subst_pure, subst_spatial, subst_symheap, subst_symheap_bound, Subst};
pub use symbol::{FreshVars, Symbol};
pub use types::{FieldDef, FieldTy, StructDef, TypeEnv, TypeEnvError};
pub use wf::{check_pred_def, check_pred_env, check_symheap, normalize_points_to, WfError};
