//! Symbolic-heap separation-logic model checker.
//!
//! Decides the reduction `s, h ⊩ F ⇝ h', ι` (paper, Definition 2): whether
//! a stack-heap model satisfies a symbolic-heap formula up to a residual
//! heap `h'`, and with which instantiation `ι` of the formula's existential
//! variables. The residue and instantiation are exactly the information
//! SLING propagates between inference iterations (Algorithm 1).
//!
//! See the module docs of the `check` module source for the search strategy.
//! A direct search replaces the paper's Z3 encoding because bounded
//! unfolding decides the judgment against one concrete, finite model.
//!
//! # Example
//!
//! Check the paper's `Fx = ∃u1,u2. dll(x, u1, u2, tmp)` against a concrete
//! two-cell doubly linked segment:
//!
//! ```
//! use sling_checker::CheckCtx;
//! use sling_logic::{parse_formula, parse_predicates, FieldDef, FieldTy, PredEnv,
//!                   StructDef, Symbol, TypeEnv};
//! use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};
//!
//! let node = Symbol::intern("Node");
//! let mut types = TypeEnv::new();
//! types.define(StructDef {
//!     name: node,
//!     fields: vec![
//!         FieldDef { name: Symbol::intern("next"), ty: FieldTy::Ptr(node) },
//!         FieldDef { name: Symbol::intern("prev"), ty: FieldTy::Ptr(node) },
//!     ],
//! })?;
//! let mut preds = PredEnv::new();
//! for d in parse_predicates(
//!     "pred dll(hd: Node*, pr: Node*, tl: Node*, nx: Node*) :=
//!          emp & hd == nx & pr == tl
//!        | exists u. hd -> Node{next: u, prev: pr} * dll(u, hd, tl, nx);",
//! )? {
//!     preds.define(d)?;
//! }
//!
//! // x = 0x01; 0x01 <-> 0x02, then next(0x02) = 0x03 = tmp (not allocated here)
//! let (a, b, c) = (Loc::new(1), Loc::new(2), Loc::new(3));
//! let mut heap = Heap::new();
//! heap.insert(a, HeapCell::new(node, vec![Val::Addr(b), Val::Nil]));
//! heap.insert(b, HeapCell::new(node, vec![Val::Addr(c), Val::Addr(a)]));
//! let mut stack = Stack::new();
//! stack.bind(Symbol::intern("x"), Val::Addr(a));
//! stack.bind(Symbol::intern("tmp"), Val::Addr(c));
//! let model = StackHeapModel::new(stack, heap);
//!
//! let ctx = CheckCtx::new(&types, &preds);
//! let f = parse_formula("exists u1, u2. dll(x, u1, u2, tmp)")?;
//! let red = ctx.check(&model, &f).expect("formula should hold");
//! assert_eq!(red.covered, 2);
//! // ι maps u2 (the tail parameter) to 0x02.
//! assert_eq!(red.inst.get(Symbol::intern("u2")), Some(Val::Addr(b)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
mod check;
mod inst;
pub mod persist;
pub mod verify;

pub use cache::{
    env_fingerprint, CacheStats, CheckCache, EnvProfile, ModelParts, PreparedFormula, SHARD_COUNT,
};
pub use check::{CellReduction, CheckConfig, CheckCtx, Reduction};
pub use inst::Instantiation;
pub use persist::{MergeStats, PersistError};
pub use verify::Verdict;
