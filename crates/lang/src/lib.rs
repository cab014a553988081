//! MiniC: the program-and-debugger substrate of the SLING reproduction.
//!
//! The paper runs C benchmarks under LLDB to snapshot stack-heap states at
//! breakpoints (§2.2, §5.2). This crate provides the equivalent substrate,
//! built from scratch so that tracing needs no C toolchain or debugger
//! and replays deterministically:
//!
//! * a small C-like language — structs, pointers, `new`/`free`, lexically
//!   scoped locals, labelled loops, recursion ([`parse_program`],
//!   [`check_program`]);
//! * a tree-walking interpreter with runtime-fault detection
//!   ([`Vm`], [`RtError`]) — seeded bugs in the corpus surface as faults
//!   that abort trace collection exactly like the paper's segfaulting
//!   programs;
//! * an embedded debugger ([`Tracer`]) that records [`Snapshot`]s at
//!   function entry, `@label;` statements, labelled loop heads, and every
//!   `return` (with the ghost variable `res`), including the LLDB
//!   freed-memory quirk of §5.3;
//! * random input generation ([`gen_list`], [`gen_tree`], ...) replacing
//!   the paper's random size-10 structures.
//!
//! # Example
//!
//! Trace the paper's `concat` on two lists and look at the entry models:
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use sling_lang::*;
//! use sling_logic::Symbol;
//!
//! let program = parse_program(
//!     "struct Node { next: Node*; prev: Node*; }
//!      fn concat(x: Node*, y: Node*) -> Node* {
//!          if (x == null) { return y; }
//!          var tmp: Node* = concat(x->next, y);
//!          x->next = tmp;
//!          if (tmp != null) { tmp->prev = x; }
//!          return x;
//!      }",
//! )?;
//! check_program(&program)?;
//!
//! let mut vm = Vm::new(&program, VmConfig::default());
//! let layout = ListLayout {
//!     ty: Symbol::intern("Node"), nfields: 2, next: 0, prev: Some(1), data: None,
//! };
//! let mut rng = StdRng::seed_from_u64(1);
//! let x = gen_list(&mut vm.heap, &layout, 3, DataOrder::Random, &mut rng);
//! let y = gen_list(&mut vm.heap, &layout, 2, DataOrder::Random, &mut rng);
//!
//! vm.set_tracer(Tracer::new(Symbol::intern("concat"), TraceConfig::default()));
//! vm.call(Symbol::intern("concat"), &[x, y])?;
//! let tracer = vm.take_tracer().unwrap();
//! assert_eq!(tracer.at(Location::Entry).len(), 4); // 3 recursive + base
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod ast;
mod interp;
mod lexer;
mod parser;
mod testgen;
mod trace;
mod types;

pub use ast::{
    BinOp, Block, Expr, ExprKind, FuncDecl, LValue, Param, Program, Stmt, StmtKind, StructDecl,
    TyExpr, UnOp,
};
pub use interp::{RtError, RtHeap, Vm, VmConfig};
pub use lexer::{lex as lex_minic, MiniLexError, Tok};
pub use parser::{parse_program, MiniParseError};
pub use testgen::{
    gen_circular_list, gen_list, gen_program, gen_tree, DataOrder, ListLayout, TreeKind, TreeLayout,
};
pub use trace::{Location, Snapshot, TraceConfig, Tracer};
pub use types::{check_program, TypeError};
