//! Concrete stack-heap models — the semantic domain of the SLING pipeline.
//!
//! A *stack-heap model* (§3 of the paper) is a pair `(s, h)` of a stack
//! `s : Var → Val` and a finite heap `h : Loc ⇀ (Type × Val*)`. The MiniC
//! tracer produces these as snapshots; the model checker consumes them; the
//! SLING algorithm partitions and recombines them.
//!
//! # Example
//!
//! Build the heap of the paper's Figure 2(a) — two doubly linked lists —
//! and compute what is reachable from `x`:
//!
//! ```
//! use sling_logic::Symbol;
//! use sling_models::{reachable, Heap, HeapCell, Loc, Stack, Val};
//!
//! let node = Symbol::intern("Node");
//! let mut h = Heap::new();
//! let cell = |next: Val, prev: Val| HeapCell::new(node, vec![next, prev]);
//! h.insert(Loc::new(1), cell(Val::Addr(Loc::new(2)), Val::Nil));
//! h.insert(Loc::new(2), cell(Val::Addr(Loc::new(3)), Val::Addr(Loc::new(1))));
//! h.insert(Loc::new(3), cell(Val::Nil, Val::Addr(Loc::new(2))));
//! h.insert(Loc::new(4), cell(Val::Addr(Loc::new(5)), Val::Nil));
//! h.insert(Loc::new(5), cell(Val::Nil, Val::Addr(Loc::new(4))));
//!
//! let from_x = reachable(&h, [Val::Addr(Loc::new(1))]);
//! assert_eq!(from_x.len(), 3);
//! ```

#![warn(missing_docs)]

mod heap;
mod model;
mod reach;
mod stack;
mod value;

pub use heap::{Heap, HeapCell};
pub use model::StackHeapModel;
pub use reach::{reachable, traverse, Traversal};
pub use stack::Stack;
pub use value::{Loc, Val};
