//! Stack-heap models.
//!
//! A *stack-heap model* `(s, h)` is the paper's notion of a concrete trace
//! at a location (§3, Semantics). SLING operates on the models of every
//! test execution reaching the location.

use std::fmt;

use crate::heap::Heap;
use crate::stack::Stack;

/// One concrete trace: a stack model paired with a heap model.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct StackHeapModel {
    /// The stack `s`.
    pub stack: Stack,
    /// The heap `h`.
    pub heap: Heap,
}

impl StackHeapModel {
    /// Creates a model from its parts.
    pub fn new(stack: Stack, heap: Heap) -> StackHeapModel {
        StackHeapModel { stack, heap }
    }
}

impl fmt::Display for StackHeapModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.stack, self.heap)
    }
}
