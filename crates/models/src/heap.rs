//! Heap models: finite partial maps from locations to typed cells.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use sling_logic::Symbol;

use crate::value::{Loc, Val};

/// One allocated cell: an instance of a structure type.
///
/// Field values are stored positionally, in the structure's declaration
/// order (the [`sling_logic::TypeEnv`] gives names to positions).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HeapCell {
    /// Structure type name `τ`.
    pub ty: Symbol,
    /// Field values in declaration order.
    pub fields: Vec<Val>,
}

impl HeapCell {
    /// Creates a cell of the given type with the given field values.
    pub fn new(ty: Symbol, fields: Vec<Val>) -> HeapCell {
        HeapCell { ty, fields }
    }

    /// The addresses stored in this cell's fields.
    pub fn out_edges(&self) -> impl Iterator<Item = Loc> + '_ {
        self.fields.iter().filter_map(|v| v.as_addr())
    }
}

impl fmt::Display for HeapCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.ty)?;
        for (i, v) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("}")
    }
}

/// A heap model `h : Loc ⇀ (Type × Val*)`.
///
/// Deterministic iteration order (sorted by location) keeps the whole
/// pipeline reproducible.
///
/// # Examples
///
/// ```
/// use sling_logic::Symbol;
/// use sling_models::{Heap, HeapCell, Loc, Val};
///
/// let node = Symbol::intern("Node");
/// let mut h = Heap::new();
/// let a = Loc::new(1);
/// h.insert(a, HeapCell::new(node, vec![Val::Nil]));
/// assert_eq!(h.len(), 1);
/// assert!(h.get(a).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Heap {
    cells: BTreeMap<Loc, HeapCell>,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Inserts (or replaces) the cell at `loc`, returning the old cell.
    pub fn insert(&mut self, loc: Loc, cell: HeapCell) -> Option<HeapCell> {
        self.cells.insert(loc, cell)
    }

    /// Removes and returns the cell at `loc`.
    pub fn remove(&mut self, loc: Loc) -> Option<HeapCell> {
        self.cells.remove(&loc)
    }

    /// The cell at `loc`, if allocated.
    pub fn get(&self, loc: Loc) -> Option<&HeapCell> {
        self.cells.get(&loc)
    }

    /// Mutable access to the cell at `loc`.
    pub fn get_mut(&mut self, loc: Loc) -> Option<&mut HeapCell> {
        self.cells.get_mut(&loc)
    }

    /// True if `loc` is allocated.
    pub fn contains(&self, loc: Loc) -> bool {
        self.cells.contains_key(&loc)
    }

    /// Number of allocated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no cells are allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The domain `dom(h)`.
    pub fn domain(&self) -> BTreeSet<Loc> {
        self.cells.keys().copied().collect()
    }

    /// Iterates over `(location, cell)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, &HeapCell)> {
        self.cells.iter().map(|(l, c)| (*l, c))
    }

    /// True if `self` and `other` have disjoint domains (`h1 # h2`).
    pub fn disjoint(&self, other: &Heap) -> bool {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.cells.keys().all(|l| !large.contains(*l))
    }

    /// True if every cell of `self` is also (identically) in `other`
    /// (`h' ⊆ h` of Definition 2).
    pub fn subheap_of(&self, other: &Heap) -> bool {
        self.cells.iter().all(|(l, c)| other.get(*l) == Some(c))
    }
}

impl fmt::Display for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, (l, c)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{l} -> {c}")?;
        }
        f.write_str("]")
    }
}

impl FromIterator<(Loc, HeapCell)> for Heap {
    fn from_iter<T: IntoIterator<Item = (Loc, HeapCell)>>(iter: T) -> Heap {
        Heap {
            cells: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Loc, HeapCell)> for Heap {
    fn extend<T: IntoIterator<Item = (Loc, HeapCell)>>(&mut self, iter: T) {
        self.cells.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Symbol {
        Symbol::intern("Node")
    }

    fn cell(next: Val) -> HeapCell {
        HeapCell::new(node(), vec![next])
    }

    fn l(n: u64) -> Loc {
        Loc::new(n)
    }

    #[test]
    fn insert_get_remove() {
        let mut h = Heap::new();
        assert!(h.insert(l(1), cell(Val::Nil)).is_none());
        assert_eq!(h.get(l(1)).unwrap().fields[0], Val::Nil);
        assert!(h.remove(l(1)).is_some());
        assert!(h.is_empty());
    }

    #[test]
    fn union_disjoint() {
        // Disjoint heaps (`h1 # h2`) compose by extension into `h1 ∘ h2`;
        // heaps sharing a location are not disjoint.
        let mut a = Heap::new();
        a.insert(l(1), cell(Val::Addr(l(2))));
        let mut b = Heap::new();
        b.insert(l(2), cell(Val::Nil));
        assert!(a.disjoint(&b) && b.disjoint(&a));
        let mut u = a.clone();
        u.extend(b.iter().map(|(loc, c)| (loc, c.clone())));
        assert_eq!(u.len(), 2);
        assert!(a.subheap_of(&u) && b.subheap_of(&u));
        assert!(!u.disjoint(&a));
    }

    #[test]
    fn union_overlap_errors() {
        // Heaps sharing a location are not disjoint, so `h1 ∘ h2` is
        // undefined: extending one by the other collides at that location.
        let mut a = Heap::new();
        a.insert(l(1), cell(Val::Nil));
        let mut b = Heap::new();
        b.insert(l(1), cell(Val::Nil));
        assert!(!a.disjoint(&b) && !b.disjoint(&a));
        let collisions: Vec<Loc> = b
            .iter()
            .filter_map(|(loc, c)| a.insert(loc, c.clone()).map(|_| loc))
            .collect();
        assert_eq!(collisions, [l(1)]);
    }

    #[test]
    fn subheap_requires_identical_cells() {
        let mut a = Heap::new();
        a.insert(l(1), cell(Val::Nil));
        let mut b = Heap::new();
        b.insert(l(1), cell(Val::Nil));
        b.insert(l(2), cell(Val::Nil));
        assert!(a.subheap_of(&b));
        assert!(!b.subheap_of(&a));
        // Same domain, different contents: not a subheap.
        let mut c = Heap::new();
        c.insert(l(1), cell(Val::Addr(l(2))));
        assert!(!c.subheap_of(&b));
    }

    #[test]
    fn out_edges() {
        let c = HeapCell::new(node(), vec![Val::Addr(l(7)), Val::Int(3), Val::Nil]);
        assert_eq!(c.out_edges().collect::<Vec<_>>(), vec![l(7)]);
    }
}
