//! Heap partitioning — the paper's `SplitHeap` (§4.1).
//!
//! Given the (residual) stack-heap models at a location and a root pointer
//! variable `v`, `SplitHeap` carves each heap into the *sub-heap* of `v`
//! (cells reachable from `v` stopping at cells other stack variables point
//! to) and the rest, and computes the *common boundary*: the variables —
//! plus `nil` — that delimit those sub-heaps across all models. The
//! boundary supplies the candidate arguments for `InferAtom`.

use std::collections::BTreeSet;

use sling_logic::{Expr, Symbol};
use sling_models::{Heap, Loc, StackHeapModel, Val};

use crate::cells::{CellIndex, Masks};

/// An element of a sub-heap boundary: the `nil` pointer or a stack
/// variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoundaryItem {
    /// The null pointer (reachable from the root).
    Nil,
    /// A stack variable on the rim of (or aliasing into) the sub-heap.
    Var(Symbol),
}

impl BoundaryItem {
    /// The boundary item as a logic expression (predicate argument).
    pub fn to_expr(self) -> Expr {
        match self {
            BoundaryItem::Nil => Expr::Nil,
            BoundaryItem::Var(v) => Expr::Var(v),
        }
    }
}

impl std::fmt::Display for BoundaryItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundaryItem::Nil => f.write_str("nil"),
            BoundaryItem::Var(v) => write!(f, "{v}"),
        }
    }
}

/// Output of [`split_heap`]: per-model sub-heaps and rests, plus the
/// common boundary.
#[derive(Debug, Clone)]
pub struct Split {
    /// `SHv`: per model, the stack with the sub-heap of the root variable.
    pub sub_models: Vec<StackHeapModel>,
    /// `SHr`: per model, the remaining heap (`h \ h'`).
    pub rest: Vec<Heap>,
    /// The intersection of all models' boundaries.
    pub boundary: BTreeSet<BoundaryItem>,
}

/// Partitions each model's heap around the pointer variable `v`
/// (Algorithm 1, line 7: `SHv, SHr, B ← SplitHeap(SH, v)`).
///
/// For each model, a depth-first traversal from `s(v)` collects cells
/// until it reaches `nil` or a cell some *other, non-aliasing* stack
/// variable points to. The per-model boundary contains `v`, every
/// variable whose value lies in the sub-heap or on its rim, and `nil` if
/// it was reached; the common boundary is the intersection over models.
///
/// Inference runs the same split on cell masks; this builds the heaps.
///
/// # Examples
///
/// See the paper's Figure 3: for the root `x` with stack
/// `{x: 0x01, tmp: 0x02, y: 0x04, res: 0x01}` and the 5-cell heap, the
/// sub-heap is `{0x01}` and the boundary `{x, res, nil, tmp}`.
pub fn split_heap(models: &[StackHeapModel], v: Symbol) -> Split {
    let index = CellIndex::new(models);
    let split = split_masks(&index, &index.full(), v);
    Split {
        sub_models: index
            .models
            .iter()
            .map(|m| StackHeapModel::new(m.model.stack.clone(), m.heap(&split.sub)))
            .collect(),
        rest: index.models.iter().map(|m| m.heap(&split.rest)).collect(),
        boundary: split.boundary.into_iter().collect(),
    }
}

/// [`split_heap`] over cell masks: per model, the sub-heap and the rest
/// of a residue, plus the common boundary.
#[derive(Debug)]
pub(crate) struct MaskSplit {
    pub(crate) sub: Masks,
    pub(crate) rest: Masks,
    /// The common boundary in `BoundaryItem` order (`nil`, then the
    /// variables by name), each item once.
    pub(crate) boundary: Vec<BoundaryItem>,
}

/// [`split_heap`] of the heaps `residues` selects from the index. A cell
/// outside the mask counts as unallocated (dangling), exactly as a cell
/// missing from a residue heap does.
///
/// Each model's boundary is written in order as the stack is walked (a
/// stack iterates in name order), and the models' boundaries are
/// intersected by symbol id, so the split reads no symbol text unless a
/// model leaves the root unbound.
pub(crate) fn split_masks(index: &CellIndex<'_>, residues: &Masks, v: Symbol) -> MaskSplit {
    let mut sub = index.empty();
    let mut common: Option<Vec<BoundaryItem>> = None;
    let mut boundary: Vec<BoundaryItem> = Vec::new();
    let mut stops: Vec<Loc> = Vec::new();
    let mut hit_stops: Vec<Loc> = Vec::new();
    let mut work: Vec<Val> = Vec::new();

    for m in &index.models {
        let stack = &m.model.stack;
        let bound = stack.get(v);
        let root = bound.unwrap_or(Val::Nil);
        // Stop at cells pointed to by other (non-aliasing) stack pointers.
        stops.clear();
        stops.extend(
            stack
                .iter()
                .filter(|(w, val)| *w != v && *val != root)
                .filter_map(|(_, val)| val.as_addr()),
        );
        // Depth-first from the root; a stop is recorded, not entered.
        hit_stops.clear();
        let mut saw_nil = false;
        work.push(root);
        while let Some(val) = work.pop() {
            let loc = match val {
                Val::Nil => {
                    saw_nil = true;
                    continue;
                }
                Val::Int(_) => continue,
                Val::Addr(loc) => loc,
            };
            if stops.contains(&loc) {
                if !hit_stops.contains(&loc) {
                    hit_stops.push(loc);
                }
                continue;
            }
            let Some(i) = m.slot(loc).filter(|&i| m.has(residues, i)) else {
                continue; // dangling
            };
            if m.has(&sub, i) {
                continue; // visited
            }
            m.set(&mut sub, i);
            // Reverse field order, so fields are visited left to right.
            work.extend(m.cells[i].1.fields.iter().rev().filter(|f| f.is_pointer()));
        }

        // The root, `nil` if reached, and every variable whose value is a
        // cell of the sub-heap or a stop it reached.
        boundary.clear();
        if saw_nil {
            boundary.push(BoundaryItem::Nil);
        }
        for (w, val) in stack.iter() {
            let on_rim = val.as_addr().is_some_and(|loc| {
                m.slot(loc).is_some_and(|i| m.has(&sub, i)) || hit_stops.contains(&loc)
            });
            if w == v || on_rim {
                boundary.push(BoundaryItem::Var(w));
            }
        }
        if bound.is_none() {
            let at = boundary.partition_point(|item| *item < BoundaryItem::Var(v));
            boundary.insert(at, BoundaryItem::Var(v));
        }
        match &mut common {
            None => common = Some(boundary.clone()),
            Some(acc) => acc.retain(|item| boundary.contains(item)),
        }
    }

    MaskSplit {
        rest: residues.minus(&sub),
        sub,
        boundary: common.unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sling_models::{traverse, Heap, HeapCell, Loc, Stack, Val};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn l(n: u64) -> Loc {
        Loc::new(n)
    }

    fn dcell(next: Val, prev: Val) -> HeapCell {
        HeapCell::new(sym("Node"), vec![next, prev])
    }

    /// The Figure 2(b)/Figure 3 model at iteration `i`.
    fn fig3_model(i: u64) -> StackHeapModel {
        let mut heap = Heap::new();
        heap.insert(l(1), dcell(Val::Addr(l(2)), Val::Nil));
        heap.insert(l(2), dcell(Val::Addr(l(3)), Val::Addr(l(1))));
        heap.insert(l(3), dcell(Val::Addr(l(4)), Val::Addr(l(2))));
        heap.insert(l(4), dcell(Val::Addr(l(5)), Val::Addr(l(3))));
        heap.insert(l(5), dcell(Val::Nil, Val::Addr(l(4))));
        let mut stack = Stack::new();
        stack.bind(sym("x"), Val::Addr(l(i)));
        stack.bind(sym("tmp"), Val::Addr(l(i + 1)));
        stack.bind(sym("y"), Val::Addr(l(4)));
        stack.bind(sym("res"), Val::Addr(l(i)));
        StackHeapModel::new(stack, heap)
    }

    #[test]
    fn figure3_subheaps_and_boundary() {
        let models: Vec<StackHeapModel> = (1..=3).map(fig3_model).collect();
        let split = split_heap(&models, sym("x"));
        // h'1 = {0x01}, h'2 = {0x01, 0x02}, h'3 = {0x01, 0x02, 0x03}.
        assert_eq!(
            split.sub_models[0].heap.domain(),
            [l(1)].into_iter().collect()
        );
        assert_eq!(
            split.sub_models[1].heap.domain(),
            [l(1), l(2)].into_iter().collect()
        );
        assert_eq!(
            split.sub_models[2].heap.domain(),
            [l(1), l(2), l(3)].into_iter().collect()
        );
        // Common boundary = {x, res, nil, tmp} — y only appears in the
        // third model's boundary, so the intersection drops it.
        let expect: BTreeSet<BoundaryItem> = [
            BoundaryItem::Var(sym("x")),
            BoundaryItem::Var(sym("res")),
            BoundaryItem::Nil,
            BoundaryItem::Var(sym("tmp")),
        ]
        .into_iter()
        .collect();
        assert_eq!(split.boundary, expect);
        // Rest is the complement.
        assert_eq!(split.rest[0].len(), 4);
        assert_eq!(split.rest[2].len(), 2);
    }

    #[test]
    fn tmp_split_on_residue() {
        // After x's sub-heap is removed, splitting the residue on tmp
        // reaches y and stops; x is boundary via the dangling prev.
        let m = fig3_model(1);
        let split_x = split_heap(std::slice::from_ref(&m), sym("x"));
        let residue = StackHeapModel::new(m.stack.clone(), split_x.rest[0].clone());
        let split_tmp = split_heap(&[residue], sym("tmp"));
        assert_eq!(
            split_tmp.sub_models[0].heap.domain(),
            [l(2), l(3)].into_iter().collect()
        );
        let expect: BTreeSet<BoundaryItem> = [
            BoundaryItem::Var(sym("tmp")),
            BoundaryItem::Var(sym("x")),
            BoundaryItem::Var(sym("res")),
            BoundaryItem::Var(sym("y")),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            split_tmp.boundary, expect,
            "paper: boundary of tmp is {{tmp, x, res, y}}"
        );
    }

    /// The stack variables of the random models, interned in reverse
    /// textual order so that id order and name order disagree.
    fn random_vars() -> [Symbol; 3] {
        let [c, b, a] = ["split_ref_c", "split_ref_b", "split_ref_a"].map(sym);
        [a, b, c]
    }

    /// A random model over two-field cells at addresses `1..=10` whose
    /// fields and stack variables point into the heap, past it or to nil;
    /// each of `vars` is left unbound one time in six.
    fn random_model(rng: &mut StdRng, vars: &[Symbol]) -> StackHeapModel {
        let val = |rng: &mut StdRng| match rng.gen_range(0..5) {
            0 => Val::Nil,
            _ => Val::Addr(l(rng.gen_range(1..=12u64))),
        };
        let mut heap = Heap::new();
        for raw in 1..=10u64 {
            if rng.gen_bool(0.7) {
                heap.insert(l(raw), dcell(val(rng), val(rng)));
            }
        }
        let mut stack = Stack::new();
        for &v in vars {
            if rng.gen_range(0..6) != 0 {
                stack.bind(v, val(rng));
            }
        }
        stack.bind(sym("k"), Val::Int(3));
        StackHeapModel::new(stack, heap)
    }

    /// The common boundary of the root `v` built from `traverse` alone:
    /// per model, `v`, `nil` if the traversal saw it, and every variable
    /// whose value is a traversed cell or a stop it hit; then the
    /// intersection over the models.
    fn reference_boundary(models: &[StackHeapModel], v: Symbol) -> Vec<BoundaryItem> {
        let mut common: Option<BTreeSet<BoundaryItem>> = None;
        for m in models {
            let root = m.stack.get(v).unwrap_or(Val::Nil);
            let stops = m
                .stack
                .iter()
                .filter(|(w, val)| *w != v && *val != root)
                .filter_map(|(_, val)| val.as_addr())
                .collect();
            let trav = traverse(&m.heap, root, &stops);
            let mut boundary = BTreeSet::from([BoundaryItem::Var(v)]);
            if trav.saw_nil {
                boundary.insert(BoundaryItem::Nil);
            }
            for (w, val) in m.stack.iter() {
                let on_rim = val
                    .as_addr()
                    .is_some_and(|loc| trav.cells.contains(&loc) || trav.hit_stops.contains(&loc));
                if on_rim {
                    boundary.insert(BoundaryItem::Var(w));
                }
            }
            common = Some(match common {
                None => boundary,
                Some(acc) => &acc & &boundary,
            });
        }
        common.unwrap_or_default().into_iter().collect()
    }

    #[test]
    fn masked_split_of_a_residue_equals_split_heap_of_the_residue_heaps() {
        // Inference splits residues as masks over the full models' cells;
        // a cell outside the mask must act as dangling, exactly as a cell
        // missing from a residue heap does (`tmp_split_on_residue`).
        let vars = random_vars();
        let mut rng = StdRng::seed_from_u64(0x5b117);
        let (mut unbound_roots, mut nil_roots) = (0, 0);
        for round in 0..300 {
            let models: Vec<StackHeapModel> = (0..rng.gen_range(1..=3usize))
                .map(|_| random_model(&mut rng, &vars))
                .collect();
            let index = CellIndex::new(&models);
            let mut residues = index.empty();
            for m in &index.models {
                for i in 0..m.cells.len() {
                    if rng.gen_bool(0.7) {
                        m.set(&mut residues, i);
                    }
                }
            }
            let residue_models: Vec<StackHeapModel> = index
                .models
                .iter()
                .map(|m| StackHeapModel::new(m.model.stack.clone(), m.heap(&residues)))
                .collect();
            for v in vars {
                let roots: Vec<Option<Val>> = models.iter().map(|m| m.stack.get(v)).collect();
                unbound_roots += roots.iter().filter(|r| r.is_none()).count();
                nil_roots += roots.iter().filter(|r| **r == Some(Val::Nil)).count();
                let masked = split_masks(&index, &residues, v);
                assert!(
                    masked.boundary.windows(2).all(|w| w[0] < w[1]),
                    "round {round}: {v}: boundary out of order: {:?}",
                    masked.boundary
                );
                assert_eq!(
                    masked.boundary,
                    reference_boundary(&residue_models, v),
                    "round {round}: {v}"
                );
                let heaps = split_heap(&residue_models, v);
                for (k, m) in index.models.iter().enumerate() {
                    let sub = &heaps.sub_models[k].heap;
                    assert_eq!(&m.heap(&masked.sub), sub, "round {round}: {v}");
                    assert_eq!(m.heap(&masked.rest), heaps.rest[k], "round {round}: {v}");
                    // The sub-heap is the traversal of the residue heap.
                    let stack = &m.model.stack;
                    let root = stack.get(v).unwrap_or(Val::Nil);
                    let stops = stack
                        .iter()
                        .filter(|(w, val)| *w != v && *val != root)
                        .filter_map(|(_, val)| val.as_addr())
                        .collect();
                    let trav = traverse(&residue_models[k].heap, root, &stops);
                    assert_eq!(sub.domain(), trav.cells, "round {round}: {v}");
                }
            }
        }
        assert!(
            unbound_roots > 0 && nil_roots > 0,
            "{unbound_roots}, {nil_roots}"
        );
    }

    #[test]
    fn nil_root_gives_empty_subheap() {
        let mut heap = Heap::new();
        heap.insert(l(1), dcell(Val::Nil, Val::Nil));
        let mut stack = Stack::new();
        stack.bind(sym("x"), Val::Nil);
        stack.bind(sym("y"), Val::Addr(l(1)));
        let m = StackHeapModel::new(stack, heap);
        let split = split_heap(&[m], sym("x"));
        assert!(split.sub_models[0].heap.is_empty());
        assert_eq!(split.rest[0].len(), 1);
        assert!(split.boundary.contains(&BoundaryItem::Nil));
        assert!(split.boundary.contains(&BoundaryItem::Var(sym("x"))));
        assert!(!split.boundary.contains(&BoundaryItem::Var(sym("y"))));
    }

    #[test]
    fn aliases_do_not_stop_traversal() {
        // z aliases x: traversal from x must pass straight through.
        let mut heap = Heap::new();
        heap.insert(l(1), dcell(Val::Addr(l(2)), Val::Nil));
        heap.insert(l(2), dcell(Val::Nil, Val::Addr(l(1))));
        let mut stack = Stack::new();
        stack.bind(sym("x"), Val::Addr(l(1)));
        stack.bind(sym("z"), Val::Addr(l(1)));
        let m = StackHeapModel::new(stack, heap);
        let split = split_heap(&[m], sym("x"));
        assert_eq!(split.sub_models[0].heap.len(), 2);
        assert!(split.boundary.contains(&BoundaryItem::Var(sym("z"))));
    }
}
