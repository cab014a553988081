//! Atomic-predicate inference — the paper's `InferAtom` (Algorithm 2).
//!
//! Given the sub-models of a root pointer and their common boundary,
//! `InferAtom` searches the predicate set for atomic formulae satisfied by
//! *all* sub-models:
//!
//! 1. **Inductive predicates** — for each predicate with a parameter of
//!    the root's type, enumerate argument tuples: subsets `A` of the
//!    boundary containing the root (ascending size), padded with fresh
//!    existential variables, placed injectively into parameter positions
//!    that are type-consistent (Algorithm 2, line 8). Each candidate
//!    `∃u⃗. p(k1..kn)` is model-checked against every sub-model; accepted
//!    candidates carry their per-model residual heaps and existential
//!    instantiations. A candidate that covers no cell in any sub-model
//!    is dropped, and most such are never checked: when `p`'s footprint
//!    summary ([`Footprints`]) shows, on every sub-model, that a known
//!    argument (`nil`, or a stack variable's value) breaks a fact of its
//!    parameter, say `nil` for a parameter that must be allocated, no
//!    instance can cover a cell, whatever the checker would answer.
//! 2. **Singleton predicates** — when every sub-model is a single cell at
//!    the root, a points-to atom is built; fields take the common stack
//!    variable (or `nil`) when one exists in *all* models, otherwise a
//!    fresh existential instantiated per model.
//! 3. **`emp`** — the fallback when nothing else matched: the whole
//!    sub-heap becomes residue.
//!
//! A location asks the same question more than once: sibling partials of
//! Algorithm 1's result set often leave the same residue, so their splits
//! carve the same sub-heap with the same boundary. Steps 1 and 2, the
//! candidate search, are the only part that asks the checker or draws
//! fresh names, and the location's [`AtomMemo`] keeps what they accepted.
//! A repeated question replays that answer instead of searching: each
//! existential takes `fresh`'s next name, in the order the first search
//! drew it, which is what a second search would have drawn. Step 3 and
//! the selection of the strongest atoms run on every call, after the
//! renaming, because their tie-break reads the printed formula; only the
//! atoms the selection keeps have their residues and instantiations
//! copied.
//!
//! A search checks each candidate on every sub-model, and each sub-model
//! under every candidate, so neither half of a cache key is written per
//! check: a candidate's formula part is written once for all sub-models
//! ([`PreparedFormula`]), and each sub-heap keeps the model parts it has
//! been keyed under, one per free-variable list ([`ModelParts`]).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use sling_checker::{CheckCtx, Instantiation, ModelParts, PreparedFormula};
use sling_logic::{
    subst_symheap_bound, Expr, FieldAssign, FieldRef, FieldTy, Footprints, FreshVars, ParamFacts,
    PredDef, SpatialAtom, Subst, SymHeap, Symbol,
};
use sling_models::{HeapCell, Loc, StackHeapModel, Val};

use crate::cells::{CellIndex, Masks};
use crate::split::BoundaryItem;

/// Maximum accepted atomic formulae per variable (strongest — smallest
/// total residue — kept first).
const MAX_RESULTS_PER_VAR: usize = 4;

/// Maximum candidate argument tuples tried per predicate.
const MAX_CANDIDATES_PER_PRED: usize = 4_096;

/// One accepted atomic formula with its per-model evidence.
#[derive(Debug, Clone)]
pub(crate) struct AtomResult {
    /// `∃u⃗. p(...)`, a points-to, or `emp`.
    pub(crate) formula: SymHeap,
    /// Per model: the part of the sub-heap *not* covered.
    pub(crate) residues: Masks,
    /// Per model: values of the formula's existentials.
    pub(crate) insts: Vec<Instantiation>,
    /// Total residue size across models (smaller = stronger).
    pub(crate) total_residue: usize,
}

/// The candidate searches run at one location: per root variable,
/// sub-heap and boundary, the atoms the search accepted, in acceptance
/// order and under the names it drew.
pub(crate) type AtomMemo = HashMap<(Symbol, Masks, BTreeSet<BoundaryItem>), Vec<AtomResult>>;

/// One model's sub-heap as the checker takes it: the cells in address
/// order, each one's position in the location's index, and the model
/// parts of the cache keys the search has written on it.
struct SubHeap<'s> {
    cells: Vec<(Loc, &'s HeapCell)>,
    slots: Vec<usize>,
    parts: ModelParts,
}

/// How a stack variable is typed, derived from observed values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarTy {
    /// Pointer to a known structure.
    Ptr(Symbol),
    /// Integer.
    Int,
    /// Only `nil` observed: compatible with every pointer type.
    NilPtr,
}

impl VarTy {
    fn fits(self, param: FieldTy) -> bool {
        match (self, param) {
            (VarTy::Ptr(a), FieldTy::Ptr(b)) => a == b,
            (VarTy::NilPtr, FieldTy::Ptr(_)) => true,
            (VarTy::Int, FieldTy::Int) => true,
            _ => false,
        }
    }
}

/// Derives variable types from the values observed across models: an
/// address typed by its cell wins over `nil`; integers are `Int`.
pub fn var_types<'m>(
    models: impl IntoIterator<Item = &'m StackHeapModel>,
) -> BTreeMap<Symbol, VarTy> {
    let mut out: BTreeMap<Symbol, VarTy> = BTreeMap::new();
    for m in models {
        for (w, val) in m.stack.iter() {
            match val {
                Val::Int(_) => {
                    out.insert(w, VarTy::Int);
                }
                Val::Addr(loc) => {
                    if let Some(cell) = m.heap.get(loc) {
                        out.insert(w, VarTy::Ptr(cell.ty));
                    } else {
                        out.entry(w).or_insert(VarTy::NilPtr);
                    }
                }
                Val::Nil => {
                    out.entry(w).or_insert(VarTy::NilPtr);
                }
            }
        }
    }
    out
}

/// Runs `InferAtom` for the root variable `v` (Algorithm 2) on the
/// sub-heaps `sub` selects from `index`.
///
/// `footprints` summarizes `ctx.preds`; `types` maps stack variables to
/// their observed types (for the `type(ki) <: type(ti)` check); `fresh`
/// supplies existential names shared across the whole location so `u1,
/// u2, ...` never collide. A question `memo` already holds is answered
/// from it, under the names `fresh` gives now; a new one is searched and
/// recorded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn infer_atom(
    ctx: &CheckCtx<'_>,
    footprints: &Footprints,
    v: Symbol,
    index: &CellIndex<'_>,
    sub: &Masks,
    boundary: &BTreeSet<BoundaryItem>,
    types: &BTreeMap<Symbol, VarTy>,
    fresh: &mut FreshVars,
    memo: &mut AtomMemo,
) -> Vec<AtomResult> {
    assert!(
        !index.models.is_empty(),
        "InferAtom needs at least one model"
    );

    // Empty sub-heaps in every model: only `emp` is informative.
    if sub.is_empty() {
        return vec![emp_result(index, sub)];
    }

    let kept = match memo.entry((v, sub.clone(), boundary.clone())) {
        Entry::Occupied(first) => replay(v, first.get(), fresh),
        Entry::Vacant(slot) => {
            let found = slot.insert(search(
                ctx, footprints, v, index, sub, boundary, types, fresh,
            ));
            let formulas: Vec<&SymHeap> = found.iter().map(|atom| &atom.formula).collect();
            let kept = rank(v, found, &formulas);
            kept.into_iter().map(|i| found[i].clone()).collect()
        }
    };
    // --- emp fallback -----------------------------------------------------
    if kept.is_empty() {
        vec![emp_result(index, sub)]
    } else {
        kept
    }
}

/// The candidate search: every inductive candidate and the singleton
/// that hold on all sub-models, in acceptance order.
#[allow(clippy::too_many_arguments)]
fn search(
    ctx: &CheckCtx<'_>,
    footprints: &Footprints,
    v: Symbol,
    index: &CellIndex<'_>,
    sub: &Masks,
    boundary: &BTreeSet<BoundaryItem>,
    types: &BTreeMap<Symbol, VarTy>,
    fresh: &mut FreshVars,
) -> Vec<AtomResult> {
    let mut results: Vec<AtomResult> = Vec::new();

    // --- Inductive predicates -------------------------------------------
    // Per model: the cell `v` points to, when it is in the sub-heap.
    let roots: Vec<Option<usize>> = index
        .models
        .iter()
        .map(|m| {
            let loc = m.model.stack.get(v)?.as_addr()?;
            m.slot(loc).filter(|&i| m.has(sub, i))
        })
        .collect();
    let root_ty = index
        .models
        .iter()
        .zip(&roots)
        .find_map(|(m, root)| Some(m.cells[(*root)?].1.ty));
    if let Some(root_ty) = root_ty {
        let items: Vec<BoundaryItem> = boundary.iter().copied().collect();
        let mut subs = sub_heaps(index, sub);
        for pred in ctx.preds.for_root_type(root_ty) {
            infer_inductive(
                ctx,
                footprints.covering(pred.name),
                v,
                index,
                &mut subs,
                &items,
                types,
                pred,
                fresh,
                &mut results,
            );
        }
    }

    // --- Singleton predicate --------------------------------------------
    if let Some(single) = infer_singleton(ctx, v, index, sub, &roots, fresh) {
        results.push(single);
    }
    results
}

/// Each model's sub-heap `sub`, with no cache key written on it yet.
fn sub_heaps<'s>(index: &CellIndex<'s>, sub: &Masks) -> Vec<SubHeap<'s>> {
    index
        .models
        .iter()
        .map(|m| {
            let slots: Vec<usize> = m.slots(sub).collect();
            SubHeap {
                cells: slots.iter().map(|&i| m.cells[i]).collect(),
                slots,
                parts: ModelParts::default(),
            }
        })
        .collect()
}

/// The atoms of an earlier search that [`rank`] keeps, under the names a
/// new search would draw: each existential, atom by atom in the order
/// the search drew them, takes `fresh`'s next name. Every formula is
/// renamed, because the ranking's tie-break reads the printed names;
/// residues and instantiations are copied only for the kept atoms.
fn replay(v: Symbol, first: &[AtomResult], fresh: &mut FreshVars) -> Vec<AtomResult> {
    let names: Vec<Subst> = first
        .iter()
        .map(|atom| {
            atom.formula
                .exists
                .iter()
                .map(|&u| (u, Expr::Var(fresh.next())))
                .collect()
        })
        .collect();
    let mut formulas: Vec<SymHeap> = first
        .iter()
        .zip(&names)
        .map(|(atom, names)| subst_symheap_bound(&atom.formula, names))
        .collect();
    let kept = rank(v, first, &formulas.iter().collect::<Vec<_>>());
    kept.into_iter()
        .map(|i| {
            let rename = |u: Symbol| names[i].get(&u).and_then(Expr::as_var).unwrap_or(u);
            AtomResult {
                formula: std::mem::take(&mut formulas[i]),
                residues: first[i].residues.clone(),
                insts: first[i]
                    .insts
                    .iter()
                    .map(|inst| inst.iter().map(|(u, val)| (rename(u), val)).collect())
                    .collect(),
                total_residue: first[i].total_residue,
            }
        })
        .collect()
}

/// The ranking: the positions of at most [`MAX_RESULTS_PER_VAR`] of
/// `atoms`, in the order they are kept. `formulas` holds each atom's
/// formula under the names it goes out with.
fn rank(v: Symbol, atoms: &[AtomResult], formulas: &[&SymHeap]) -> Vec<usize> {
    // Keep a *diverse* strongest set. Two rankings matter:
    //  * smallest total residue (covers the most memory), and
    //  * the root variable in the earliest predicate position (the
    //    paper's head-rooted presentation, e.g. `dll(x, u1, u2, tmp)` —
    //    §2.3 keeps it even though its residue is larger than the
    //    tail-rooted alternative when back-pointers reach above `x`).
    // Half the slots go to each ranking; duplicates collapse. Both
    // tie-breaks and the duplicate check read the printed formula, so
    // each is printed once.
    let printed: Vec<String> = formulas.iter().map(|f| f.to_string()).collect();
    let roots: Vec<usize> = formulas.iter().map(|f| root_position(f, v)).collect();
    let residue = |i: usize| atoms[i].total_residue;
    let tail = |i: usize| (formulas[i].exists.len(), &printed[i]);
    let mut ranked: Vec<usize> = (0..atoms.len()).collect();
    ranked.sort_by_key(|&i| (residue(i), roots[i], tail(i)));
    let mut rooted: Vec<usize> = (0..atoms.len()).collect();
    rooted.sort_by_key(|&i| (roots[i], residue(i), tail(i)));
    let mut keep = Vec::with_capacity(MAX_RESULTS_PER_VAR);
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for i in ranked
        .into_iter()
        .take(MAX_RESULTS_PER_VAR.div_ceil(2))
        .chain(rooted)
    {
        if keep.len() >= MAX_RESULTS_PER_VAR {
            break;
        }
        if seen.insert(&printed[i]) {
            keep.push(i);
        }
    }
    keep
}

/// Index of the root variable among the first spatial atom's arguments
/// (points-to roots count as position 0; absent roots sort last).
fn root_position(formula: &SymHeap, root: Symbol) -> usize {
    match formula.spatial.first() {
        Some(SpatialAtom::Pred { args, .. }) => args
            .iter()
            .position(|a| a.as_var() == Some(root))
            .unwrap_or(usize::MAX),
        Some(SpatialAtom::PointsTo { .. }) => 0,
        None => usize::MAX,
    }
}

fn emp_result(index: &CellIndex<'_>, sub: &Masks) -> AtomResult {
    AtomResult {
        formula: SymHeap::emp(),
        residues: sub.clone(),
        insts: vec![Instantiation::new(); index.models.len()],
        total_residue: sub.len(),
    }
}

/// Tries `pred`'s candidates rooted at `root`; `facts` is `pred`'s
/// footprint ([`Footprints::covering`]).
#[allow(clippy::too_many_arguments)]
fn infer_inductive(
    ctx: &CheckCtx<'_>,
    facts: Option<&[ParamFacts]>,
    root: Symbol,
    index: &CellIndex<'_>,
    subs: &mut [SubHeap<'_>],
    boundary: &[BoundaryItem],
    types: &BTreeMap<Symbol, VarTy>,
    pred: &PredDef,
    fresh: &mut FreshVars,
    results: &mut Vec<AtomResult>,
) {
    let n = pred.arity();
    let root_item = BoundaryItem::Var(root);
    let others: Vec<BoundaryItem> = boundary
        .iter()
        .copied()
        .filter(|b| *b != root_item)
        .collect();

    let mut tried = 0usize;

    // Subsets of the boundary that contain the root, ascending size.
    for extra in 0..=others.len().min(n.saturating_sub(1)) {
        for combo in combinations(&others, extra) {
            let mut set = vec![root_item];
            set.extend(combo);
            // Injective placements of `set` into the n positions.
            let placements = placements(&set, n, pred, types);
            for placement in placements {
                tried += 1;
                if tried > MAX_CANDIDATES_PER_PRED {
                    return;
                }
                if covers_nothing(facts, index, subs, &placement) {
                    continue;
                }
                results.extend(try_candidate(ctx, index, subs, pred, &placement, fresh));
            }
        }
    }
}

/// All ways to place the boundary items of `set` injectively into the
/// `n` parameter positions of `pred`, respecting types. Unused positions
/// are `None` (filled with fresh existentials later).
fn placements(
    set: &[BoundaryItem],
    n: usize,
    pred: &PredDef,
    types: &BTreeMap<Symbol, VarTy>,
) -> Vec<Vec<Option<BoundaryItem>>> {
    let mut out = Vec::new();
    let mut current: Vec<Option<BoundaryItem>> = vec![None; n];
    place_rec(set, 0, pred, types, &mut current, &mut out);
    out
}

fn place_rec(
    set: &[BoundaryItem],
    idx: usize,
    pred: &PredDef,
    types: &BTreeMap<Symbol, VarTy>,
    current: &mut Vec<Option<BoundaryItem>>,
    out: &mut Vec<Vec<Option<BoundaryItem>>>,
) {
    if idx == set.len() {
        out.push(current.clone());
        return;
    }
    let item = set[idx];
    for pos in 0..current.len() {
        if current[pos].is_some() {
            continue;
        }
        let param_ty = pred.params[pos].ty;
        let ok = match item {
            BoundaryItem::Nil => matches!(param_ty, FieldTy::Ptr(_)),
            BoundaryItem::Var(w) => match types.get(&w) {
                Some(t) => t.fits(param_ty),
                // Unknown (never-seen) variable: be permissive for
                // pointer positions.
                None => matches!(param_ty, FieldTy::Ptr(_)),
            },
        };
        if !ok {
            continue;
        }
        current[pos] = Some(item);
        place_rec(set, idx + 1, pred, types, current, out);
        current[pos] = None;
    }
}

/// True if a predicate's footprint `facts` shows that no instance with
/// `placement`'s arguments covers a cell of any sub-model: on each, an
/// argument whose value is known breaks a fact of its parameter.
/// [`try_candidate`] would drop such a candidate whatever the checker
/// answered, so it is not asked.
///
/// A known argument is `nil`, or a variable the model's stack binds;
/// the existentials, and a variable the stack does not bind, which the
/// checker takes as an existential, break nothing.
fn covers_nothing(
    facts: Option<&[ParamFacts]>,
    index: &CellIndex<'_>,
    subs: &[SubHeap<'_>],
    placement: &[Option<BoundaryItem>],
) -> bool {
    let Some(facts) = facts else {
        return true;
    };
    index.models.iter().zip(subs).all(|(m, sub)| {
        placement.iter().zip(facts).any(|(slot, facts)| {
            let known = match slot {
                Some(BoundaryItem::Nil) => Some(Val::Nil),
                Some(BoundaryItem::Var(w)) => m.model.stack.get(*w),
                None => None,
            };
            known.is_some_and(|val| breaks(facts, val, &sub.cells))
        })
    })
}

/// True if an argument with value `val` breaks `facts` on the sub-heap
/// `cells`: it is not the address of one of them where `alloc` holds,
/// or no cell of a `refs` fact's type holds it in that field.
fn breaks(facts: &ParamFacts, val: Val, cells: &[(Loc, &HeapCell)]) -> bool {
    let allocated = || match val {
        Val::Addr(loc) => cells.binary_search_by_key(&loc, |&(l, _)| l).is_ok(),
        _ => false,
    };
    let held = |r: &FieldRef| {
        cells
            .iter()
            .any(|(_, cell)| cell.ty == r.ty && cell.fields.get(r.field) == Some(&val))
    };
    (facts.alloc && !allocated()) || !facts.refs.iter().all(held)
}

fn try_candidate(
    ctx: &CheckCtx<'_>,
    index: &CellIndex<'_>,
    subs: &mut [SubHeap<'_>],
    pred: &PredDef,
    placement: &[Option<BoundaryItem>],
    fresh: &mut FreshVars,
) -> Option<AtomResult> {
    // Build ∃u⃗. p(args): fresh names are *tentative* — they only stick
    // if the candidate is accepted, so rejected candidates do not burn
    // through the u-namespace.
    let mut trial = fresh.clone();
    let mut exists = Vec::new();
    let args: Vec<Expr> = placement
        .iter()
        .map(|slot| match slot {
            Some(item) => item.to_expr(),
            None => {
                let u = trial.next();
                exists.push(u);
                Expr::Var(u)
            }
        })
        .collect();
    let formula = SymHeap {
        exists,
        spatial: vec![SpatialAtom::Pred {
            name: pred.name,
            args,
        }],
        pure: vec![],
    };

    let mut residues = index.empty();
    let mut insts = Vec::with_capacity(subs.len());
    let mut covered_any = false;
    let mut total_residue = 0;
    let prepared = PreparedFormula::new(&formula);
    for (m, sub) in index.models.iter().zip(subs) {
        let red = ctx.check_prepared(&m.model.stack, &sub.cells, &prepared, &mut sub.parts)?;
        covered_any |= red.covered > 0;
        total_residue += sub.cells.len() - red.covered;
        for (j, &slot) in sub.slots.iter().enumerate() {
            if red.is_residual(j) {
                m.set(&mut residues, slot);
            }
        }
        insts.push(red.inst);
    }
    // A candidate that covers no cell in any model is a vacuously true
    // base-case match: it conveys nothing beyond `emp`. Most of these
    // never reach the checker (`covers_nothing`); the rest, whose
    // footprint facts hold on some sub-model, are dropped here.
    if !covered_any {
        return None;
    }
    *fresh = trial;
    Some(AtomResult {
        formula,
        residues,
        insts,
        total_residue,
    })
}

/// Singleton inference (Algorithm 2, lines 12–13).
///
/// `roots` holds, per model, the position of the cell `v` points to when
/// the sub-heap has it.
fn infer_singleton(
    ctx: &CheckCtx<'_>,
    v: Symbol,
    index: &CellIndex<'_>,
    sub: &Masks,
    roots: &[Option<usize>],
    fresh: &mut FreshVars,
) -> Option<AtomResult> {
    // Applicable only when every sub-heap is exactly the root's cell.
    let mut cells = Vec::with_capacity(roots.len());
    for (m, root) in index.models.iter().zip(roots) {
        if m.count(sub) != 1 {
            return None;
        }
        cells.push((m.model, m.cells[(*root)?].1));
    }
    let ty = cells[0].1.ty;
    if cells.iter().any(|(_, c)| c.ty != ty) {
        return None;
    }
    let def = ctx.types.get(ty)?;

    let mut exists = Vec::new();
    let mut fields = Vec::with_capacity(def.fields.len());
    let mut insts = vec![Instantiation::new(); roots.len()];
    for (i, fdef) in def.fields.iter().enumerate() {
        // A common constant value: nil everywhere?
        if cells.iter().all(|(_, c)| c.fields[i] == Val::Nil) {
            fields.push(FieldAssign {
                name: fdef.name,
                value: Expr::Nil,
            });
            continue;
        }
        // A common integer literal?
        if let Val::Int(k) = cells[0].1.fields[i] {
            if cells.iter().all(|(_, c)| c.fields[i] == Val::Int(k)) {
                fields.push(FieldAssign {
                    name: fdef.name,
                    value: Expr::Int(k),
                });
                continue;
            }
        }
        // A stack variable with this value in every model?
        let common_var = cells[0]
            .0
            .stack
            .iter()
            .filter(|(w, _)| *w != v)
            .find(|(w, _)| {
                cells
                    .iter()
                    .all(|(m, c)| m.stack.get(*w) == Some(c.fields[i]))
            })
            .map(|(w, _)| w);
        if let Some(w) = common_var {
            fields.push(FieldAssign {
                name: fdef.name,
                value: Expr::Var(w),
            });
            continue;
        }
        // Fresh existential, instantiated per model.
        let u = fresh.next();
        exists.push(u);
        for (k, (_, c)) in cells.iter().enumerate() {
            insts[k].bind(u, c.fields[i]);
        }
        fields.push(FieldAssign {
            name: fdef.name,
            value: Expr::Var(u),
        });
    }

    Some(AtomResult {
        formula: SymHeap {
            exists,
            spatial: vec![SpatialAtom::PointsTo {
                root: Expr::Var(v),
                ty,
                fields,
            }],
            pure: vec![],
        },
        residues: index.empty(),
        insts,
        total_residue: 0,
    })
}

/// `k`-element combinations of `items`, in deterministic order.
fn combinations<T: Copy>(items: &[T], k: usize) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec<T: Copy>(
        items: &[T],
        k: usize,
        start: usize,
        current: &mut Vec<T>,
        out: &mut Vec<Vec<T>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..items.len() {
            current.push(items[i]);
            rec(items, k, i + 1, current, out);
            current.pop();
        }
    }
    rec(items, k, 0, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_logic::{parse_predicates, FieldDef, PredEnv, StructDef, TypeEnv};
    use sling_models::{Heap, Stack};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn l(n: u64) -> Loc {
        Loc::new(n)
    }

    fn envs() -> (TypeEnv, PredEnv) {
        let mut types = TypeEnv::new();
        let node = sym("Node");
        types
            .define(StructDef {
                name: node,
                fields: vec![
                    FieldDef {
                        name: sym("next"),
                        ty: FieldTy::Ptr(node),
                    },
                    FieldDef {
                        name: sym("prev"),
                        ty: FieldTy::Ptr(node),
                    },
                ],
            })
            .unwrap();
        let mut preds = PredEnv::new();
        for d in parse_predicates(
            "pred dll(hd: Node*, pr: Node*, tl: Node*, nx: Node*) :=
                 emp & hd == nx & pr == tl
               | exists u. hd -> Node{next: u, prev: pr} * dll(u, hd, tl, nx);",
        )
        .unwrap()
        {
            preds.define(d).unwrap();
        }
        (types, preds)
    }

    fn dcell(next: Val, prev: Val) -> sling_models::HeapCell {
        sling_models::HeapCell::new(sym("Node"), vec![next, prev])
    }

    /// Sub-models of x from Figure 3 (iterations 1..=3), with the full
    /// stacks.
    fn fig3_submodels() -> Vec<StackHeapModel> {
        (1..=3u64)
            .map(|i| {
                let mut heap = Heap::new();
                for c in 1..=i {
                    let next = if c < i {
                        Val::Addr(l(c + 1))
                    } else {
                        Val::Addr(l(i + 1))
                    };
                    let prev = if c > 1 { Val::Addr(l(c - 1)) } else { Val::Nil };
                    heap.insert(l(c), dcell(next, prev));
                }
                let mut stack = Stack::new();
                stack.bind(sym("x"), Val::Addr(l(1)));
                stack.bind(sym("tmp"), Val::Addr(l(i + 1)));
                stack.bind(sym("y"), Val::Addr(l(4)));
                stack.bind(sym("res"), Val::Addr(l(1)));
                StackHeapModel::new(stack, heap)
            })
            .collect()
    }

    fn boundary() -> BTreeSet<BoundaryItem> {
        [
            BoundaryItem::Var(sym("x")),
            BoundaryItem::Var(sym("res")),
            BoundaryItem::Nil,
            BoundaryItem::Var(sym("tmp")),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn finds_paper_formula_fx() {
        let (types, preds) = envs();
        let ctx = CheckCtx::new(&types, &preds);
        let footprints = Footprints::new(&types, &preds);
        let models = fig3_submodels();
        let mut fresh = FreshVars::new("u");
        let vt = var_types(&models);
        let index = CellIndex::new(&models);
        let results = infer_atom(
            &ctx,
            &footprints,
            sym("x"),
            &index,
            &index.full(),
            &boundary(),
            &vt,
            &mut fresh,
            &mut AtomMemo::new(),
        );
        assert!(!results.is_empty());
        // The strongest results must fully cover every sub-heap.
        assert_eq!(results[0].total_residue, 0);
        // Among accepted formulas there must be a dll rooted at x ending
        // at tmp (the paper's Fx = ∃u1,u2. dll(x, u1, u2, tmp)).
        let found = results.iter().any(|r| {
            let s = r.formula.to_string();
            s.contains("dll(x,") && s.trim_end().ends_with("tmp)")
        });
        assert!(
            found,
            "missing Fx; got: {:?}",
            results
                .iter()
                .map(|r| r.formula.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_submodels_give_emp() {
        let (types, preds) = envs();
        let ctx = CheckCtx::new(&types, &preds);
        let footprints = Footprints::new(&types, &preds);
        let mut stack = Stack::new();
        stack.bind(sym("res"), Val::Addr(l(1)));
        let models = vec![StackHeapModel::new(stack, Heap::new())];
        let mut fresh = FreshVars::new("u");
        let vt = var_types(&models);
        let index = CellIndex::new(&models);
        let results = infer_atom(
            &ctx,
            &footprints,
            sym("res"),
            &index,
            &index.full(),
            &BTreeSet::new(),
            &vt,
            &mut fresh,
            &mut AtomMemo::new(),
        );
        assert_eq!(results.len(), 1);
        assert!(results[0].formula.is_emp());
    }

    #[test]
    fn singleton_inferred_for_one_cell() {
        let (types, preds) = envs();
        let ctx = CheckCtx::new(&types, &preds);
        let footprints = Footprints::new(&types, &preds);
        // One cell whose next points to y's address and prev is nil.
        let mut heap = Heap::new();
        heap.insert(l(1), dcell(Val::Addr(l(9)), Val::Nil));
        let mut stack = Stack::new();
        stack.bind(sym("p"), Val::Addr(l(1)));
        stack.bind(sym("q"), Val::Addr(l(9)));
        let models = vec![StackHeapModel::new(stack, heap)];
        let mut fresh = FreshVars::new("u");
        let vt = var_types(&models);
        let index = CellIndex::new(&models);
        let results = infer_atom(
            &ctx,
            &footprints,
            sym("p"),
            &index,
            &index.full(),
            &[BoundaryItem::Var(sym("p")), BoundaryItem::Var(sym("q"))]
                .into_iter()
                .collect(),
            &vt,
            &mut fresh,
            &mut AtomMemo::new(),
        );
        let singleton = results
            .iter()
            .find(|r| {
                matches!(
                    r.formula.spatial.first(),
                    Some(SpatialAtom::PointsTo { .. })
                )
            })
            .expect("a singleton result");
        assert_eq!(
            singleton.formula.to_string(),
            "p -> Node{next: q, prev: nil}"
        );
    }

    #[test]
    fn vacuous_candidates_are_rejected() {
        let (types, preds) = envs();
        let ctx = CheckCtx::new(&types, &preds);
        let footprints = Footprints::new(&types, &preds);
        let models = fig3_submodels();
        let mut fresh = FreshVars::new("u");
        let vt = var_types(&models);
        let index = CellIndex::new(&models);
        let results = infer_atom(
            &ctx,
            &footprints,
            sym("x"),
            &index,
            &index.full(),
            &boundary(),
            &vt,
            &mut fresh,
            &mut AtomMemo::new(),
        );
        // No accepted inductive formula may be a vacuous base-case match.
        for r in &results {
            assert!(
                r.total_residue < models.iter().map(|m| m.heap.len()).sum::<usize>(),
                "vacuous: {}",
                r.formula
            );
        }
    }

    #[test]
    fn a_repeated_question_replays_what_a_search_would_find() {
        let (types, preds) = envs();
        let ctx = CheckCtx::new(&types, &preds);
        let footprints = Footprints::new(&types, &preds);
        let models = fig3_submodels();
        let vt = var_types(&models);
        let index = CellIndex::new(&models);
        let (sub, boundary) = (index.full(), boundary());
        let infer = |fresh: &mut FreshVars, memo: &mut AtomMemo| {
            infer_atom(
                &ctx,
                &footprints,
                sym("x"),
                &index,
                &sub,
                &boundary,
                &vt,
                fresh,
                memo,
            )
        };
        let shown = |atoms: &[AtomResult]| -> Vec<(String, Masks, Vec<Instantiation>)> {
            atoms
                .iter()
                .map(|a| (a.formula.to_string(), a.residues.clone(), a.insts.clone()))
                .collect()
        };
        // The formulas without their names.
        let shapes = |atoms: &[AtomResult]| -> Vec<String> {
            atoms
                .iter()
                .map(|a| {
                    a.formula
                        .to_string()
                        .replace(|c: char| c.is_ascii_digit(), "")
                })
                .collect()
        };
        let mut memo = AtomMemo::new();
        let first = infer(&mut FreshVars::new("u"), &mut memo);
        let drawn = || {
            let mut fresh = FreshVars::new("u");
            fresh.take(85);
            fresh
        };
        let (mut replayed, mut searched) = (drawn(), drawn());
        let replay = infer(&mut replayed, &mut memo);
        let search = infer(&mut searched, &mut AtomMemo::new());
        assert_eq!(memo.len(), 1);
        // The names now cross `u99` -> `u100`, so the printed tie-break
        // keeps the atoms in another order than the first call did.
        assert_ne!(shapes(&first), shapes(&search));
        assert_eq!(shown(&replay), shown(&search));
        assert_eq!(replayed.next(), searched.next());
    }

    /// The footprint of `dll` spares the checker the Figure 3
    /// candidates that cannot cover a cell, and keeps the paper's `Fx`.
    #[test]
    fn footprints_skip_the_candidates_that_cover_no_cell() {
        let (types, preds) = envs();
        let footprints = Footprints::new(&types, &preds);
        let facts = footprints.covering(sym("dll"));
        let models = fig3_submodels();
        let index = CellIndex::new(&models);
        let subs = sub_heaps(&index, &index.full());
        let var = |name: &str| Some(BoundaryItem::Var(sym(name)));
        // ∃u1,u2. dll(tmp, x, u1, u2): `hd` is allocated, but `tmp`
        // lies outside every sub-heap.
        let head_outside = [var("tmp"), var("x"), None, None];
        assert!(covers_nothing(facts, &index, &subs, &head_outside));
        // ∃u1,u2. dll(x, u1, nil, u2): `tl` is allocated, never `nil`.
        let nil_tail = [var("x"), None, Some(BoundaryItem::Nil), None];
        assert!(covers_nothing(facts, &index, &subs, &nil_tail));
        // The paper's ∃u1,u2. dll(x, u1, u2, tmp): `x` heads every
        // sub-heap and `tmp` is its last cell's `next`.
        let fx = [var("x"), None, None, var("tmp")];
        assert!(!covers_nothing(facts, &index, &subs, &fx));
        // A variable the stacks do not bind is unknown, as an
        // existential is.
        let unbound = [var("x"), None, None, var("nowhere")];
        assert!(!covers_nothing(facts, &index, &subs, &unbound));
    }

    #[test]
    fn combinations_count() {
        let items = [1, 2, 3, 4];
        assert_eq!(combinations(&items, 2).len(), 6);
        assert_eq!(combinations(&items, 0).len(), 1);
        assert_eq!(combinations(&items, 4).len(), 1);
    }

    #[test]
    fn var_types_from_models() {
        let models = fig3_submodels();
        let vt = var_types(&models);
        assert_eq!(vt.get(&sym("x")), Some(&VarTy::Ptr(sym("Node"))));
        // y = 0x04 is outside every sub-heap, so it stays a bare pointer.
        assert_eq!(vt.get(&sym("y")), Some(&VarTy::NilPtr));
    }
}
