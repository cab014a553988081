//! Static verification of candidate invariants by bounded countermodel
//! search.
//!
//! Dynamic inference emits formulas that hold on every *sampled* model;
//! this module re-examines each candidate against models the sampler never
//! produced. [`prove`] enumerates concrete stack-heap models of the
//! *sibling* candidates at the same location — the reduct of bounded
//! unfold/fold of the `PredEnv` definitions plus pure-constraint
//! concretization — and model-checks the candidate on each:
//!
//! * a model of a sibling that falsifies the candidate is a countermodel:
//!   the candidate over-fits the sampled traces relative to its siblings
//!   and is graded [`Verdict::Refuted`] with the witness attached;
//! * if every enumerated model satisfies the candidate (and at least one
//!   model was available) the candidate is [`Verdict::Verified`] —
//!   consistent with all bounded evidence derivable from its siblings;
//! * with no usable sibling (none covers the candidate's variables, or
//!   enumeration exhausts its fuel before producing a model) the verdict
//!   is an honest [`Verdict::Unknown`].
//!
//! Every enumerated model is sanity-checked against the sibling it came
//! from with the concrete model checker ([`CheckCtx::holds_exact`]) before
//! use, so a refutation is always a *checker-certified* countermodel: the
//! witness provably satisfies a sibling invariant and provably falsifies
//! the candidate. Soundness is therefore relative to the model checker,
//! never to the concretization heuristics.
//!
//! The budgets are fixed: per reference, 256 unfoldings in all, at most 4
//! along one derivation, and 24 models; per candidate, 8 references.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use sling_logic::{Expr, FieldTy, PureAtom, SpatialAtom, SymHeap, Symbol};
use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};

use crate::check::CheckCtx;

/// Total expansion steps (predicate unfoldings) across the whole
/// enumeration for one reference formula.
const FUEL: u32 = 256;

/// Maximum predicate unfoldings along any single model's derivation —
/// bounds the size of enumerated heaps (a list model gets at most
/// `MAX_DEPTH` nodes per segment).
const MAX_DEPTH: u32 = 4;

/// Maximum concrete models materialized per reference formula.
const MAX_MODELS: usize = 24;

/// Maximum sibling references consulted per candidate.
const MAX_REFERENCES: usize = 8;

/// The prover's answer for one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every enumerated model of every usable reference satisfies the
    /// candidate (and at least one model was enumerated).
    Verified,
    /// A checker-certified countermodel: `witness` satisfies some sibling
    /// invariant but falsifies the candidate.
    Refuted {
        /// The concrete stack-heap countermodel.
        witness: StackHeapModel,
    },
    /// No verdict within budget.
    Unknown {
        /// Human-readable explanation (no covering sibling, fuel
        /// exhausted, ...).
        reason: String,
    },
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Verified => f.write_str("verified"),
            Verdict::Refuted { .. } => f.write_str("refuted"),
            Verdict::Unknown { reason } => write!(f, "unknown ({reason})"),
        }
    }
}

/// Proves or refutes `candidate` under `ctx`'s type and predicate
/// environments, against `references`: the other candidates at the same
/// location, assumed true of the states the candidate describes.
/// References that do not cover the candidate's free variables are
/// ignored. Deterministic: the engine asserts that verification never
/// perturbs inference output, and CI replays graded runs.
pub fn prove(ctx: &CheckCtx<'_>, candidate: &SymHeap, references: &[SymHeap]) -> Verdict {
    let needed = candidate.free_vars();
    let mut usable = 0usize;
    let mut models_checked = 0usize;
    for reference in references
        .iter()
        .filter(|r| {
            if *r == candidate {
                return false;
            }
            let scope = r.free_vars();
            needed.iter().all(|v| scope.contains(v))
        })
        .take(MAX_REFERENCES)
    {
        usable += 1;
        for model in enumerate_models(ctx, reference) {
            // Certify the model against the reference it came from;
            // concretization is heuristic, the checker is the judge.
            if !ctx.holds_exact(&model, reference) {
                continue;
            }
            models_checked += 1;
            if !ctx.holds_exact(&model, candidate) {
                return Verdict::Refuted { witness: model };
            }
        }
    }
    if models_checked > 0 {
        Verdict::Verified
    } else if usable == 0 {
        Verdict::Unknown {
            reason: "no sibling invariant covers the candidate's variables".into(),
        }
    } else {
        Verdict::Unknown {
            reason: format!("no model of {usable} sibling reference(s) within budget"),
        }
    }
}

/// One in-flight expansion of a reference formula: points-to atoms already
/// flat, predicate atoms pending unfolding.
#[derive(Debug, Clone)]
struct Branch {
    spatial: Vec<SpatialAtom>,
    pending: VecDeque<SpatialAtom>,
    pure: Vec<PureAtom>,
    unfolds: u32,
}

/// Enumerates concrete models of `reference` by breadth-first bounded
/// unfolding (smallest models first). The result is deterministic: queue
/// order, case order, and location numbering are all fixed by the input.
fn enumerate_models(ctx: &CheckCtx<'_>, reference: &SymHeap) -> Vec<StackHeapModel> {
    let mut queue: VecDeque<Branch> = VecDeque::new();
    let (preds, flats): (Vec<_>, Vec<_>) = reference
        .spatial
        .iter()
        .cloned()
        .partition(|a| matches!(a, SpatialAtom::Pred { .. }));
    queue.push_back(Branch {
        spatial: flats,
        pending: preds.into(),
        pure: reference.pure.clone(),
        unfolds: 0,
    });

    let mut fresh = 0u32;
    let mut fuel = FUEL;
    let mut models = Vec::new();
    while let Some(mut branch) = queue.pop_front() {
        if models.len() >= MAX_MODELS {
            break;
        }
        let Some(goal) = branch.pending.pop_front() else {
            if let Some(model) = concretize(ctx, reference, &branch) {
                models.push(model);
            }
            continue;
        };
        let SpatialAtom::Pred { name, args } = goal else {
            unreachable!("pending holds predicate atoms only");
        };
        if branch.unfolds >= MAX_DEPTH || fuel == 0 {
            continue; // this derivation is out of budget; drop it
        }
        fuel = fuel.saturating_sub(1);
        let Some(def) = ctx.preds.get(name) else {
            continue;
        };
        if def.arity() != args.len() {
            continue;
        }
        let mut cases = def.unfold(&args);
        // Base cases (fewer spatial atoms) first: smallest models surface
        // earliest, so refutation witnesses stay minimal.
        cases.sort_by_key(|c| c.spatial.len());
        for case in cases {
            let case = freshen(case, &mut fresh);
            let mut next = branch.clone();
            next.unfolds += 1;
            next.pure.extend(case.pure);
            for atom in case.spatial {
                match atom {
                    SpatialAtom::Pred { .. } => next.pending.push_back(atom),
                    flat => next.spatial.push(flat),
                }
            }
            queue.push_back(next);
        }
    }
    models
}

/// Alpha-renames an unfolded case's binders to enumeration-private names.
fn freshen(case: SymHeap, fresh: &mut u32) -> SymHeap {
    if case.exists.is_empty() {
        return case;
    }
    let map: sling_logic::Subst = case
        .exists
        .iter()
        .map(|v| {
            *fresh += 1;
            (*v, Expr::Var(Symbol::intern(&format!("$w{fresh}"))))
        })
        .collect();
    sling_logic::map_vars(&case, |v| map.get(&v).cloned())
}

/// A variable's resolved concrete value during concretization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conc {
    Val(Val),
    /// Equated to another variable (union-find parent pointer).
    Same(Symbol),
}

/// The representative of `v`'s union-find class.
fn find(vals: &BTreeMap<Symbol, Conc>, mut v: Symbol) -> Symbol {
    while let Some(Conc::Same(p)) = vals.get(&v) {
        v = *p;
    }
    v
}

/// The concrete value of `v`'s class, if resolved.
fn value_of(vals: &BTreeMap<Symbol, Conc>, v: Symbol) -> Option<Val> {
    match vals.get(&find(vals, v))? {
        Conc::Val(val) => Some(*val),
        Conc::Same(_) => None,
    }
}

/// Turns a fully-unfolded branch into a concrete model, or `None` if the
/// branch is visibly inconsistent. Heuristic by design: the caller
/// re-certifies the result with the model checker.
fn concretize(ctx: &CheckCtx<'_>, reference: &SymHeap, branch: &Branch) -> Option<StackHeapModel> {
    let mut vals: BTreeMap<Symbol, Conc> = BTreeMap::new();

    // 1. Allocate one cell per points-to atom, roots in atom order. A
    //    non-variable root (nil, int, arithmetic) kills the branch.
    let mut roots: Vec<(Symbol, Loc)> = Vec::new();
    for (i, atom) in branch.spatial.iter().enumerate() {
        let SpatialAtom::PointsTo { root, .. } = atom else {
            continue;
        };
        let Expr::Var(v) = root else {
            return None;
        };
        roots.push((*v, Loc::new(i as u64 + 1)));
    }
    for (v, loc) in &roots {
        let rep = find(&vals, *v);
        match vals.get(&rep) {
            Some(Conc::Val(_)) => return None, // two atoms share a root: not separate
            _ => {
                vals.insert(rep, Conc::Val(Val::Addr(*loc)));
            }
        }
    }

    // 2. Fold equalities into the union-find until fixpoint; reject visible
    //    constant conflicts early (the checker would anyway).
    let mut changed = true;
    while changed {
        changed = false;
        for atom in &branch.pure {
            let PureAtom::Eq(a, b) = atom else { continue };
            match (a, b) {
                (Expr::Var(x), Expr::Var(y)) => {
                    let (rx, ry) = (find(&vals, *x), find(&vals, *y));
                    if rx == ry {
                        continue;
                    }
                    match (vals.get(&rx).copied(), vals.get(&ry).copied()) {
                        (Some(Conc::Val(vx)), Some(Conc::Val(vy))) => {
                            if vx != vy {
                                return None;
                            }
                        }
                        (Some(Conc::Val(_)), _) => {
                            vals.insert(ry, Conc::Same(rx));
                            changed = true;
                        }
                        _ => {
                            vals.insert(rx, Conc::Same(ry));
                            changed = true;
                        }
                    }
                }
                (Expr::Var(x), e) | (e, Expr::Var(x)) => {
                    let Some(k) = eval_const(&vals, e) else {
                        continue;
                    };
                    let rx = find(&vals, *x);
                    match vals.get(&rx) {
                        Some(Conc::Val(existing)) => {
                            if *existing != k {
                                return None;
                            }
                        }
                        _ => {
                            vals.insert(rx, Conc::Val(k));
                            changed = true;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // 3. Default the still-free variables: pointer-typed field slots become
    //    nil, integer slots take small ascending values (discovery order),
    //    so chains like sorted-list `d <= d'` come out satisfied.
    let mut next_int = 1i64;
    let mut default = |vals: &mut BTreeMap<Symbol, Conc>, v: Symbol, ty: FieldTy| {
        let rep = find(vals, v);
        if let Some(Conc::Val(_)) = vals.get(&rep) {
            return;
        }
        let val = match ty {
            FieldTy::Ptr(_) => Val::Nil,
            FieldTy::Int => {
                next_int += 1;
                Val::Int(next_int)
            }
        };
        vals.insert(rep, Conc::Val(val));
    };
    for atom in &branch.spatial {
        let SpatialAtom::PointsTo { ty, fields, .. } = atom else {
            continue;
        };
        let def = ctx.types.get(*ty)?;
        for fa in fields {
            if let Expr::Var(v) = &fa.value {
                default(&mut vals, *v, def.field_ty(fa.name)?);
            }
        }
    }

    // 4. Materialize the heap: declaration-order field vectors, unset
    //    fields defaulted by declared type.
    let mut heap = Heap::new();
    for (i, atom) in branch.spatial.iter().enumerate() {
        let SpatialAtom::PointsTo { ty, fields, .. } = atom else {
            continue;
        };
        let def = ctx.types.get(*ty)?;
        let mut cell: Vec<Val> = def
            .fields
            .iter()
            .map(|f| match f.ty {
                FieldTy::Ptr(_) => Val::Nil,
                FieldTy::Int => Val::Int(0),
            })
            .collect();
        for fa in fields {
            let idx = def.field_index(fa.name)?;
            cell[idx] = eval_const(&vals, &fa.value)?;
        }
        heap.insert(Loc::new(i as u64 + 1), HeapCell::new(*ty, cell));
    }

    // 5. Bind the reference's free (program) variables on the stack;
    //    anything still unconstrained defaults to nil.
    let mut stack = Stack::new();
    for v in reference.free_vars() {
        stack.bind(v, value_of(&vals, v).unwrap_or(Val::Nil));
    }
    Some(StackHeapModel::new(stack, heap))
}

/// Evaluates an expression over resolved variables to a concrete value.
fn eval_const(vals: &BTreeMap<Symbol, Conc>, e: &Expr) -> Option<Val> {
    match e {
        Expr::Nil => Some(Val::Nil),
        Expr::Int(k) => Some(Val::Int(*k)),
        Expr::Var(v) => value_of(vals, *v),
        Expr::Neg(inner) => match eval_const(vals, inner)? {
            Val::Int(k) => Some(Val::Int(k.checked_neg()?)),
            _ => None,
        },
        Expr::Add(a, b) => eval_arith(vals, a, b, i64::checked_add),
        Expr::Sub(a, b) => eval_arith(vals, a, b, i64::checked_sub),
        Expr::Mul(k, inner) => match eval_const(vals, inner)? {
            Val::Int(v) => Some(Val::Int(k.checked_mul(v)?)),
            _ => None,
        },
    }
}

fn eval_arith(
    vals: &BTreeMap<Symbol, Conc>,
    a: &Expr,
    b: &Expr,
    op: fn(i64, i64) -> Option<i64>,
) -> Option<Val> {
    match (eval_const(vals, a)?, eval_const(vals, b)?) {
        (Val::Int(x), Val::Int(y)) => Some(Val::Int(op(x, y)?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_logic::{parse_formula, parse_predicates, FieldDef, PredEnv, StructDef, TypeEnv};

    fn node_env() -> (TypeEnv, PredEnv) {
        let node = Symbol::intern("VNode");
        let mut types = TypeEnv::new();
        types
            .define(StructDef {
                name: node,
                fields: vec![
                    FieldDef {
                        name: Symbol::intern("next"),
                        ty: FieldTy::Ptr(node),
                    },
                    FieldDef {
                        name: Symbol::intern("data"),
                        ty: FieldTy::Int,
                    },
                ],
            })
            .unwrap();
        let mut preds = PredEnv::new();
        for d in parse_predicates(
            "pred vsll(x: VNode*) := emp & x == nil
               | exists u, d. x -> VNode{next: u, data: d} * vsll(u);
             pred vlseg(x: VNode*, y: VNode*) := emp & x == y
               | exists u, d. x -> VNode{next: u, data: d} * vlseg(u, y);",
        )
        .unwrap()
        {
            preds.define(d).unwrap();
        }
        (types, preds)
    }

    fn heap_of(f: &str) -> SymHeap {
        parse_formula(f).unwrap()
    }

    #[test]
    fn enumerates_list_models_smallest_first() {
        let (types, preds) = node_env();
        let ctx = CheckCtx::new(&types, &preds);
        let models = enumerate_models(&ctx, &heap_of("vsll(x)"));
        assert!(models.len() >= 3);
        assert_eq!(models[0].heap.len(), 0);
        assert_eq!(models[1].heap.len(), 1);
        assert_eq!(models[2].heap.len(), 2);
        for m in &models {
            assert!(ctx.holds_exact(m, &heap_of("vsll(x)")), "bad model {m:?}");
        }
    }

    #[test]
    fn refutes_overfit_candidate_with_two_node_witness() {
        let (types, preds) = node_env();
        let ctx = CheckCtx::new(&types, &preds);
        // Candidate inferred from single-node traces only; the general
        // sibling has a two-node model falsifying it.
        let candidate = heap_of("exists d. x -> VNode{next: nil, data: d} & res == x");
        let references = vec![heap_of(
            "exists d. vlseg(x, res) * res -> VNode{next: nil, data: d}",
        )];
        let verdict = prove(&ctx, &candidate, &references);
        let Verdict::Refuted { witness } = verdict else {
            panic!("expected refutation, got {verdict}");
        };
        assert_eq!(witness.heap.len(), 2, "smallest countermodel has 2 cells");
    }

    #[test]
    fn verifies_candidate_entailed_by_sibling() {
        let (types, preds) = node_env();
        let ctx = CheckCtx::new(&types, &preds);
        let candidate = heap_of("vsll(x)");
        let references = vec![
            heap_of("vlseg(x, res) * vsll(res) & res == nil"),
            heap_of("vsll(x)"),
        ];
        let verdict = prove(&ctx, &candidate, &references);
        assert_eq!(verdict, Verdict::Verified, "lseg-to-nil models are slls");
    }

    #[test]
    fn unknown_without_covering_sibling() {
        let (types, preds) = node_env();
        let ctx = CheckCtx::new(&types, &preds);
        let candidate = heap_of("vsll(y)");
        let references = vec![heap_of("vsll(x)")]; // mentions x, not y
        let verdict = prove(&ctx, &candidate, &references);
        assert!(matches!(verdict, Verdict::Unknown { .. }));
    }

    #[test]
    fn pure_only_sibling_concretizes_to_empty_heap() {
        let (types, preds) = node_env();
        let ctx = CheckCtx::new(&types, &preds);
        let candidate = heap_of("emp & res == nil");
        let references = vec![heap_of("emp & res == nil & x == nil")];
        let verdict = prove(&ctx, &candidate, &references);
        assert_eq!(verdict, Verdict::Verified);
    }

    #[test]
    fn deterministic_enumeration() {
        let (types, preds) = node_env();
        let ctx = CheckCtx::new(&types, &preds);
        let f = heap_of("vlseg(x, y) * vsll(y)");
        let a = enumerate_models(&ctx, &f);
        let b = enumerate_models(&ctx, &f);
        assert_eq!(a, b);
    }
}
