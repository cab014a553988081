//! Pure inference — the paper's `InferPure` (§4.3) — and formula
//! simplification.
//!
//! After the heap predicates are found, SLING searches for equality
//! constraints among stack variables, the formula's existential variables
//! (through their per-model instantiations), `nil`, and `res`. Two
//! entities are equal when their values agree in *every* model.
//!
//! Discovered equalities are used two ways, as in the §2.3 walkthrough:
//!
//! * entities that will not stay free in the final invariant —
//!   existentials, and locals that are about to be quantified at function
//!   exits — are *substituted away* by a preferred representative
//!   (`dll(x,u1,u2,tmp)` with `u2 = x` becomes `dll(x,u1,x,tmp)`;
//!   `sll(n) & n == res` becomes `sll(res)`);
//! * equalities among preferred (free) entities are conjoined as pure
//!   atoms (`res = x`).

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

use sling_checker::Instantiation;
use sling_logic::{Expr, PureAtom, Subst, SymHeap, Symbol};
use sling_models::{StackHeapModel, Val};

/// One trackable entity. The derived ordering encodes representative
/// preference: `nil`, then preferred stack variables, then other stack
/// variables, then existentials — each tier alphabetical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Entity {
    Nil,
    /// A stack variable allowed to stay free in the final invariant.
    Preferred(Symbol),
    /// A stack variable that will be existentially quantified (local at a
    /// function exit).
    Local(Symbol),
    /// An existential of the formula.
    Exist(Symbol),
}

impl Entity {
    fn expr(self) -> Expr {
        match self {
            Entity::Nil => Expr::Nil,
            Entity::Preferred(s) | Entity::Local(s) | Entity::Exist(s) => Expr::Var(s),
        }
    }
}

/// Infers pure equalities and simplifies `formula` accordingly.
///
/// `models` are the location's stack-heap models, `insts` the per-model
/// instantiations of `formula`'s existentials (same order), and `prefer`
/// the variables that may stay free (parameters and `res` at entries and
/// exits; every stack variable elsewhere).
pub fn infer_pure<M: Borrow<StackHeapModel>>(
    formula: &SymHeap,
    models: &[M],
    insts: &[Instantiation],
    prefer: &BTreeSet<Symbol>,
) -> SymHeap {
    assert_eq!(models.len(), insts.len());
    if models.is_empty() {
        return formula.clone();
    }
    let models: Vec<&StackHeapModel> = models.iter().map(Borrow::borrow).collect();

    // Value vector per entity; an entity qualifies only if it has a value
    // in every model.
    let n = models.len();
    let mut vectors: Vec<(Entity, Vec<Val>)> = Vec::new();
    vectors.push((Entity::Nil, vec![Val::Nil; n]));
    for (w, _) in models[0].stack.iter() {
        if models.iter().all(|m| m.stack.get(w).is_some()) {
            let entity = if prefer.contains(&w) {
                Entity::Preferred(w)
            } else {
                Entity::Local(w)
            };
            vectors.push((
                entity,
                models.iter().map(|m| m.stack.get(w).unwrap()).collect(),
            ));
        }
    }
    for u in &formula.exists {
        if insts.iter().all(|i| i.get(*u).is_some()) {
            vectors.push((
                Entity::Exist(*u),
                insts.iter().map(|i| i.get(*u).unwrap()).collect(),
            ));
        }
    }

    // Group by value vector.
    let mut classes: BTreeMap<Vec<Val>, Vec<Entity>> = BTreeMap::new();
    for (e, vec) in vectors {
        classes.entry(vec).or_default().push(e);
    }

    let mut subst = Subst::new();
    let mut killed: Vec<Symbol> = Vec::new();
    let mut equalities: Vec<PureAtom> = Vec::new();
    for members in classes.values() {
        if members.len() < 2 {
            continue;
        }
        let mut sorted = members.clone();
        sorted.sort();
        let rep = sorted[0];
        let rep_expr = rep.expr();
        for other in &sorted[1..] {
            match other {
                // Entities that stay free: state the equality.
                Entity::Preferred(w) => {
                    equalities.push(PureAtom::Eq(Expr::Var(*w), rep_expr.clone()));
                }
                // Entities that get quantified: substitute them away.
                Entity::Local(w) | Entity::Exist(w) => {
                    subst.insert(*w, rep_expr.clone());
                    killed.push(*w);
                }
                Entity::Nil => unreachable!("nil sorts first"),
            }
        }
    }

    // Apply the substitution with *all* binders stripped: the map may
    // send existentials to other existentials of the same formula, so the
    // capture-avoiding substitution would otherwise rename the very
    // binders we are unifying into. With no binders there is nothing to
    // capture; the surviving existentials are re-bound afterwards.
    let mut out = formula.clone();
    let binders = std::mem::take(&mut out.exists);
    out = sling_logic::subst_symheap(&out, &subst);
    let remaining = out.free_vars();
    out.exists = binders
        .into_iter()
        .filter(|u| !killed.contains(u) && remaining.contains(u))
        .collect();
    // Conjoin new equalities, dropping duplicates and trivia.
    for eq in equalities {
        let trivial = matches!(&eq, PureAtom::Eq(a, b) if a == b);
        if !trivial && !out.pure.contains(&eq) {
            out.pure.push(eq);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_logic::parse_formula;
    use sling_models::{Heap, HeapCell, Loc, Stack};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn l(n: u64) -> Loc {
        Loc::new(n)
    }

    fn model(pairs: &[(&str, Val)]) -> StackHeapModel {
        let mut stack = Stack::new();
        for (name, v) in pairs {
            stack.bind(sym(name), *v);
        }
        let mut heap = Heap::new();
        // A token cell so heaps are non-trivial.
        heap.insert(l(99), HeapCell::new(sym("N"), vec![Val::Nil]));
        StackHeapModel::new(stack, heap)
    }

    fn prefer(names: &[&str]) -> BTreeSet<Symbol> {
        names.iter().map(|n| sym(n)).collect()
    }

    #[test]
    fn stack_stack_equality_found() {
        let f = parse_formula("sll(x)").unwrap();
        let models = vec![
            model(&[("x", Val::Addr(l(1))), ("res", Val::Addr(l(1)))]),
            model(&[("x", Val::Addr(l(2))), ("res", Val::Addr(l(2)))]),
        ];
        let insts = vec![Instantiation::new(), Instantiation::new()];
        let out = infer_pure(&f, &models, &insts, &prefer(&["x", "res"]));
        assert!(
            out.pure
                .contains(&PureAtom::Eq(Expr::var("x"), Expr::var("res")))
                || out
                    .pure
                    .contains(&PureAtom::Eq(Expr::var("res"), Expr::var("x"))),
            "res == x expected, got {out}"
        );
    }

    #[test]
    fn local_substituted_by_preferred() {
        // n is a local aliasing res: `sll(n)` should become `sll(res)`.
        let f = parse_formula("sll(n)").unwrap();
        let models = vec![model(&[("n", Val::Addr(l(1))), ("res", Val::Addr(l(1)))])];
        let out = infer_pure(&f, &models, &[Instantiation::new()], &prefer(&["res"]));
        assert_eq!(out.to_string(), "sll(res)");
    }

    #[test]
    fn existential_substituted_by_stack_var() {
        // u2 instantiates to x's value in every model → dll arg becomes x.
        let f = parse_formula("exists u1, u2. dll(x, u1, u2, tmp)").unwrap();
        let models = vec![model(&[("x", Val::Addr(l(1))), ("tmp", Val::Addr(l(2)))])];
        let mut i0 = Instantiation::new();
        i0.bind(sym("u1"), Val::Addr(l(7))); // unrelated value
        i0.bind(sym("u2"), Val::Addr(l(1))); // == x
        let out = infer_pure(&f, &models, &[i0], &prefer(&["x", "tmp"]));
        assert_eq!(out.exists, vec![sym("u1")]);
        assert!(out.to_string().contains("dll(x, u1, x, tmp)"), "{out}");
    }

    #[test]
    fn existential_substituted_by_nil() {
        let f = parse_formula("exists u1. dll(x, u1, x, tmp)").unwrap();
        let models = vec![model(&[("x", Val::Addr(l(1))), ("tmp", Val::Addr(l(2)))])];
        let mut i0 = Instantiation::new();
        i0.bind(sym("u1"), Val::Nil);
        let out = infer_pure(&f, &models, &[i0], &prefer(&["x", "tmp"]));
        assert!(out.exists.is_empty());
        assert!(out.to_string().contains("dll(x, nil, x, tmp)"), "{out}");
    }

    #[test]
    fn existentials_unify_with_each_other() {
        // u3 and u4 share values → one substituted by the other.
        let f = parse_formula("exists u3, u4. lseg(x, u3) * lseg(u4, y)").unwrap();
        let models = vec![model(&[("x", Val::Addr(l(1))), ("y", Val::Addr(l(5)))])];
        let mut i0 = Instantiation::new();
        i0.bind(sym("u3"), Val::Addr(l(3)));
        i0.bind(sym("u4"), Val::Addr(l(3)));
        let out = infer_pure(&f, &models, &[i0], &prefer(&["x", "y"]));
        assert_eq!(out.exists.len(), 1);
        assert!(
            out.to_string().contains("lseg(x, u3) * lseg(u3, y)"),
            "{out}"
        );
    }

    #[test]
    fn no_false_equalities() {
        let f = parse_formula("sll(x)").unwrap();
        let models = vec![
            model(&[("x", Val::Addr(l(1))), ("y", Val::Addr(l(1)))]),
            model(&[("x", Val::Addr(l(2))), ("y", Val::Addr(l(3)))]), // differs here
        ];
        let insts = vec![Instantiation::new(), Instantiation::new()];
        let out = infer_pure(&f, &models, &insts, &prefer(&["x", "y"]));
        assert!(out.pure.is_empty(), "{out}");
    }

    #[test]
    fn var_equal_nil() {
        let f = parse_formula("emp").unwrap();
        let models = vec![model(&[("x", Val::Nil), ("y", Val::Addr(l(1)))])];
        let out = infer_pure(&f, &models, &[Instantiation::new()], &prefer(&["x", "y"]));
        assert!(
            out.pure.contains(&PureAtom::Eq(Expr::var("x"), Expr::Nil)),
            "{out}"
        );
    }

    #[test]
    fn int_equalities() {
        let f = parse_formula("emp").unwrap();
        let models = vec![
            model(&[("n", Val::Int(5)), ("m", Val::Int(5))]),
            model(&[("n", Val::Int(9)), ("m", Val::Int(9))]),
        ];
        let out = infer_pure(
            &f,
            &models,
            &[Instantiation::new(), Instantiation::new()],
            &prefer(&["n", "m"]),
        );
        assert!(
            out.pure
                .contains(&PureAtom::Eq(Expr::var("m"), Expr::var("n")))
                || out
                    .pure
                    .contains(&PureAtom::Eq(Expr::var("n"), Expr::var("m"))),
            "{out}"
        );
    }
}
