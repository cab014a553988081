//! Abstract syntax of symbolic-heap separation logic (paper, Figure 4).
//!
//! The fragment is the standard *symbolic heap* form: an SL formula is an
//! existentially quantified conjunction of a spatial part (a `∗`-composition
//! of `emp`, points-to, and inductive-predicate atoms) and a pure part (a
//! conjunction of (dis)equalities and linear-arithmetic comparisons). The
//! normalized representation is [`SymHeap`]; disjunction appears only at the
//! top level of predicate definitions and inferred invariants ([`Formula`]).

use std::collections::BTreeSet;
use std::fmt;

use crate::symbol::Symbol;

/// An expression: spatial (`nil`, pointer variable) or integer
/// (`k`, `x`, `-e`, `e+e`, `e-e`, `k·e`).
///
/// The grammar of Figure 4 separates spatial expressions `a ::= nil | x`
/// from integer expressions `e`; we unify them in one type and recover the
/// distinction during well-formedness checking, which keeps the parser,
/// substitution, and the checker uniform.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// The null address constant `nil`.
    Nil,
    /// A (stack or existential) variable.
    Var(Symbol),
    /// An integer literal.
    Int(i64),
    /// Unary negation `-e`.
    Neg(Box<Expr>),
    /// Sum `e1 + e2`.
    Add(Box<Expr>, Box<Expr>),
    /// Difference `e1 - e2`.
    Sub(Box<Expr>, Box<Expr>),
    /// Scalar multiple `k · e`.
    Mul(i64, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a variable expression.
    pub fn var(name: &str) -> Expr {
        Expr::Var(Symbol::intern(name))
    }

    /// Returns the variable symbol if `self` is a plain variable.
    pub fn as_var(&self) -> Option<Symbol> {
        match self {
            Expr::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// Collects the free variables of the expression into `out`, one
    /// element per occurrence (a set collapses repeats).
    pub fn free_vars_into(&self, out: &mut impl Extend<Symbol>) {
        match self {
            Expr::Nil | Expr::Int(_) => {}
            Expr::Var(v) => out.extend([*v]),
            Expr::Neg(e) | Expr::Mul(_, e) => e.free_vars_into(out),
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                a.free_vars_into(out);
                b.free_vars_into(out);
            }
        }
    }

    /// The free variables of the expression.
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.free_vars_into(&mut out);
        out
    }
}

/// A pure atom: an address or arithmetic comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PureAtom {
    /// `e1 = e2` (addresses or integers).
    Eq(Expr, Expr),
    /// `e1 ≠ e2`.
    Neq(Expr, Expr),
    /// `e1 < e2` (integers).
    Lt(Expr, Expr),
    /// `e1 ≤ e2` (integers).
    Le(Expr, Expr),
}

impl PureAtom {
    /// Collects free variables into `out`.
    pub fn free_vars_into(&self, out: &mut impl Extend<Symbol>) {
        let (a, b) = self.operands();
        a.free_vars_into(out);
        b.free_vars_into(out);
    }

    /// The two operands of the comparison.
    pub fn operands(&self) -> (&Expr, &Expr) {
        match self {
            PureAtom::Eq(a, b) | PureAtom::Neq(a, b) | PureAtom::Lt(a, b) | PureAtom::Le(a, b) => {
                (a, b)
            }
        }
    }
}

/// One named field of a points-to atom, e.g. `next: u`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldAssign {
    /// Field name as declared in the structure definition.
    pub name: Symbol,
    /// Value stored in the field.
    pub value: Expr,
}

/// A spatial atom: a points-to (singleton heap) or inductive predicate.
///
/// `emp` is represented by the *absence* of atoms in a [`SymHeap`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpatialAtom {
    /// `root ↦τ {f1: e1, ..., fn: en}` — a single allocated cell of
    /// structure type `ty` at address `root`.
    PointsTo {
        /// Address expression (a variable or `nil`, though `nil` never
        /// checks successfully).
        root: Expr,
        /// Structure type name `τ`.
        ty: Symbol,
        /// Named field values. Well-formedness requires exactly the fields
        /// of `ty`, in declaration order.
        fields: Vec<FieldAssign>,
    },
    /// `p(t1, ..., tn)` — an instance of an inductive heap predicate.
    Pred {
        /// Predicate name.
        name: Symbol,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl SpatialAtom {
    /// Collects free variables into `out`.
    pub fn free_vars_into(&self, out: &mut impl Extend<Symbol>) {
        match self {
            SpatialAtom::PointsTo { root, fields, .. } => {
                root.free_vars_into(out);
                for f in fields {
                    f.value.free_vars_into(out);
                }
            }
            SpatialAtom::Pred { args, .. } => {
                for a in args {
                    a.free_vars_into(out);
                }
            }
        }
    }
}

/// A symbolic heap `∃ x⃗. Σ ∧ Π`.
///
/// * `exists` — the existentially bound variables `x⃗`;
/// * `spatial` — the `∗`-separated spatial atoms `Σ` (empty means `emp`);
/// * `pure` — the conjunction of pure atoms `Π` (empty means `true`).
///
/// # Examples
///
/// ```
/// use sling_logic::{parse_formula, SymHeap};
///
/// let f: SymHeap = parse_formula("exists u. x -> Node{next: u} * sll(u) & x != nil").unwrap();
/// assert_eq!(f.exists.len(), 1);
/// assert_eq!(f.spatial.len(), 2);
/// assert_eq!(f.pure.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SymHeap {
    /// Existentially quantified variables.
    pub exists: Vec<Symbol>,
    /// Spatial atoms joined by the separating conjunction.
    pub spatial: Vec<SpatialAtom>,
    /// Pure atoms joined by classical conjunction.
    pub pure: Vec<PureAtom>,
}

impl SymHeap {
    /// The empty-heap formula `emp`.
    pub fn emp() -> SymHeap {
        SymHeap::default()
    }

    /// True if this formula is exactly `emp` (no atoms, no pure part).
    pub fn is_emp(&self) -> bool {
        self.spatial.is_empty() && self.pure.is_empty() && self.exists.is_empty()
    }

    /// Free variables (variables used and not bound by `exists`).
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut all = BTreeSet::new();
        for s in &self.spatial {
            s.free_vars_into(&mut all);
        }
        for p in &self.pure {
            p.free_vars_into(&mut all);
        }
        for e in &self.exists {
            all.remove(e);
        }
        all
    }

    /// All variables mentioned, bound or free.
    pub fn all_vars(&self) -> BTreeSet<Symbol> {
        let mut all = BTreeSet::new();
        for s in &self.spatial {
            s.free_vars_into(&mut all);
        }
        for p in &self.pure {
            p.free_vars_into(&mut all);
        }
        all.extend(self.exists.iter().copied());
        all
    }

    /// Separating conjunction of two symbolic heaps.
    ///
    /// Bound variables of `other` are renamed if they collide with any
    /// variable of `self` (and vice versa existing binders are kept), so the
    /// result is capture-free.
    pub fn star(mut self, other: SymHeap) -> SymHeap {
        let mut other = other;
        // Rename other's binders away from everything visible in self.
        let clash: Vec<Symbol> = other
            .exists
            .iter()
            .copied()
            .filter(|v| self.all_vars().contains(v))
            .collect();
        if !clash.is_empty() {
            let mut fresh = crate::symbol::FreshVars::new("r");
            fresh.avoid_all(self.all_vars());
            fresh.avoid_all(other.all_vars());
            let map: crate::subst::Subst = clash
                .iter()
                .map(|&v| (v, Expr::Var(fresh.next())))
                .collect();
            other = crate::subst::subst_symheap_bound(&other, &map);
        }
        self.exists.extend(other.exists);
        self.spatial.extend(other.spatial);
        self.pure.extend(other.pure);
        self
    }

    /// Number of points-to atoms (the paper's "Single" statistic).
    pub fn singleton_count(&self) -> usize {
        self.spatial
            .iter()
            .filter(|a| matches!(a, SpatialAtom::PointsTo { .. }))
            .count()
    }

    /// Number of inductive-predicate atoms (the paper's "Pred" statistic).
    pub fn pred_count(&self) -> usize {
        self.spatial
            .iter()
            .filter(|a| matches!(a, SpatialAtom::Pred { .. }))
            .count()
    }

    /// Number of pure atoms (the paper's "Pure" statistic).
    pub fn pure_count(&self) -> usize {
        self.pure.len()
    }
}

/// A top-level formula: a disjunction of symbolic heaps.
///
/// Predicate definitions and complete postconditions (e.g. `F'_L2 ∨ F'_L3`
/// for `concat` in §2.3) are disjunctive; everything inside the inference
/// loop works on a single [`SymHeap`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Formula {
    /// The disjuncts.
    pub disjuncts: Vec<SymHeap>,
}

impl Formula {
    /// A formula with a single disjunct.
    pub fn single(heap: SymHeap) -> Formula {
        Formula {
            disjuncts: vec![heap],
        }
    }

    /// Free variables across all disjuncts.
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        for d in &self.disjuncts {
            out.extend(d.free_vars());
        }
        out
    }
}

impl From<SymHeap> for Formula {
    fn from(h: SymHeap) -> Formula {
        Formula::single(h)
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return f.write_str("false");
        }
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                f.write_str(" \\/ ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Expr {
        Expr::var(s)
    }

    #[test]
    fn free_vars_of_expr() {
        let e = Expr::Add(Box::new(v("x")), Box::new(Expr::Mul(3, Box::new(v("y")))));
        let fv = e.free_vars();
        assert!(fv.contains(&Symbol::intern("x")));
        assert!(fv.contains(&Symbol::intern("y")));
        assert_eq!(fv.len(), 2);
    }

    #[test]
    fn exists_binds() {
        let h = SymHeap {
            exists: vec![Symbol::intern("u")],
            spatial: vec![SpatialAtom::Pred {
                name: Symbol::intern("sll"),
                args: vec![v("x"), v("u")],
            }],
            pure: vec![],
        };
        let fv = h.free_vars();
        assert!(fv.contains(&Symbol::intern("x")));
        assert!(!fv.contains(&Symbol::intern("u")));
    }

    #[test]
    fn star_is_capture_free() {
        let u = Symbol::intern("u");
        let left = SymHeap {
            exists: vec![],
            spatial: vec![SpatialAtom::Pred {
                name: Symbol::intern("p"),
                args: vec![Expr::Var(u)],
            }],
            pure: vec![],
        };
        let right = SymHeap {
            exists: vec![u],
            spatial: vec![SpatialAtom::Pred {
                name: Symbol::intern("q"),
                args: vec![Expr::Var(u)],
            }],
            pure: vec![],
        };
        let joined = left.star(right);
        // The free `u` of the left must not be captured: the right binder
        // must have been renamed.
        assert_eq!(joined.exists.len(), 1);
        assert_ne!(joined.exists[0], u);
        assert!(joined.free_vars().contains(&u));
    }

    #[test]
    fn counts() {
        let h = SymHeap {
            exists: vec![],
            spatial: vec![
                SpatialAtom::PointsTo {
                    root: v("x"),
                    ty: Symbol::intern("Node"),
                    fields: vec![FieldAssign {
                        name: Symbol::intern("next"),
                        value: Expr::Nil,
                    }],
                },
                SpatialAtom::Pred {
                    name: Symbol::intern("sll"),
                    args: vec![v("y")],
                },
            ],
            pure: vec![PureAtom::Eq(v("x"), v("y"))],
        };
        assert_eq!(h.singleton_count(), 1);
        assert_eq!(h.pred_count(), 1);
        assert_eq!(h.pure_count(), 1);
    }

    #[test]
    fn emp_is_emp() {
        assert!(SymHeap::emp().is_emp());
    }
}
