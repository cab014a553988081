//! Substitution and alpha-renaming over SL formulae.

use std::collections::BTreeMap;

use crate::ast::{Expr, FieldAssign, PureAtom, SpatialAtom, SymHeap};
use crate::symbol::{FreshVars, Symbol};

/// A finite map from variables to expressions.
pub type Subst = BTreeMap<Symbol, Expr>;

/// The image of a variable under a substitution, or `None` to keep it.
type Image<'i> = &'i dyn Fn(Symbol) -> Option<Expr>;

fn map_expr(e: &Expr, image: Image<'_>) -> Expr {
    let sub = |e: &Expr| Box::new(map_expr(e, image));
    match e {
        Expr::Nil | Expr::Int(_) => e.clone(),
        Expr::Var(v) => image(*v).unwrap_or_else(|| e.clone()),
        Expr::Neg(inner) => Expr::Neg(sub(inner)),
        Expr::Add(a, b) => Expr::Add(sub(a), sub(b)),
        Expr::Sub(a, b) => Expr::Sub(sub(a), sub(b)),
        Expr::Mul(k, inner) => Expr::Mul(*k, sub(inner)),
    }
}

fn map_pure(p: &PureAtom, image: Image<'_>) -> PureAtom {
    let (a, b) = p.operands();
    let (a, b) = (map_expr(a, image), map_expr(b, image));
    match p {
        PureAtom::Eq(..) => PureAtom::Eq(a, b),
        PureAtom::Neq(..) => PureAtom::Neq(a, b),
        PureAtom::Lt(..) => PureAtom::Lt(a, b),
        PureAtom::Le(..) => PureAtom::Le(a, b),
    }
}

fn map_spatial(s: &SpatialAtom, image: Image<'_>) -> SpatialAtom {
    match s {
        SpatialAtom::PointsTo { root, ty, fields } => SpatialAtom::PointsTo {
            root: map_expr(root, image),
            ty: *ty,
            fields: fields
                .iter()
                .map(|f| FieldAssign {
                    name: f.name,
                    value: map_expr(&f.value, image),
                })
                .collect(),
        },
        SpatialAtom::Pred { name, args } => SpatialAtom::Pred {
            name: *name,
            args: args.iter().map(|a| map_expr(a, image)).collect(),
        },
    }
}

/// Replaces every variable of `h`, bound or free, by its `image` (a
/// variable whose image is `None` stays), and renames each binder to the
/// variable its image names (a binder whose image is not a variable
/// stays). Nothing is renamed to avoid capture.
///
/// A caller that maps a few names can look them up in a vector by symbol
/// id, which reads no symbol text, where a [`Subst`] compares names.
pub fn map_vars(h: &SymHeap, image: impl Fn(Symbol) -> Option<Expr>) -> SymHeap {
    let image: Image<'_> = &image;
    SymHeap {
        exists: h
            .exists
            .iter()
            .map(|&v| image(v).and_then(|e| e.as_var()).unwrap_or(v))
            .collect(),
        spatial: h.spatial.iter().map(|s| map_spatial(s, image)).collect(),
        pure: h.pure.iter().map(|p| map_pure(p, image)).collect(),
    }
}

/// Applies `map` to an expression.
pub fn subst_expr(e: &Expr, map: &Subst) -> Expr {
    map_expr(e, &|v| map.get(&v).cloned())
}

/// Applies `map` to a pure atom.
pub fn subst_pure(p: &PureAtom, map: &Subst) -> PureAtom {
    map_pure(p, &|v| map.get(&v).cloned())
}

/// Applies `map` to a spatial atom.
pub fn subst_spatial(s: &SpatialAtom, map: &Subst) -> SpatialAtom {
    map_spatial(s, &|v| map.get(&v).cloned())
}

/// Capture-avoiding substitution of free variables in a symbolic heap.
///
/// Bound variables that clash with the range or domain of `map` are renamed
/// first, so free variables of replacement expressions are never captured.
///
/// # Examples
///
/// ```
/// use sling_logic::{parse_formula, subst_symheap, Expr, Subst, Symbol};
///
/// let h = parse_formula("exists u. sll(x, u)").unwrap();
/// let mut map = Subst::new();
/// map.insert(Symbol::intern("x"), Expr::var("u"));
/// let out = subst_symheap(&h, &map);
/// // The binder `u` was renamed: the substituted free `u` is not captured.
/// assert!(out.free_vars().contains(&Symbol::intern("u")));
/// ```
pub fn subst_symheap(h: &SymHeap, map: &Subst) -> SymHeap {
    // Variables that must not be captured: free vars of the range.
    let mut range_vars = std::collections::BTreeSet::new();
    for e in map.values() {
        e.free_vars_into(&mut range_vars);
    }
    let clashing: Vec<Symbol> = h
        .exists
        .iter()
        .copied()
        .filter(|b| range_vars.contains(b) || map.contains_key(b))
        .collect();

    let mut h = h.clone();
    if !clashing.is_empty() {
        let mut fresh = FreshVars::new("r");
        fresh.avoid_all(h.all_vars());
        fresh.avoid_all(range_vars.iter().copied());
        fresh.avoid_all(map.keys().copied());
        let rename: Subst = clashing
            .iter()
            .map(|&v| (v, Expr::Var(fresh.next())))
            .collect();
        h = map_vars(&h, |v| rename.get(&v).cloned());
    }

    // Do not substitute the (now clash-free) binders.
    let filtered: Subst = map
        .iter()
        .filter(|(k, _)| !h.exists.contains(k))
        .map(|(k, v)| (*k, v.clone()))
        .collect();

    SymHeap {
        exists: h.exists.clone(),
        spatial: h
            .spatial
            .iter()
            .map(|s| subst_spatial(s, &filtered))
            .collect(),
        pure: h.pure.iter().map(|p| subst_pure(p, &filtered)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;

    fn sub1(from: &str, to: Expr) -> Subst {
        let mut m = Subst::new();
        m.insert(Symbol::intern(from), to);
        m
    }

    #[test]
    fn subst_replaces_free() {
        let h = parse_formula("sll(x, y)").unwrap();
        let out = subst_symheap(&h, &sub1("x", Expr::Nil));
        match &out.spatial[0] {
            SpatialAtom::Pred { args, .. } => {
                assert_eq!(args[0], Expr::Nil);
                assert_eq!(args[1], Expr::var("y"));
            }
            other => panic!("unexpected atom {other:?}"),
        }
    }

    #[test]
    fn subst_skips_bound() {
        let h = parse_formula("exists x. sll(x, y)").unwrap();
        let out = subst_symheap(&h, &sub1("x", Expr::Nil));
        match &out.spatial[0] {
            SpatialAtom::Pred { args, .. } => {
                // Bound x must be untouched (possibly renamed, but not Nil).
                assert!(matches!(args[0], Expr::Var(_)));
            }
            other => panic!("unexpected atom {other:?}"),
        }
    }

    #[test]
    fn subst_in_points_to_fields() {
        let h = parse_formula("x -> Node{next: y, prev: nil}").unwrap();
        let out = subst_symheap(&h, &sub1("y", Expr::var("z")));
        match &out.spatial[0] {
            SpatialAtom::PointsTo { fields, .. } => {
                assert_eq!(fields[0].value, Expr::var("z"));
            }
            other => panic!("unexpected atom {other:?}"),
        }
    }

    #[test]
    fn subst_arith() {
        let e = Expr::Add(Box::new(Expr::var("x")), Box::new(Expr::Int(1)));
        let out = subst_expr(&e, &sub1("x", Expr::Int(41)));
        assert_eq!(
            out,
            Expr::Add(Box::new(Expr::Int(41)), Box::new(Expr::Int(1)))
        );
    }
}
