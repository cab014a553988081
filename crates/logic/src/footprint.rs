//! Footprint summaries: what an instance of a predicate that covers at
//! least one heap cell says about its arguments, read off the
//! definitions alone.
//!
//! For each parameter, [`Footprints::covering`] lists facts that hold of
//! the argument in every instance that covers a cell:
//!
//! * `alloc` — the argument is the address of a covered cell;
//! * `refs` — the argument equals a field of some covered cell of a
//!   given type ([`FieldRef`]).
//!
//! A `dll(hd, pr, tl, nx)` that covers a cell has `hd` and `tl`
//! allocated, `pr` is some cell's `prev` and `nx` some cell's `next`.
//!
//! # The fixpoint
//!
//! The summary is a greatest fixpoint over the definitions. Both of its
//! passes start from "every fact holds" (as if no instance existed yet)
//! and only weaken, so each stops once a sweep over the predicates
//! changes nothing.
//!
//! 1. **Empty instances.** A case with no points-to atom, whose calls
//!    are all empty, covers no cell; its pure equalities and its
//!    callees' empty equalities hold. Per predicate, the equalities
//!    among the parameters and constants that hold in every such case
//!    are kept. A predicate with no such case, like `queue`, whose
//!    cases all have a points-to, is never empty.
//! 2. **Covering instances.** Within a case, each call is taken two
//!    ways: empty, so that its callee's empty equalities hold of its
//!    arguments, or non-empty, so that its callee's facts do. Every
//!    points-to root is allocated, and every field value refs its
//!    field. Facts flow along the case's equalities to the parameters,
//!    and are intersected over every way the case can cover a cell,
//!    then over the cases. A way that equates two constants, or a
//!    constant with an allocated address, cannot happen and weakens
//!    nothing.
//!
//! Names resolve as the checker resolves them: a case's binders shadow
//! the parameters, and the last parameter of a name wins. A case that
//! calls an undefined predicate, calls one at the wrong arity, or has a
//! points-to of an undeclared type or field matches no heap in the
//! checker, so no instance uses it, and it adds nothing here either.
//!
//! # What it is for
//!
//! `InferAtom` checks every candidate `∃u⃗. p(k⃗)` on every sub-model and
//! drops the ones that cover no cell in any model. If, on a sub-model,
//! an argument whose value is known breaks a fact of its parameter
//! (`nil` or an address outside the sub-heap where `alloc` holds, or a
//! value that no cell of the sub-heap has in a field that `refs` names),
//! then no instance covers a cell of that sub-model, and the checker
//! cannot report one: each carving it reports is an instance. A
//! candidate that breaks a fact on every sub-model would be dropped
//! whatever the checker answered, so inference asks it nothing.

use std::collections::BTreeMap;

use crate::ast::{Expr, PureAtom, SpatialAtom, SymHeap};
use crate::pred::{PredDef, PredEnv};
use crate::symbol::Symbol;
use crate::types::TypeEnv;

/// A case with more calls than this is not split into its `2^k` ways
/// to take them: it adds no fact for its predicate, which is sound (a
/// fact must hold in every case) and keeps a hostile definition cheap.
const MAX_SPLIT_CALLS: usize = 6;

/// A field of a structure type: the `refs` fact's target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FieldRef {
    /// The structure type.
    pub ty: Symbol,
    /// The field's position in the type's declaration.
    pub field: usize,
}

/// What every instance that covers a cell implies about one argument.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParamFacts {
    /// The argument is the address of a covered cell.
    pub alloc: bool,
    /// For each listed field, the argument equals that field of some
    /// covered cell of the field's type. Sorted, without repeats.
    pub refs: Vec<FieldRef>,
}

impl ParamFacts {
    /// Keeps the facts that also hold in `other`.
    fn meet(&mut self, other: &ParamFacts) {
        self.alloc &= other.alloc;
        self.refs.retain(|r| other.refs.contains(r));
    }
}

/// A constant a term can equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Const {
    Nil,
    Int(i64),
}

/// The equalities every empty instance satisfies: per parameter, the
/// first parameter of its class and the constant the class equals.
type EmptyEqs = Vec<(usize, Option<Const>)>;

/// One predicate's summary; `None` is "every fact holds": no instance
/// of that kind exists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    covering: Option<Vec<ParamFacts>>,
    empty: Option<EmptyEqs>,
}

/// The footprint summaries of a predicate environment (module doc).
#[derive(Debug)]
pub struct Footprints {
    preds: BTreeMap<Symbol, Summary>,
}

impl Footprints {
    /// Summarizes every predicate of `preds`, with the structures of
    /// `types`.
    pub fn new(types: &TypeEnv, preds: &PredEnv) -> Footprints {
        let defs: Vec<&PredDef> = preds.iter().collect();
        let ids: BTreeMap<Symbol, (usize, usize)> = defs
            .iter()
            .enumerate()
            .map(|(id, def)| (def.name, (id, def.arity())))
            .collect();
        let cases: Vec<Vec<Case>> = defs
            .iter()
            .map(|def| {
                def.cases
                    .iter()
                    .filter_map(|case| Case::compile(def, case, types, &ids))
                    .collect()
            })
            .collect();
        let mut sums = vec![Summary::default(); defs.len()];
        // Empty instances depend on nothing else, so they settle first.
        sweep(&mut sums, |sums, p| {
            let empty = cases[p]
                .iter()
                .filter_map(|case| case.empty(sums))
                .reduce(|a, b| meet_empty(&a, &b));
            let changed = sums[p].empty != empty;
            sums[p].empty = empty;
            changed
        });
        sweep(&mut sums, |sums, p| {
            let mut covering = None;
            for case in &cases[p] {
                case.covering(sums, &mut covering);
            }
            let changed = sums[p].covering != covering;
            sums[p].covering = covering;
            changed
        });
        Footprints {
            preds: defs.iter().map(|def| def.name).zip(sums).collect(),
        }
    }

    /// What an instance of the predicate `name` that covers a cell
    /// implies about each argument, in parameter order; `None` when no
    /// instance can cover a cell (an undefined name included, which the
    /// checker matches with no heap).
    pub fn covering(&self, name: Symbol) -> Option<&[ParamFacts]> {
        self.preds.get(&name)?.covering.as_deref()
    }
}

/// Runs `update` on every predicate until a sweep changes nothing;
/// `update` returns whether it changed its predicate's summary.
fn sweep(sums: &mut [Summary], mut update: impl FnMut(&mut [Summary], usize) -> bool) {
    let mut changed = true;
    while changed {
        changed = false;
        for p in 0..sums.len() {
            changed |= update(sums, p);
        }
    }
}

/// The equalities that hold in both `a` and `b`.
fn meet_empty(a: &EmptyEqs, b: &EmptyEqs) -> EmptyEqs {
    (0..a.len())
        .map(|i| {
            let first = (0..=i)
                .find(|&j| a[j].0 == a[i].0 && b[j].0 == b[i].0)
                .unwrap_or(i);
            (first, if a[i].1 == b[i].1 { a[i].1 } else { None })
        })
        .collect()
}

/// A usable case with its terms numbered: the parameters first, by
/// position, then the binders, then the other names, constants and
/// arithmetic terms as they occur (a term per constant occurrence).
struct Case {
    params: usize,
    terms: usize,
    consts: Vec<(usize, Const)>,
    /// Pure equalities.
    eqs: Vec<(usize, usize)>,
    /// Points-to roots.
    allocs: Vec<usize>,
    /// Points-to field values.
    refs: Vec<(usize, FieldRef)>,
    /// Predicate calls: the callee's position and the argument terms.
    calls: Vec<(usize, Vec<usize>)>,
}

impl Case {
    /// Numbers the terms of one case of `def`; `None` when the case is
    /// unusable (module doc). `ids` maps each predicate to its position
    /// and arity.
    fn compile(
        def: &PredDef,
        case: &SymHeap,
        types: &TypeEnv,
        ids: &BTreeMap<Symbol, (usize, usize)>,
    ) -> Option<Case> {
        let mut binders: Vec<Symbol> = Vec::with_capacity(case.exists.len());
        for &b in &case.exists {
            if !binders.contains(&b) {
                binders.push(b);
            }
        }
        let mut names = Names {
            def,
            binders: &binders,
            others: Vec::new(),
            next: def.arity() + binders.len(),
            consts: Vec::new(),
        };
        let mut out = Case {
            params: def.arity(),
            terms: 0,
            consts: Vec::new(),
            eqs: Vec::new(),
            allocs: Vec::new(),
            refs: Vec::new(),
            calls: Vec::new(),
        };
        for atom in &case.spatial {
            match atom {
                SpatialAtom::PointsTo { root, ty, fields } => {
                    let decl = types.get(*ty)?;
                    out.allocs.push(names.term(root));
                    for fa in fields {
                        let field = decl.field_index(fa.name)?;
                        let value = names.term(&fa.value);
                        out.refs.push((value, FieldRef { ty: *ty, field }));
                    }
                }
                SpatialAtom::Pred { name, args } => {
                    let &(callee, arity) = ids.get(name)?;
                    if arity != args.len() {
                        return None;
                    }
                    let args = args.iter().map(|a| names.term(a)).collect();
                    out.calls.push((callee, args));
                }
            }
        }
        for atom in &case.pure {
            if let PureAtom::Eq(a, b) = atom {
                let eq = (names.term(a), names.term(b));
                out.eqs.push(eq);
            }
        }
        out.terms = names.next;
        out.consts = names.consts;
        Some(out)
    }

    /// The equalities that hold when this case covers no cell, or
    /// `None` when it cannot.
    fn empty(&self, sums: &[Summary]) -> Option<EmptyEqs> {
        if !self.allocs.is_empty() {
            return None;
        }
        let mut way = Way::new(self);
        for (callee, args) in &self.calls {
            way.empty_call(args, sums[*callee].empty.as_ref()?);
        }
        let consts = way.consts()?;
        Some(
            (0..self.params)
                .map(|i| {
                    let root = way.find(i);
                    (root, consts[root])
                })
                .collect(),
        )
    }

    /// Meets into `out` the facts of every way this case covers a cell.
    fn covering(&self, sums: &[Summary], out: &mut Option<Vec<ParamFacts>>) {
        if self.calls.len() > MAX_SPLIT_CALLS {
            *out = Some(vec![ParamFacts::default(); self.params]);
            return;
        }
        // Bit `j` of `nonempty`: the `j`-th call covers a cell.
        for nonempty in 0..1u32 << self.calls.len() {
            if nonempty == 0 && self.allocs.is_empty() {
                continue;
            }
            let Some(facts) = self.way_facts(sums, nonempty) else {
                continue;
            };
            match out {
                None => *out = Some(facts),
                Some(out) => out.iter_mut().zip(&facts).for_each(|(o, f)| o.meet(f)),
            }
        }
    }

    /// The parameters' facts when the calls in `nonempty` cover cells
    /// and the others do not, or `None` when that cannot happen.
    fn way_facts(&self, sums: &[Summary], nonempty: u32) -> Option<Vec<ParamFacts>> {
        let mut way = Way::new(self);
        let mut given: Vec<(usize, &ParamFacts)> = Vec::new();
        for (j, (callee, args)) in self.calls.iter().enumerate() {
            if nonempty >> j & 1 == 1 {
                let facts = sums[*callee].covering.as_ref()?;
                given.extend(args.iter().copied().zip(facts));
            } else {
                way.empty_call(args, sums[*callee].empty.as_ref()?);
            }
        }
        let consts = way.consts()?;
        let mut facts = vec![ParamFacts::default(); way.parent.len()];
        for &t in &self.allocs {
            facts[way.find(t)].alloc = true;
        }
        for &(t, field) in &self.refs {
            facts[way.find(t)].refs.push(field);
        }
        for (t, f) in given {
            let class = &mut facts[way.find(t)];
            class.alloc |= f.alloc;
            class.refs.extend(&f.refs);
        }
        if (0..facts.len()).any(|c| facts[c].alloc && consts[c].is_some()) {
            return None;
        }
        Some(
            (0..self.params)
                .map(|i| {
                    let mut f = facts[way.find(i)].clone();
                    f.refs.sort_unstable();
                    f.refs.dedup();
                    f
                })
                .collect(),
        )
    }
}

/// Numbers the terms of one case as [`Case::compile`] reads them.
struct Names<'a> {
    def: &'a PredDef,
    binders: &'a [Symbol],
    others: Vec<(Symbol, usize)>,
    next: usize,
    consts: Vec<(usize, Const)>,
}

impl Names<'_> {
    fn term(&mut self, e: &Expr) -> usize {
        match e {
            Expr::Nil => self.konst(Const::Nil),
            Expr::Int(k) => self.konst(Const::Int(*k)),
            Expr::Var(v) => {
                if let Some(k) = self.binders.iter().position(|b| b == v) {
                    self.def.arity() + k
                } else if let Some(i) = self.def.params.iter().rposition(|p| p.name == *v) {
                    i
                } else if let Some(&(_, t)) = self.others.iter().find(|(name, _)| name == v) {
                    t
                } else {
                    let t = self.fresh();
                    self.others.push((*v, t));
                    t
                }
            }
            // Arithmetic: a term of its own, equal to nothing known.
            _ => self.fresh(),
        }
    }

    fn konst(&mut self, c: Const) -> usize {
        let t = self.fresh();
        self.consts.push((t, c));
        t
    }

    fn fresh(&mut self) -> usize {
        self.next += 1;
        self.next - 1
    }
}

/// The classes of a case's terms under one way's equalities. A class's
/// root is its smallest term, so a class with a parameter is rooted at
/// its first parameter.
struct Way {
    parent: Vec<usize>,
    consts: Vec<(usize, Const)>,
}

impl Way {
    fn new(case: &Case) -> Way {
        let mut way = Way {
            parent: (0..case.terms).collect(),
            consts: Vec::new(),
        };
        for &(t, c) in &case.consts {
            way.pin(t, c);
        }
        for &(a, b) in &case.eqs {
            way.union(a, b);
        }
        way
    }

    fn find(&mut self, mut t: usize) -> usize {
        while self.parent[t] != t {
            self.parent[t] = self.parent[self.parent[t]];
            t = self.parent[t];
        }
        t
    }

    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        self.parent[a.max(b)] = a.min(b);
    }

    /// Takes a call empty: its callee's empty equalities hold of `args`.
    fn empty_call(&mut self, args: &[usize], eqs: &EmptyEqs) {
        for (&arg, &(first, c)) in args.iter().zip(eqs) {
            self.union(arg, args[first]);
            if let Some(c) = c {
                self.pin(arg, c);
            }
        }
    }

    /// Term `t` equals the constant `c`, and so every term equal to it.
    fn pin(&mut self, t: usize, c: Const) {
        match self.consts.iter().find(|(_, k)| *k == c) {
            Some(&(first, _)) => self.union(t, first),
            None => self.consts.push((t, c)),
        }
    }

    /// Per class root, the constant the class equals; `None` when a
    /// class equates two constants.
    fn consts(&mut self) -> Option<Vec<Option<Const>>> {
        let mut out = vec![None; self.parent.len()];
        for (t, c) in self.consts.clone() {
            let root = self.find(t);
            match out[root] {
                Some(d) if d != c => return None,
                _ => out[root] = Some(c),
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_predicates;
    use crate::types::{FieldDef, FieldTy, StructDef};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// The environments of `structs`, written `Name { field: Type*, field:
    /// int }` in a row, and of the predicate text `preds`.
    fn envs(structs: &str, preds: &str) -> (TypeEnv, PredEnv) {
        let mut types = TypeEnv::new();
        for decl in structs.split('}').filter(|d| !d.trim().is_empty()) {
            let (name, body) = decl.split_once('{').unwrap();
            let fields = body
                .split(',')
                .map(|field| {
                    let (field, ty) = field.split_once(':').unwrap();
                    let ty = match ty.trim().strip_suffix('*') {
                        Some(to) => FieldTy::Ptr(sym(to)),
                        None => FieldTy::Int,
                    };
                    FieldDef {
                        name: sym(field.trim()),
                        ty,
                    }
                })
                .collect();
            types
                .define(StructDef {
                    name: sym(name.trim()),
                    fields,
                })
                .unwrap();
        }
        let mut env = PredEnv::new();
        for def in parse_predicates(preds).unwrap() {
            env.define(def).unwrap();
        }
        (types, env)
    }

    /// One parameter's facts: `alloc`, and `Type.field` for each `refs`.
    fn facts(types: &TypeEnv, alloc: bool, refs: &[&str]) -> ParamFacts {
        let refs = refs
            .iter()
            .map(|r| {
                let (ty, field) = r.split_once('.').unwrap();
                let field = types.get(sym(ty)).unwrap().field_index(sym(field));
                FieldRef {
                    ty: sym(ty),
                    field: field.unwrap(),
                }
            })
            .collect();
        ParamFacts { alloc, refs }
    }

    #[test]
    fn summaries_of_the_corpus_predicates_are_pinned() {
        let (types, preds) = envs(
            "DNode { next: DNode*, prev: DNode*, data: int } \
             SNode { next: SNode*, data: int } \
             CNode { next: CNode*, data: int } \
             RNode { left: RNode*, right: RNode*, color: int, data: int } \
             CompNode { left: CompNode*, right: CompNode*, parent: CompNode*, data: int } \
             QNode { next: QNode*, data: int } Queue { first: QNode*, last: QNode* }",
            "pred dll(hd: DNode*, pr: DNode*, tl: DNode*, nx: DNode*) :=
                 emp & hd == nx & pr == tl
               | exists u, d. hd -> DNode{next: u, prev: pr, data: d} * dll(u, hd, tl, nx);
             pred lseg(x: SNode*, y: SNode*) := emp & x == y
               | exists u, d. x -> SNode{next: u, data: d} * lseg(u, y);
             pred clseg(x: CNode*, y: CNode*) := emp & x == y
               | exists u, d. x -> CNode{next: u, data: d} * clseg(u, y);
             pred cll(x: CNode*) := emp & x == nil
               | exists u, d. x -> CNode{next: u, data: d} * clseg(u, x);
             pred rbt(t: RNode*, c: int) := emp & t == nil & c == 0
               | exists l, r, cl, cr, d. t -> RNode{left: l, right: r, color: c, data: d}
                   * rbt(l, cl) * rbt(r, cr) & c == 0
               | exists l, r, d. t -> RNode{left: l, right: r, color: c, data: d}
                   * rbt(l, 0) * rbt(r, 0) & c == 1;
             pred comp(t: CompNode*, p: CompNode*) := emp & t == nil
               | exists l, r, d. t -> CompNode{left: l, right: r, parent: p, data: d}
                   * comp(l, t) * comp(r, t);
             pred queue(h: QNode*, t: QNode*) :=
                 exists d. h -> QNode{next: nil, data: d} & h == t
               | exists u, d. h -> QNode{next: u, data: d} * queue(u, t);",
        );
        let footprints = Footprints::new(&types, &preds);
        let pinned = |name: &str, expected: &[(bool, &[&str])]| {
            let expected: Vec<ParamFacts> = expected
                .iter()
                .map(|&(alloc, refs)| facts(&types, alloc, refs))
                .collect();
            assert_eq!(
                footprints.covering(sym(name)),
                Some(&expected[..]),
                "{name}"
            );
        };
        pinned(
            "dll",
            &[
                (true, &[]),
                (false, &["DNode.prev"]),
                (true, &[]),
                (false, &["DNode.next"]),
            ],
        );
        pinned("lseg", &[(true, &[]), (false, &["SNode.next"])]);
        pinned("clseg", &[(true, &[]), (false, &["CNode.next"])]);
        pinned("cll", &[(true, &["CNode.next"])]);
        pinned("rbt", &[(true, &[]), (false, &["RNode.color"])]);
        pinned("comp", &[(true, &[]), (false, &["CompNode.parent"])]);
        pinned("queue", &[(true, &[]), (true, &[])]);
        // An empty `queue` does not exist; an empty `dll` equates `hd`
        // with `nx` and `pr` with `tl`, and an empty `rbt` is `nil`
        // with color 0.
        let empty = |name: &str| footprints.preds[&sym(name)].empty.clone();
        assert_eq!(empty("queue"), None);
        assert_eq!(
            empty("dll"),
            Some(vec![(0, None), (1, None), (1, None), (0, None)])
        );
        assert_eq!(
            empty("rbt"),
            Some(vec![(0, Some(Const::Nil)), (1, Some(Const::Int(0)))])
        );
    }

    /// Shadowing as in the checker: a binder hides a parameter of its
    /// name, and of two parameters with one name the last is meant.
    #[test]
    fn names_resolve_as_the_checker_resolves_them() {
        let (types, preds) = envs(
            "Node { next: Node* }",
            "pred shadow(x: Node*, y: Node*) := exists x. x -> Node{next: y};
             pred twice(x: Node*, x: Node*) := x -> Node{next: nil};",
        );
        let footprints = Footprints::new(&types, &preds);
        let next = facts(&types, false, &["Node.next"]);
        assert_eq!(
            footprints.covering(sym("shadow")),
            Some(&[ParamFacts::default(), next][..])
        );
        let alloc = facts(&types, true, &[]);
        assert_eq!(
            footprints.covering(sym("twice")),
            Some(&[ParamFacts::default(), alloc][..])
        );
    }

    /// Cases that no instance can use, as the checker sees them, draw no
    /// fact and never panic: a call to an undefined predicate, a call at
    /// the wrong arity, and points-to atoms of an undeclared type or
    /// field.
    #[test]
    fn hostile_libraries_draw_no_fact_from_a_broken_case() {
        let sound = "pred seg(x: Node*, y: Node*) := emp & x == y
               | exists u. x -> Node{next: u} * seg(u, y);";
        let broken = "pred seg(x: Node*, y: Node*) := emp & x == y
               | exists u. x -> Node{next: u} * seg(u, y)
               | exists u. y -> Node{next: x} * ghost(u)
               | exists u. y -> Node{next: x} * seg(u)
               | exists u. y -> Ghost{next: x} * seg(u, u)
               | exists u. y -> Node{next: x, prev: u} * seg(u, u)
               | ghost(x, y) * seg(x, y)
               | seg(x, y, x);
             pred gone(x: Node*) := x -> Ghost{next: nil} | ghost(x) | gone(x, x);
             pred wrap(x: Node*) := gone(x) | emp & x == nil;";
        let (types, sound) = envs("Node { next: Node* }", sound);
        let (_, broken) = envs("Node { next: Node* }", broken);
        let (sound, broken) = (
            Footprints::new(&types, &sound),
            Footprints::new(&types, &broken),
        );
        assert_eq!(broken.preds[&sym("seg")], sound.preds[&sym("seg")]);
        // Nothing of `gone` is usable: no instance, empty or not.
        assert_eq!(broken.preds[&sym("gone")], Summary::default());
        // So `wrap` is only ever empty.
        assert_eq!(broken.covering(sym("wrap")), None);
        assert_eq!(broken.covering(sym("undefined")), None);
    }

    /// A case with more calls than [`MAX_SPLIT_CALLS`] weakens its
    /// predicate to no fact rather than being split.
    #[test]
    fn a_case_with_many_calls_adds_no_fact() {
        let calls = ["seg(x, y)"; MAX_SPLIT_CALLS + 1].join(" * ");
        let (types, preds) = envs(
            "Node { next: Node* }",
            &format!(
                "pred seg(x: Node*, y: Node*) := emp & x == y
                   | exists u. x -> Node{{next: u}} * seg(u, y)
                   | {calls};"
            ),
        );
        let footprints = Footprints::new(&types, &preds);
        assert_eq!(
            footprints.covering(sym("seg")),
            Some(&[ParamFacts::default(), ParamFacts::default()][..])
        );
    }
}
