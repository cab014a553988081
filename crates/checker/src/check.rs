//! The model-checking search.
//!
//! Implements the reduction `s, h ⊩ F ⇝ h', ι` of Definition 2: given a
//! concrete stack-heap model and a symbolic heap `F`, find a residual heap
//! `h' ⊆ h` and an instantiation `ι` of `F`'s existential variables such
//! that `s, h \ h' ⊨ι F`.
//!
//! The paper encodes this judgment into Z3 following Brotherston et al.
//! (POPL'16). Checking against a *concrete finite* model is decidable by
//! bounded unfolding — every cycle of predicate unfoldings consumes at
//! least one cell (productivity, enforced by `sling_logic::check_pred_env`
//! at engine build time; bounded unguarded wrapper hops are absorbed by
//! `fuel_slack`) — so this crate performs a direct backtracking search
//! instead:
//!
//! * points-to atoms consume one available cell and *bind* unbound
//!   existentials occurring as their root or field values;
//! * predicate atoms unfold case by case (cases with more spatial atoms
//!   first, so the search is greedy toward large coverage);
//! * pure atoms are deferred and discharged by fixpoint propagation once
//!   the spatial goals of a branch are exhausted;
//! * a branch whose pending points-to goals outnumber the available cells
//!   is cut before it costs a node. Each such goal must consume a cell of
//!   its own, and no step narrows the gap (a match takes one goal and one
//!   cell, an unfolding only adds goals), so the branch has no leaf.
//!   Cutting it changes no answer of a search that finishes within its
//!   budget: the leaves, and their order, stay the same.
//!
//! Among accepted carvings the search keeps the one with the smallest
//! residue (maximal coverage) and stops early when the residue is empty.
//!
//! # Search state
//!
//! A search mutates one state in place and rewinds it when it backtracks,
//! so a branch costs what it changes, not a copy of the state:
//!
//! * variables are dense search-local ids whose bindings sit in a vector.
//!   The formula's variables get theirs when the search starts (the stack
//!   value, or unbound and reported in ι); each unfolding gives its case's
//!   binders fresh ids, so binders are never named or interned;
//! * the heap is a borrowed slice of cells in address order, and the
//!   available cells are a bitmap over it;
//! * the pending spatial goals, and the terms they mention, live in arenas
//!   truncated on backtrack; taking a goal out of the list (`swap_remove`)
//!   is undone with a push and a swap;
//! * pure atoms live in an append-only arena with discharge flags;
//! * bindings and discharges go to undo logs that each node rewinds before
//!   it returns;
//! * the number of pending points-to goals is kept beside the goal list
//!   (a case adds its points-to atoms, a match takes one out, backtracking
//!   restores it), so the cut compares two counters and no node rescans
//!   the goals.
//!
//! Each predicate definition is compiled once per search, on its first
//! unfolding, into case templates whose expressions refer to parameter and
//! binder slots, so an unfolding fills in a template instead of
//! substituting into a formula.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use sling_logic::{
    Expr, PredDef, PredEnv, PredParam, PureAtom, SpatialAtom, SymHeap, Symbol, TypeEnv,
};
use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};

use crate::cache::{CacheKey, CheckCache, FormulaKey, ModelParts, PreparedFormula, QueryScope};
use crate::inst::Instantiation;

/// Tuning knobs for the search.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Maximum number of search nodes explored per model before the search
    /// gives up and returns the best solution found so far (mirrors the
    /// paper's Z3 timeouts on trace-heavy loop locations). A branch cut
    /// because its points-to goals outnumber the available cells is not
    /// counted.
    pub node_budget: u64,
    /// Extra unfolding depth allowed beyond the heap size.
    pub fuel_slack: u32,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            node_budget: 200_000,
            fuel_slack: 24,
        }
    }
}

/// A successful reduction `s, h ⊩ F ⇝ h', ι`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduction {
    /// The residual heap `h'` — the part of `h` *not* modeled by `F`.
    pub residual: Heap,
    /// Instantiation of `F`'s existential variables. Existentials that the
    /// model leaves unconstrained (e.g. both sides of a vacuous equality)
    /// are absent.
    pub inst: Instantiation,
    /// Number of cells of `h` covered by `F` (`|h| - |h'|`).
    pub covered: usize,
}

/// A successful reduction of a heap given as a slice of cells
/// ([`CheckCtx::check_cells`]): the residual `h'` is a bitset over the
/// slice instead of a heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReduction {
    /// Bit `i % 64` of word `i / 64` is set when the slice's `i`-th cell
    /// is in the residual heap `h'` (not modeled by `F`).
    pub residual: Vec<u64>,
    /// Instantiation of `F`'s existential variables, as in
    /// [`Reduction::inst`].
    pub inst: Instantiation,
    /// Number of cells of the slice covered by `F`.
    pub covered: usize,
}

impl CellReduction {
    /// True if the slice's `i`-th cell is in the residual heap.
    pub fn is_residual(&self, i: usize) -> bool {
        bit(&self.residual, i)
    }
}

/// Shared context for checking: type and predicate environments plus
/// configuration, optionally backed by a memoizing [`CheckCache`].
#[derive(Debug, Clone, Copy)]
pub struct CheckCtx<'a> {
    /// Structure definitions.
    pub types: &'a TypeEnv,
    /// Inductive predicate definitions.
    pub preds: &'a PredEnv,
    /// Search limits.
    pub config: CheckConfig,
    /// Entailment cache consulted by [`CheckCtx::check_prepared`];
    /// `None` runs every query cold.
    pub cache: Option<&'a CheckCache>,
    /// Fingerprint of `(types, preds)` mixed into every cache key, so a
    /// [`CheckCache`] shared between contexts with *different*
    /// environments can never exchange verdicts (a predicate name alone
    /// does not identify its definition). Zero when no cache is used.
    pub env_tag: u64,
}

impl<'a> CheckCtx<'a> {
    /// Creates a context with default limits and no cache.
    pub fn new(types: &'a TypeEnv, preds: &'a PredEnv) -> CheckCtx<'a> {
        CheckCtx {
            types,
            preds,
            config: CheckConfig::default(),
            cache: None,
            env_tag: 0,
        }
    }

    /// Creates a context whose checks are memoized in `cache`.
    pub fn with_cache(
        types: &'a TypeEnv,
        preds: &'a PredEnv,
        config: CheckConfig,
        cache: &'a CheckCache,
    ) -> CheckCtx<'a> {
        CheckCtx {
            types,
            preds,
            config,
            cache: Some(cache),
            env_tag: crate::cache::env_fingerprint(types, preds),
        }
    }

    /// Returns a copy of this context with different search limits, for
    /// checks under limits other than the defaults, such as an uncached
    /// re-check under an engine's configured limits or a budget sweep.
    /// The limits are part of the cache key, so contexts with different
    /// limits never exchange verdicts through a shared cache.
    pub fn with_config(mut self, config: CheckConfig) -> CheckCtx<'a> {
        self.config = config;
        self
    }

    /// Checks `f` against one model, returning the minimal-residue
    /// reduction if one exists: [`CheckCtx::check_cells`] over the
    /// model's cells, with the residual gathered into a heap.
    ///
    /// # Examples
    ///
    /// ```
    /// use sling_checker::CheckCtx;
    /// use sling_logic::{parse_formula, parse_predicates, PredEnv, Symbol, TypeEnv};
    /// use sling_logic::{FieldDef, FieldTy, StructDef};
    /// use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};
    ///
    /// let node = Symbol::intern("Node");
    /// let mut types = TypeEnv::new();
    /// types.define(StructDef {
    ///     name: node,
    ///     fields: vec![FieldDef { name: Symbol::intern("next"), ty: FieldTy::Ptr(node) }],
    /// }).unwrap();
    /// let mut preds = PredEnv::new();
    /// for d in sling_logic::parse_predicates(
    ///     "pred sll(x: Node*) := emp & x == nil | exists u. x -> Node{next: u} * sll(u);",
    /// ).unwrap() {
    ///     preds.define(d).unwrap();
    /// }
    ///
    /// // x = 0x01, heap: 0x01 -> 0x02 -> nil
    /// let mut heap = Heap::new();
    /// heap.insert(Loc::new(1), HeapCell::new(node, vec![Val::Addr(Loc::new(2))]));
    /// heap.insert(Loc::new(2), HeapCell::new(node, vec![Val::Nil]));
    /// let mut stack = Stack::new();
    /// stack.bind(Symbol::intern("x"), Val::Addr(Loc::new(1)));
    /// let model = StackHeapModel::new(stack, heap);
    ///
    /// let ctx = CheckCtx::new(&types, &preds);
    /// let red = ctx.check(&model, &parse_formula("sll(x)").unwrap()).unwrap();
    /// assert_eq!(red.covered, 2);
    /// assert!(red.residual.is_empty());
    /// ```
    pub fn check(&self, model: &StackHeapModel, f: &SymHeap) -> Option<Reduction> {
        let cells: Vec<(Loc, &HeapCell)> = model.heap.iter().collect();
        let red = self.check_cells(&model.stack, &cells, f)?;
        let residual: Heap = cells
            .iter()
            .enumerate()
            .filter(|&(i, _)| red.is_residual(i))
            .map(|(_, &(loc, cell))| (loc, cell.clone()))
            .collect();
        Some(Reduction {
            residual,
            inst: red.inst,
            covered: red.covered,
        })
    }

    /// Checks `f` against the model whose stack is `stack` and whose heap
    /// is `cells`, which must be in address order (as [`Heap::iter`]
    /// yields them). The residual comes back as a bitset over `cells`, so
    /// a caller that carves sub-heaps out of a larger heap never builds
    /// one.
    ///
    /// [`CheckCtx::check_prepared`] for one query: both parts of the
    /// cache key are written for it alone.
    pub fn check_cells(
        &self,
        stack: &Stack,
        cells: &[(Loc, &HeapCell)],
        f: &SymHeap,
    ) -> Option<CellReduction> {
        self.check_prepared(
            stack,
            cells,
            &PreparedFormula::new(f),
            &mut ModelParts::default(),
        )
    }

    /// Checks a prepared formula against the model whose stack is `stack`
    /// and whose heap is `cells`, as [`CheckCtx::check_cells`] does. A
    /// prepared formula writes its part of the cache key on its first
    /// cached check and reuses it on every later one. `parts` keeps the
    /// model parts written on this heap: pass the same one with every
    /// check on the same `(stack, cells)` pair, so each formula whose
    /// free variables the heap has been keyed under before reuses that
    /// part.
    ///
    /// This is the entry point every check goes through: the search runs
    /// on the borrowed slice, and the cache keys the query and rehydrates
    /// a stored verdict from it.
    pub fn check_prepared(
        &self,
        stack: &Stack,
        cells: &[(Loc, &HeapCell)],
        f: &PreparedFormula<'_>,
        parts: &mut ModelParts,
    ) -> Option<CellReduction> {
        debug_assert!(
            cells.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "cells must be in address order"
        );
        let Some(cache) = self.cache else {
            return Search::run(*self, stack, cells, f.formula);
        };
        let formula = f.key.get_or_init(|| FormulaKey::new(f.formula));
        let model = parts.get(stack, cells, &formula.free);
        // The key must cover everything the verdict depends on: the
        // environments (tag) and the search limits (a budget-truncated
        // "no" must not answer a full-budget query).
        let scope = QueryScope {
            env_tag: self.env_tag,
            node_budget: self.config.node_budget,
            fuel_slack: self.config.fuel_slack,
        };
        let key = CacheKey::new(scope, &formula.part, &model.part);
        let binders = &f.formula.exists;
        if let Some(entry) = cache.lookup(&key) {
            return entry.map(|cached| model.decode(binders, cells, &cached));
        }
        let result = Search::run(*self, stack, cells, f.formula);
        match &result {
            Some(r) => {
                // `encode` only declines when a value escapes the
                // canonical frame; in that case skip storing rather than
                // memoize something untranslatable.
                if let Some(encoded) = model.encode(binders, cells, r) {
                    cache.store(key, Some(encoded));
                }
            }
            None => cache.store(key, None),
        }
        result
    }

    /// True if `f` models the heap *exactly* (empty residue).
    pub fn holds_exact(&self, model: &StackHeapModel, f: &SymHeap) -> bool {
        self.check(model, f)
            .map(|r| r.residual.is_empty())
            .unwrap_or(false)
    }
}

/// A search-local variable: an index into [`Search::vals`].
type Var = u32;

/// The relation of a pure atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rel {
    Eq,
    Neq,
    Lt,
    Le,
}

impl Rel {
    fn of(atom: &PureAtom) -> Rel {
        match atom {
            PureAtom::Eq(..) => Rel::Eq,
            PureAtom::Neq(..) => Rel::Neq,
            PureAtom::Lt(..) => Rel::Lt,
            PureAtom::Le(..) => Rel::Le,
        }
    }

    fn holds(self, a: Val, b: Val) -> bool {
        match self {
            Rel::Eq => a == b,
            Rel::Neq => a != b,
            Rel::Lt => matches!((a, b), (Val::Int(x), Val::Int(y)) if x < y),
            Rel::Le => matches!((a, b), (Val::Int(x), Val::Int(y)) if x <= y),
        }
    }
}

/// An expression over search variables.
#[derive(Debug, Clone, Copy)]
enum Term {
    Nil,
    Int(i64),
    Var(Var),
    /// Arithmetic: an index into [`Search::ops`].
    Op(u32),
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Neg(Term),
    Add(Term, Term),
    Sub(Term, Term),
    Mul(i64, Term),
}

/// An expression of a compiled case, filled in at every unfolding.
#[derive(Debug)]
enum Tmpl {
    Nil,
    Int(i64),
    /// The unfolded atom's `i`-th argument.
    Param(u32),
    /// The case's `k`-th binder: a fresh variable per unfolding.
    Binder(u32),
    /// A variable of the formula, or another free name of the case.
    Var(Var),
    Neg(Box<Tmpl>),
    Add(Box<Tmpl>, Box<Tmpl>),
    Sub(Box<Tmpl>, Box<Tmpl>),
    Mul(i64, Box<Tmpl>),
}

#[derive(Debug)]
enum AtomTmpl {
    PointsTo {
        shape: u32,
        root: Tmpl,
        values: Vec<Tmpl>,
    },
    Pred {
        pred: u32,
        args: Vec<Tmpl>,
    },
}

/// A predicate case (or the checked formula itself) compiled once per
/// search.
#[derive(Debug)]
struct Case {
    binders: u32,
    spatial: Vec<AtomTmpl>,
    pure: Vec<(Rel, Tmpl, Tmpl)>,
}

/// The type of a points-to atom and the cell position of each of its
/// fields, in atom order. `fields` is `None` when the type or a field is
/// undefined: the atom then matches no cell.
#[derive(Debug)]
struct Shape {
    ty: Symbol,
    fields: Option<Box<[usize]>>,
}

#[derive(Debug)]
struct PredSlot<'a> {
    name: Symbol,
    def: Option<&'a PredDef>,
    /// Compiled on the first unfolding, stable-sorted by descending
    /// spatial size: cases with more spatial atoms are tried first, so the
    /// first solutions found have large coverage.
    cases: Option<Rc<[Case]>>,
}

/// A pending spatial goal; its expressions are in [`Search::terms`].
#[derive(Debug, Clone, Copy)]
enum Goal {
    /// `terms[at]` is the root, `terms[at + 1..]` the values of the
    /// shape's fields.
    PointsTo { shape: u32, at: u32 },
    /// `terms[at..at + arity]` are the arguments.
    Pred { pred: u32, at: u32, arity: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Pure {
    rel: Rel,
    a: Term,
    b: Term,
    discharged: bool,
}

/// Result of evaluating a term under the current bindings.
enum Evaled {
    Known(Val),
    /// The term is a single variable that is currently unbound (and
    /// therefore bindable).
    Free(Var),
    /// Contains unbound variables under arithmetic — not bindable.
    Stuck,
}

/// The best carving so far: the cells it leaves uncovered and the
/// bindings of the formula's variables.
struct Best {
    avail: Vec<u64>,
    remaining: usize,
    vals: Vec<Option<Val>>,
}

/// One depth-first search over one model, mutated in place: every step
/// down records what it changes and every step back rewinds it.
struct Search<'a> {
    ctx: CheckCtx<'a>,
    stack: &'a Stack,
    /// The heap in address order; bit `i` of `avail` stands for `cells[i]`.
    cells: &'a [(Loc, &'a HeapCell)],
    avail: Vec<u64>,
    avail_count: usize,
    /// The variables that have a name: the formula's, whose ids are
    /// `0..reported.len()`, then free names met in predicate cases.
    names: Vec<(Symbol, Var)>,
    /// Per formula variable: whether ι reports it (an existential, or a
    /// free variable the stack does not bind).
    reported: Vec<bool>,
    preds: Vec<PredSlot<'a>>,
    shapes: Vec<Shape>,
    vals: Vec<Option<Val>>,
    /// `vals` never shrinks below this: the slots of named variables.
    /// Binder slots above it are truncated on backtrack.
    pinned: usize,
    /// Undo log of bindings.
    bound: Vec<Var>,
    /// The goal list, in the order goal selection scans it.
    pending: Vec<Goal>,
    /// How many of `pending` are points-to goals; each needs an available
    /// cell of its own.
    pending_points_to: usize,
    terms: Vec<Term>,
    ops: Vec<Op>,
    pure: Vec<Pure>,
    /// Undo log of pure atoms discharged.
    discharged: Vec<u32>,
    fuel: u32,
    nodes: u64,
    best: Option<Best>,
    done: bool,
}

impl<'a> Search<'a> {
    fn run(
        ctx: CheckCtx<'a>,
        stack: &'a Stack,
        cells: &'a [(Loc, &'a HeapCell)],
        f: &SymHeap,
    ) -> Option<CellReduction> {
        let mut avail = vec![0u64; cells.len().div_ceil(64)];
        for i in 0..cells.len() {
            avail[i / 64] |= 1 << (i % 64);
        }
        let mut search = Search {
            ctx,
            stack,
            avail,
            avail_count: cells.len(),
            cells,
            names: Vec::new(),
            reported: Vec::new(),
            preds: Vec::new(),
            shapes: Vec::new(),
            vals: Vec::new(),
            pinned: 0,
            bound: Vec::new(),
            pending: Vec::new(),
            pending_points_to: 0,
            terms: Vec::new(),
            ops: Vec::new(),
            pure: Vec::new(),
            discharged: Vec::new(),
            fuel: u32::try_from(2 * cells.len())
                .unwrap_or(u32::MAX)
                .saturating_add(ctx.config.fuel_slack),
            nodes: 0,
            best: None,
            done: false,
        };
        // Free variables of the formula that are not on the stack behave
        // like existentials: they can be bound by matching. This lets
        // callers check open formulae. An existential shadows a stack
        // variable of the same name. The variables are numbered in order
        // of first occurrence, binders first, and told apart by id.
        for v in f.var_occurrences() {
            if search.names.iter().any(|(name, _)| *name == v) {
                continue;
            }
            let reported = f.exists.contains(&v) || stack.get(v).is_none();
            search.names.push((v, search.vals.len() as Var));
            search.reported.push(reported);
            search.vals.push(if reported { None } else { stack.get(v) });
        }
        search.pinned = search.vals.len();
        let root = search.compile(f, &[], &[]);
        search.push_case(&root, 0);

        search.explore();
        let best = search.best.take()?;
        let inst = (0..search.reported.len())
            .filter(|&i| search.reported[i])
            .filter_map(|i| Some((search.names[i].0, best.vals[i]?)))
            .collect();
        Some(CellReduction {
            covered: cells.len() - best.remaining,
            residual: best.avail,
            inst,
        })
    }

    /// Depth-first exploration. Updates `self.best`; sets `self.done` when
    /// a full-coverage solution has been found (no better exists).
    fn explore(&mut self) {
        // More points-to goals than cells: no leaf below (module doc).
        if self.done || self.pending_points_to > self.avail_count {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.ctx.config.node_budget {
            self.done = true; // out of budget: keep whatever we have
            return;
        }
        let mark = (self.bound.len(), self.discharged.len());
        // Eagerly discharge pure atoms that are already decidable; this
        // prunes doomed branches (e.g. a base case chosen mid-chain) long
        // before the leaf.
        if self.propagate() {
            if self.pending.is_empty() {
                self.leaf();
            } else {
                let idx = self.pick_goal();
                let goal = self.pending.swap_remove(idx);
                match goal {
                    Goal::PointsTo { shape, at } => {
                        self.pending_points_to -= 1;
                        self.expand_points_to(shape, at);
                        self.pending_points_to += 1;
                    }
                    Goal::Pred { pred, at, arity } => self.unfold(pred, at, arity),
                }
                self.pending.push(goal);
                let last = self.pending.len() - 1;
                self.pending.swap(idx, last);
            }
        }
        self.unbind(mark.0);
        for i in self.discharged.drain(mark.1..) {
            self.pure[i as usize].discharged = false;
        }
    }

    /// All spatial goals matched: keeps the carving if it beats the best
    /// one and its pure part is satisfiable.
    fn leaf(&mut self) {
        let remaining = self.avail_count;
        if self.best.as_ref().is_some_and(|b| remaining >= b.remaining) || !self.solve_pure() {
            return;
        }
        self.best = Some(Best {
            avail: self.avail.clone(),
            remaining,
            vals: self.vals[..self.reported.len()].to_vec(),
        });
        if remaining == 0 {
            self.done = true;
        }
    }

    fn expand_points_to(&mut self, shape: u32, at: u32) {
        let Shape {
            ty,
            fields: Some(_),
        } = self.shapes[shape as usize]
        else {
            return;
        };
        match self.eval(self.terms[at as usize]) {
            Evaled::Known(Val::Addr(loc)) => {
                if let Ok(i) = self.cells.binary_search_by_key(&loc, |&(l, _)| l) {
                    self.match_cell(i, shape, at);
                }
            }
            Evaled::Known(_) => {} // nil or int root: unsatisfiable
            Evaled::Free(v) => {
                // Enumerate candidate cells of the right type.
                for i in 0..self.cells.len() {
                    if !bit(&self.avail, i) || self.cells[i].1.ty != ty {
                        continue;
                    }
                    let mark = self.bound.len();
                    self.bind(v, Val::Addr(self.cells[i].0));
                    self.match_cell(i, shape, at);
                    self.unbind(mark);
                    if self.done {
                        return;
                    }
                }
            }
            Evaled::Stuck => {}
        }
    }

    /// Matches one points-to goal against the cell `cells[i]`.
    fn match_cell(&mut self, i: usize, shape: u32, at: u32) {
        let mark = self.bound.len();
        if self.bind_fields(i, shape, at) {
            self.avail[i / 64] ^= 1 << (i % 64);
            self.avail_count -= 1;
            self.explore();
            self.avail[i / 64] ^= 1 << (i % 64);
            self.avail_count += 1;
        }
        self.unbind(mark);
    }

    /// True if `cells[i]` is available, of the goal's type, and holds the
    /// goal's field values, binding the unbound ones on the way.
    fn bind_fields(&mut self, i: usize, shape: u32, at: u32) -> bool {
        let cell = self.cells[i].1;
        let Shape {
            ty,
            fields: Some(ref fields),
        } = self.shapes[shape as usize]
        else {
            return false;
        };
        if !bit(&self.avail, i) || cell.ty != ty {
            return false;
        }
        for (k, &pos) in fields.iter().enumerate() {
            let Some(&actual) = cell.fields.get(pos) else {
                return false;
            };
            match self.eval(self.terms[at as usize + 1 + k]) {
                Evaled::Known(v) if v == actual => {}
                Evaled::Free(v) => {
                    self.vals[v as usize] = Some(actual);
                    self.bound.push(v);
                }
                _ => return false,
            }
        }
        true
    }

    fn unfold(&mut self, pred: u32, at: u32, arity: u32) {
        if self.fuel == 0 {
            return;
        }
        let Some(cases) = self.cases(pred, arity) else {
            return;
        };
        let marks = (
            self.pending.len(),
            self.terms.len(),
            self.ops.len(),
            self.pure.len(),
            self.vals.len(),
            self.pending_points_to,
        );
        for case in cases.iter() {
            self.fuel -= 1;
            self.push_case(case, at);
            self.explore();
            self.fuel += 1;
            self.pending.truncate(marks.0);
            self.pending_points_to = marks.5;
            self.terms.truncate(marks.1);
            self.ops.truncate(marks.2);
            self.pure.truncate(marks.3);
            self.vals.truncate(marks.4.max(self.pinned));
            if self.done {
                return;
            }
        }
    }

    /// Chooses the index of the next goal to attack: a points-to with a
    /// known root, then a predicate with any known argument, then the
    /// first goal.
    ///
    /// The first goal may be a predicate whose arguments are all
    /// unbound. Unfolding it pushes more unbound goals, but each
    /// points-to among them needs a cell of its own, so the dead-branch
    /// cut (module doc) ends such a chain once they outnumber the free
    /// cells, and the verdict does not depend on the order of the atoms.
    fn pick_goal(&self) -> usize {
        let known = |t: &Term| matches!(self.eval(*t), Evaled::Known(_));
        let points_to = self.pending.iter().position(|g| match *g {
            Goal::PointsTo { at, .. } => known(&self.terms[at as usize]),
            Goal::Pred { .. } => false,
        });
        let pred = || {
            self.pending.iter().position(|g| match *g {
                Goal::Pred { at, arity, .. } => self.terms[at as usize..(at + arity) as usize]
                    .iter()
                    .any(known),
                Goal::PointsTo { .. } => false,
            })
        };
        points_to.or_else(pred).unwrap_or(0)
    }

    /// Eager propagation used mid-search: binds variables via decidable
    /// equalities, discharges satisfied atoms, and reports contradictions.
    /// Atoms that are not yet decidable are kept for the leaf check.
    fn propagate(&mut self) -> bool {
        loop {
            let mut progress = false;
            for i in 0..self.pure.len() {
                let Pure {
                    rel,
                    a,
                    b,
                    discharged,
                } = self.pure[i];
                if discharged {
                    continue;
                }
                match (self.eval(a), self.eval(b)) {
                    (Evaled::Known(va), Evaled::Known(vb)) => {
                        if !rel.holds(va, vb) {
                            return false;
                        }
                    }
                    (Evaled::Known(va), Evaled::Free(vb)) if rel == Rel::Eq => self.bind(vb, va),
                    (Evaled::Free(va), Evaled::Known(vb)) if rel == Rel::Eq => self.bind(va, vb),
                    _ => continue,
                }
                self.pure[i].discharged = true;
                self.discharged.push(i as u32);
                progress = true;
            }
            if !progress {
                return true;
            }
        }
    }

    /// Final evaluation of the pure atoms left at a leaf. Propagation has
    /// reached its fixpoint there, so no atom is decidable or an equality
    /// with one known side. Constraints over still-unbound variables are
    /// checked for satisfiability: interval feasibility for
    /// variable-vs-constant bounds, plus strict-cycle detection for
    /// variable-vs-variable order constraints. (Mixed chains such as
    /// `a <= b & b <= 3 & 5 <= a` are accepted optimistically — full
    /// difference-constraint solving is not needed by any predicate in
    /// the benchmark suite.)
    fn solve_pure(&self) -> bool {
        let mut classes = Classes::default();
        let mut bounds: Vec<(Var, Option<i64>, Option<i64>)> = Vec::new();
        let mut excluded: Vec<(Var, Val)> = Vec::new();
        let mut distinct: Vec<(Var, Var)> = Vec::new();
        // (from, to, strict): `from < to` or `from <= to`.
        let mut order_edges: Vec<(Var, Var, bool)> = Vec::new();
        for p in self.pure.iter().filter(|p| !p.discharged) {
            match (self.eval(p.a), self.eval(p.b)) {
                (Evaled::Known(va), Evaled::Known(vb)) => {
                    if !p.rel.holds(va, vb) {
                        return false;
                    }
                }
                (Evaled::Free(va), Evaled::Free(vb)) => match p.rel {
                    // Vacuous equality between two unconstrained
                    // existentials: record the class and accept.
                    Rel::Eq => classes.union(va, vb),
                    Rel::Neq => distinct.push((va, vb)),
                    Rel::Lt => order_edges.push((va, vb, true)),
                    Rel::Le => order_edges.push((va, vb, false)),
                },
                (Evaled::Free(v), Evaled::Known(k)) => match (p.rel, k) {
                    (Rel::Eq, _) => unreachable!("handled by propagation"),
                    (Rel::Neq, _) => excluded.push((v, k)),
                    // `v < i64::MIN` has no integer solution.
                    (Rel::Lt, Val::Int(y)) => match y.checked_sub(1) {
                        Some(hi) => tighten(&mut bounds, v, None, Some(hi)),
                        None => return false,
                    },
                    (Rel::Le, Val::Int(y)) => tighten(&mut bounds, v, None, Some(y)),
                    _ => return false,
                },
                (Evaled::Known(k), Evaled::Free(v)) => match (p.rel, k) {
                    (Rel::Eq, _) => unreachable!("handled by propagation"),
                    (Rel::Neq, _) => excluded.push((v, k)),
                    // `i64::MAX < v` has no integer solution.
                    (Rel::Lt, Val::Int(x)) => match x.checked_add(1) {
                        Some(lo) => tighten(&mut bounds, v, Some(lo), None),
                        None => return false,
                    },
                    (Rel::Le, Val::Int(x)) => tighten(&mut bounds, v, Some(x), None),
                    _ => return false,
                },
                // One side stuck (unbound variables under arithmetic):
                // conservatively reject this carving.
                _ => return false,
            }
        }
        // Interval feasibility.
        for &(v, lo, hi) in &bounds {
            if let (Some(lo), Some(hi)) = (lo, hi) {
                if lo > hi || (lo == hi && excluded.contains(&(v, Val::Int(lo)))) {
                    return false;
                }
            }
        }
        // Disequalities are tested against the final classes: an equality
        // later in the list may still merge their sides.
        if distinct
            .iter()
            .any(|&(a, b)| classes.find(a) == classes.find(b))
        {
            return false;
        }
        // Strict cycles among unbound variables (e.g. a < b & b < a).
        !has_strict_cycle(&classes, &order_edges)
    }

    fn eval(&self, t: Term) -> Evaled {
        match t {
            Term::Nil => Evaled::Known(Val::Nil),
            Term::Int(k) => Evaled::Known(Val::Int(k)),
            Term::Var(v) => match self.vals[v as usize] {
                Some(val) => Evaled::Known(val),
                None => Evaled::Free(v),
            },
            Term::Op(i) => match self.ops[i as usize] {
                Op::Neg(a) => match self.eval(a) {
                    Evaled::Known(Val::Int(k)) => int(k.checked_neg()),
                    _ => Evaled::Stuck,
                },
                Op::Add(a, b) => self.eval_arith(a, b, i64::checked_add),
                Op::Sub(a, b) => self.eval_arith(a, b, i64::checked_sub),
                Op::Mul(k, a) => match self.eval(a) {
                    Evaled::Known(Val::Int(v)) => int(k.checked_mul(v)),
                    _ => Evaled::Stuck,
                },
            },
        }
    }

    fn eval_arith(&self, a: Term, b: Term, op: fn(i64, i64) -> Option<i64>) -> Evaled {
        match (self.eval(a), self.eval(b)) {
            (Evaled::Known(Val::Int(x)), Evaled::Known(Val::Int(y))) => int(op(x, y)),
            _ => Evaled::Stuck,
        }
    }

    fn bind(&mut self, v: Var, val: Val) {
        self.vals[v as usize] = Some(val);
        self.bound.push(v);
    }

    /// Rewinds the bindings made since the undo log had length `mark`.
    fn unbind(&mut self, mark: usize) {
        for v in self.bound.drain(mark..) {
            self.vals[v as usize] = None;
        }
    }

    /// The compiled cases of `preds[pred]`, or `None` if it is undefined
    /// or applied at the wrong arity.
    fn cases(&mut self, pred: u32, arity: u32) -> Option<Rc<[Case]>> {
        let slot = &self.preds[pred as usize];
        let def = slot.def.filter(|d| d.arity() == arity as usize)?;
        if let Some(cases) = &slot.cases {
            return Some(Rc::clone(cases));
        }
        let mut cases: Vec<Case> = def
            .cases
            .iter()
            .map(|c| {
                let mut binders: Vec<Symbol> = Vec::with_capacity(c.exists.len());
                for &b in &c.exists {
                    if !binders.contains(&b) {
                        binders.push(b);
                    }
                }
                self.compile(c, &def.params, &binders)
            })
            .collect();
        cases.sort_by_key(|c| std::cmp::Reverse(c.spatial.len()));
        let cases: Rc<[Case]> = cases.into();
        self.preds[pred as usize].cases = Some(Rc::clone(&cases));
        Some(cases)
    }

    /// Compiles a symbolic heap whose names resolve to `binders` first,
    /// then to `params` (the last of equal names), then to the named
    /// variables of the search.
    fn compile(&mut self, h: &SymHeap, params: &[PredParam], binders: &[Symbol]) -> Case {
        let scope = Scope { params, binders };
        let spatial =
            h.spatial
                .iter()
                .map(|atom| match atom {
                    SpatialAtom::PointsTo { root, ty, fields } => {
                        let positions = self.ctx.types.get(*ty).and_then(|def| {
                            fields.iter().map(|fa| def.field_index(fa.name)).collect()
                        });
                        self.shapes.push(Shape {
                            ty: *ty,
                            fields: positions,
                        });
                        AtomTmpl::PointsTo {
                            shape: (self.shapes.len() - 1) as u32,
                            root: self.template(root, &scope),
                            values: fields
                                .iter()
                                .map(|fa| self.template(&fa.value, &scope))
                                .collect(),
                        }
                    }
                    SpatialAtom::Pred { name, args } => AtomTmpl::Pred {
                        pred: self.pred_id(*name),
                        args: args.iter().map(|a| self.template(a, &scope)).collect(),
                    },
                })
                .collect();
        let pure = h
            .pure
            .iter()
            .map(|atom| {
                let (a, b) = atom.operands();
                (
                    Rel::of(atom),
                    self.template(a, &scope),
                    self.template(b, &scope),
                )
            })
            .collect();
        Case {
            binders: binders.len() as u32,
            spatial,
            pure,
        }
    }

    fn template(&mut self, e: &Expr, scope: &Scope) -> Tmpl {
        let mut sub = |e: &Expr| Box::new(self.template(e, scope));
        match e {
            Expr::Nil => Tmpl::Nil,
            Expr::Int(k) => Tmpl::Int(*k),
            Expr::Var(v) => {
                if let Some(k) = scope.binders.iter().position(|b| b == v) {
                    Tmpl::Binder(k as u32)
                } else if let Some(i) = scope.params.iter().rposition(|p| p.name == *v) {
                    Tmpl::Param(i as u32)
                } else {
                    Tmpl::Var(self.named(*v))
                }
            }
            Expr::Neg(a) => Tmpl::Neg(sub(a)),
            Expr::Add(a, b) => Tmpl::Add(sub(a), sub(b)),
            Expr::Sub(a, b) => Tmpl::Sub(sub(a), sub(b)),
            Expr::Mul(k, a) => Tmpl::Mul(*k, sub(a)),
        }
    }

    /// The variable named `v`. A free name of a predicate case that the
    /// formula does not mention is never reported, and the stack binds it
    /// if it can; its slot is pinned so that backtracking keeps it.
    fn named(&mut self, v: Symbol) -> Var {
        if let Some(&(_, var)) = self.names.iter().find(|(name, _)| *name == v) {
            return var;
        }
        let var = self.vals.len() as Var;
        self.vals.push(self.stack.get(v));
        self.pinned = self.vals.len();
        self.names.push((v, var));
        var
    }

    fn pred_id(&mut self, name: Symbol) -> u32 {
        if let Some(i) = self.preds.iter().position(|p| p.name == name) {
            return i as u32;
        }
        self.preds.push(PredSlot {
            name,
            def: self.ctx.preds.get(name),
            cases: None,
        });
        (self.preds.len() - 1) as u32
    }

    /// Adds a case's goals and pure atoms, with its parameters filled in
    /// from `terms[args..]` and its binders given fresh variables.
    fn push_case(&mut self, case: &Case, args: u32) {
        let base = self.vals.len() as Var;
        self.vals
            .resize(self.vals.len() + case.binders as usize, None);
        for atom in &case.spatial {
            let at = self.terms.len() as u32;
            let (goal, exprs) = match atom {
                AtomTmpl::PointsTo {
                    shape,
                    root,
                    values,
                } => {
                    let root = self.instantiate(root, args, base);
                    self.terms.push(root);
                    self.pending_points_to += 1;
                    (Goal::PointsTo { shape: *shape, at }, values)
                }
                AtomTmpl::Pred { pred, args: exprs } => (
                    Goal::Pred {
                        pred: *pred,
                        at,
                        arity: exprs.len() as u32,
                    },
                    exprs,
                ),
            };
            for e in exprs {
                let t = self.instantiate(e, args, base);
                self.terms.push(t);
            }
            self.pending.push(goal);
        }
        for (rel, a, b) in &case.pure {
            let (a, b) = (
                self.instantiate(a, args, base),
                self.instantiate(b, args, base),
            );
            self.pure.push(Pure {
                rel: *rel,
                a,
                b,
                discharged: false,
            });
        }
    }

    fn instantiate(&mut self, e: &Tmpl, args: u32, base: Var) -> Term {
        let op = match e {
            Tmpl::Nil => return Term::Nil,
            Tmpl::Int(k) => return Term::Int(*k),
            Tmpl::Param(i) => return self.terms[(args + i) as usize],
            Tmpl::Binder(k) => return Term::Var(base + k),
            Tmpl::Var(v) => return Term::Var(*v),
            Tmpl::Neg(a) => Op::Neg(self.instantiate(a, args, base)),
            Tmpl::Add(a, b) => Op::Add(
                self.instantiate(a, args, base),
                self.instantiate(b, args, base),
            ),
            Tmpl::Sub(a, b) => Op::Sub(
                self.instantiate(a, args, base),
                self.instantiate(b, args, base),
            ),
            Tmpl::Mul(k, a) => Op::Mul(*k, self.instantiate(a, args, base)),
        };
        self.ops.push(op);
        Term::Op((self.ops.len() - 1) as u32)
    }
}

/// Name resolution while compiling a case.
struct Scope<'s> {
    params: &'s [PredParam],
    binders: &'s [Symbol],
}

/// An integer result; an overflow leaves the expression stuck.
fn int(r: Option<i64>) -> Evaled {
    r.map_or(Evaled::Stuck, |r| Evaled::Known(Val::Int(r)))
}

fn bit(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 == 1
}

/// Union-find over the unbound variables that a leaf's equalities relate.
#[derive(Default)]
struct Classes {
    parent: Vec<(Var, Var)>,
}

impl Classes {
    fn find(&self, mut v: Var) -> Var {
        while let Some(&(_, p)) = self.parent.iter().find(|&&(c, _)| c == v) {
            v = p;
        }
        v
    }

    fn union(&mut self, a: Var, b: Var) {
        let (a, b) = (self.find(a), self.find(b));
        if a != b {
            self.parent.push((a, b));
        }
    }
}

/// Narrows the `[lo, hi]` interval recorded for `v`.
fn tighten(
    bounds: &mut Vec<(Var, Option<i64>, Option<i64>)>,
    v: Var,
    lo: Option<i64>,
    hi: Option<i64>,
) {
    let i = match bounds.iter().position(|b| b.0 == v) {
        Some(i) => i,
        None => {
            bounds.push((v, None, None));
            bounds.len() - 1
        }
    };
    let entry = &mut bounds[i];
    if let Some(lo) = lo {
        entry.1 = Some(entry.1.map_or(lo, |old| old.max(lo)));
    }
    if let Some(hi) = hi {
        entry.2 = Some(entry.2.map_or(hi, |old| old.min(hi)));
    }
}

/// Detects a cycle containing at least one strict edge in the order graph
/// over unbound-variable classes.
fn has_strict_cycle(classes: &Classes, edges: &[(Var, Var, bool)]) -> bool {
    let mut adj: BTreeMap<Var, Vec<(Var, bool)>> = BTreeMap::new();
    for &(a, b, strict) in edges {
        let (a, b) = (classes.find(a), classes.find(b));
        if a == b {
            if strict {
                return true;
            }
            continue;
        }
        adj.entry(a).or_default().push((b, strict));
    }
    // DFS from each node tracking whether the path used a strict edge.
    for &start in adj.keys() {
        let mut stack = vec![(start, false)];
        let mut seen: BTreeSet<(Var, bool)> = BTreeSet::new();
        while let Some((n, strict_so_far)) = stack.pop() {
            for &(m, strict) in adj.get(&n).into_iter().flatten() {
                let s = strict_so_far || strict;
                if m == start && s {
                    return true;
                }
                if seen.insert((m, s)) {
                    stack.push((m, s));
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sling_logic::{parse_formula, parse_predicates, FieldDef, FieldTy, StructDef};
    use sling_models::Stack;

    use crate::{ModelParts, PreparedFormula};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// `RNode { next, val }` and the list segment over it.
    fn list_envs() -> (TypeEnv, PredEnv) {
        let node = sym("RNode");
        let mut types = TypeEnv::new();
        types
            .define(StructDef {
                name: node,
                fields: vec![
                    FieldDef {
                        name: sym("next"),
                        ty: FieldTy::Ptr(node),
                    },
                    FieldDef {
                        name: sym("val"),
                        ty: FieldTy::Int,
                    },
                ],
            })
            .unwrap();
        let mut preds = PredEnv::new();
        for d in parse_predicates(
            "pred rseg(x: RNode*, y: RNode*) := emp & x == y
               | exists u, d. x -> RNode{next: u, val: d} * rseg(u, y);",
        )
        .unwrap()
        {
            preds.define(d).unwrap();
        }
        (types, preds)
    }

    /// A random model over `RNode` cells at addresses `1..=10`, mostly
    /// chained to the next address; some pointers dangle past the heap.
    fn random_list_model(rng: &mut StdRng) -> StackHeapModel {
        let ptr = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 => Val::Nil,
            _ => Val::Addr(Loc::new(rng.gen_range(1..=12u64))),
        };
        let mut heap = Heap::new();
        for raw in 1..=10u64 {
            if rng.gen_bool(0.7) {
                let next = if rng.gen_bool(0.7) {
                    Val::Addr(Loc::new(raw + 1))
                } else {
                    ptr(rng)
                };
                let val = Val::Int(rng.gen_range(0..3i64));
                heap.insert(Loc::new(raw), HeapCell::new(sym("RNode"), vec![next, val]));
            }
        }
        let mut stack = Stack::new();
        stack.bind(sym("x"), ptr(rng));
        stack.bind(sym("y"), ptr(rng));
        StackHeapModel::new(stack, heap)
    }

    /// The residual cells of a slice reduction, as a heap.
    fn residual_heap(cells: &[(Loc, &HeapCell)], red: &CellReduction) -> Heap {
        cells
            .iter()
            .enumerate()
            .filter(|&(i, _)| red.is_residual(i))
            .map(|(_, &(l, c))| (l, c.clone()))
            .collect()
    }

    #[test]
    fn slice_checks_equal_checks_of_the_materialized_heap() {
        // `check_cells` on some cells of a heap must answer exactly as
        // `check` on a model whose heap holds just those cells: same
        // residual cells, instantiation and coverage. Cached, the slice
        // and the heap share one key, so each answers the other's query
        // from the cache.
        let (types, preds) = list_envs();
        let formulas: Vec<SymHeap> = [
            "rseg(x, y)",
            "exists e. rseg(x, e)",
            "exists e, f. rseg(x, e) * rseg(y, f)",
            "exists u, d. x -> RNode{next: u, val: d} * rseg(u, nil)",
        ]
        .iter()
        .map(|f| parse_formula(f).unwrap())
        .collect();
        let plain = CheckCtx::new(&types, &preds);
        let cache = CheckCache::new();
        let cached = CheckCtx::with_cache(&types, &preds, CheckConfig::default(), &cache);
        let mut rng = StdRng::seed_from_u64(0xce11);
        let mut holds = 0;
        for round in 0..200 {
            let model = random_list_model(&mut rng);
            let cells: Vec<(Loc, &HeapCell)> = model.heap.iter().collect();
            let subset: Vec<(Loc, &HeapCell)> = cells
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.6))
                .collect();
            let heap: Heap = subset.iter().map(|&(l, c)| (l, c.clone())).collect();
            let materialized = StackHeapModel::new(model.stack.clone(), heap);
            for f in &formulas {
                let expect = plain.check(&materialized, f);
                let as_heap = |red: Option<CellReduction>| {
                    red.map(|r| Reduction {
                        residual: residual_heap(&subset, &r),
                        covered: r.covered,
                        inst: r.inst,
                    })
                };
                let what = format!("round {round}: {f} on {materialized}");
                assert_eq!(
                    as_heap(plain.check_cells(&model.stack, &subset, f)),
                    expect,
                    "uncached, {what}"
                );
                // Miss, then two hits: one decoded onto the heap, one onto
                // the slice.
                let miss = cached.check_cells(&model.stack, &subset, f);
                assert_eq!(as_heap(miss), expect, "cached miss, {what}");
                assert_eq!(cached.check(&materialized, f), expect, "heap hit, {what}");
                let hit = cached.check_cells(&model.stack, &subset, f);
                assert_eq!(as_heap(hit), expect, "slice hit, {what}");
                holds += usize::from(expect.is_some());
            }
        }
        assert!(holds > 100, "too few satisfiable queries: {holds}");
        assert!(cache.stats().hits >= 400, "{}", cache.stats());
    }

    /// The text of every key `cache` holds under `ctx`'s environment,
    /// sorted.
    fn key_texts(cache: &CheckCache, ctx: &CheckCtx<'_>) -> Vec<String> {
        let mut texts = Vec::new();
        cache.for_each_entry(ctx.env_tag, |key, _| texts.push(key.text()));
        texts.sort_unstable();
        texts
    }

    #[test]
    fn prepared_checks_equal_check_cells() {
        // Several formulas checked on one heap through the prepared path,
        // the heap's model parts reused from query to query, must answer
        // and key exactly as a fresh `check_cells` per query. Three of
        // the formulas have the free variables {x, y}, one {x} and one
        // {y}, so a model part reused across lists changes the key.
        let (types, preds) = list_envs();
        let formulas: Vec<SymHeap> = [
            "rseg(x, y)",
            "exists e. rseg(x, e)",
            "exists u, d. x -> RNode{next: u, val: d} * rseg(u, y)",
            "exists e. rseg(y, e)",
            "exists e, f. rseg(x, e) * rseg(y, f)",
        ]
        .iter()
        .map(|f| parse_formula(f).unwrap())
        .collect();
        let plain = CheckCtx::new(&types, &preds);
        let (prepared_cache, fresh_cache) = (CheckCache::new(), CheckCache::new());
        let cached = CheckCtx::with_cache(&types, &preds, CheckConfig::default(), &prepared_cache);
        let fresh = CheckCtx::with_cache(&types, &preds, CheckConfig::default(), &fresh_cache);
        let prepared: Vec<PreparedFormula> = formulas.iter().map(PreparedFormula::new).collect();
        let mut rng = StdRng::seed_from_u64(0x9a27);
        for round in 0..150 {
            let model = random_list_model(&mut rng);
            let cells: Vec<(Loc, &HeapCell)> =
                model.heap.iter().filter(|_| rng.gen_bool(0.8)).collect();
            let mut parts = ModelParts::default();
            // The second pass asks again, so the cached paths hit.
            for pass in 0..2 {
                for (i, f) in formulas.iter().enumerate() {
                    let what = format!("round {round}, pass {pass}: {f}");
                    let expect = plain.check_cells(&model.stack, &cells, f);
                    let stack = &model.stack;
                    assert_eq!(
                        plain.check_prepared(stack, &cells, &prepared[i], &mut parts),
                        expect,
                        "uncached, {what}"
                    );
                    assert_eq!(fresh.check_cells(stack, &cells, f), expect, "fresh, {what}");
                    assert_eq!(
                        cached.check_prepared(stack, &cells, &prepared[i], &mut parts),
                        expect,
                        "prepared, {what}"
                    );
                    assert_eq!(prepared_cache.stats(), fresh_cache.stats(), "{what}");
                }
            }
            assert_eq!(
                key_texts(&prepared_cache, &cached),
                key_texts(&fresh_cache, &fresh),
                "round {round}"
            );
        }
        let stats = prepared_cache.stats();
        assert!(stats.hits >= 750 && stats.misses >= 300, "{stats}");
    }

    /// Checks the pure formula `f` on an empty heap whose stack binds
    /// `k` to the integer `k`.
    fn check_with_k(k: i64, f: &str) -> Option<Reduction> {
        let (types, preds) = (TypeEnv::new(), PredEnv::new());
        let mut stack = Stack::new();
        stack.bind(Symbol::intern("k"), Val::Int(k));
        let model = StackHeapModel::new(stack, Heap::new());
        CheckCtx::new(&types, &preds).check(&model, &parse_formula(f).expect("formula parses"))
    }

    #[test]
    fn negating_i64_min_has_no_solution() {
        assert!(check_with_k(i64::MIN, "exists u. emp & u == -k").is_none());
        // Negation in range still binds the existential.
        let red = check_with_k(i64::MAX, "exists u. emp & u == -k").expect("-k fits");
        assert_eq!(red.inst.get(Symbol::intern("u")), Some(Val::Int(-i64::MAX)));
    }

    #[test]
    fn nothing_is_below_i64_min() {
        assert!(check_with_k(i64::MIN, "exists u. emp & u < k").is_none());
        assert!(check_with_k(i64::MIN, "exists u. emp & u <= k").is_some());
    }

    #[test]
    fn disequality_sees_later_equalities() {
        for f in [
            "exists a, b. emp & a != b & a == b",
            "exists a, b, c. emp & a != c & a == b & b == c",
            "exists a, b. emp & a == b & a != b",
        ] {
            assert!(check_with_k(0, f).is_none(), "{f}");
        }
        assert!(check_with_k(0, "exists a, b. emp & a != b").is_some());
    }

    #[test]
    fn nothing_is_above_i64_max() {
        assert!(check_with_k(i64::MAX, "exists u. emp & k < u").is_none());
        assert!(check_with_k(i64::MAX, "exists u. emp & k <= u").is_some());
    }
}
